"""Compiled vs pure-Python term arithmetic must agree exactly.

The two backends (`_poly_speedups` / `_poly_fallback`) share one contract:
terms are dicts {exponent tuple: nonzero coefficient}, coefficients are
in normal form: in characteristic 0 an int when integral and a Fraction
with denominator > 1 otherwise, mod p the canonical residue in 1..p-1.
Hypothesis drives both implementations over the same inputs.  The
fallback alone is checked against a naive reference in test_kernel.py,
which runs without the compiled module.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulmf import _kernel
from koszulmf import _poly_fallback as fb

sp = pytest.importorskip(
    "koszulmf._poly_speedups",
    reason="compiled backend not built; fallback is the only implementation")

NVARS = 3

exps = st.tuples(*[st.integers(0, 6)] * NVARS)
# nonzero rationals in normal form: ints when integral
rational = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)).map(
        lambda c: c.numerator if c.denominator == 1 else c)
residue = st.integers(1, 4)


def terms(coeff):
    return st.dictionaries(exps, coeff, max_size=6)


def _check_normal(t, p):
    for k, v in t.items():
        assert v != 0
        if p:
            assert type(v) is int and 0 < v < p
        else:
            assert type(v) is int or (type(v) is Fraction
                                       and v.denominator > 1)


# ---------------------------------------------------------------------------
# parity over Q
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(terms(rational), terms(rational))
def test_add_parity_char0(a, b):
    got = sp.terms_add(a, b, 0)
    assert got == fb.terms_add(a, b, 0)
    _check_normal(got, 0)


@settings(max_examples=200)
@given(terms(rational))
def test_neg_parity_char0(a):
    assert sp.terms_neg(a, 0) == fb.terms_neg(a, 0)


@settings(max_examples=200)
@given(terms(rational), rational | st.just(0))
def test_scale_parity_char0(a, c):
    got = sp.terms_scale(a, c, 0)
    assert got == fb.terms_scale(a, c, 0)
    _check_normal(got, 0)


@settings(max_examples=200)
@given(terms(rational), terms(rational))
def test_mul_parity_char0(a, b):
    got = sp.terms_mul(a, b, 0)
    assert got == fb.terms_mul(a, b, 0)
    _check_normal(got, 0)


# ---------------------------------------------------------------------------
# parity over F_5
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(terms(residue), terms(residue))
def test_add_parity_char5(a, b):
    got = sp.terms_add(a, b, 5)
    assert got == fb.terms_add(a, b, 5)
    _check_normal(got, 5)


@settings(max_examples=200)
@given(terms(residue))
def test_neg_parity_char5(a):
    got = sp.terms_neg(a, 5)
    assert got == fb.terms_neg(a, 5)
    _check_normal(got, 5)


@settings(max_examples=200)
@given(terms(residue), st.integers(-10, 10))
def test_scale_parity_char5(a, c):
    got = sp.terms_scale(a, c, 5)
    assert got == fb.terms_scale(a, c, 5)
    _check_normal(got, 5)


@settings(max_examples=200)
@given(terms(residue), terms(residue))
def test_mul_parity_char5(a, b):
    got = sp.terms_mul(a, b, 5)
    assert got == fb.terms_mul(a, b, 5)
    _check_normal(got, 5)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

def test_kernel_prefers_compiled():
    if os.environ.get("KOSZULMF_PURE") == "1":
        assert _kernel.BACKEND == "fallback"
    else:
        assert _kernel.BACKEND == "compiled"


def test_pure_env_forces_fallback():
    env = dict(os.environ, KOSZULMF_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from koszulmf import _kernel; print(_kernel.BACKEND)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "fallback"
