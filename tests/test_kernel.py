"""The term functions of `koszulmf.ring` against a naive reference, and
their coefficient normal form.

Normal form: over Q every coefficient is an int (never a bool) when
integral and a Fraction with denominator > 1 otherwise; over F_p it is a
residue in 1..p-1.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from koszulmf import ring

NVARS = 3
P = 5

exps = st.tuples(*[st.integers(0, 3)] * NVARS)
# nonzero coefficients in normal form; halves and thirds make products and
# sums that come out integral as Fractions
integer = st.integers(-9, 9).filter(bool)
fraction = st.builds(Fraction, integer, st.integers(2, 3)).filter(
    lambda c: c.denominator > 1)
rational = integer | fraction
residue = st.integers(1, P - 1)


def terms(coeff, min_size=0, max_size=5):
    return st.dictionaries(exps, coeff, min_size=min_size, max_size=max_size)


def monomial(coeff):
    return terms(coeff, 1, 1)


def assert_normal(t, p):
    for k, c in t.items():
        assert type(k) is tuple and len(k) == NVARS
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert ((type(c) is int and c != 0)
                    or (type(c) is Fraction and c.denominator > 1))


def _reduced(sums, p):
    if p:
        sums = {k: int(c) % p for k, c in sums.items()}
    return {k: c for k, c in sums.items() if c}


def naive_mul(a, b, p):
    """Schoolbook product: sum every pairwise product as a Fraction, then
    reduce mod p and drop zeros."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + Fraction(va) * Fraction(vb)
    return _reduced(out, p)


def naive_add(a, b, p):
    out = {k: Fraction(c) for k, c in a.items()}
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return _reduced(out, p)


def check_mul(a, b, p):
    got = ring.terms_mul(a, b, p)
    assert got == naive_mul(a, b, p)
    assert_normal(got, p)
    return got


# ---------------------------------------------------------------------------
# products: the monomial branch and the general loop
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(monomial(rational), monomial(rational))
def test_monomial_product_char0(a, b):
    check_mul(a, b, 0)


@settings(max_examples=200)
@given(monomial(residue), monomial(residue))
def test_monomial_product_char5(a, b):
    check_mul(a, b, P)


@settings(max_examples=200)
@given(terms(rational, min_size=2), terms(rational))
def test_general_product_char0(a, b):
    check_mul(a, b, 0)
    check_mul(b, a, 0)


@settings(max_examples=200)
@given(terms(residue, min_size=2), terms(residue))
def test_general_product_char5(a, b):
    check_mul(a, b, P)
    check_mul(b, a, P)


@settings(max_examples=200)
@given(monomial(rational), monomial(rational), monomial(rational))
def test_monomial_branch_agrees_with_general_loop_char0(a, b, c):
    # a*b and a*c take the monomial branch, a*(b + c) the general loop
    # whenever b and c have different exponents
    left = check_mul(a, ring.terms_add(b, c, 0), 0)
    right = ring.terms_add(check_mul(a, b, 0), check_mul(a, c, 0), 0)
    assert left == right
    assert_normal(right, 0)


@settings(max_examples=200)
@given(monomial(residue), monomial(residue), monomial(residue))
def test_monomial_branch_agrees_with_general_loop_char5(a, b, c):
    left = check_mul(a, ring.terms_add(b, c, P), P)
    right = ring.terms_add(check_mul(a, b, P), check_mul(a, c, P), P)
    assert left == right


def test_integral_fraction_products_are_demoted():
    x, one = (1, 0, 0), (0, 0, 0)
    half, third = Fraction(1, 2), Fraction(-1, 3)
    # monomial branch
    got = ring.terms_mul({one: half}, {x: 2}, 0)
    assert got == {x: 1} and type(got[x]) is int
    got = ring.terms_mul({x: Fraction(3, 2)}, {x: Fraction(2, 3)}, 0)
    assert got == {(2, 0, 0): 1} and type(got[(2, 0, 0)]) is int
    # general loop: the two products at x cancel (1/2*2 - 1/3*3) and drop
    # out; then the product at x^2 is an integral Fraction
    got = ring.terms_mul({one: half, x: third}, {x: 2, one: 3}, 0)
    assert got == {(2, 0, 0): Fraction(-2, 3), one: Fraction(3, 2)}
    got = ring.terms_mul({one: half, x: Fraction(3, 2)}, {x: 2}, 0)
    assert got == {x: 1, (2, 0, 0): 3}
    assert all(type(c) is int for c in got.values())
    assert ring.terms_mul({one: 2}, {one: 3}, 0) == {one: 6}
    assert ring.terms_mul({}, {one: 3}, 0) == {}


# ---------------------------------------------------------------------------
# sums and negation keep the normal form
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(terms(rational), terms(rational))
def test_add_char0(a, b):
    got = ring.terms_add(a, b, 0)
    assert got == naive_add(a, b, 0)
    assert_normal(got, 0)


@settings(max_examples=200)
@given(terms(residue), terms(residue))
def test_add_char5(a, b):
    got = ring.terms_add(a, b, P)
    assert got == naive_add(a, b, P)
    assert_normal(got, P)


@settings(max_examples=200)
@given(terms(rational))
def test_neg_char0(a):
    neg = ring.terms_neg(a, 0)
    assert neg == {k: -v for k, v in a.items()}
    assert_normal(neg, 0)


@settings(max_examples=200)
@given(terms(residue))
def test_neg_char5(a):
    neg = ring.terms_neg(a, P)
    assert_normal(neg, P)
    assert ring.terms_add(a, neg, P) == {}


def test_integral_fraction_sums_are_demoted():
    x = (1, 0, 0)
    got = ring.terms_add({x: Fraction(1, 2)}, {x: Fraction(3, 2)}, 0)
    assert got == {x: 2} and type(got[x]) is int
    assert ring.terms_add({x: Fraction(1, 2)}, {x: Fraction(-1, 2)}, 0) == {}
