"""Polynomial matrices, complexes, pointwise homology."""

import collections
import contextlib
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from koszulmf import cli, complexes, documents as docs
from koszulmf.complexes import (FreeComplex, PolyMatrix, homology_dims_at,
                                kron, validate_complex)
from koszulmf.koszul import koszul_complex
from koszulmf.ring import Poly, evaluate, parse_poly, polynomial_ring, \
    prime_field, rationals

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)
import gen  # noqa: E402

QXY = polynomial_ring(rationals(), ("x", "y"))
QUV = polynomial_ring(rationals(), ("u", "v"))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))


def _m(ring, rows, cols, entries):
    return PolyMatrix(ring, rows, cols,
                      [parse_poly(e, ring) for e in entries])


def _from_rows(ring, rowlists, cols):
    """The matrix of a list of rows of Polys, each `cols` long."""
    return PolyMatrix(ring, len(rowlists), cols,
                      [e for row in rowlists for e in row])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_arithmetic():
    a = _m(QXY, 2, 2, ["x", "1", "0", "y"])
    b = _m(QXY, 2, 2, ["1", "0", "y", "x"])
    assert a + b == _m(QXY, 2, 2, ["x + 1", "1", "y", "y + x"])
    assert a - a == PolyMatrix.zero(QXY, 2, 2)
    assert (a * b) == _m(QXY, 2, 2, ["x + y", "x", "y^2", "x*y"])
    assert a * PolyMatrix.identity(QXY, 2) == a
    assert (-a) + a == PolyMatrix.zero(QXY, 2, 2)
    assert a.scale(parse_poly("y", QXY)) == _m(QXY, 2, 2,
                                               ["x*y", "y", "0", "y^2"])


def test_matrix_shape_errors():
    a = _m(QXY, 1, 2, ["x", "y"])
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a + PolyMatrix.zero(QXY, 2, 1)
    with pytest.raises(ValueError):
        PolyMatrix(QXY, 2, 2, [Poly.zero(QXY)] * 3)


def test_public_constructor_rejects_foreign_entries():
    x = parse_poly("x", QXY)
    with pytest.raises(ValueError, match="matrix ring"):
        PolyMatrix(QXY, 1, 2, [x, parse_poly("u", QUV)])
    with pytest.raises(ValueError, match="matrix ring"):
        PolyMatrix(QXY, 1, 1, [parse_poly("x", F5XY)])
    with pytest.raises(ValueError, match="matrix ring"):
        PolyMatrix(QXY, 1, 1, ["x"])
    with pytest.raises(ValueError, match="expected 2 entries"):
        PolyMatrix(QXY, 1, 2, [x])
    with pytest.raises(ValueError):
        PolyMatrix(QXY, -1, 2, [])
    a = PolyMatrix(QXY, 1, 1, [x])
    with pytest.raises(ValueError, match="mixed rings"):
        a * PolyMatrix.identity(QUV, 1)
    with pytest.raises(ValueError, match="mixed rings"):
        a + PolyMatrix.zero(QUV, 1, 1)
    with pytest.raises(IndexError):
        a.at(1, 0)


def test_zero_entries_are_never_stored():
    a = _m(QXY, 2, 3, ["x", "0", "0", "0", "0", "y"])
    assert a.nz == {0: {0: parse_poly("x", QXY)}, 1: {2: parse_poly("y", QXY)}}
    a = _m(QXY, 2, 3, ["0", "0", "0", "0", "0", "y"])
    assert a.nz == {1: {2: parse_poly("y", QXY)}}
    a = _m(QXY, 2, 3, ["0", "0", "0", "0", "0", "y - y"])
    assert a.nz == {} and a.is_zero
    assert (a - a).nz == {}
    b = _m(QXY, 1, 1, ["x"])
    assert (b - b).nz == {} and b.scale(Poly.zero(QXY)).nz == {}


def test_matrix_block_and_submatrix():
    a = _m(QXY, 1, 1, ["x"])
    d = _m(QXY, 2, 2, ["1", "0", "0", "y"])
    blk = PolyMatrix.block(QXY, [[a, None], [None, d]], [1, 2], [1, 2])
    assert blk == _m(QXY, 3, 3, ["x", "0", "0",
                                 "0", "1", "0",
                                 "0", "0", "y"])
    assert blk.submatrix([0, 2], [0, 2]) == _m(QXY, 2, 2,
                                               ["x", "0", "0", "y"])
    assert blk.submatrix([], [0]).rows == 0


def test_matrix_evaluate():
    a = _m(QXY, 1, 2, ["x^2", "x*y - 1"])
    rows = a.evaluate({"x": Fraction(2), "y": Fraction(3)})
    assert rows == [[Fraction(4), Fraction(5)]]


def test_zero_size_matrices_multiply():
    a = PolyMatrix.zero(QXY, 0, 2)
    b = PolyMatrix.zero(QXY, 2, 3)
    assert (a * b).rows == 0 and (a * b).cols == 3
    assert (a * b).is_zero


# ---------------------------------------------------------------------------
# sparse matrices against a dense list-of-lists reference
# ---------------------------------------------------------------------------

def _entries(ring):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, st.integers(-3, 3), min_size=1,
                           max_size=3).map(lambda d: Poly(ring, d))


def _dense(draw, ring, rows, cols, density):
    """rows x cols list of lists; each entry is drawn nonzero-ish with
    probability `density` (a drawn poly may still cancel to zero mod p)."""
    zero = Poly.zero(ring)
    return [[draw(_entries(ring)) if draw(st.integers(0, 99)) < density * 100
             else zero for _ in range(cols)] for _ in range(rows)]


def _flat(dense):
    return [e for row in dense for e in row]


def _same(mat, dense, rows, cols):
    """mat holds exactly `dense`, stores no zero and no foreign entry."""
    assert (mat.rows, mat.cols) == (rows, cols)
    assert [[mat.at(i, j) for j in range(cols)] for i in range(rows)] == dense
    assert mat == PolyMatrix(mat.ring, rows, cols, _flat(dense))
    for i, row in mat.nz.items():
        assert 0 <= i < rows and row
        for j, e in row.items():
            assert 0 <= j < cols and e.terms and e.ring is mat.ring


def _dense_mul(a, b, ring, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Poly.zero(ring))
             for j in range(cols)] for i in range(len(a))]


def _dense_kron(a, b, acols, bcols):
    return [[a[ia][ja] * b[ib][jb] for ja in range(acols)
             for jb in range(bcols)]
            for ia in range(len(a)) for ib in range(len(b))]


@pytest.mark.parametrize("ring", [QXY, F5XY], ids=["Q", "F5"])
@pytest.mark.parametrize("density", [0, 0.05, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_matrix_matches_dense_reference(ring, density, data):
    draw = data.draw
    zero = Poly.zero(ring)
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = _dense(draw, ring, r, k, density)
    a2 = _dense(draw, ring, r, k, density)
    b = _dense(draw, ring, k, c, density)
    A, A2, B = (PolyMatrix(ring, len(m), n, _flat(m))
                for m, n in ((a, k), (a2, k), (b, c)))
    _same(A, a, r, k)
    assert A.entries == _flat(a)
    assert [A.row(i) for i in range(r)] == a
    assert A.is_zero == all(e.is_zero for e in _flat(a))
    assert (A == A2) == (a == a2)

    _same(A * B, _dense_mul(a, b, ring, k, c), r, c)
    _same(A + A2, [[x + y for x, y in zip(p, q)] for p, q in zip(a, a2)], r, k)
    _same(A - A2, [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)], r, k)
    _same(-A, [[-x for x in p] for p in a], r, k)
    s = draw(_entries(ring) | st.just(zero))
    _same(A.scale(s), [[s * x for x in p] for p in a], r, k)
    _same(kron(A, B), _dense_kron(a, b, k, c), r * k, k * c)

    rows_idx = draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    cols_idx = draw(st.lists(st.integers(0, k - 1), max_size=5)) if k else []
    _same(A.submatrix(rows_idx, cols_idx),
          [[a[i][j] for j in cols_idx] for i in rows_idx],
          len(rows_idx), len(cols_idx))

    # the grid [[A, zero], [A2, lower]]
    lower = _dense(draw, ring, r, c, density)
    blk = PolyMatrix.block(ring, [[A, None], [A2, _from_rows(
        ring, lower, c)]], [r, r], [k, c])
    _same(blk, [p + [zero] * c for p in a] + [p + q for p, q in zip(a2, lower)],
          2 * r, k + c)

    point = {"x": draw(st.integers(-3, 3)),
             "y": Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))}
    assert A.evaluate(point) == [[evaluate(e, point) for e in p] for p in a]


@pytest.mark.parametrize("ring", [QXY, F5XY], ids=["Q", "F5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kron_with_an_identity_holds_the_other_factors_entries(ring, data):
    draw = data.draw
    r, c, n = (draw(st.integers(0, 3)) for _ in range(3))
    a = _dense(draw, ring, r, c, 0.6)
    A = PolyMatrix(ring, r, c, _flat(a))
    eye = PolyMatrix.identity(ring, n)
    e = [[eye.at(i, j) for j in range(n)] for i in range(n)]
    for got, want in ((kron(A, eye), _dense_kron(a, e, c, n)),
                      (kron(eye, A), _dense_kron(e, a, n, c))):
        _same(got, want, r * n, c * n)
        _check_shared(got, A)


def _check_shared(got, a):
    """Each entry of `got` is the very Poly of an entry of `a`, except that
    a constant 1 of `a` may be the identity's (the same value)."""
    held = {id(x) for row in a.nz.values() for x in row.values()}
    one = Poly.one(a.ring)
    for row in got.nz.values():
        for x in row.values():
            assert id(x) in held or x == one


def test_kron_shares_entries_and_multiplies_the_rest():
    a = _m(QXY, 2, 2, ["1", "x", "0", "-1/2*y"])
    b = _m(QXY, 1, 2, ["y", "x + 1"])
    eye = PolyMatrix.identity(QXY, 2)
    for got in (kron(a, eye), kron(eye, a)):
        _check_shared(got, a)
    assert kron(eye, a).row(1) == [parse_poly(t, QXY) for t in
                                   ("0", "-1/2*y", "0", "0")]
    # with no unit in a pair, an entry is the product
    assert kron(a, b) == _m(QXY, 2, 4, [
        "y", "x + 1", "x*y", "x^2 + x",
        "0", "0", "-1/2*y^2", "-1/2*x*y - 1/2*y"])


# ---------------------------------------------------------------------------
# the fused product: common denominators, unreduced sums mod p, cancellation
# ---------------------------------------------------------------------------

F32003XY = polynomial_ring(prime_field(32003), ("x", "y"))
BIG = 10 ** 40


def _coefficient(ring):
    """Over Q ints, halves, thirds, sevenths and 40-digit fractions; over
    F_p ints far past p, which the ring reduces."""
    small = st.integers(-9, 9)
    if ring.char:
        return small | st.integers(-BIG, BIG)
    return (small | st.builds(Fraction, small, st.sampled_from([2, 3, 7]))
            | st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


def _mixed_entries(ring, units):
    """Entries of one operand: only 0 and ±1 when `units`, else any poly
    of up to three terms with coefficients mixed as above."""
    signs = st.sampled_from([0, 1, -1]).map(lambda c: Poly.const(ring, c))
    if units:
        return signs
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return signs | st.dictionaries(exps, _coefficient(ring), max_size=3).map(
        lambda terms: Poly(ring, terms))


def _assert_normal(e):
    """Nonzero, with every coefficient in the ring's normal form."""
    p = e.ring.char
    assert e.terms
    for exps, c in e.terms.items():
        assert type(exps) is tuple and len(exps) == len(e.ring.varnames)
        if p:
            assert type(c) is int and 0 < c < p
        elif type(c) is Fraction:
            assert c.denominator > 1
            assert gcd(c.numerator, c.denominator) == 1
        else:
            assert type(c) is int and c != 0


@pytest.mark.parametrize("ring", [QXY, F5XY, F32003XY],
                         ids=["Q", "F5", "F32003"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_product_matches_dense_reference(ring, data):
    draw = data.draw
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))

    def dense(rows, cols):
        entry = _mixed_entries(ring, draw(st.booleans()))
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    # [a | a2] * [b; -b] = a*b - a2*b: every row a2 copies from a cancels
    # to zero entry by entry, and the other rows may cancel in part
    a, b = dense(r, k), dense(k, c)
    a2 = [row if draw(st.booleans()) else dense(1, k)[0] for row in a]
    left = [p + q for p, q in zip(a, a2)]
    A = _from_rows(ring, left, 2 * k)
    for right in (b + [[-e for e in row] for row in b], b + b):
        got = A * _from_rows(ring, right, c)
        _same(got, _dense_mul(left, right, ring, 2 * k, c), r, c)
        for row in got.nz.values():
            for e in row.values():
                _assert_normal(e)


def test_fused_product_examples():
    q = [parse_poly(t, QXY) for t in ("1/2", "1/3", "2", "-3/2", "2/3", "-1")]
    # 1/2*2 + 1/3*(-3/2) = 1/2, a Fraction
    prod = PolyMatrix(QXY, 1, 2, q[:2]) * PolyMatrix(QXY, 2, 1, q[2:4])
    assert prod.nz == {0: {0: parse_poly("1/2", QXY)}}
    _assert_normal(prod.nz[0][0])
    # 1/2*2/3 + 1/3*(-1) = 0 is not stored
    prod = PolyMatrix(QXY, 1, 2, q[:2]) * PolyMatrix(QXY, 2, 1, q[4:])
    assert prod.is_zero and prod.nz == {}
    # 3/2*x * 2/3*y = x*y, an int once divided by 2 * 3
    prod = _m(QXY, 1, 1, ["3/2*x"]) * _m(QXY, 1, 1, ["2/3*y + 1/2"])
    assert prod == _m(QXY, 1, 1, ["x*y + 3/4*x"])
    assert type(prod.nz[0][0].terms[(1, 1)]) is int
    # mod 5: 4*4 + 4*1 = 20 = 0, and 4*4 + 4*4 = 32 = 2
    four, one = Poly.const(F5XY, 4), Poly.const(F5XY, 1)
    assert (PolyMatrix(F5XY, 1, 2, [four, four])
            * PolyMatrix(F5XY, 2, 1, [four, one])).is_zero
    prod = (PolyMatrix(F5XY, 1, 2, [four, four])
            * PolyMatrix(F5XY, 2, 1, [four, four]))
    assert prod.nz == {0: {0: Poly.const(F5XY, 2)}}


# ---------------------------------------------------------------------------
# packed monomials: field widths, any number of variables, dense sums
# ---------------------------------------------------------------------------

QX = polynomial_ring(rationals(), ("x",))
QXYZ = polynomial_ring(rationals(), ("x", "y", "z"))
F32003XYZ = polynomial_ring(prime_field(32003), ("x", "y", "z"))
# largest exponents at the edges of a field width, and one far past them
TOPS = [2 ** k - 1 for k in range(1, 18)] + [2 ** k for k in range(18)] + [
    100000]


def _packed_entries(ring, top):
    """Constants (the shortcut side) or polys of up to three terms whose
    exponents are 0, 1, top - 1 or top."""
    consts = st.sampled_from([0, 1, -1, 2]).map(lambda c: Poly.const(ring, c))
    n = len(ring.varnames)
    if not n:
        return consts | _coefficient(ring).map(lambda c: Poly.const(ring, c))
    exps = st.tuples(*[st.sampled_from([0, 1, top - 1, top])] * n)
    return consts | st.dictionaries(exps, _coefficient(ring), min_size=1,
                                    max_size=3).map(lambda t: Poly(ring, t))


def _box_entries(ring, top):
    """For list sums: constants one time in five, else polys holding many
    monomials of the box [0, top]^n, often the monomial 1 (slot 0) and the
    corner (top, ..., top), whose square puts 2 * top in every digit."""
    n = len(ring.varnames)
    box = (top + 1) ** n
    exps = st.tuples(*[st.integers(0, top)] * n)
    small = st.integers(-9, 9)
    coeff = small if ring.char else small | st.builds(
        Fraction, small, st.sampled_from([2, 3, 7]))
    polys = st.tuples(
        st.dictionaries(exps, coeff, min_size=max(2, box // 2),
                        max_size=box),
        st.dictionaries(st.sampled_from([(0,) * n, (top,) * n]), coeff),
    ).map(lambda ts: Poly(ring, {**ts[0], **ts[1]}))
    consts = st.sampled_from([0, 1, -1, 2]).map(lambda c: Poly.const(ring, c))
    return st.integers(0, 4).flatmap(lambda i: polys if i else consts)


F2XY = polynomial_ring(prime_field(2), ("x", "y"))
F5XYZ = polynomial_ring(prime_field(5), ("x", "y", "z"))
QA_H = polynomial_ring(rationals(), tuple("abcdefgh"))
F2A_H = polynomial_ring(prime_field(2), tuple("abcdefgh"))

# id -> (ring, entries, the tops drawn, what every `_dense_rows` call of the
# case answers: "list", "dict", None for either; a bare field never asks)
PACKED_CASES = {
    "Qx": (QX, _packed_entries, TOPS, None),
    "Qxyz": (QXYZ, _packed_entries, TOPS, None),
    "F32003xyz": (F32003XYZ, _packed_entries, TOPS, None),
    "Q": (rationals(), _packed_entries, TOPS, None),
    "F32003": (prime_field(32003), _packed_entries, TOPS, None),
    # list sums: 1-3 variables, a small top, many terms
    "list-Qx": (QX, _box_entries, [1, 2, 3], "list"),
    "list-Qxy": (QXY, _box_entries, [1, 2], "list"),
    "list-Qxyz": (QXYZ, _box_entries, [1], "list"),
    "list-F32003xy": (F32003XY, _box_entries, [1, 2], "list"),
    "list-F5xyz": (F5XYZ, _box_entries, [1], "list"),
    "list-F2xy": (F2XY, _box_entries, [1, 2], "list"),
    # dict sums: many variables and sparse entries
    "dict-Qa-h": (QA_H, _packed_entries, TOPS, "dict"),
    "dict-F2a-h": (F2A_H, _packed_entries, TOPS, "dict"),
    "dict-F32003xyz": (F32003XYZ, _packed_entries, [7, 300, 100000], "dict"),
}


@contextlib.contextmanager
def _packings():
    """One answer per `_dense_rows` call in the block: "list" when it
    computed the product on dense sums, "dict" when it declined and the
    product went on with exponent-tuple dicts."""
    made = []
    real = complexes._dense_rows

    def recorded(*args):
        rows = real(*args)
        made.append("dict" if rows is None else "list")
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_dense_rows", recorded)
        yield made


@pytest.mark.parametrize("case", PACKED_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_product_matches_dense_reference(case, data):
    ring, entries, tops, sums = PACKED_CASES[case]
    draw = data.draw
    entry = entries(ring, draw(st.sampled_from(tops)))
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def dense(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    # [a | a2] * [b; -b]: rows a2 copies from a cancel to zero
    a, b = dense(r, k), dense(k, c)
    a2 = [row if draw(st.booleans()) else dense(1, k)[0] for row in a]
    left = [p + q for p, q in zip(a, a2)]
    A = _from_rows(ring, left, 2 * k)
    with _packings() as made:
        for right in (b + [[-e for e in row] for row in b], b + b):
            got = A * _from_rows(ring, right, c)
            _same(got, _dense_mul(left, right, ring, 2 * k, c), r, c)
            for row in got.nz.values():
                for e in row.values():
                    _assert_normal(e)
    if not ring.varnames:
        assert made == []
    elif sums is not None:
        # the rule itself is pinned by test_packing_rule_*
        assume(made and set(made) == {sums})


def test_packed_product_examples():
    for ring in (QX, QXYZ, F32003XYZ):
        n = len(ring.varnames)
        x = Poly.var(ring, "x")
        last = Poly.var(ring, ring.varnames[-1])
        for top in TOPS:
            # top + top is the largest sum a field must hold without a carry
            a = x ** top * last + last ** top + Poly.const(ring, 3)
            b = x ** top + last ** top * x
            prod = PolyMatrix(ring, 1, 1, [a]) * PolyMatrix(ring, 1, 1, [b])
            assert prod.nz == {0: {0: a * b}}
        # one output entry from the constant shortcut and a packed product:
        # 1 * x^2*last + x * x*last = 2*x^2*last
        row = PolyMatrix(ring, 1, 2, [Poly.one(ring), x])
        col = PolyMatrix(ring, 2, 1, [x * x * last, x * last])
        assert (row * col).nz == {0: {0: x * x * last * Poly.const(ring, 2)}}
        # the packed sums cancel: x*last * x - x * x*last = 0, and the entry
        # is not stored; a partial cancellation keeps the rest
        row = PolyMatrix(ring, 1, 2, [x * last, x])
        col = PolyMatrix(ring, 2, 1, [x, -(x * last)])
        assert (row * col).nz == {}
        col = PolyMatrix(ring, 2, 1, [x + last, -(x * last)])
        assert (row * col).nz == {0: {0: x * last * last}}
        assert len(next(iter((row * col).nz[0][0].terms))) == n
    # a bare field: exponent tuples are empty and every entry is a constant
    q = rationals()
    half, three = Poly.const(q, Fraction(1, 2)), Poly.const(q, 3)
    prod = PolyMatrix(q, 1, 2, [half, three]) * PolyMatrix(q, 2, 1,
                                                           [three, half])
    assert prod.nz == {0: {0: Poly.const(q, 3)}}


# a1, a2, and the two right-hand columns (b1, b2) and (a2, -a1): column 0
# cancels in part, column 1 wholly (a1*a2 - a2*a1)
PACKED_CANCELLING = {
    # D > 1 on both sides: x^2 cancels, 7/3*x*y stays a Fraction and
    # 3/2*y * 2/3*z is the int y*z
    "Q": (QXYZ, "1/2*x + 1/3*y", "-1/2*x + 3/2*y", "x + y", "x + 2/3*z",
          "7/3*x*y + 1/3*y^2 - 1/3*x*z + y*z"),
    # 32002*x*y + x*y = 32003*x*y vanishes mod p, and so does
    # a1*a2 + a2*(32002*a1) = 32003*a1*a2
    "F32003": (F32003XYZ, "x + y", "2*x + 3*z", "32002*x + y", "x + z",
               "x^2 + y^2 + 5*x*z + 3*z^2"),
}


@pytest.mark.parametrize("case", PACKED_CANCELLING)
@pytest.mark.parametrize("mixed", [False, True], ids=["packed", "mixed"])
def test_packed_sums_cancel_in_part_and_wholly(case, mixed):
    ring, *texts, want = PACKED_CANCELLING[case]
    a1, a2, b1, b2 = (parse_poly(t, ring) for t in texts)
    left = [[a1, a2]]
    right = [[b1, a2], [b2, -a1]]
    if mixed:
        # a constant pair in each entry too: 1 * -(a1*b1) + a1*b1 + a2*b2
        # keeps a2*b2, and 1 * -(2*a1*a2) + a1*a2 + a2*a1 is zero
        one, two = Poly.one(ring), Poly.const(ring, 2)
        left = [[one, a1, a2]]
        right = [[-(a1 * b1), -(two * a1 * a2)], [b1, a2], [b2, a1]]
        want = str(a2 * b2)
    k = len(right)
    with _packings() as made:
        got = _from_rows(ring, left, k) * _from_rows(ring, right, 2)
    _same(got, _dense_mul(left, right, ring, k, 2), 1, 2)
    assert got.nz == {0: {0: parse_poly(want, ring)}}
    _assert_normal(got.nz[0][0])
    # 3^3 slots * 1 row * 2 columns pass the term pairs: the first general
    # pair asks once, is declined, and every pair sums into tuple dicts
    assert made == ["dict"]


F2XYZ = polynomial_ring(prime_field(2), ("x", "y", "z"))


@pytest.mark.parametrize("ring", [QXYZ, F32003XYZ, F5XYZ, F2XYZ],
                         ids=["Q", "F32003", "F5", "F2"])
def test_packed_product_matches_sympy(ring):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")
    domain = sympy.GF(ring.char) if ring.char else sympy.QQ
    rng = random.Random(32003)

    # numerators and denominators that do not vanish mod p
    nums = [n for n in range(-50, 51) if n % (ring.char or 101)]
    dens = [d for d in range(1, 7) if d % (ring.char or 101)]

    def entry(exps, terms):
        return Poly(ring, {tuple(rng.choice(exps) for _ in gens):
                           Fraction(rng.choice(nums), rng.choice(dens))
                           for _ in range(rng.randint(*terms))})

    def to_sympy(e):
        return sympy.Poly.from_dict(
            {k: sympy.Rational(c.numerator, c.denominator)
             for k, c in ((k, Fraction(c)) for k, c in e.terms.items())},
            *gens, domain=domain)

    def from_sympy(f):
        return Poly(ring, {k: Fraction(int(sympy.numer(c)),
                                       int(sympy.denom(c)))
                           for k, c in f.as_dict().items()})

    # sparse exponents up to 300 take dict sums; every monomial of the box
    # {0, 1}^3, eight terms or so, takes list sums
    for sums, exps, terms in (("dict", (0, 1, 2, 7, 8, 300), (1, 6)),
                              ("list", (0, 1), (6, 12))):
        for r, k, c in ((2, 3, 2), (3, 2, 3), (1, 4, 1)):
            a = [[entry(exps, terms) for _ in range(k)] for _ in range(r)]
            b = [[entry(exps, terms) for _ in range(c)] for _ in range(k)]
            with _packings() as made:
                got = _from_rows(ring, a, k) * _from_rows(ring, b, c)
            assert made == [sums]
            for i in range(r):
                for j in range(c):
                    want = sum((to_sympy(a[i][m]) * to_sympy(b[m][j])
                                for m in range(k)),
                               sympy.Poly(0, *gens, domain=domain))
                    assert got.at(i, j) == from_sympy(want)


def test_list_sums_examples():
    seen = collections.Counter({"list": 0, "dict": 0})

    def product(ring, left, right):
        with _packings() as made:
            got = _m(ring, 1, len(left), left) * _m(ring, len(right), 1,
                                                    right)
        seen.update(made)
        assert made == ["list"]
        return got.nz.get(0, {}).get(0)

    # top = 2, base 5: slot 0 is the monomial 1 and x^4 = x^(2*top) is the
    # top digit
    a = "1 + 2*x + 3*x^2"
    assert product(QX, [a, a], [a, a]) == parse_poly(
        "2 + 8*x + 20*x^2 + 24*x^3 + 18*x^4", QX)
    # over Q with D > 1 on both sides the slot of x cancels
    assert product(QX, ["1/3 + 1/2*x"], ["1/3 - 1/2*x"]) == parse_poly(
        "1/9 - 1/4*x^2", QX)
    # the sums cancel wholly mod 5 and mod 2
    assert product(polynomial_ring(prime_field(5), ("x",)),
                   [a, "4 + 3*x + 2*x^2"], [a, a]) is None
    assert product(polynomial_ring(prime_field(2), ("x", "y")),
                   ["1 + x + x*y"] * 2, ["x + y"] * 2) is None
    assert seen == {"list": 4, "dict": 0}
    # a constant pair comes first: its tuple sums are dropped when the
    # general pair after it is accepted, at the boundary 3 slots * 1 row *
    # 1 column = 3 term pairs, and the list sums start over from it
    assert product(QX, ["1", "1/2 + x"], ["-1/2*x", "x"]) == parse_poly(
        "x^2", QX)
    assert seen == {"list": 5, "dict": 0}


def test_packing_rule_at_its_boundary():
    # base 3 over Q[x] (top = 1): (1 + x)*x forms 2 term pairs for 3 slots
    # and takes dict sums; (1 + x)*x + x*x forms 3 and takes list sums
    for left, right, sums in ((["1 + x"], ["x"], "dict"),
                              (["1 + x", "x"], ["x", "x"], "list")):
        with _packings() as made:
            prod = _m(QX, 1, len(left), left) * _m(QX, len(right), 1, right)
        assert made == [sums]
    assert prod == _m(QX, 1, 1, ["x + 2*x^2"])
    # 3 slots * 2 rows of A * 2 columns of B = 12 slots for 4 * 4 = 16
    # term pairs; a zero row or column adds no slot; a third column of B
    # makes 18 slots, here for 4 * 4 = 16 term pairs again
    u = "1 + x"
    for rows, cols, sums in (([u, u], [u, u], "list"),
                             ([u, "0", u], [u, "0", u], "list"),
                             ([u, u], [u, "x", "x"], "dict")):
        a = _m(QX, len(rows), 1, rows)
        b = _m(QX, 1, len(cols), cols)
        with _packings() as made:
            a * b
        assert made == [sums]


# ring -> (the constant entries of A's first two rows, the entries of its
# last row, the entries of B): every entry of B has two terms
AFTER_CONSTANTS = {
    "Q": (QX, ["1/2", "-3", "0", "2/3"], ["1/3 + 2/3*x", "x - 1/2"],
          ["1/3 + x", "2 - 1/2*x", "x + 7/2", "-x - 1/5"]),
    "F32003": (polynomial_ring(prime_field(32003), ("x",)),
               ["32002", "3", "0", "16002"], ["1 + 32002*x", "x + 5"],
               ["1 + x", "2 + 32001*x", "x + 7", "32002 + 32002*x"]),
    "F2": (polynomial_ring(prime_field(2), ("x",)), ["1", "0", "0", "1"],
           ["1 + x", "x"], ["1 + x", "1 + x", "x + 1", "x"]),
}


@pytest.mark.parametrize("case", AFTER_CONSTANTS)
def test_list_sums_start_over_after_constant_rows(case):
    # rows 0 and 1 of A are constants, so their pairs sum into tuple dicts;
    # the first general pair is in row 2, where the product is accepted
    # (3 slots * 3 rows * 2 columns = 18, no more than the term pairs) and
    # computed from its first pair, the earlier sums dropped
    ring, consts, last, right = AFTER_CONSTANTS[case]
    left = [[parse_poly(t, ring) for t in consts[:2]],
            [parse_poly(t, ring) for t in consts[2:]],
            [parse_poly(t, ring) for t in last]]
    right = [[parse_poly(t, ring) for t in right[:2]],
             [parse_poly(t, ring) for t in right[2:]]]
    with _packings() as made:
        got = _from_rows(ring, left, 2) * _from_rows(ring, right, 2)
    assert made == ["list"]
    want = _dense_mul(left, right, ring, 2, 2)
    _same(got, want, 3, 2)
    assert got.nz[0] and got.nz[1]
    for row in got.nz.values():
        for e in row.values():
            _assert_normal(e)


def test_sparse_products_decline_without_reading_exponents():
    # a 24x24 shift pattern of two-term entries, as in the differentials
    # of a module: 3^2 slots * 24 rows * 24 columns exceed its 96 term
    # pairs, so the exponents are never read (only their scan calls `max`)
    x, y = Poly.var(QXY, "x"), Poly.var(QXY, "y")
    entries = [x + y, x - Poly.const(QXY, 2) * y * y,
               x * y + Poly.one(QXY)]
    zero = Poly.zero(QXY)
    n = 24

    def sparse(shift):
        return [[entries[(i + j) % 3] if j == (i + shift) % n else zero
                 for j in range(n)] for i in range(n)]

    one = [[parse_poly("1 + x^2", QX)]]
    # the control, one entry: base 3 passes and base 5 does not
    for ring, left, right, read in ((QXY, sparse(1), sparse(5), False),
                                    (QX, one, one, True)):
        k, c = len(right), len(right[0])
        calls = []

        def counted(*args):
            calls.append(args)
            return max(*args)

        with _packings() as made, pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes, "max", counted, raising=False)
            got = _from_rows(ring, left, k) * _from_rows(ring, right, c)
        assert (made, bool(calls)) == (["dict"], read)
        _same(got, _dense_mul(left, right, ring, k, c), len(left), c)


@pytest.mark.parametrize("field", [rationals(), prime_field(32003),
                                   prime_field(2)], ids=["Q", "F32003", "F2"])
def test_bare_field_never_asks_for_dense_sums(field):
    rng = random.Random(7)
    # odd denominators, which F_2 inverts
    a = [[Poly.const(field, Fraction(rng.randint(-9, 9),
                                     rng.choice([1, 3, 7, 9])))
          for _ in range(4)] for _ in range(3)]
    b = [[Poly.const(field, rng.randint(-BIG, BIG)) for _ in range(5)]
         for _ in range(4)]
    with _packings() as made:
        got = _from_rows(field, a, 4) * _from_rows(field, b, 5)
    assert made == []
    _same(got, _dense_mul(a, b, field, 4, 5), 3, 5)


@pytest.mark.parametrize("p", [0, 32003], ids=["Q", "F32003"])
def test_packing_rule_picks_lists_for_dense_factorizations(p):
    rng, trng = random.Random(f"rule:{p}"), random.Random("rule-template")
    for k in (2, 3):
        text = gen.dense_document(p, [gen.dense_mf(rng, trng, p, k,
                                                   moves=4)])
        mf = docs.parse_document(json.loads(text)).objects["mf0"]
        with _packings() as made:
            mf.phi1 * mf.phi0
        assert made == ["list"]


def test_packing_rule_picks_dicts_for_sparse_modules(tmp_path, capsys):
    made_all = []
    for i, (text, cmd) in enumerate(gen.emit_inputs(1, 6)):
        doc = tmp_path / f"m{i}.json"
        doc.write_text(text)
        argv = [cmd, "--input", str(doc), "--witness",
                str(tmp_path / f"w{i}.json")]
        if cmd == "reduce-codim":
            argv[1:1] = ["--then", "fold"]
        with _packings() as made:
            assert cli.main(argv) == 0
        made_all += made
    capsys.readouterr()
    assert made_all and set(made_all) == {"dict"}


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def _two_term(ring, entry):
    return FreeComplex(ring, -1, 0, {-1: 1, 0: 1},
                       {-1: _m(ring, 1, 1, [entry])})


def test_validate_complex_catches_dd_nonzero():
    c = FreeComplex(QXY, -2, 0, {-2: 1, -1: 1, 0: 1},
                    {-2: _m(QXY, 1, 1, ["x"]), -1: _m(QXY, 1, 1, ["y"])})
    rep = validate_complex(c)
    assert rep and "nonzero" in rep[0]
    good = FreeComplex(QXY, -2, 0, {-2: 1, -1: 1, 0: 1},
                       {-2: _m(QXY, 1, 1, ["x"]), -1: _m(QXY, 1, 1, ["0"])})
    assert validate_complex(good) == []


@pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)])
def test_validate_complex_names_the_first_nonzero_entry(i, j):
    # d_{-1}·d_{-2} = d_{-1}, nonzero at (i, j) and at the last entry
    r = 3
    d = _m(QXY, r, r, ["x" if (a, b) in ((i, j), (r - 1, r - 1)) else "0"
                       for a in range(r) for b in range(r)])
    c = FreeComplex(QXY, -2, 0, {-2: r, -1: r, 0: r},
                    {-2: PolyMatrix.identity(QXY, r), -1: d})
    assert validate_complex(c) == [
        f"degree -2: d∘d is nonzero at ({i}, {j})"]


def test_validate_complex_catches_bad_shapes():
    c = FreeComplex(QXY, -1, 0, {-1: 1, 0: 1},
                    {-1: _m(QXY, 2, 1, ["x", "y"])})
    rep = validate_complex(c)
    assert rep and "1x1" in rep[0]


def test_trim_drops_zero_boundary():
    c = FreeComplex(QXY, -3, 1, {-3: 0, -2: 1, -1: 1, 0: 0, 1: 0},
                    {-2: _m(QXY, 1, 1, ["x"])})
    t = c.trim()
    assert (t.lo, t.hi) == (-2, -1)
    assert t.diff(-2) == c.diff(-2)


# ---------------------------------------------------------------------------
# Koszul complexes
# ---------------------------------------------------------------------------

def test_koszul_complex_rank_one():
    k = koszul_complex(QXY, (parse_poly("x*y", QXY),))
    assert (k.lo, k.hi) == (-1, 0)
    assert k.diff(-1) == _m(QXY, 1, 1, ["x*y"])


def test_koszul_complex_two_potentials_matrices():
    k = koszul_complex(QUV, (parse_poly("u", QUV), parse_poly("v", QUV)))
    assert (k.lo, k.hi) == (-2, 0)
    assert k.diff(-1) == _m(QUV, 1, 2, ["u", "v"])
    assert k.diff(-2) == _m(QUV, 2, 1, ["-v", "u"])
    assert validate_complex(k) == []


def test_koszul_complex_three_potentials_is_a_complex():
    ring = polynomial_ring(prime_field(5), ("x", "y", "z"))
    fs = tuple(parse_poly(t, ring) for t in ("x^2", "x*y", "z"))
    k = koszul_complex(ring, fs)
    assert validate_complex(k) == []
    assert [k.rank(m) for m in range(-3, 1)] == [1, 3, 3, 1]


# ---------------------------------------------------------------------------
# pointwise homology
# ---------------------------------------------------------------------------

def test_homology_dims_exact_vs_not():
    # x: ... -> B -x-> B -> ...: at x=1 exact, at x=0 homology 1 and 1
    c = _two_term(QXY, "x")
    at0 = homology_dims_at(c, {"x": 0, "y": 0})
    assert at0 == {-1: 1, 0: 1}
    at1 = homology_dims_at(c, {"x": 1, "y": 0})
    assert at1 == {-1: 0, 0: 0}


def test_homology_dims_koszul_regular_sequence():
    k = koszul_complex(QUV, (parse_poly("u", QUV), parse_poly("v", QUV)))
    dims = homology_dims_at(k, {"u": 0, "v": 0})
    # evaluated at the origin everything dies, ranks survive as homology
    assert dims == {-2: 1, -1: 2, 0: 1}
    dims = homology_dims_at(k, {"u": 1, "v": 0})
    assert dims == {-2: 0, -1: 0, 0: 0}
