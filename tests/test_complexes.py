"""Polynomial matrices, complexes, cones, shifts, pointwise homology."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from koszulmf.complexes import (ChainMap, FreeComplex, PolyMatrix, cone_chain,
                                homology_dims_at, kron, shift_complex,
                                validate_chain_map, validate_complex)
from koszulmf.koszul import koszul_complex
from koszulmf.ring import Poly, evaluate, parse_poly, polynomial_ring, \
    prime_field, rationals

QXY = polynomial_ring(rationals(), ("x", "y"))
QUV = polynomial_ring(rationals(), ("u", "v"))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))


def _m(ring, rows, cols, entries):
    return PolyMatrix(ring, rows, cols,
                      [parse_poly(e, ring) for e in entries])


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
    with pytest.raises(ValueError, match="matrix ring"):
        a.put(0, 0, parse_poly("u", QUV))
    with pytest.raises(ValueError, match="mixed rings"):
        a * PolyMatrix.identity(QUV, 1)
    with pytest.raises(ValueError, match="mixed rings"):
        a + PolyMatrix.zero(QUV, 1, 1)
    with pytest.raises(IndexError):
        a.at(1, 0)


def test_zero_entries_are_never_stored():
    a = _m(QXY, 2, 3, ["x", "0", "0", "0", "0", "y"])
    assert a.nz == {0: {0: parse_poly("x", QXY)}, 1: {2: parse_poly("y", QXY)}}
    a.put(0, 0, Poly.zero(QXY))
    assert a.nz == {1: {2: parse_poly("y", QXY)}}
    a.put(1, 2, parse_poly("y - y", QXY))
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
    blk = PolyMatrix.block(ring, [[A, None], [A2, PolyMatrix.from_rows(
        ring, lower, c)]], [r, r], [k, c])
    _same(blk, [p + [zero] * c for p in a] + [p + q for p, q in zip(a2, lower)],
          2 * r, k + c)

    point = {"x": draw(st.integers(-3, 3)),
             "y": Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))}
    assert A.evaluate(point) == [[evaluate(e, point) for e in p] for p in a]

    if r and k:
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, k - 1))
        e = draw(_entries(ring) | st.just(zero))
        A.put(i, j, e)
        a[i][j] = e
        _same(A, a, r, k)
        assert A.at(i, j) == e
        assert A.row(i) == a[i]
        assert A.entries == _flat(a)


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
    A = PolyMatrix.from_rows(ring, left, 2 * k)
    for right in (b + [[-e for e in row] for row in b], b + b):
        got = A * PolyMatrix.from_rows(ring, right, c)
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
# packed monomials: field widths, any number of variables, the merge
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


@pytest.mark.parametrize("ring", [QX, QXYZ, F32003XYZ, rationals(),
                                  prime_field(32003)],
                         ids=["Qx", "Qxyz", "F32003xyz", "Q", "F32003"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_product_matches_dense_reference(ring, data):
    draw = data.draw
    entry = _packed_entries(ring, draw(st.sampled_from(TOPS)))
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def dense(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    # [a | a2] * [b; -b]: rows a2 copies from a cancel to zero
    a, b = dense(r, k), dense(k, c)
    a2 = [row if draw(st.booleans()) else dense(1, k)[0] for row in a]
    left = [p + q for p, q in zip(a, a2)]
    A = PolyMatrix.from_rows(ring, left, 2 * k)
    for right in (b + [[-e for e in row] for row in b], b + b):
        got = A * PolyMatrix.from_rows(ring, right, c)
        _same(got, _dense_mul(left, right, ring, 2 * k, c), r, c)
        for row in got.nz.values():
            for e in row.values():
                _assert_normal(e)


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


@pytest.mark.parametrize("ring", [QXYZ, F32003XYZ], ids=["Q", "F32003"])
def test_packed_product_matches_sympy(ring):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")
    domain = sympy.GF(ring.char) if ring.char else sympy.QQ
    rng = random.Random(32003)

    def entry():
        return Poly(ring, {tuple(rng.choice((0, 1, 2, 7, 8, 300))
                                 for _ in gens):
                           Fraction(rng.randint(-50, 50), rng.randint(1, 6))
                           for _ in range(rng.randint(1, 6))})

    def to_sympy(e):
        return sympy.Poly.from_dict(
            {k: sympy.Rational(c.numerator, c.denominator)
             for k, c in ((k, Fraction(c)) for k, c in e.terms.items())},
            *gens, domain=domain)

    def from_sympy(f):
        return Poly(ring, {k: Fraction(int(sympy.numer(c)),
                                       int(sympy.denom(c)))
                           for k, c in f.as_dict().items()})

    for r, k, c in ((2, 3, 2), (3, 2, 3), (1, 4, 1)):
        a = [[entry() for _ in range(k)] for _ in range(r)]
        b = [[entry() for _ in range(c)] for _ in range(k)]
        got = (PolyMatrix.from_rows(ring, a, k)
               * PolyMatrix.from_rows(ring, b, c))
        for i in range(r):
            for j in range(c):
                want = sum((to_sympy(a[i][m]) * to_sympy(b[m][j])
                            for m in range(k)), sympy.Poly(0, *gens,
                                                           domain=domain))
                assert got.at(i, j) == from_sympy(want)


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


def test_shift_complex_signs_and_involution():
    c = _two_term(QXY, "x")
    s = shift_complex(c, 1)
    assert (s.lo, s.hi) == (-2, -1)
    assert s.diff(-2) == _m(QXY, 1, 1, ["-x"])
    assert shift_complex(s, -1) == c
    assert shift_complex(c, 2).diff(-3) == c.diff(-1)


def test_cone_chain_is_a_complex():
    src = _two_term(QXY, "x")
    tgt = _two_term(QXY, "x")
    g = ChainMap(src, tgt, {m: PolyMatrix.identity(QXY, src.rank(m))
                            for m in (-1, 0)})
    assert validate_chain_map(g) == []
    cone = cone_chain(g)
    assert validate_complex(cone) == []
    assert (cone.lo, cone.hi) == (-2, 0)
    assert [cone.rank(m) for m in (-2, -1, 0)] == [1, 2, 1]


def test_chain_map_validation_catches_noncommuting():
    src = _two_term(QXY, "x")
    tgt = _two_term(QXY, "y")
    g = ChainMap(src, tgt, {m: PolyMatrix.identity(QXY, 1) for m in (-1, 0)})
    assert validate_chain_map(g) != []


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
