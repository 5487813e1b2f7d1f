"""Products with a selection operand, against a dense reference.

A selection is a matrix whose every stored row is one entry, a constant
±1: permutations, identities, pads and trims, signed blocks, and the zero
matrix.  Such a product is a reindexing that shares the other operand's
entries where the sign is +1 and negates each distinct entry once where
it is -1; a right-hand selection that sends two rows to one column sums,
and takes the fused kernel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulmf.complexes import PolyMatrix
from koszulmf.ring import Poly, polynomial_ring, prime_field, rationals

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)

QXY = polynomial_ring(rationals(), ("x", "y"))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))
F32003XY = polynomial_ring(prime_field(32003), ("x", "y"))
RINGS = pytest.mark.parametrize("ring", [QXY, F5XY], ids=["Q", "F5"])
SIGNED_RINGS = pytest.mark.parametrize("ring", [QXY, F32003XY],
                                       ids=["Q", "F32003"])


@st.composite
def polys(draw, ring):
    """Zero, a constant (1 included) or up to three terms with exponents
    below 3 and small fractions as coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[exps] = Fraction(draw(st.integers(-4, 4)),
                               draw(st.sampled_from([1, 1, 2, 3])))
    return draw(st.sampled_from([Poly(ring, terms), Poly.one(ring)]))


@st.composite
def dense(draw, ring, rows, cols):
    return [[draw(polys(ring)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def column_maps(draw, rows, cols):
    """For each row of a rows x cols selection, its column or None."""
    kind = draw(st.sampled_from(["permutation", "identity", "injective",
                                 "any", "zero"]))
    if kind in ("permutation", "identity") and rows == cols:
        order = list(range(cols))
        return draw(st.permutations(order)) if kind == "permutation" \
            else order
    if kind in ("injective", "permutation", "identity"):
        # a pad or a trim: distinct columns, some rows left empty
        picked = draw(st.lists(st.integers(0, cols - 1), unique=True,
                               max_size=min(rows, cols))) if cols else []
        slots = draw(st.permutations(list(range(rows))))[:len(picked)]
        out = [None] * rows
        for i, j in zip(slots, picked):
            out[i] = j
        return out
    if kind == "any" and cols:
        # columns may repeat: not injective
        return [draw(st.none() | st.integers(0, cols - 1))
                for _ in range(rows)]
    return [None] * rows


def _selection(ring, cmap, cols, signs=None):
    """The dense rows of the selection `cmap`; row i holds -1 where
    signs[i] is true."""
    one, zero = Poly.one(ring), Poly.zero(ring)
    signs = signs or [False] * len(cmap)
    return [[(-one if signs[i] else one) if cmap[i] == j else zero
             for j in range(cols)] for i in range(len(cmap))]


def _matrix(ring, rows, cols):
    return PolyMatrix(ring, len(rows), cols, [e for r in rows for e in r])


def _dense_mul(ring, a, b, cols):
    inner = len(b)
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Poly.zero(ring))
             for j in range(cols)] for i in range(len(a))]


def _selection_like(mat):
    one = Poly.one(mat.ring)
    return all(len(row) == 1 and next(iter(row.values())) == one
               for row in mat.nz.values())


def _check(ring, prod, want, rows, cols):
    assert (prod.ring, prod.rows, prod.cols) == (ring, rows, cols)
    assert prod == _matrix(ring, want, cols)
    for row in prod.nz.values():
        assert row and all(e.terms for e in row.values())


@RINGS
@SETTINGS
@given(data=st.data())
def test_selection_times_matrix(ring, data):
    draw = data.draw
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    cmap = draw(column_maps(r, k))
    s, b = _selection(ring, cmap, k), draw(dense(ring, k, c))
    S, B = _matrix(ring, s, k), _matrix(ring, b, c)
    prod = S * B
    _check(ring, prod, _dense_mul(ring, s, b, c), r, c)
    # a reindexing: every entry is the other operand's own Poly
    for i, row in prod.nz.items():
        for j, e in row.items():
            assert e is B.nz[cmap[i]][j]


@RINGS
@SETTINGS
@given(data=st.data())
def test_matrix_times_selection(ring, data):
    draw = data.draw
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    cmap = draw(column_maps(k, c))
    a, s = draw(dense(ring, r, k)), _selection(ring, cmap, c)
    A, S = _matrix(ring, a, k), _matrix(ring, s, c)
    prod = A * S
    _check(ring, prod, _dense_mul(ring, a, s, c), r, c)
    used = [j for j in cmap if j is not None]
    if len(set(used)) == len(used) and not _selection_like(A):
        # injective: each entry is moved, not recomputed
        for i, row in prod.nz.items():
            for j, e in row.items():
                assert e is A.nz[i][cmap.index(j)]


@RINGS
@SETTINGS
@given(data=st.data())
def test_selection_times_selection(ring, data):
    draw = data.draw
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    s1 = _selection(ring, draw(column_maps(r, k)), k)
    s2 = _selection(ring, draw(column_maps(k, c)), c)
    prod = _matrix(ring, s1, k) * _matrix(ring, s2, c)
    _check(ring, prod, _dense_mul(ring, s1, s2, c), r, c)


@SIGNED_RINGS
@SETTINGS
@given(data=st.data())
def test_signed_selections_on_either_side(ring, data):
    # S·B and A·S for ±1 selections S, injective or not (column_maps draws
    # repeated columns too), against the schoolbook product
    draw = data.draw
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    signs = [draw(st.booleans()) for _ in range(r + k)]
    s1 = _selection(ring, draw(column_maps(r, k)), k, signs[:r])
    s2 = _selection(ring, draw(column_maps(k, c)), c, signs[r:])
    a, b = draw(dense(ring, r, k)), draw(dense(ring, k, c))
    for x, y in ((s1, b), (a, s2), (s1, s2)):
        prod = _matrix(ring, x, k) * _matrix(ring, y, c)
        _check(ring, prod, _dense_mul(ring, x, y, c), r, c)


@SIGNED_RINGS
def test_signed_selection_negates_each_entry_once(ring):
    x, y = Poly.var(ring, "x"), Poly.var(ring, "y")
    one, zero = Poly.one(ring), Poly.zero(ring)
    # rows 0 and 2 of S take row 0 of B with -1, row 1 takes it with +1
    s = _matrix(ring, [[-one, zero], [one, zero], [-one, zero]], 2)
    b = _matrix(ring, [[x, x + y], [y, zero]], 2)
    prod = s * b
    assert prod == _matrix(ring, [[-x, -x - y], [x, x + y], [-x, -x - y]], 2)
    assert prod.nz[1] is b.nz[0]
    assert prod.nz[0][0] is prod.nz[2][0]
    assert prod.nz[0][1] is prod.nz[2][1]
    # A·S: the -1 of S's row 1 negates column 1 of A into column 0
    s = _matrix(ring, [[zero, one], [-one, zero]], 2)
    a = _matrix(ring, [[x, y], [y, y]], 2)
    prod = a * s
    assert prod == _matrix(ring, [[-y, x], [-y, y]], 2)
    assert prod.nz[0][0] is prod.nz[1][0]
    assert prod.nz[0][1] is a.nz[0][0]


@SIGNED_RINGS
def test_signed_rows_into_one_column_sum(ring):
    # rows 0 and 1 of S put 1 and -1 in column 0: A*S subtracts A's
    # column 1 from its column 0
    x, y = Poly.var(ring, "x"), Poly.var(ring, "y")
    one, zero = Poly.one(ring), Poly.zero(ring)
    a = _matrix(ring, [[x, y, one], [x, x, zero]], 3)
    s = _matrix(ring, [[one, zero], [-one, zero], [zero, -one]], 2)
    assert a * s == _matrix(ring, [[x - y, -one], [zero, zero]], 2)


@RINGS
def test_two_rows_into_one_column_sum(ring):
    # rows 0 and 1 of S both select column 0: A*S adds A's columns 0 and 1
    x, y = Poly.var(ring, "x"), Poly.var(ring, "y")
    one, zero = Poly.one(ring), Poly.zero(ring)
    a = _matrix(ring, [[x, y, one]], 3)
    s = _matrix(ring, [[one, zero], [one, zero], [zero, one]], 2)
    assert a * s == _matrix(ring, [[x + y, one]], 2)
    # a row of A that meets only one of the two rows needs no sum
    a2 = _matrix(ring, [[x, zero, y]], 3)
    assert a2 * s == _matrix(ring, [[x, y]], 2)


@RINGS
def test_selection_keeps_shape_and_ring_errors(ring):
    other = polynomial_ring(rationals(), ("u",))
    ident = PolyMatrix.identity(ring, 2)
    with pytest.raises(ValueError, match=r"shape mismatch 2x2 \* 3x1"):
        ident * PolyMatrix.zero(ring, 3, 1)
    with pytest.raises(ValueError, match=r"shape mismatch 1x3 \* 2x2"):
        PolyMatrix.zero(ring, 1, 3) * ident
    with pytest.raises(ValueError, match="mixed rings"):
        ident * PolyMatrix.identity(other, 2)
    with pytest.raises(ValueError, match="mixed rings"):
        PolyMatrix.identity(other, 2) * ident
