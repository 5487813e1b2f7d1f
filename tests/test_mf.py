"""Matrix factorizations: axioms, folding, residue homology."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import genmod
from koszulmf.complexes import PolyMatrix
from koszulmf.koszul import KoszulMorphism
from koszulmf.mf import (MFMorphism, MFObject, compose_mf_morphisms,
                         fold_morphism, mf_cone, mf_shift, mf_tensor,
                         orlov_fold, orlov_unfold, residue_homology,
                         validate_mf, validate_mf_morphism)
from koszulmf.ring import Poly, parse_poly, polynomial_ring, prime_field, \
    rationals

QX = polynomial_ring(rationals(), ("x",))
QXY = polynomial_ring(rationals(), ("x", "y"))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))
EVEN = "phi1∘phi0 is not f·id on the even part"
ODD = "phi0∘phi1 is not f·id on the odd part"


def _m(ring, rows, cols, entries):
    return PolyMatrix(ring, rows, cols,
                      [parse_poly(e, ring) for e in entries])


def _mf1(ring, f, a, b):
    return MFObject(ring, parse_poly(f, ring), 1, 1,
                    _m(ring, 1, 1, [a]), _m(ring, 1, 1, [b]))


# ---------------------------------------------------------------------------
# axioms and validation
# ---------------------------------------------------------------------------

def test_validate_mf_accepts_and_rejects():
    good = _mf1(QX, "x^2", "x", "x")
    assert validate_mf(good) == []
    bad = _mf1(QX, "x^2", "x", "x^2")
    rep = validate_mf(bad)
    assert rep and "f·id" in rep[0]


def _two_products(m):
    """The report of validate_mf with both products always taken, each
    entry summed term by term."""
    zero = Poly.zero(m.ring)

    def is_f_id(a, b):
        return all(sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), zero)
                   == (m.potential if i == j else zero)
                   for i in range(a.rows) for j in range(b.cols))

    return ([EVEN] if not is_f_id(m.phi1, m.phi0) else []) + (
        [ODD] if not is_f_id(m.phi0, m.phi1) else [])


@st.composite
def _polys(draw, ring, nonzero=False):
    """Up to two terms in x, y with small fractions as coefficients, every
    one a unit mod 5."""
    terms = {}
    for _ in range(draw(st.integers(1 if nonzero else 0, 2))):
        exps = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        terms[exps] = Fraction(draw(st.sampled_from([1, -1, 2, -3])),
                               draw(st.sampled_from([1, 2, 3])))
    return Poly(ring, terms)


@st.composite
def _matrices(draw, ring, rows, cols):
    return PolyMatrix(ring, rows, cols,
                      [draw(_polys(ring)) for _ in range(rows * cols)])


def _elementary(ring, n, i, j, e):
    """The n x n identity with `e` at (i, j), i != j."""
    one, zero = Poly.one(ring), Poly.zero(ring)
    return PolyMatrix(ring, n, n, [e if (r, c) == (i, j) else
                                   one if r == c else zero
                                   for r in range(n) for c in range(n)])


@st.composite
def _unimodular(draw, ring, n):
    """(U, U^-1) for a product of up to two elementary matrices."""
    u = v = PolyMatrix.identity(ring, n)
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        e = draw(_polys(ring))
        u = u * _elementary(ring, n, i, j, e)
        v = _elementary(ring, n, i, j, -e) * v
    return u, v


@st.composite
def _pairs(draw, ring):
    """A pair (phi0, phi1), valid or not, square or not, f zero or not.

    The valid square core is P·diag(a)·Q^-1 and Q·(diag(b) + N)·P^-1, with
    a_i·b_i = f, P and Q unimodular, and N nonzero only in the columns
    where a_i = 0 (so only when f = 0, where phi0∘phi1 may then fail).
    One side may get a zero block and the other a random one, which keeps
    the first product f·id and breaks the second; one entry may then be
    changed."""
    g, h = draw(_polys(ring, True)), draw(_polys(ring, True))
    zero, one = Poly.zero(ring), Poly.one(ring)
    f = g * h if draw(st.booleans()) else zero
    if f.is_zero:
        factors = [(zero, g), (h, zero), (one, zero), (zero, zero)]
    else:
        two, half = Poly.const(ring, 2), Poly.const(ring, Fraction(1, 2))
        factors = [(g, h), (h, g), (one, f), (f, one), (g * two, h * half)]
    r = draw(st.integers(0, 3))
    ab = [draw(st.sampled_from(factors)) for _ in range(r)]
    a = PolyMatrix(ring, r, r, [ab[i][0] if i == j else zero
                                for i in range(r) for j in range(r)])
    b = PolyMatrix(ring, r, r, [
        ab[i][1] if i == j else draw(_polys(ring, True)) if ab[j][0].is_zero
        else zero for i in range(r) for j in range(r)])
    p, p_inv = draw(_unimodular(ring, r))
    q, q_inv = draw(_unimodular(ring, r))
    phi0, phi1 = p * a * q_inv, q * b * p_inv
    r0 = r1 = r
    pad = draw(st.sampled_from([None, None, "odd", "even"]))
    if pad == "odd":        # phi0 over a zero block, phi1 beside a random one
        r1 += 1
        phi0 = PolyMatrix.block(ring, [[phi0], [None]], [r, 1], [r])
        phi1 = PolyMatrix.block(ring, [[phi1, draw(_matrices(ring, r, 1))]],
                                [r], [r, 1])
    elif pad == "even":     # the same with the roles of phi0, phi1 swapped
        r0 += 1
        phi0 = PolyMatrix.block(ring, [[phi0, draw(_matrices(ring, r, 1))]],
                                [r], [r, 1])
        phi1 = PolyMatrix.block(ring, [[phi1], [None]], [r, 1], [r])
    if draw(st.integers(0, 2)) == 0 and r0 * r1:
        phis = [phi0, phi1]
        k = draw(st.sampled_from([0, 1]))
        mat = phis[k]
        i, j = draw(st.integers(0, mat.rows - 1)), draw(
            st.integers(0, mat.cols - 1))
        cells = mat.entries
        cells[i * mat.cols + j] += draw(_polys(ring, True))
        phis[k] = PolyMatrix(ring, mat.rows, mat.cols, cells)
        phi0, phi1 = phis
    return MFObject(ring, f, r0, r1, phi0, phi1)


@pytest.mark.parametrize("ring", [QXY, F5XY], ids=["Q", "F5"])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_validate_mf_matches_the_two_product_report(ring, data):
    m = data.draw(_pairs(ring))
    assert validate_mf(m) == _two_products(m)


def _non_square(f, phi0, phi1):
    return MFObject(QX, parse_poly(f, QX), 1, 2, _m(QX, 2, 1, phi0),
                    _m(QX, 1, 2, phi1))


@pytest.mark.parametrize("m, products, report", [
    # valid, square, f != 0: phi0∘phi1 follows and is not computed
    (_mf1(QX, "x^2", "x", "x"), 1, []),
    (_mf1(QX, "x^2", "x", "x^2"), 2, [EVEN, ODD]),
    (_mf1(QX, "0", "x", "0"), 2, []),
    (_mf1(QX, "0", "1", "x"), 2, [EVEN, ODD]),
    (_non_square("0", ["0", "0"], ["0", "0"]), 2, []),
    (_non_square("x", ["x", "0"], ["1", "0"]), 2, [ODD]),
], ids=["valid", "broken", "zero-f", "zero-f-broken", "non-square",
        "non-square-odd"])
def test_validate_mf_product_count(monkeypatch, m, products, report):
    calls = []
    mul = PolyMatrix.__mul__
    monkeypatch.setattr(PolyMatrix, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    assert validate_mf(m) == report
    assert len(calls) == products


def test_mf_constructor_shape_errors():
    with pytest.raises(ValueError):
        MFObject(QX, parse_poly("x^2", QX), 1, 2,
                 _m(QX, 1, 1, ["x"]), _m(QX, 1, 1, ["x"]))


def test_mf_shift_is_an_involution():
    rng = random.Random(411)
    for _ in range(25):
        m = genmod.random_mf(rng)
        s = mf_shift(m)
        assert validate_mf(s) == []
        assert (s.r0, s.r1) == (m.r1, m.r0)
        assert mf_shift(s) == m


def test_mf_cone_of_valid_morphisms_is_valid():
    rng = random.Random(412)
    for _ in range(25):
        g, _ = genmod.random_composable_pair(rng)
        a = fold_morphism(g)
        assert validate_mf_morphism(a) == []
        c = mf_cone(a)
        assert validate_mf(c) == []
        assert (c.r0, c.r1) == (a.target.r0 + a.source.r1,
                                a.target.r1 + a.source.r0)


def test_mf_tensor_disjoint_rings_golden():
    qy = polynomial_ring(rationals(), ("y",))
    a = _mf1(QX, "x^2", "x", "x")
    b = _mf1(qy, "y^2", "y", "y")
    t = mf_tensor(a, b)
    assert t.ring.varnames == ("x", "y")
    assert t.potential == parse_poly("x^2 + y^2", t.ring)
    assert (t.r0, t.r1) == (2, 2)
    assert validate_mf(t) == []
    assert residue_homology(t, {"x": 0, "y": 0}) == (2, 2)


def test_mf_tensor_same_ring():
    a = _mf1(QX, "x^2", "x", "x")
    t = mf_tensor(a, a)
    assert t.ring == QX
    assert t.potential == parse_poly("2*x^2", QX)
    assert validate_mf(t) == []


def test_mf_tensor_partial_collision_rejected():
    qxy = polynomial_ring(rationals(), ("x", "y"))
    qyz = polynomial_ring(rationals(), ("y", "z"))
    a = _mf1(qxy, "x*y", "x", "y")
    b = _mf1(qyz, "y*z", "y", "z")
    with pytest.raises(ValueError, match="collide"):
        mf_tensor(a, b)


def test_mf_tensor_random_factors_validate():
    rng = random.Random(413)
    for _ in range(15):
        a = genmod.random_mf(rng)
        b = genmod.random_mf(rng)
        if a.ring != b.ring and set(a.ring.varnames) & set(b.ring.varnames):
            continue
        t = mf_tensor(a, b)
        assert validate_mf(t) == []


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_orlov_fold_m3_golden():
    m = corpus.by_name("m3").module
    f = orlov_fold(m)
    ring = m.ring
    assert (f.r0, f.r1) == (2, 2)
    # E0 = (deg -2, deg 0), E1 = (deg -1); phi0 sends evens to odds
    assert f.phi0 == _m(ring, 2, 2, ["y", "y",
                                     "-x", "0"])
    assert f.phi1 == _m(ring, 2, 2, ["0", "-y",
                                     "x", "y"])
    assert validate_mf(f) == []


def test_orlov_fold_requires_one_potential():
    m = corpus.by_name("kuv").module
    with pytest.raises(ValueError):
        orlov_fold(m)


@pytest.mark.parametrize("name", [e.name for e in corpus.CORPUS
                                  if e.module.n == 1])
def test_orlov_fold_corpus_validates(name):
    m = corpus.by_name(name).module
    assert validate_mf(orlov_fold(m)) == []


def test_fold_then_unfold_two_term_identity():
    # a module already concentrated in [-1, 0] survives the round trip
    m = corpus.by_name("a1_module").module
    assert (m.lo, m.hi) == (-1, 0)
    assert orlov_unfold(orlov_fold(m)) == m


def test_unfold_then_fold_identity_random():
    rng = random.Random(414)
    for _ in range(40):
        mf = genmod.random_mf(rng)
        assert orlov_fold(orlov_unfold(mf)) == mf


def test_unfold_validates():
    rng = random.Random(415)
    for _ in range(15):
        mf = genmod.random_mf(rng)
        from koszulmf.koszul import validate_koszul
        assert validate_koszul(orlov_unfold(mf)) == []


def _compose(b, a):
    """b after a for Koszul morphisms, degree by degree."""
    lo = min(a.source.lo, b.target.lo)
    hi = max(a.source.hi, b.target.hi)
    return KoszulMorphism(a.source, b.target,
                          {m: b.component(m) * a.component(m)
                           for m in range(lo, hi + 1)})


def test_fold_morphism_preserves_composition():
    rng = random.Random(416)
    for _ in range(20):
        g1, g2 = genmod.random_composable_pair(rng)
        lhs = fold_morphism(_compose(g2, g1))
        rhs = compose_mf_morphisms(fold_morphism(g2), fold_morphism(g1))
        assert lhs == rhs


def test_fold_morphism_identity_folds_to_identity():
    m = corpus.by_name("m3").module
    comps = {u: PolyMatrix.identity(m.ring, m.rank(u))
             for u in range(m.lo, m.hi + 1)}
    a = fold_morphism(KoszulMorphism(m, m, comps))
    assert a.alpha0 == PolyMatrix.identity(m.ring, 2)
    assert a.alpha1 == PolyMatrix.identity(m.ring, 2)


# ---------------------------------------------------------------------------
# residue homology
# ---------------------------------------------------------------------------

def test_residue_homology_oracle_values():
    assert residue_homology(_mf1(QX, "x^2", "x", "x"), {"x": 0}) == (1, 1)
    assert residue_homology(_mf1(QX, "x^4", "x", "x^3"), {"x": 0}) == (1, 1)
    assert residue_homology(_mf1(QX, "x^2", "x^2", "1"), {"x": 0}) == (0, 0)
    m3 = corpus.by_name("m3").module
    assert residue_homology(orlov_fold(m3), {"x": 0, "y": 0}) == (2, 2)
    assert residue_homology(orlov_fold(m3), {"x": 1, "y": 0}) == (0, 0)


def test_residue_homology_off_locus():
    a = _mf1(QX, "x^2", "x", "x")
    with pytest.raises(ValueError) as exc:
        residue_homology(a, {"x": 2})
    assert "4" in str(exc.value)


def test_cone_of_identity_has_trivial_residue():
    a = _mf1(QX, "x^2", "x", "x")
    ident = MFMorphism(a, a, PolyMatrix.identity(QX, 1),
                       PolyMatrix.identity(QX, 1))
    c = mf_cone(ident)
    assert validate_mf(c) == []
    assert residue_homology(c, {"x": 0}) == (0, 0)
