"""Matrix factorizations: axioms, folding, residue homology."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import corpus
import genmod
from koszulmf import complexes
from koszulmf.complexes import PolyMatrix, proves_scalar_product
from koszulmf.koszul import KoszulMorphism
from koszulmf.mf import (MFMorphism, MFObject, compose_mf_morphisms,
                         fold_morphism, mf_cone, mf_shift, mf_tensor,
                         orlov_fold, orlov_unfold, residue_homology,
                         validate_mf, validate_mf_morphism,
                         validate_mf_tensor)
from koszulmf.ring import Poly, parse_poly, polynomial_ring, prime_field, \
    rationals

QX = polynomial_ring(rationals(), ("x",))
QXY = polynomial_ring(rationals(), ("x", "y"))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))
QZW = polynomial_ring(rationals(), ("z", "w"))
F5ZW = polynomial_ring(prime_field(5), ("z", "w"))
EVEN = "phi1∘phi0 is not f·id on the even part"
ODD = "phi0∘phi1 is not f·id on the odd part"
AT00 = " at (0, 0)"


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
    entry summed term by term, and the first failing entry of each found by
    a row-major scan."""
    zero = Poly.zero(m.ring)

    def failing(a, b):
        return [f" at ({i}, {j})" for i in range(a.rows) for j in range(b.cols)
                if sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), zero)
                != (m.potential if i == j else zero)][:1]

    return ([EVEN + at for at in failing(m.phi1, m.phi0)]
            + [ODD + at for at in failing(m.phi0, m.phi1)])


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


def _wide(ring, draw_int):
    """A nonzero poly of up to four terms in the box {0, 1}^n, with
    coefficients that are units mod 5 and denominators 1, 2 and 3."""
    terms = {}
    while not terms:
        for _ in range(draw_int(1, 4)):
            exps = tuple(draw_int(0, 1) for _ in ring.varnames)
            terms[exps] = Fraction([1, -1, 2, -3][draw_int(0, 3)],
                                   draw_int(1, 3))
    return Poly(ring, terms)


def _dense_mf(ring, k, draw_int):
    """A factorization of rank 2^(k-1) whose entries fill in: the tensor
    product of the rank-one factorizations (a_i, b_i), i < k, of wide
    polys, with both bases changed by constant elementary moves (phi0 to
    V·phi0·U^-1, phi1 to U·phi1·V^-1).  It is valid, of a sum of k
    products a_i·b_i; `draw_int(lo, hi)` draws every choice."""
    m = None
    for _ in range(k):
        a, b = _wide(ring, draw_int), _wide(ring, draw_int)
        one = MFObject(ring, a * b, 1, 1, PolyMatrix(ring, 1, 1, [a]),
                       PolyMatrix(ring, 1, 1, [b]))
        m = one if m is None else mf_tensor(m, one)
    r = m.r0
    u = u_inv = v = v_inv = PolyMatrix.identity(ring, r)
    for _ in range(3 * r if r > 1 else 0):
        i = draw_int(0, r - 1)
        j = (i + draw_int(1, r - 1)) % r
        c = Poly.const(ring, [1, -1, 2][draw_int(0, 2)])
        e, e_inv = (_elementary(ring, r, i, j, c),
                    _elementary(ring, r, i, j, -c))
        if draw_int(0, 1):
            u, u_inv = u * e, e_inv * u_inv
        else:
            v, v_inv = v * e, e_inv * v_inv
    return MFObject(ring, m.potential, r, r, v * m.phi0 * u_inv,
                    u * m.phi1 * v_inv)


def _unit_at(ring, r, i, j):
    """The r x r matrix with 1 at (i, j) and zeros elsewhere."""
    return PolyMatrix(ring, r, r, [Poly.one(ring) if (a, b) == (i, j)
                                   else Poly.zero(ring)
                                   for a in range(r) for b in range(r)])


@st.composite
def _dense_pairs(draw, ring):
    """A square factorization of rank 2 or 4 with dense multi-term
    entries, which the slot reader of the product kernel decides, valid
    or with one fault: an entry of phi0 or phi1 changed, f moved by one
    monomial (each diagonal slot of that monomial off), or phi1 replaced
    by (I + E)·phi1 for a unit E off the diagonal, which leaves the
    diagonal of phi1∘phi0 at f and puts f at E's place."""
    def draw_int(lo, hi):
        return draw(st.integers(lo, hi))

    m = _dense_mf(ring, draw_int(2, 3), draw_int)
    r, f = m.r0, m.potential
    fault = draw(st.sampled_from([None, None, "entry", "f", "off"]))
    if fault == "entry":
        phis = [m.phi0, m.phi1]
        k = draw_int(0, 1)
        cells = phis[k].entries
        cells[draw_int(0, r * r - 1)] += draw(_polys(ring, True))
        phis[k] = PolyMatrix(ring, r, r, cells)
        return MFObject(ring, f, r, r, *phis)
    if fault == "f":
        exps = tuple(draw_int(0, 2) for _ in ring.varnames)
        return MFObject(ring, f + Poly(ring, {exps: 1}), r, r, m.phi0,
                        m.phi1)
    if fault == "off":
        i = draw_int(0, r - 1)
        j = (i + draw_int(1, r - 1)) % r
        eye = PolyMatrix.identity(ring, r)
        return MFObject(ring, f, r, r, m.phi0,
                        (eye + _unit_at(ring, r, i, j)) * m.phi1)
    return m


@pytest.mark.parametrize("ring", [QXY, F5XY], ids=["Q", "F5"])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_validate_mf_matches_the_two_product_report(ring, data):
    m = data.draw(_pairs(ring) | _dense_pairs(ring))
    decided = (m.r0 == m.r1 and not m.potential.is_zero
               and proves_scalar_product(m.phi1, m.phi0, m.potential))
    event(f"slot reader: {'proved' if decided else 'undecided'}")
    assert validate_mf(m) == _two_products(m)


def _r8(ring, seed=8):
    """A valid factorization of rank 8, with entries that fill in."""
    return _dense_mf(ring, 4, random.Random(seed).randint)


def _slot_sums(m):
    """(b, D, sums) of phi1∘phi0 as the slot reader sees them."""
    da = db = 1
    if not m.ring.char:
        da = complexes._denominator(m.phi1.nz)
        db = complexes._denominator(m.phi0.nz)
    b, sums = complexes._dense_sums(m.phi1.nz, m.phi0.nz,
                                    len(m.ring.varnames), da, db)
    return b, da * db, sums


@pytest.mark.parametrize("ring", [QXY, F5XY], ids=["Q", "F5"])
def test_slot_reader_proves_a_valid_rank_8_factorization(monkeypatch, ring):
    m = _r8(ring)
    _, d, sums = _slot_sums(m)
    if ring.char:
        # sums off the diagonal vanish only mod p, and the diagonal's
        # unreduced sums are not f's coefficients
        off = [v for i, row in sums.items() for j, out in row.items()
               if j != i for v in out]
        assert any(off) and not any(v % 5 for v in off)
        assert any(v >= 5 for v in sums[0][0])
    else:
        # D > 1, and f has a coefficient that is not an int
        assert d > 1
        assert any(type(c) is not int for c in m.potential.terms.values())
    assert proves_scalar_product(m.phi1, m.phi0, m.potential) is True
    calls = []
    mul = PolyMatrix.__mul__
    monkeypatch.setattr(PolyMatrix, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    assert validate_mf(m) == []
    assert calls == []


def _aliased_exponent(m):
    """f with one term x^e·y^e' (e' ≥ 1) moved to x^(e + b)·y^(e' - 1),
    which packs to the same slot in base b."""
    b, _, _ = _slot_sums(m)
    terms = dict(m.potential.terms)
    k = next(k for k in terms if k[1] >= 1)
    terms[(k[0] + b, k[1] - 1)] = terms.pop(k)
    return Poly(m.ring, terms)


def _aliased_coefficient(m):
    """f with one coefficient c moved to D·c / v, for a v in (D/2, D)
    that does not divide D and is prime to D·c: floored, D // v = 1
    would pack it as D·c."""
    _, d, _ = _slot_sums(m)
    terms = dict(m.potential.terms)
    k, c = next(iter(terms.items()))
    t = c * d
    v = next(v for v in range(d // 2 + 1, d)
             if d % v and math.gcd(t.numerator, v) == 1)
    terms[k] = Fraction(t.numerator, v)
    return Poly(m.ring, terms)


# fault -> (rings, the new (f, phi0, phi1) of the rank-8 factorization m,
# the entry where phi1∘phi0 first fails); each fault aims at one check of
# the slot reader, which must leave the identity undecided
READER_FAULTS = {
    # 1/D (over F_5, 1) more of one monomial in every diagonal entry
    "diagonal-slot-off-by-one": (
        [QXY, F5XY],
        lambda m: (m.potential
                   + Poly(m.ring, {(1, 1): Fraction(1, _slot_sums(m)[1])}),
                   m.phi0, m.phi1), (0, 0)),
    # (I + E)·phi1 with E the unit at (2, 5): the diagonal stays f
    "off-diagonal-only": (
        [QXY, F5XY],
        lambda m: (m.potential, m.phi0,
                   (PolyMatrix.identity(m.ring, 8)
                    + _unit_at(m.ring, 8, 2, 5)) * m.phi1), (2, 5)),
    "exponent-past-2-top": (
        [QXY, F5XY],
        lambda m: (_aliased_exponent(m), m.phi0, m.phi1), (0, 0)),
    "coefficient-not-integral-after-D": (
        [QXY],
        lambda m: (_aliased_coefficient(m), m.phi0, m.phi1), (0, 0)),
}


@pytest.mark.parametrize("fault", READER_FAULTS)
def test_slot_reader_leaves_planted_faults_undecided(fault):
    rings, plant, (i, j) = READER_FAULTS[fault]
    for ring in rings:
        f, phi0, phi1 = plant(_r8(ring))
        bad = MFObject(ring, f, 8, 8, phi0, phi1)
        assert proves_scalar_product(bad.phi1, bad.phi0,
                                     bad.potential) is False
        report = validate_mf(bad)
        assert report == _two_products(bad)
        assert report[0] == f"{EVEN} at ({i}, {j})"


def _non_square(f, phi0, phi1):
    return MFObject(QX, parse_poly(f, QX), 1, 2, _m(QX, 2, 1, phi0),
                    _m(QX, 1, 2, phi1))


@pytest.mark.parametrize("m, products, report", [
    # valid, square, f != 0: phi0∘phi1 follows and is not computed
    (_mf1(QX, "x^2", "x", "x"), 1, []),
    (_mf1(QX, "x^2", "x", "x^2"), 2, [EVEN + AT00, ODD + AT00]),
    (_mf1(QX, "0", "x", "0"), 2, []),
    (_mf1(QX, "0", "1", "x"), 2, [EVEN + AT00, ODD + AT00]),
    (_non_square("0", ["0", "0"], ["0", "0"]), 2, []),
    (_non_square("x", ["x", "0"], ["1", "0"]), 2, [ODD + " at (1, 1)"]),
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


def test_mf_tensor_random_factors_pass_the_structural_check():
    rng = random.Random(414)
    for _ in range(30):
        a, b = genmod.random_mf(rng), genmod.random_mf(rng)
        if a.ring != b.ring and set(a.ring.varnames) & set(b.ring.varnames):
            continue
        assert validate_mf_tensor(a, b, mf_tensor(a, b)) == []


# ---------------------------------------------------------------------------
# failure reports name the entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)])
def test_validate_mf_names_the_first_failing_entry(i, j):
    # x·id, x·id of x^2 with 1 added to one entry of phi1: phi1∘phi0 and
    # phi0∘phi1 both differ from f·id at (i, j) only
    r = 3
    diag = PolyMatrix.scalar(QX, r, parse_poly("x", QX))
    cells = diag.entries
    cells[i * r + j] += Poly.one(QX)
    m = MFObject(QX, parse_poly("x^2", QX), r, r, diag,
                 PolyMatrix(QX, r, r, cells))
    assert validate_mf(m) == [f"{EVEN} at ({i}, {j})", f"{ODD} at ({i}, {j})"]


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_validate_mf_morphism_names_the_first_failing_entry(i, j):
    # the identity of x·id, x·id with 1 added to one entry of alpha0: both
    # squares differ at (i, j) only
    r = 2
    m = MFObject(QX, parse_poly("x^2", QX), r, r,
                 PolyMatrix.scalar(QX, r, parse_poly("x", QX)),
                 PolyMatrix.scalar(QX, r, parse_poly("x", QX)))
    cells = PolyMatrix.identity(QX, r).entries
    cells[i * r + j] += Poly.one(QX)
    g = MFMorphism(m, m, PolyMatrix(QX, r, r, cells),
                   PolyMatrix.identity(QX, r))
    assert validate_mf_morphism(g) == [
        f"even square does not commute at ({i}, {j})",
        f"odd square does not commute at ({i}, {j})"]


# ---------------------------------------------------------------------------
# the structural check of the tensor product
# ---------------------------------------------------------------------------

@st.composite
def _factorizations(draw, ring):
    """A factorization: P·diag(a)·Q^-1 and Q·diag(b)·P^-1 of rank 1 or 2
    with a_i·b_i = f and P, Q unimodular; or, for f = 0, one map of ranks
    up to 2 each way with nonzero entries and the other map zero."""
    zero, one = Poly.zero(ring), Poly.one(ring)
    if draw(st.booleans()):
        g, h = draw(_polys(ring, True)), draw(_polys(ring, True))
        f = g * h
        r = draw(st.integers(1, 2))
        ab = [draw(st.sampled_from([(g, h), (h, g), (one, f), (f, one)]))
              for _ in range(r)]
        a, b = (PolyMatrix(ring, r, r, [ab[i][k] if i == j else zero
                                        for i in range(r) for j in range(r)])
                for k in (0, 1))
        p, p_inv = draw(_unimodular(ring, r))
        q, q_inv = draw(_unimodular(ring, r))
        return MFObject(ring, f, r, r, p * a * q_inv, q * b * p_inv)
    r0, r1 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    phi = PolyMatrix(ring, r1, r0, [draw(_polys(ring, True))
                                    for _ in range(r0 * r1)])
    if draw(st.booleans()):
        return MFObject(ring, zero, r0, r1, phi, PolyMatrix.zero(ring, r0, r1))
    return MFObject(ring, zero, r1, r0, PolyMatrix.zero(ring, r0, r1), phi)


FAULTS = ["entry", "sign", "move", "transpose", "drop", "stray", "shift"]


def _blocks(a, b, k):
    """Row and column ranges of the 2x2 summand blocks of map k of the
    tensor product of a and b: summands (p, q) ordered by p."""
    ra, rb = (a.r0, a.r1), (b.r0, b.r1)
    rows, cols = [ra[0] * rb[1 - k], ra[1] * rb[k]], [ra[0] * rb[k],
                                                      ra[1] * rb[1 - k]]
    return ([range(0, rows[0]), range(rows[0], sum(rows))],
            [range(0, cols[0]), range(cols[0], sum(cols))])


def _plant(a, b, t, k, fault, pick):
    """t with `fault` planted in map k, at the option `pick(n)` of the n
    where it changes something; t itself when there is none.  An entry
    is changed (1 added), dropped, added where there is none (a stray 1)
    or shifted one column into an empty cell.  Block faults act on a
    nonzero block (ti, si) of the map: its sign flipped, moved to the slot
    (1 - ti, 1 - si) of the same shape, or transposed when square."""
    mat = (t.phi0, t.phi1)[k]
    cells = [mat.row(i) for i in range(mat.rows)]
    zero, one = Poly.zero(t.ring), Poly.one(t.ring)
    rows, cols = _blocks(a, b, k)
    if fault in ("entry", "drop", "stray"):
        options = [(i, j) for i in range(mat.rows) for j in range(mat.cols)
                   if bool(cells[i][j]) == (fault != "stray")]
    elif fault == "shift":
        options = [(i, j, j + d) for i in range(mat.rows)
                   for j in range(mat.cols) for d in (-1, 1)
                   if cells[i][j] and 0 <= j + d < mat.cols
                   and not cells[i][j + d]]
    else:
        options = [(ti, si) for ti in (0, 1) for si in (0, 1)
                   if any(cells[i][j] for i in rows[ti] for j in cols[si])
                   and (fault == "sign"
                        or fault == "move" and (len(rows[ti]), len(cols[si]))
                        == (len(rows[1 - ti]), len(cols[1 - si]))
                        or fault == "transpose"
                        and len(rows[ti]) == len(cols[si]))]
    if not options:
        return t
    i, j, *to = options[pick(len(options))]
    if fault == "shift":
        cells[i][j], cells[i][to[0]] = zero, cells[i][j]
    elif fault in ("entry", "drop", "stray"):
        cells[i][j] = {"entry": cells[i][j] + one, "drop": zero,
                       "stray": one}[fault]
    else:
        br, bc = rows[i], cols[j]
        blk = [[cells[r][c] for c in bc] for r in br]
        for x, r in enumerate(br):
            for y, c in enumerate(bc):
                cells[r][c] = (-blk[x][y] if fault == "sign" else zero
                               if fault == "move" else blk[y][x])
        if fault == "move":
            for x, r in enumerate(rows[1 - i]):
                for y, c in enumerate(cols[1 - j]):
                    cells[r][c] = blk[x][y]
    phis = [t.phi0, t.phi1]
    phis[k] = PolyMatrix(t.ring, mat.rows, mat.cols,
                         [e for row in cells for e in row])
    return MFObject(t.ring, t.potential, t.r0, t.r1, *phis)


@pytest.mark.parametrize("rings", [(QXY, QXY), (F5XY, F5XY), (QXY, QZW),
                                   (F5XY, F5ZW)],
                         ids=["Q-same", "F5-same", "Q-disjoint",
                              "F5-disjoint"])
@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_structural_tensor_check_refuses_every_planted_fault(rings, data):
    a = data.draw(_factorizations(rings[0]))
    b = data.draw(_factorizations(rings[1]))
    t = mf_tensor(a, b)
    assert validate_mf_tensor(a, b, t) == []
    assert validate_mf(t) == []
    k = data.draw(st.sampled_from([0, 1]))
    fault = data.draw(st.sampled_from(FAULTS))
    bad = _plant(a, b, t, k, fault,
                 lambda n: data.draw(st.integers(0, n - 1)))
    report = validate_mf_tensor(a, b, bad)
    event(fault if bad != t else "nothing planted")
    if bad != t:
        assert report and report[0].startswith(f"phi{k} ")
    if not report:      # ok by structure: then ok by the two products
        assert validate_mf(bad) == []


def _square_pair():
    """Two 2x2 factorizations over Q[x, y] and Q[z, w], every block of
    their tensor product nonzero and not symmetric."""
    x, y, z, w = (parse_poly(v, r) for v, r in
                  (("x", QXY), ("y", QXY), ("z", QZW), ("w", QZW)))
    a = MFObject(QXY, x * y, 2, 2,
                 PolyMatrix(QXY, 2, 2, [x, y, Poly.zero(QXY), y]),
                 PolyMatrix(QXY, 2, 2, [y, -y, Poly.zero(QXY), x]))
    b = MFObject(QZW, z * w, 2, 2,
                 PolyMatrix(QZW, 2, 2, [z, Poly.zero(QZW), w, w]),
                 PolyMatrix(QZW, 2, 2, [w, Poly.zero(QZW), -w, z]))
    assert validate_mf(a) == validate_mf(b) == []
    return a, b


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("fault", FAULTS)
def test_structural_tensor_check_names_the_planted_fault(fault, k):
    # every entry left alone is right, so the report names the first
    # changed entry that is stored, or else the first one dropped
    a, b = _square_pair()
    t = mf_tensor(a, b)
    assert validate_mf_tensor(a, b, t) == []
    for choice in range(32):
        bad = _plant(a, b, t, k, fault, lambda n: choice % n)
        assert bad != t
        old, new = ((m.phi0, m.phi1)[k] for m in (t, bad))
        changed = [(i, j) for i in range(old.rows) for j in range(old.cols)
                   if old.at(i, j) != new.at(i, j)]
        wrong = [(i, j) for i, j in changed if new.at(i, j)]
        if wrong:
            want = f"phi{k} is not the factors' tensor at {min(wrong)}"
        else:
            want = f"phi{k} misses the factors' entry at {min(changed)}"
        assert validate_mf_tensor(a, b, bad) == [want]


def test_structural_tensor_check_refuses_ring_potential_and_ranks():
    a, b = _square_pair()
    t = mf_tensor(a, b)
    assert validate_mf_tensor(a, a, t) == [
        "ring is not the factors' merged ring"]
    moved = MFObject(t.ring, t.potential + Poly.one(t.ring), t.r0, t.r1,
                     t.phi0, t.phi1)
    assert validate_mf_tensor(a, b, moved) == [
        "potential is not the sum of the factors' potentials"]
    # zero factorizations of ranks (1, 0) and (1, 2): the product has
    # ranks (1, 2), and the one with the second factor shifted (2, 1)
    c = MFObject(QXY, Poly.zero(QXY), 1, 0, PolyMatrix.zero(QXY, 0, 1),
                 PolyMatrix.zero(QXY, 1, 0))
    d = MFObject(QZW, Poly.zero(QZW), 1, 2, PolyMatrix.zero(QZW, 2, 1),
                 PolyMatrix.zero(QZW, 1, 2))
    assert validate_mf_tensor(c, d, mf_tensor(c, d)) == []
    assert validate_mf_tensor(c, d, mf_tensor(c, mf_shift(d))) == [
        "ranks (2, 1) are not the product's (1, 2)"]


def test_structural_tensor_check_calls_no_builder(monkeypatch):
    a, b = _square_pair()
    t = mf_tensor(a, b)

    def never(*args):
        raise AssertionError("a builder or a product was called")

    for target in ("koszulmf.mf.mf_tensor", "koszulmf.mf.graded_map",
                   "koszulmf.mf.tensor_rule", "koszulmf.complexes.graded_map",
                   "koszulmf.complexes.tensor_rule", "koszulmf.complexes.kron",
                   "koszulmf.complexes.PolyMatrix.__mul__"):
        monkeypatch.setattr(target, never)
    assert validate_mf_tensor(a, b, t) == []


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
