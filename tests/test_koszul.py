"""Koszul modules: free construction, counit, cones, shifts, tensor."""

import pytest

import corpus
from koszulmf import koszul
from koszulmf.complexes import (FreeComplex, PolyMatrix, _first_difference,
                                kron)
from koszulmf.koszul import (KoszulModule, KoszulMorphism, box_tensor,
                             cone_acyclic_at, cone_koszul, counit_map,
                             fk_summands, free_koszul, koszul_complex,
                             shift_koszul, validate_koszul,
                             validate_koszul_morphism)
from koszulmf.ring import parse_poly, polynomial_ring, rationals

QX = polynomial_ring(rationals(), ("x",))
QY = polynomial_ring(rationals(), ("y",))


def _m(ring, rows, cols, entries):
    return PolyMatrix(ring, rows, cols,
                      [parse_poly(e, ring) for e in entries])


def _point_module(ring, fs):
    base = FreeComplex(ring, 0, 0, {0: 1}, {})
    return free_koszul(base, tuple(parse_poly(f, ring) for f in fs))


def _scalar_endo(m, poly):
    comps = {u: PolyMatrix.scalar(m.ring, m.rank(u), poly)
             for u in range(m.lo, m.hi + 1)}
    return KoszulMorphism(m, m, comps)


# ---------------------------------------------------------------------------
# free modules
# ---------------------------------------------------------------------------

def test_free_koszul_two_term_golden():
    base = FreeComplex(QX, -1, 0, {-1: 1, 0: 1}, {-1: _m(QX, 1, 1, ["x"])})
    fk = free_koszul(base, (parse_poly("x^2", QX),))
    assert (fk.lo, fk.hi) == (-2, 0)
    assert [fk.rank(u) for u in (-2, -1, 0)] == [1, 2, 1]
    assert fk.diff(-2) == _m(QX, 2, 1, ["-x", "x^2"])
    assert fk.diff(-1) == _m(QX, 1, 2, ["x^2", "x"])
    assert fk.hop(0, -1) == _m(QX, 1, 2, ["0", "1"])
    assert fk.hop(0, 0) == _m(QX, 2, 1, ["1", "0"])
    assert validate_koszul(fk) == []


@pytest.mark.parametrize("vars_fs", [
    (("u", "v"), ("u", "v")),
    (("x", "y", "z"), ("x*y", "y^2", "z")),
])
def test_free_koszul_of_point_is_koszul_complex(vars_fs):
    varnames, fs = vars_fs
    ring = polynomial_ring(rationals(), varnames)
    fk = _point_module(ring, fs)
    k = koszul_complex(ring, tuple(parse_poly(f, ring) for f in fs))
    assert fk.underlying == k
    assert validate_koszul(fk) == []


def test_fk_layout_descending_wedge_degree():
    base = FreeComplex(QX, 0, 0, {0: 1}, {})
    # at degree -1 the summand (k, S) copies degree -1 + k of the base
    assert fk_summands(base, 2, -1) == \
        [((2, (0, 1)), 0), ((1, (0,)), 1), ((1, (1,)), 1), ((0, ()), 0)]


@pytest.mark.parametrize("name", [e.name for e in corpus.CORPUS])
def test_validate_koszul_on_corpus(name):
    entry = corpus.by_name(name)
    assert validate_koszul(entry.module) == []


@pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)])
def test_validate_koszul_names_the_first_failing_entry(i, j):
    r = 3
    x, zero = parse_poly("x", QX), parse_poly("0", QX)
    eye = PolyMatrix.identity(QX, r)
    e = PolyMatrix(QX, r, r, [parse_poly("1" if (a, b) == (i, j) else "0",
                                         QX)
                              for a in range(r) for b in range(r)])
    # d = x·id and h_1 = x·id + E on two terms, f = x^2: d h + h d is
    # x^2·id + x·E at both degrees
    two = FreeComplex(QX, -1, 0, {-1: r, 0: r},
                      {-1: PolyMatrix.scalar(QX, r, x)})
    m = KoszulModule(QX, (x * x,), two,
                     [{0: PolyMatrix.scalar(QX, r, x) + e}])
    assert validate_koszul(m) == [
        f"d h_1 + h_1 d is not f_1·id at degree {deg} at ({i}, {j})"
        for deg in (-1, 0)]
    # d = 0 and f = 0 on three terms: h_1 = id, then E squares to E; with
    # the E in h_2 the two fail to anticommute by E
    three = FreeComplex(QX, -2, 0, {-2: r, -1: r, 0: r}, {})
    m = KoszulModule(QX, (zero,), three, [{0: eye, -1: e}])
    assert validate_koszul(m) == [
        f"h_1 squares to nonzero at degree 0 at ({i}, {j})"]
    m = KoszulModule(QX, (zero, zero), three, [{0: eye}, {-1: e}])
    assert validate_koszul(m) == [
        f"h_1 and h_2 fail to anticommute at degree 0 at ({i}, {j})"]


# ---------------------------------------------------------------------------
# morphisms and the counit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["m3", "fk_x2", "kuv", "two_term_xy"])
def test_counit_is_a_valid_morphism(name):
    m = corpus.by_name(name).module
    g = counit_map(m)
    assert g.target is m
    assert validate_koszul_morphism(g) == []


def test_validate_koszul_morphism_catches_noncommuting():
    m = corpus.by_name("m3").module
    comps = {0: PolyMatrix.identity(m.ring, m.rank(0))}
    g = KoszulMorphism(m, m, comps)
    assert validate_koszul_morphism(g) != []


def test_validate_koszul_morphism_reports_a_noncommuting_square():
    # R -x-> R with h = 1; the identity at degree 0 and zero at -1 breaks
    # the square with d at -1 and the one with h_1 at 0, in that order
    m = _point_module(QX, ["x"])
    g = KoszulMorphism(m, m, {0: PolyMatrix.identity(QX, 1)})
    assert validate_koszul_morphism(g) == [
        "degree -1: square does not commute at (0, 0)",
        "degree 0: component does not intertwine h_1 at (0, 0)"]


def test_validate_koszul_morphism_reports_each_bad_shape_once():
    m = _point_module(QX, ["x"])
    g = KoszulMorphism(m, m, {-1: _m(QX, 2, 1, ["1", "x"]),
                              0: PolyMatrix.identity(QX, 1)})
    assert validate_koszul_morphism(g) == [
        "degree -1: component is 2x1, want 1x1"]


def _reference_report(g):
    """The report of `validate_koszul_morphism` for a morphism of valid
    shapes, from both products of every square."""
    src, tgt = g.source, g.target
    report = []
    for m in range(g.lo, g.hi):
        lhs = tgt.diff(m) * g.component(m)
        rhs = g.component(m + 1) * src.diff(m)
        if lhs != rhs:
            report.append(f"degree {m}: square does not commute"
                          + _first_difference(lhs, rhs))
    for i in range(src.n):
        for m in range(g.lo, g.hi + 1):
            lhs = tgt.hop(i, m) * g.component(m)
            rhs = g.component(m - 1) * src.hop(i, m)
            if lhs != rhs:
                report.append(f"degree {m}: component does not intertwine "
                              f"h_{i + 1}" + _first_difference(lhs, rhs))
    return report


def test_morphism_report_names_the_first_differing_entry():
    # the identity of m3 with a 1 planted at (1, 0) of its degree -1
    # component: [[y], [y - x]] against [[y], [-x]] at degree -2,
    # [[x + y, y]] against [[x, y]] at -1, then the h_1 squares
    m = corpus.by_name("m3").module
    ring = m.ring
    comps = {u: PolyMatrix.identity(ring, m.rank(u)) for u in (-2, 0)}
    comps[-1] = _m(ring, 2, 2, ["1", "0", "1", "1"])
    g = KoszulMorphism(m, m, comps)
    assert validate_koszul_morphism(g) == _reference_report(g) == [
        "degree -2: square does not commute at (1, 0)",
        "degree -1: square does not commute at (0, 0)",
        "degree -1: component does not intertwine h_1 at (0, 0)",
        "degree 0: component does not intertwine h_1 at (1, 0)"]


@pytest.mark.parametrize("name", ["m3", "fk_x2", "kuv", "two_term_xy"])
def test_a_zero_component_against_a_nonzero_side(name):
    # each component of the counit zeroed in turn: the zero side is not
    # formed as a product, and the report is the one both products give
    g = counit_map(corpus.by_name(name).module)
    faults = 0
    for u in range(g.lo, g.hi + 1):
        c = g.component(u)
        if c.is_zero:
            continue
        comps = dict(g.components)
        comps[u] = PolyMatrix.zero(c.ring, c.rows, c.cols)
        bad = KoszulMorphism(g.source, g.target, comps)
        report = validate_koszul_morphism(bad)
        assert report and report == _reference_report(bad)
        faults += 1
    assert faults


def test_a_zero_factor_keeps_the_product_shape_check():
    # m3 with d at -1 widened to 1x3: the square at -1 has a zero component
    # on the left, and still fails the product's shape check
    m = corpus.by_name("m3").module
    ring = m.ring
    bad = FreeComplex(ring, m.lo, m.hi, m.underlying.ranks,
                      {-2: m.diff(-2), -1: _m(ring, 1, 3, ["x", "y", "0"])})
    wide = KoszulModule(ring, m.potential, bad, m.h)
    comps = {-1: PolyMatrix.zero(ring, 2, 2), 0: PolyMatrix.identity(ring, 1)}
    with pytest.raises(ValueError, match=r"shape mismatch 1x3 \* 2x2"):
        validate_koszul_morphism(KoszulMorphism(m, wide, comps))
    # sides of two shapes differ, with no entry to name
    tall = FreeComplex(ring, m.lo, m.hi, m.underlying.ranks,
                       {-2: _m(ring, 3, 1, ["y", "-x", "0"]),
                        -1: m.diff(-1)})
    ident = {u: PolyMatrix.identity(ring, m.rank(u)) for u in (-2, -1, 0)}
    g = KoszulMorphism(m, KoszulModule(ring, m.potential, tall, m.h), ident)
    assert validate_koszul_morphism(g) == [
        "degree -2: square does not commute"]


def test_scalar_endo_is_valid():
    m = corpus.by_name("m3").module
    g = _scalar_endo(m, parse_poly("x*y", m.ring))
    assert validate_koszul_morphism(g) == []


def test_cone_of_counit_is_valid():
    m = corpus.by_name("m3").module
    c = cone_koszul(counit_map(m))
    assert validate_koszul(c) == []
    free = free_koszul(m.underlying, m.potential)
    assert c.rank(m.lo - 1) == free.rank(m.lo)
    assert c.rank(0) == free.rank(1) + m.rank(0)


def test_cone_koszul_of_an_identity_is_a_module():
    m = _point_module(QX, ["x"])
    g = _scalar_endo(m, parse_poly("1", QX))
    assert validate_koszul_morphism(g) == []
    cone = cone_koszul(g)
    assert validate_koszul(cone) == []
    assert (cone.lo, cone.hi) == (-2, 0)
    assert [cone.rank(u) for u in (-2, -1, 0)] == [1, 2, 1]


def test_cone_of_identity_is_valid_everywhere():
    for name in ("fk_x2", "kuv"):
        m = corpus.by_name(name).module
        ident = _scalar_endo(m, parse_poly("1", m.ring))
        c = cone_koszul(ident)
        assert validate_koszul(c) == []


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def test_shift_koszul_signs_and_involution():
    m = _point_module(QX, ["x"])        # R -x-> R in degrees -1, 0, h = 1
    s = shift_koszul(m, 1)
    assert (s.lo, s.hi) == (-2, -1)
    assert s.diff(-2) == _m(QX, 1, 1, ["-x"])
    assert s.hop(0, -1) == _m(QX, 1, 1, ["-1"])
    assert validate_koszul(s) == []
    assert shift_koszul(s, -1) == m
    two = shift_koszul(m, 2)
    assert (two.diff(-3), two.hop(0, -2)) == (m.diff(-1), m.hop(0, 0))


def test_shift_koszul_involution():
    m = corpus.by_name("m3").module
    assert shift_koszul(shift_koszul(m, 1), -1) == m
    assert shift_koszul(m, 0) == m


def test_shift_koszul_by_two_keeps_matrices():
    m = corpus.by_name("m3").module
    s = shift_koszul(m, 2)
    assert (s.lo, s.hi) == (m.lo - 2, m.hi - 2)
    assert s.diff(s.lo) == m.diff(m.lo)
    assert s.hop(0, s.hi) == m.hop(0, m.hi)
    assert validate_koszul(s) == []


def test_shift_koszul_odd_flips_signs():
    m = corpus.by_name("fk_x2").module
    s = shift_koszul(m, 1)
    assert s.diff(s.lo) == -m.diff(m.lo)
    assert s.hop(0, 0) == -m.hop(0, 1)
    assert validate_koszul(s) == []


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_box_tensor_golden():
    a = _point_module(QX, ("x^2",))
    b = _point_module(QY, ("y^3",))
    t = box_tensor(a, b)
    assert t.ring.varnames == ("x", "y")
    assert len(t.potential) == 1
    assert t.potential[0] == parse_poly("x^2 + y^3", t.ring)
    assert (t.lo, t.hi) == (-2, 0)
    assert [t.rank(u) for u in (-2, -1, 0)] == [1, 2, 1]
    assert validate_koszul(t) == []


def test_box_tensor_bigger_factors():
    base = FreeComplex(QX, -1, 0, {-1: 1, 0: 1}, {-1: _m(QX, 1, 1, ["x"])})
    a = free_koszul(base, (parse_poly("x^2", QX),))
    b = _point_module(QY, ("y^2",))
    t = box_tensor(a, b)
    assert validate_koszul(t) == []
    assert t.amplitude == a.amplitude + b.amplitude - 1


def test_box_tensor_embeds_each_map_once(monkeypatch):
    # two free modules on x -> x·(rank 1), ranks 1, 2, 1 each: the tensor
    # has ranks 1, 4, 6, 4, 1
    def two_term(ring, v):
        base = FreeComplex(ring, -1, 0, {-1: 1, 0: 1},
                           {-1: _m(ring, 1, 1, [v])})
        return free_koszul(base, (parse_poly(f"{v}^2", ring),))

    embedded = []
    real = koszul.embed_matrix

    def counting(mat, ring, offset=0):
        embedded.append(mat)    # held, so no id is reused
        return real(mat, ring, offset)

    monkeypatch.setattr(koszul, "embed_matrix", counting)
    t = box_tensor(two_term(QX, "x"), two_term(QY, "y"))
    assert [t.rank(u) for u in range(t.lo, t.hi + 1)] == [1, 4, 6, 4, 1]
    assert validate_koszul(t) == []
    assert embedded
    assert len({id(mat) for mat in embedded}) == len(embedded)


def test_box_tensor_variable_collision():
    a = _point_module(QX, ("x^2",))
    with pytest.raises(ValueError, match="collide"):
        box_tensor(a, a)


def test_box_tensor_mismatched_length():
    a = _point_module(QX, ("x^2",))
    b = _point_module(polynomial_ring(rationals(), ("u", "v")), ("u", "v"))
    with pytest.raises(ValueError):
        box_tensor(a, b)


def test_kron_shapes_and_values():
    x = _m(QX, 1, 1, ["x"])
    i2 = PolyMatrix.identity(QX, 2)
    assert kron(x, i2) == _m(QX, 2, 2, ["x", "0", "0", "x"])
    a = _m(QX, 2, 1, ["1", "x"])
    b = _m(QX, 1, 2, ["x", "2"])
    assert kron(a, b) == _m(QX, 2, 2, ["x", "2", "x^2", "2*x"])


# ---------------------------------------------------------------------------
# pointwise acyclicity
# ---------------------------------------------------------------------------

def test_cone_acyclic_at_identity_and_zero():
    m = corpus.by_name("m3").module
    ident = _scalar_endo(m, parse_poly("1", m.ring))
    zero = _scalar_endo(m, parse_poly("0", m.ring))
    origin = {"x": 0, "y": 0}
    axis = {"x": 1, "y": 0}
    assert cone_acyclic_at(ident, origin)
    assert cone_acyclic_at(ident, axis)
    # cone of zero is shift(M) + M; exact only where M itself is exact
    assert not cone_acyclic_at(zero, origin)
    assert cone_acyclic_at(zero, axis)
