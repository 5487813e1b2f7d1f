"""Koszul modules: free construction, counit, cones, shifts, tensor."""

import pytest

import corpus
from koszulmf.complexes import FreeComplex, PolyMatrix
from koszulmf.koszul import (KoszulMorphism, box_tensor,
                             compose_koszul_morphisms, cone_acyclic_at,
                             cone_koszul, counit_map, fk_layout, free_koszul,
                             koszul_complex, kron, shift_koszul,
                             validate_koszul, validate_koszul_morphism)
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
    lay = fk_layout(base, 2, -1)
    assert [(k, S) for (k, S, _, _) in lay] == \
        [(2, (0, 1)), (1, (0,)), (1, (1,)), (0, ())]
    assert [edeg for (_, _, edeg, _) in lay] == [1, 0, 0, -1]


@pytest.mark.parametrize("name", [e.name for e in corpus.CORPUS])
def test_validate_koszul_on_corpus(name):
    entry = corpus.by_name(name)
    assert validate_koszul(entry.module) == []


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


def test_scalar_endo_is_valid():
    m = corpus.by_name("m3").module
    g = _scalar_endo(m, parse_poly("x*y", m.ring))
    assert validate_koszul_morphism(g) == []


def test_compose_koszul_morphisms():
    m = corpus.by_name("m3").module
    gx = _scalar_endo(m, parse_poly("x", m.ring))
    gy = _scalar_endo(m, parse_poly("y", m.ring))
    gxy = compose_koszul_morphisms(gx, gy)
    assert gxy.component(0) == PolyMatrix.scalar(
        m.ring, m.rank(0), parse_poly("x*y", m.ring))
    assert validate_koszul_morphism(gxy) == []
    other = corpus.by_name("fk_x2").module
    with pytest.raises(ValueError):
        compose_koszul_morphisms(gx, _scalar_endo(other, parse_poly("x", QX)))


def test_cone_of_counit_is_valid():
    m = corpus.by_name("m3").module
    c = cone_koszul(counit_map(m))
    assert validate_koszul(c) == []
    free = free_koszul(m.underlying, m.potential)
    assert c.rank(m.lo - 1) == free.rank(m.lo)
    assert c.rank(0) == free.rank(1) + m.rank(0)


def test_cone_of_identity_is_valid_everywhere():
    for name in ("fk_x2", "kuv"):
        m = corpus.by_name(name).module
        ident = _scalar_endo(m, parse_poly("1", m.ring))
        c = cone_koszul(ident)
        assert validate_koszul(c) == []


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

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
