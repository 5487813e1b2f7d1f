"""The block assembler `graded_map` and the constructions built on it.

The factorization tensor, the Koszul complex and the two mapping cones
are compared with hand-written reference implementations: a 2x2 grid of
Kronecker blocks, a Koszul differential filled entry by entry, and 2x2
`PolyMatrix.block` grids of each cone's maps.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from koszulmf.complexes import FreeComplex, PolyMatrix, embed_matrix, \
    graded_map, kron
from koszulmf.koszul import KoszulModule, KoszulMorphism, box_tensor, \
    cone_koszul, free_koszul, koszul_complex
from koszulmf.mf import MFMorphism, MFObject, mf_cone, mf_tensor
from koszulmf.ring import Poly, embed, merge_rings, polynomial_ring, \
    prime_field, rationals

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

QX = polynomial_ring(rationals(), ("x",))
QY = polynomial_ring(rationals(), ("y",))
QXY = polynomial_ring(rationals(), ("x", "y"))
F5X = polynomial_ring(prime_field(5), ("x",))
F5Y = polynomial_ring(prime_field(5), ("y",))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))
QXYZW = polynomial_ring(rationals(), ("x", "y", "z", "w"))
F5XYZW = polynomial_ring(prime_field(5), ("x", "y", "z", "w"))

# (first ring, second ring): one ring, or disjoint variables
RING_PAIRS = [(QXY, QXY), (F5XY, F5XY), (QX, QY), (F5X, F5Y)]


@st.composite
def polys(draw, ring):
    """A random poly over `ring`, zero included: up to three terms with
    exponents below 3 and small fractions as coefficients."""
    nv = len(ring.varnames)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(nv))
        terms[exps] = Fraction(draw(st.integers(-4, 4)),
                               draw(st.sampled_from([1, 1, 2, 3])))
    return Poly(ring, terms)


@st.composite
def matrices(draw, ring, rows, cols):
    return PolyMatrix(ring, rows, cols,
                      [draw(polys(ring)) for _ in range(rows * cols)])


@st.composite
def factorizations(draw, ring):
    """An MFObject over `ring` with random maps, not a valid factorization:
    the tensor is linear algebra on the maps and never checks them."""
    r0, r1 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return MFObject(ring, draw(polys(ring)), r0, r1,
                    draw(matrices(ring, r1, r0)),
                    draw(matrices(ring, r0, r1)))


@st.composite
def modules(draw, ring, potential):
    """A KoszulModule with a window of one to three degrees in [-2, 3],
    ranks 0..2 and random maps: not a valid module, since a cone is linear
    algebra on the maps and never checks them."""
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.integers(0, 2))
    ranks = {m: draw(st.integers(0, 2)) for m in range(lo, hi + 1)}
    c = FreeComplex(ring, lo, hi, ranks,
                    {m: draw(matrices(ring, ranks[m + 1], ranks[m]))
                     for m in range(lo, hi)})
    h = [{m: draw(matrices(ring, c.rank(m - 1), c.rank(m)))
          for m in c.degrees()} for _ in potential]
    return KoszulModule(ring, potential, c, h)


def cone_chain_reference(g):
    """The mapping cone of a chain map as 2x2 block grids: d at m is
    [[-d_src(m+1), 0], [g(m+1), d_tgt(m)]], the source at m+1 first."""
    src, tgt = g.source, g.target
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    ranks = {m: src.rank(m + 1) + tgt.rank(m) for m in range(lo, hi + 1)}
    diffs = {m: PolyMatrix.block(src.ring,
                                 [[-src.diff(m + 1), None],
                                  [g.component(m + 1), tgt.diff(m)]],
                                 [src.rank(m + 2), tgt.rank(m + 1)],
                                 [src.rank(m + 1), tgt.rank(m)])
             for m in range(lo, hi)}
    return FreeComplex(src.ring, lo, hi, ranks, diffs)


def cone_koszul_reference(g):
    """The mapping cone of a Koszul morphism: the chain cone, and h_i at m
    the grid [[-h_i^src(m+1), 0], [0, h_i^tgt(m)]]."""
    src, tgt = g.source, g.target
    underlying = cone_chain_reference(g)
    h = [{m: PolyMatrix.block(src.ring,
                              [[-src.hop(i, m + 1), None],
                               [None, tgt.hop(i, m)]],
                              [src.rank(m), tgt.rank(m - 1)],
                              [src.rank(m + 1), tgt.rank(m)])
          for m in underlying.degrees()}
         for i in range(src.n)]
    return KoszulModule(src.ring, src.potential, underlying, h)


def mf_cone_reference(a):
    """The mapping cone of a factorization morphism as 2x2 block grids,
    the target first: even part (F0, E1), odd part (F1, E0)."""
    s, t = a.source, a.target
    phi0 = PolyMatrix.block(s.ring, [[t.phi0, a.alpha1], [None, -s.phi1]],
                            [t.r1, s.r0], [t.r0, s.r1])
    phi1 = PolyMatrix.block(s.ring, [[t.phi1, a.alpha0], [None, -s.phi0]],
                            [t.r0, s.r1], [t.r1, s.r0])
    return MFObject(s.ring, s.potential, t.r0 + s.r1, t.r1 + s.r0,
                    phi0, phi1)


def mf_tensor_reference(a, b):
    """The factorization tensor as a hand-written grid of Kronecker
    blocks: even part (E0⊗F0, E1⊗F1), odd part (E0⊗F1, E1⊗F0)."""
    if a.ring is b.ring:
        merged, off = a.ring, 0
    else:
        merged, off = merge_rings(a.ring, b.ring), len(a.ring.varnames)
    f = embed(a.potential, merged) + embed(b.potential, merged, off)
    p0, p1 = embed_matrix(a.phi0, merged), embed_matrix(a.phi1, merged)
    q0 = embed_matrix(b.phi0, merged, off)
    q1 = embed_matrix(b.phi1, merged, off)
    i_r0 = PolyMatrix.identity(merged, a.r0)
    i_r1 = PolyMatrix.identity(merged, a.r1)
    i_s0 = PolyMatrix.identity(merged, b.r0)
    i_s1 = PolyMatrix.identity(merged, b.r1)
    t0 = PolyMatrix.block(
        merged,
        [[kron(i_r0, q0), kron(p1, i_s1)],
         [kron(p0, i_s0), -kron(i_r1, q1)]],
        [a.r0 * b.r1, a.r1 * b.r0], [a.r0 * b.r0, a.r1 * b.r1])
    t1 = PolyMatrix.block(
        merged,
        [[kron(i_r0, q1), kron(p1, i_s0)],
         [kron(p0, i_s1), -kron(i_r1, q0)]],
        [a.r0 * b.r0, a.r1 * b.r1], [a.r0 * b.r1, a.r1 * b.r0])
    return MFObject(merged, f, a.r0 * b.r0 + a.r1 * b.r1,
                    a.r0 * b.r1 + a.r1 * b.r0, t0, t1)


def koszul_complex_reference(ring, potential):
    """The Koszul complex of f_1..f_n in degrees [-n, 0], entry by entry:
    d(e_S) = sum_j (-1)^(j+1) f_{i_j} e_{S minus i_j}, subsets in lex
    order."""
    n = len(potential)
    subsets = {k: list(combinations(range(n), k)) for k in range(n + 1)}
    ranks = {-k: len(subsets[k]) for k in range(n + 1)}
    zero = Poly.zero(ring)
    diffs = {}
    for k in range(1, n + 1):
        src, tgt = subsets[k], subsets[k - 1]
        index = {S: i for i, S in enumerate(tgt)}
        cells = [zero] * (len(tgt) * len(src))
        for col, S in enumerate(src):
            for j, i_j in enumerate(S):
                rest = tuple(x for x in S if x != i_j)
                coeff = potential[i_j] if j % 2 == 0 else -potential[i_j]
                cells[index[rest] * len(src) + col] += coeff
        diffs[-k] = PolyMatrix(ring, len(tgt), len(src), cells)
    return FreeComplex(ring, -n, 0, ranks, diffs)


@SETTINGS
@given(st.data())
def test_mf_tensor_matches_the_hand_written_grid(data):
    ra, rb = data.draw(st.sampled_from(RING_PAIRS))
    a = data.draw(factorizations(ra))
    b = data.draw(factorizations(rb))
    assert mf_tensor(a, b) == mf_tensor_reference(a, b)


def test_tensor_products_multiply_no_polys(monkeypatch):
    # every block of `tensor_rule` is a Kronecker product with an identity,
    # which holds the factors' entries as they are
    rng = random.Random(7)
    terms = [{(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
              for _ in range(3)} for _ in range(16)]
    entries = [Poly(QXY, t) for t in terms]
    a = MFObject(QXY, entries[0], 2, 2,
                 PolyMatrix(QXY, 2, 2, entries[1:5]),
                 PolyMatrix(QXY, 2, 2, entries[5:9]))
    b = MFObject(QXY, entries[9], 1, 2,
                 PolyMatrix(QXY, 2, 1, entries[10:12]),
                 PolyMatrix(QXY, 1, 2, entries[12:14]))
    x = free_koszul(FreeComplex(QX, -1, 0, {-1: 2, 0: 1}, {
        -1: PolyMatrix(QX, 1, 2, [Poly.var(QX, "x")] * 2)}),
        (Poly(QX, {(2,): 1}),))
    y = free_koszul(FreeComplex(QY, -1, 0, {-1: 1, 0: 1}, {
        -1: PolyMatrix(QY, 1, 1, [Poly.var(QY, "y")])}),
        (Poly(QY, {(3,): 1}),))
    products = []
    real = Poly.__mul__

    def mul(self, other):
        products.append((self, other))
        return real(self, other)

    def total(m):
        return sum(m.rank(u) for u in range(m.lo, m.hi + 1))

    monkeypatch.setattr(Poly, "__mul__", mul)
    t = mf_tensor(a, b)
    box = box_tensor(x, y)
    assert products == []
    assert (t.r0, t.r1) == (6, 6) and total(box) == total(x) * total(y)
    held = {id(e) for m in (a.phi0, a.phi1, b.phi0, b.phi1)
            for row in m.nz.values() for e in row.values()}
    assert any(id(e) in held for row in t.phi0.nz.values()
               for e in row.values())


@SETTINGS
@given(st.data())
def test_koszul_complex_matches_the_entrywise_reference(data):
    ring = data.draw(st.sampled_from([QXYZW, F5XYZW]))
    n = data.draw(st.integers(1, 4))
    potential = tuple(data.draw(polys(ring)) for _ in range(n))
    assert koszul_complex(ring, potential) == \
        koszul_complex_reference(ring, potential)


@SETTINGS
@given(st.data())
def test_cones_match_the_hand_written_grids(data):
    ring = data.draw(st.sampled_from([QXY, F5XY]))
    potential = tuple(data.draw(polys(ring))
                      for _ in range(data.draw(st.integers(1, 2))))
    src = data.draw(modules(ring, potential))
    tgt = data.draw(modules(ring, potential))
    lo, hi = min(src.lo, tgt.lo), max(src.hi, tgt.hi)
    g = KoszulMorphism(src, tgt, {
        m: data.draw(matrices(ring, tgt.rank(m), src.rank(m)))
        for m in range(lo, hi + 1)})
    # the modules' d (the reference's `cone_chain_reference`) and every h_i
    assert cone_koszul(g) == cone_koszul_reference(g)
    s = data.draw(factorizations(ring))
    t = data.draw(factorizations(ring))
    t = MFObject(ring, s.potential, t.r0, t.r1, t.phi0, t.phi1)
    a = MFMorphism(s, t, data.draw(matrices(ring, t.r0, s.r0)),
                   data.draw(matrices(ring, t.r1, s.r1)))
    assert mf_cone(a) == mf_cone_reference(a)


def test_graded_map_places_blocks_by_key():
    one = Poly.one(QX)
    x = Poly(QX, {(1,): 1})
    calls = []

    def rule(key, r):
        calls.append((key, r))
        yield "out", PolyMatrix.scalar(QX, r, x)     # not a target summand
        yield key.upper(), PolyMatrix.scalar(QX, r, one)

    src = [("a", 1), ("b", 0), ("c", 2)]
    tgt = [("C", 2), ("B", 1), ("A", 1)]
    got = graded_map(QX, src, tgt, rule)
    # the zero-rank summand "b" is never handed to the rule
    assert calls == [("a", 1), ("c", 2)]
    # rows: C (2), B (1), A (1); columns: a (1), b (0), c (2)
    assert (got.rows, got.cols) == (4, 3)
    assert got.nz == {0: {1: one}, 1: {2: one}, 3: {0: one}}
