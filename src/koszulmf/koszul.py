"""Koszul dg-modules: complexes with contraction operators for a potential.

A module here is a bounded free cochain complex (E, d) together with n
degree -1 operators h_1..h_n satisfying, exactly,

    h_i ∘ h_i = 0,   d ∘ h_i + h_i ∘ d = f_i · id,   h_i h_j + h_j h_i = 0,

for the potential tuple (f_1..f_n).  The free module on a complex carries
wedge coordinates: summands are ordered by descending exterior degree k,
subsets of {1..n} in lex order within each k, then the basis of the
underlying free module.  That order reproduces the classical block shapes
(for n=1: [[-d, 0], [f, d]] with the wedge part first).  Every map of the
free module, the counit and the box tensor is a `complexes.graded_map`, and
the Koszul complex is the free module on one generator (`koszul_complex`).
"""

from bisect import bisect_left
from functools import partial
from itertools import combinations

from koszulmf.complexes import (ChainMap, FreeComplex, PolyMatrix,
                                component_shape_report, cone_chain,
                                embed_matrix, graded_map, homology_dims_at,
                                shift_complex, shift_sign, tensor_rule,
                                validate_chain_map, validate_complex)
from koszulmf.complexes import kron  # noqa: F401  (importable from here too)
from koszulmf.ring import Poly, embed, merge_rings


class KoszulModule:
    __slots__ = ("ring", "potential", "underlying", "h")

    def __init__(self, ring, potential, underlying, h):
        potential = tuple(potential)
        if not potential:
            raise ValueError("potential must be nonempty")
        for f in potential:
            if not isinstance(f, Poly) or f.ring is not ring:
                raise ValueError("potential entries must be Polys over the ring")
        if underlying.ring is not ring:
            raise ValueError("underlying complex has a different ring")
        if len(h) != len(potential):
            raise ValueError(f"need {len(potential)} h-families, got {len(h)}")
        self.ring = ring
        self.potential = potential
        self.underlying = underlying
        # `hop` reads the given families; its zero fills the window
        self.h = h
        self.h = [{m: self.hop(i, m) for m in underlying.degrees()}
                  for i in range(len(h))]

    @property
    def n(self):
        return len(self.potential)

    @property
    def lo(self):
        return self.underlying.lo

    @property
    def hi(self):
        return self.underlying.hi

    @property
    def amplitude(self):
        return self.hi - self.lo + 1

    def rank(self, m):
        return self.underlying.rank(m)

    def diff(self, m):
        return self.underlying.diff(m)

    def hop(self, i, m):
        g = self.h[i].get(m)
        if g is None:
            return PolyMatrix.zero(self.ring, self.rank(m - 1), self.rank(m))
        return g

    def __eq__(self, other):
        return (isinstance(other, KoszulModule) and self.ring is other.ring
                and self.potential == other.potential
                and self.underlying == other.underlying
                and self.h == other.h)

    def trim(self):
        u = self.underlying.trim()
        if u is self.underlying:
            return self
        return KoszulModule(self.ring, self.potential, u, self.h)

    def __repr__(self):
        return (f"KoszulModule(n={self.n}, "
                f"[{self.lo},{self.hi}] ranks "
                + " ".join(str(self.rank(m)) for m in self.underlying.degrees())
                + ")")


def validate_koszul(m):
    """Report of broken axioms; empty means valid."""
    report = [f"underlying: {r}" for r in validate_complex(m.underlying)]
    for i in range(m.n):
        for deg in range(m.lo, m.hi + 1):
            g = m.hop(i, deg)
            want = (m.rank(deg - 1), m.rank(deg))
            if (g.rows, g.cols) != want:
                report.append(f"h_{i + 1} at degree {deg}: shape "
                              f"{g.rows}x{g.cols}, want {want[0]}x{want[1]}")
    if report:
        return report
    for i in range(m.n):
        f = m.potential[i]
        for deg in range(m.lo, m.hi + 1):
            sq = m.hop(i, deg - 1) * m.hop(i, deg)
            if not sq.is_zero:
                report.append(f"h_{i + 1} squares to nonzero at degree {deg}")
            anti = m.diff(deg - 1) * m.hop(i, deg) + m.hop(i, deg + 1) * m.diff(deg)
            if anti != PolyMatrix.scalar(m.ring, m.rank(deg), f):
                report.append(
                    f"d h_{i + 1} + h_{i + 1} d is not f_{i + 1}·id at degree {deg}")
        for j in range(i + 1, m.n):
            for deg in range(m.lo, m.hi + 1):
                mixed = (m.hop(i, deg - 1) * m.hop(j, deg)
                         + m.hop(j, deg - 1) * m.hop(i, deg))
                if not mixed.is_zero:
                    report.append(f"h_{i + 1} and h_{j + 1} fail to anticommute "
                                  f"at degree {deg}")
    return report


# ---------------------------------------------------------------------------
# the free module on a complex
# ---------------------------------------------------------------------------

def fk_summands(e, n, u):
    """The summands ((k, S), rank) of the free module at degree u: exterior
    degree k descending, k-subsets S of {0..n-1} lex within each k.  The
    summand (k, S) is a copy of e at degree u + k."""
    return [((k, S), e.rank(u + k)) for k in range(n, -1, -1)
            for S in combinations(range(n), k)]


def fk_layout(e, n, u):
    """The summands of `fk_summands` as (k, S, edeg, rank), where
    edeg = u + k is the degree of e they copy."""
    return [(k, S, u + k, r) for (k, S), r in fk_summands(e, n, u)]


def free_ranks(e, n):
    """{u: rank} of the free module on the complex e for n potentials."""
    return {u: sum(r for _, r in fk_summands(e, n, u))
            for u in range(e.lo - n, e.hi + 1)}


def free_koszul(e, potential):
    """The free Koszul module on a complex for the given potential.

    The differential twists by the exterior degree and contracts against the
    potential; h_i is wedging with the i-th generator.  Each is one
    `graded_map` per degree, whose rule yields, for a wedge summand (k, S)
    at degree u, its blocks at the wedge summands of degree u + 1 (for d)
    or u - 1 (for each h_i).
    """
    ring = e.ring
    n = len(potential)
    if n == 0:
        raise ValueError("potential must be nonempty")
    lo, hi = e.lo - n, e.hi
    summands = {u: fk_summands(e, n, u) for u in range(lo - 1, hi + 2)}

    # the signed blocks are negated once here and shared by every slot
    neg_diff = {m: -e.diff(m) for m in e.degrees()}
    neg_potential = [-f for f in potential]

    def d_rule(u, key, r):
        # (-1)^k d on the same wedge coordinates, then the contraction
        # against the potential; the keys (k, S) and (k-1, S minus i_j)
        # never collide
        k, S = key
        yield key, e.diff(u + k) if k % 2 == 0 else neg_diff[u + k]
        for j, i_j in enumerate(S):
            f = potential[i_j] if j % 2 == 0 else neg_potential[i_j]
            yield (k - 1, S[:j] + S[j + 1:]), PolyMatrix.scalar(ring, r, f)

    units = (Poly.one(ring), -Poly.one(ring))

    def wedge_rule(i, key, r):
        # wedging e_i onto e_S from the left, with the sign of moving it
        # past the indices of S below i
        k, S = key
        if i not in S:
            below = bisect_left(S, i)
            yield ((k + 1, S[:below] + (i,) + S[below:]),
                   PolyMatrix.scalar(ring, r, units[below % 2]))

    diffs = {u: graded_map(ring, summands[u], summands[u + 1],
                           partial(d_rule, u))
             for u in range(lo, hi)}
    h = [{u: graded_map(ring, summands[u], summands[u - 1],
                        partial(wedge_rule, i))
          for u in range(lo, hi + 1)}
         for i in range(n)]
    ranks = {u: sum(r for _, r in summands[u]) for u in range(lo, hi + 1)}
    underlying = FreeComplex(ring, lo, hi, ranks, diffs)
    return KoszulModule(ring, potential, underlying, h)


def koszul_complex(ring, potential):
    """The Koszul complex of f_1..f_n in degrees [-n, 0]: the free module on
    one generator in degree 0.

    Degree -k has one generator e_S per lex-ordered k-subset S and
    d(e_S) = sum_j (-1)^(j+1) f_{i_j} e_{S minus i_j}  for S = {i_1<...<i_k}.
    """
    return free_koszul(FreeComplex(ring, 0, 0, {0: 1}, {}),
                       potential).underlying


# ---------------------------------------------------------------------------
# morphisms, the counit, cones
# ---------------------------------------------------------------------------

class KoszulMorphism(ChainMap):
    """A chain map of the underlying complexes between modules over one
    potential; `validate_koszul_morphism` also checks that it intertwines
    every h_i."""

    __slots__ = ()

    def __init__(self, source, target, components):
        super().__init__(source, target, components)
        if source.potential != target.potential:
            raise ValueError("sources of a morphism must share the potential")


def validate_koszul_morphism(g):
    report = component_shape_report(g)
    if report:
        return report
    report = validate_chain_map(g)
    src, tgt = g.source, g.target
    for i in range(src.n):
        for m in range(g.lo, g.hi + 1):
            lhs = tgt.hop(i, m) * g.component(m)
            rhs = g.component(m - 1) * src.hop(i, m)
            if lhs != rhs:
                report.append(f"degree {m}: component does not intertwine "
                              f"h_{i + 1}")
    return report


def compose_koszul_morphisms(b, a):
    """b after a; endpoints must line up."""
    if a.target != b.source:
        raise ValueError("morphisms do not compose")
    lo = min(a.source.lo, b.target.lo)
    hi = max(a.source.hi, b.target.hi)
    comps = {m: b.component(m) * a.component(m) for m in range(lo, hi + 1)}
    return KoszulMorphism(a.source, b.target, comps)


def counit_map(m):
    """The canonical map from the free module on the underlying complex."""
    return KoszulMorphism(free_koszul(m.underlying, m.potential), m,
                          counit_components(m))


def counit_components(m):
    """Components of the counit of m at the degrees of m's window; below it
    they map to zero, which a morphism's zero fill supplies.

    On a wedge coordinate x ⊗ e_{i1..ik} it applies the contraction
    operators in order, innermost last: h_{i1} ∘ ... ∘ h_{ik} (x); on the
    exterior-degree-0 part it is the identity.
    """
    e = m.underlying

    def rule(u, key, r):
        # h_{i1}(u+1) * h_{i2}(u+2) * ... * h_{ik}(u+k); identity for k=0
        k, S = key
        prod = PolyMatrix.identity(m.ring, r) if k == 0 else m.hop(S[0], u + 1)
        for pos in range(1, k):
            prod = prod * m.hop(S[pos], u + pos + 1)
        return [(0, prod)]

    return {u: graded_map(m.ring, fk_summands(e, m.n, u),
                          [(0, e.rank(u))], partial(rule, u))
            for u in e.degrees()}


def cone_koszul(g):
    """Mapping cone of a Koszul morphism; shifted source block first."""
    src, tgt = g.source, g.target
    ring = src.ring
    underlying = cone_chain(g)
    h = [{m: PolyMatrix.block(ring,
                              [[-src.hop(i, m + 1), None],
                               [None, tgt.hop(i, m)]],
                              [src.rank(m), tgt.rank(m - 1)],
                              [src.rank(m + 1), tgt.rank(m)])
          for m in underlying.degrees()}
         for i in range(src.n)]
    return KoszulModule(ring, src.potential, underlying, h)


def shift_koszul(m, k):
    """Degree shift by k: matrices pick up (-1)^k, degrees drop by k."""
    shifted = shift_complex(m.underlying, k)
    h = [{deg: shift_sign(m.hop(i, deg + k), k) for deg in shifted.degrees()}
         for i in range(m.n)]
    return KoszulModule(m.ring, m.potential, shifted, h)


# ---------------------------------------------------------------------------
# external tensor product
# ---------------------------------------------------------------------------

def box_tensor(a, b):
    """External tensor product over the merged polynomial ring.

    Degrees add; the potential is the sum of the promoted potentials entry
    by entry; the second factor's differential and contractions acquire the
    sign of the first factor's degree.  d (degree +1) and each h_i (degree
    -1) are `graded_map`s of one `tensor_rule` on summands (p, q), p + q
    the degree, ascending in p.
    """
    if a.n != b.n:
        raise ValueError("tensor factors must have the same potential length")
    merged = merge_rings(a.ring, b.ring)
    off_b = len(a.ring.varnames)
    potential = tuple(embed(f, merged) + embed(g, merged, off_b)
                      for f, g in zip(a.potential, b.potential))

    lo, hi = a.lo + b.lo, a.hi + b.hi
    summands = {m: [((p, m - p), a.rank(p) * b.rank(m - p))
                    for p in range(a.lo, a.hi + 1) if b.lo <= m - p <= b.hi]
                for m in range(lo - 1, hi + 2)}

    def maps(fa, fb, step, degrees):
        # fa ⊗ 1 + (-1)^p 1 ⊗ fb for maps of a and b of degree `step`
        rule = tensor_rule(merged, lambda p: embed_matrix(fa(p), merged),
                           lambda q: embed_matrix(fb(q), merged, off_b),
                           a.rank, b.rank, lambda p: p + step)
        return {m: graded_map(merged, summands[m], summands[m + step], rule)
                for m in degrees}

    ranks = {m: sum(r for (_, r) in summands[m]) for m in range(lo, hi + 1)}
    diffs = maps(a.diff, b.diff, 1, range(lo, hi))
    hfams = [maps(partial(a.hop, i), partial(b.hop, i), -1, range(lo, hi + 1))
             for i in range(a.n)]
    underlying = FreeComplex(merged, lo, hi, ranks, diffs)
    return KoszulModule(merged, potential, underlying, hfams)


# ---------------------------------------------------------------------------
# pointwise acyclicity of a morphism's cone (quasi-isomorphism evidence)
# ---------------------------------------------------------------------------

def cone_acyclic_at(g, point):
    """True when the cone of the underlying chain map is exact at the point."""
    cone = cone_chain(g)
    dims = homology_dims_at(cone, point)
    return all(v == 0 for v in dims.values())
