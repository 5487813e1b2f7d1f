"""Koszul dg-modules: complexes with contraction operators for a potential.

A module here is a bounded free cochain complex (E, d) together with n
degree -1 operators h_1..h_n satisfying, exactly,

    h_i ∘ h_i = 0,   d ∘ h_i + h_i ∘ d = f_i · id,   h_i h_j + h_j h_i = 0,

for the potential tuple (f_1..f_n).  The free module on a complex carries
wedge coordinates: summands are ordered by descending exterior degree k,
subsets of {1..n} in lex order within each k, then the basis of the
underlying free module.  That order reproduces the classical block shapes
(for n=1: [[-d, 0], [f, d]] with the wedge part first).
"""

from functools import partial
from itertools import combinations

from koszulmf.complexes import (ChainMap, FreeComplex, PolyMatrix,
                                component_shape_report, cone_chain,
                                embed_matrix, homology_dims_at, kron,
                                shift_complex, shift_sign,
                                validate_chain_map, validate_complex)
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

def fk_layout(e, n, u):
    """Coordinate blocks of the free module at degree u.

    Returns a list of (k, S, edeg, rank): exterior degree k descending,
    k-subsets S of {0..n-1} lex within each k, underlying degree edeg = u+k.
    """
    out = []
    for k in range(n, -1, -1):
        for S in combinations(range(n), k):
            out.append((k, S, u + k, e.rank(u + k)))
    return out


def free_ranks(e, n):
    """{u: rank} of the free module on the complex e for n potentials."""
    return {u: sum(r for (_, _, _, r) in fk_layout(e, n, u))
            for u in range(e.lo - n, e.hi + 1)}


def free_koszul(e, potential):
    """The free Koszul module on a complex for the given potential.

    The differential twists by the exterior degree and contracts against the
    potential; h_i is wedging with the i-th generator.  Both are built by
    one block assembler: a map of degree `step` (+1 for d, -1 for each h_i)
    places, for each nonzero wedge block (k, S) of its source, the blocks
    its rule yields at the wedge coordinates of the target.
    """
    ring = e.ring
    n = len(potential)
    if n == 0:
        raise ValueError("potential must be nonempty")
    lo, hi = e.lo - n, e.hi
    layouts = {u: fk_layout(e, n, u) for u in range(lo - 1, hi + 2)}

    def assemble(u, step, blocks):
        src, tgt = layouts[u], layouts[u + step]
        tpos = {(k, S): pos for pos, (k, S, _, _) in enumerate(tgt)}
        grid = [[None] * len(src) for _ in tgt]
        for col, (k, S, edeg, r) in enumerate(src):
            if r:
                for key, blk in blocks(k, S, edeg, r):
                    grid[tpos[key]][col] = blk
        return PolyMatrix.block(ring, grid, [r for (_, _, _, r) in tgt],
                                [r for (_, _, _, r) in src])

    # the signed blocks are negated once here and shared by every slot
    neg_diff = {m: -e.diff(m) for m in e.degrees()}
    neg_potential = [-f for f in potential]

    def d_blocks(k, S, edeg, r):
        # (-1)^k d on the same wedge coordinates, then the contraction
        # against the potential; the keys (k, S) and (k-1, S minus i_j)
        # never collide
        yield (k, S), e.diff(edeg) if k % 2 == 0 else neg_diff[edeg]
        for j, i_j in enumerate(S):
            f = potential[i_j] if j % 2 == 0 else neg_potential[i_j]
            yield (k - 1, S[:j] + S[j + 1:]), PolyMatrix.scalar(ring, r, f)

    units = (Poly.one(ring), -Poly.one(ring))

    def wedge_blocks(i, k, S, edeg, r):
        # wedging e_i onto e_S from the left, with the sign of moving it
        # past the indices of S below i
        if i not in S:
            below = sum(1 for x in S if x < i)
            yield ((k + 1, tuple(sorted(S + (i,)))),
                   PolyMatrix.scalar(ring, r, units[below % 2]))

    diffs = {u: assemble(u, 1, d_blocks) for u in range(lo, hi)}
    h = [{u: assemble(u, -1, partial(wedge_blocks, i))
          for u in range(lo, hi + 1)}
         for i in range(n)]
    underlying = FreeComplex(ring, lo, hi, free_ranks(e, n), diffs)
    return KoszulModule(ring, potential, underlying, h)


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
    """Components of the counit of m, degree by degree.

    On a wedge coordinate x ⊗ e_{i1..ik} it applies the contraction
    operators in order, innermost last: h_{i1} ∘ ... ∘ h_{ik} (x); on the
    exterior-degree-0 part it is the identity.
    """
    e = m.underlying
    n = m.n
    comps = {}
    for u in range(e.lo - n, e.hi + 1):
        layout = fk_layout(e, n, u)
        grid = [[None] * len(layout)]
        for col, (k, S, edeg, r) in enumerate(layout):
            if r == 0:
                continue
            # h_{i1}(u+1) * h_{i2}(u+2) * ... * h_{ik}(u+k); identity for k=0
            prod = None
            for pos, i_j in enumerate(S):
                h = m.hop(i_j, u + pos + 1)
                prod = h if prod is None else prod * h
            grid[0][col] = (PolyMatrix.identity(m.ring, e.rank(u))
                            if prod is None else prod)
        comps[u] = PolyMatrix.block(m.ring, grid, [e.rank(u)],
                                    [r for (_, _, _, r) in layout])
    return comps


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
    sign of the first factor's degree.  One map builder, `tensor_map`,
    makes d (degree +1) and each h_i (degree -1) from the factors' maps.
    """
    if a.n != b.n:
        raise ValueError("tensor factors must have the same potential length")
    merged = merge_rings(a.ring, b.ring)
    off_b = len(a.ring.varnames)
    potential = tuple(embed(f, merged) + embed(g, merged, off_b)
                      for f, g in zip(a.potential, b.potential))

    lo, hi = a.lo + b.lo, a.hi + b.hi
    # summands (p, q) with p+q = m, ascending in p; Kronecker a-major inside
    layouts = {m: [(p, m - p, a.rank(p) * b.rank(m - p))
                   for p in range(a.lo, a.hi + 1) if b.lo <= m - p <= b.hi]
               for m in range(lo - 1, hi + 2)}

    def tensor_map(fa, fb, step, m):
        # fa ⊗ 1 + (-1)^p 1 ⊗ fb, for maps fa of a and fb of b of degree
        # `step`
        src, tgt = layouts[m], layouts[m + step]
        tpos = {(p, q): i for i, (p, q, _) in enumerate(tgt)}
        grid = [[None] * len(src) for _ in tgt]
        for col, (p, q, r) in enumerate(src):
            if r == 0:
                continue
            row = tpos.get((p + step, q))
            if row is not None:
                grid[row][col] = kron(embed_matrix(fa(p), merged),
                                      PolyMatrix.identity(merged, b.rank(q)))
            row = tpos.get((p, q + step))
            if row is not None:
                blk = kron(PolyMatrix.identity(merged, a.rank(p)),
                           embed_matrix(fb(q), merged, off_b))
                grid[row][col] = blk if p % 2 == 0 else -blk
        return PolyMatrix.block(merged, grid, [r for (_, _, r) in tgt],
                                [r for (_, _, r) in src])

    ranks = {m: sum(r for (_, _, r) in layouts[m]) for m in range(lo, hi + 1)}
    diffs = {m: tensor_map(a.diff, b.diff, 1, m) for m in range(lo, hi)}
    hfams = [{m: tensor_map(partial(a.hop, i), partial(b.hop, i), -1, m)
              for m in range(lo, hi + 1)}
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
