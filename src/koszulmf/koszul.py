"""Koszul dg-modules: complexes with contraction operators for a potential.

A module here is a bounded free cochain complex (E, d) together with n
degree -1 operators h_1..h_n satisfying, exactly,

    h_i ∘ h_i = 0,   d ∘ h_i + h_i ∘ d = f_i · id,   h_i h_j + h_j h_i = 0,

for the potential tuple (f_1..f_n).  The free module on a complex carries
wedge coordinates: summands are ordered by descending exterior degree k,
subsets of {1..n} in lex order within each k, then the basis of the
underlying free module.  That order reproduces the classical block shapes
(for n=1: [[-d, 0], [f, d]] with the wedge part first).  Every map of the
free module, the counit, the mapping cone and the box tensor is a
`complexes.graded_map`, and the Koszul complex is the free module on one
generator (`koszul_complex`).

The cone's summands are laid out once (`_cone_summands`), for
`cone_koszul` and for the pointwise quasi-isomorphism evidence,
`cone_acyclic_at`, which does not build the cone: it ranks the cone's
differentials as sparse scalar rows, assembled from the evaluated blocks
of the morphism and its two modules.
"""

from bisect import bisect_left
from functools import cache, partial
from itertools import combinations

from koszulmf import linalg
from koszulmf.complexes import (FreeComplex, PolyMatrix, _first_difference,
                                as_evaluation, cone_rule, embed_matrix,
                                graded_map, shift_sign, tensor_rule,
                                validate_complex)
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
    """Report of broken axioms, each failed identity with its first
    differing entry (row-major); empty means valid."""
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
                zero = PolyMatrix.zero(m.ring, sq.rows, sq.cols)
                report.append(f"h_{i + 1} squares to nonzero at degree {deg}"
                              + _first_difference(sq, zero))
            anti = m.diff(deg - 1) * m.hop(i, deg) + m.hop(i, deg + 1) * m.diff(deg)
            want = PolyMatrix.scalar(m.ring, m.rank(deg), f)
            if anti != want:
                report.append(
                    f"d h_{i + 1} + h_{i + 1} d is not f_{i + 1}·id at degree {deg}"
                    + _first_difference(anti, want))
        for j in range(i + 1, m.n):
            for deg in range(m.lo, m.hi + 1):
                mixed = (m.hop(i, deg - 1) * m.hop(j, deg)
                         + m.hop(j, deg - 1) * m.hop(i, deg))
                if not mixed.is_zero:
                    zero = PolyMatrix.zero(m.ring, mixed.rows, mixed.cols)
                    report.append(f"h_{i + 1} and h_{j + 1} fail to anticommute "
                                  f"at degree {deg}"
                                  + _first_difference(mixed, zero))
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

class KoszulMorphism:
    """A degree-0 map between modules over one potential: the component at
    m is rank_tgt(m) x rank_src(m), over the union of the two windows.
    `validate_koszul_morphism` checks that it is a chain map of the
    underlying complexes and intertwines every h_i."""

    __slots__ = ("source", "target", "components", "lo", "hi")

    def __init__(self, source, target, components):
        if source.ring is not target.ring:
            raise ValueError("mixed rings")
        if source.potential != target.potential:
            raise ValueError("sources of a morphism must share the potential")
        self.source = source
        self.target = target
        self.lo = min(source.lo, target.lo)
        self.hi = max(source.hi, target.hi)
        # `component` reads the given dict; its zero fill covers the window
        self.components = components
        self.components = {m: self.component(m)
                           for m in range(self.lo, self.hi + 1)}

    def component(self, m):
        g = self.components.get(m)
        if g is None:
            return PolyMatrix.zero(self.source.ring,
                                   self.target.rank(m), self.source.rank(m))
        return g


def _side(a, b):
    """a·b, one side of a square.  When a or b has no nonzero entry it is
    the zero matrix of its shape, built without a product, after the shape
    and ring checks that `PolyMatrix.__mul__` makes."""
    if a.nz and b.nz or a.cols != b.rows or a.ring is not b.ring:
        return a * b
    return PolyMatrix.zero(a.ring, a.rows, b.cols)


def _square(a, b, c, d):
    """None when a·b = c·d; else the text ' at (i, j)' of their first
    differing entry (`_first_difference`), or '' when the two sides differ
    in shape."""
    lhs, rhs = _side(a, b), _side(c, d)
    if lhs == rhs:
        return None
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return ""
    return _first_difference(lhs, rhs)


def validate_koszul_morphism(g):
    """Report of problems, each failed square with its first differing
    entry (row-major); empty means valid.

    A side of a square with a factor that has no nonzero entry is zero: it
    is compared as the zero matrix, without a product, and still makes the
    shape and ring checks of the product (`_side`)."""
    src, tgt = g.source, g.target
    report = [f"degree {m}: component is {c.rows}x{c.cols}, "
              f"want {tgt.rank(m)}x{src.rank(m)}"
              for m, c in g.components.items()
              if (c.rows, c.cols) != (tgt.rank(m), src.rank(m))]
    if report:
        return report
    for m in range(g.lo, g.hi):
        at = _square(tgt.diff(m), g.component(m),
                     g.component(m + 1), src.diff(m))
        if at is not None:
            report.append(f"degree {m}: square does not commute{at}")
    for i in range(src.n):
        for m in range(g.lo, g.hi + 1):
            at = _square(tgt.hop(i, m), g.component(m),
                         g.component(m - 1), src.hop(i, m))
            if at is not None:
                report.append(f"degree {m}: component does not intertwine "
                              f"h_{i + 1}{at}")
    return report


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


def _cone_summands(src, tgt):
    """The summands of the cone of a morphism from src to tgt, degree by
    degree over the cone's window: at m, the source at m + 1, keyed
    ("s", m + 1), then the target at m, keyed ("t", m)."""
    lo, hi = min(src.lo - 1, tgt.lo), max(src.hi - 1, tgt.hi)
    return {m: [(("s", m + 1), src.rank(m + 1)), (("t", m), tgt.rank(m))]
            for m in range(lo, hi + 1)}


def cone_koszul(g):
    """Mapping cone of a Koszul morphism on `_cone_summands`, the shifted
    source first: d and each h_i are `graded_map`s of `cone_rule`, d with
    move k + 1 and the morphism block, each h_i with move k - 1 and none."""
    src, tgt = g.source, g.target
    summands = _cone_summands(src, tgt)
    lo, hi = min(summands), max(summands)

    def maps(fs, ft, step, degrees, block=None):
        rule = cone_rule(fs, ft, lambda k: k + step, block)
        return {m: graded_map(src.ring, summands[m], summands[m + step], rule)
                for m in degrees}

    ranks = {m: sum(r for _, r in s) for m, s in summands.items()}
    diffs = maps(src.diff, tgt.diff, 1, range(lo, hi), g.component)
    # h at the bottom degree maps to rank zero, which the module's zero
    # fill supplies
    h = [maps(partial(src.hop, i), partial(tgt.hop, i), -1,
              range(lo + 1, hi + 1)) for i in range(src.n)]
    underlying = FreeComplex(src.ring, lo, hi, ranks, diffs)
    return KoszulModule(src.ring, src.potential, underlying, h)


def shift_koszul(m, k):
    """Degree shift by k: the result at degree u is m at u + k, and d and
    every h_i pick up the sign (-1)^k."""
    lo, hi = m.lo - k, m.hi - k

    def shifted(f, degrees):
        return {u: shift_sign(f(u + k), k) for u in degrees}

    underlying = FreeComplex(m.ring, lo, hi,
                             {u: m.rank(u + k) for u in range(lo, hi + 1)},
                             shifted(m.diff, range(lo, hi)))
    h = [shifted(partial(m.hop, i), range(lo, hi + 1)) for i in range(m.n)]
    return KoszulModule(m.ring, m.potential, underlying, h)


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
        # fa ⊗ 1 + (-1)^p 1 ⊗ fb for maps of a and b of degree `step`; each
        # factor's map at each degree is embedded once, on first use
        ea = cache(lambda p: embed_matrix(fa(p), merged))
        eb = cache(lambda q: embed_matrix(fb(q), merged, off_b))
        rule = tensor_rule(merged, ea, eb, a.rank, b.rank, lambda p: p + step)
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
    """True when the cone of the underlying chain map is exact at the point.

    `point` is a point, or an `Evaluation` at one over g's ring that a
    caller shares between calls, so that an entry met again is not
    evaluated again.  The cone is not built: each of its differentials is
    assembled from the evaluated blocks as sparse scalar rows, laid out as
    `cone_koszul` places them on `_cone_summands` (in the columns of the
    source at m + 1 first, -d_src above g, then d_tgt in those of the
    target at m), and ranked by `linalg.sparse_rank`; the verdict is the
    rank arithmetic of `homology_dims_at` on `cone_koszul(g).underlying`.
    The rows of -d_src are ranked unnegated: they hold that block alone,
    and negating whole rows keeps the rank.  The evaluation hands out new
    rows on each call, so the shifted rows of d_tgt are written straight
    into those of g.
    """
    src, tgt = g.source, g.target
    ring = src.ring
    at = as_evaluation(ring, point)
    p = ring.char
    summands = _cone_summands(src, tgt)
    ranks = {}
    for m in range(min(summands), max(summands)):
        (_, shift), _ = summands[m]
        rows = list(at.rows(src.diff(m + 1)).values())
        bottom = at.rows(g.component(m + 1))
        for i, row in at.rows(tgt.diff(m)).items():
            out = bottom.setdefault(i, {})
            for j, v in row.items():
                out[j + shift] = v
        rows.extend(bottom.values())
        ranks[m] = linalg.sparse_rank(rows, p)
    return all(sum(r for _, r in s) == ranks.get(m, 0) + ranks.get(m - 1, 0)
               for m, s in summands.items())
