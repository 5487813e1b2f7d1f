"""Matrix factorizations of a single potential, and the folding equivalence.

A factorization is a pair of free modules E0, E1 with maps
phi0 : E0 -> E1 and phi1 : E1 -> E0 composing to f times the identity both
ways.  Folding turns a one-potential Koszul module into a factorization by
summing even degrees into E0 and odd degrees into E1 (each in ascending
degree order) and assembling d + h into the two maps; unfolding is the
two-term inverse.  The fold, the folded morphism and the tensor product
assemble their maps with `complexes.graded_map`.
"""

from koszulmf import linalg
from koszulmf.complexes import (FreeComplex, PolyMatrix, embed_matrix,
                                graded_map, tensor_rule)
from koszulmf.koszul import KoszulModule
from koszulmf.ring import Poly, embed, evaluate, merge_rings


class MFObject:
    __slots__ = ("ring", "potential", "r0", "r1", "phi0", "phi1")

    def __init__(self, ring, potential, r0, r1, phi0, phi1):
        if not isinstance(potential, Poly) or potential.ring is not ring:
            raise ValueError("potential must be a Poly over the ring")
        if (phi0.rows, phi0.cols) != (r1, r0):
            raise ValueError(f"phi0 is {phi0.rows}x{phi0.cols}, want {r1}x{r0}")
        if (phi1.rows, phi1.cols) != (r0, r1):
            raise ValueError(f"phi1 is {phi1.rows}x{phi1.cols}, want {r0}x{r1}")
        self.ring = ring
        self.potential = potential
        self.r0 = r0
        self.r1 = r1
        self.phi0 = phi0
        self.phi1 = phi1

    def __eq__(self, other):
        return (isinstance(other, MFObject) and self.ring is other.ring
                and self.potential == other.potential
                and (self.r0, self.r1) == (other.r0, other.r1)
                and self.phi0 == other.phi0 and self.phi1 == other.phi1)

    def __repr__(self):
        return f"MFObject(f={self.potential}, ranks ({self.r0},{self.r1}))"


class MFMorphism:
    """Degree-0 morphism: alpha0 on the even parts, alpha1 on the odd parts."""

    __slots__ = ("source", "target", "alpha0", "alpha1")

    def __init__(self, source, target, alpha0, alpha1):
        if (source.ring is not target.ring
                or source.potential != target.potential):
            raise ValueError("morphism endpoints must share ring and potential")
        if (alpha0.rows, alpha0.cols) != (target.r0, source.r0):
            raise ValueError("alpha0 shape mismatch")
        if (alpha1.rows, alpha1.cols) != (target.r1, source.r1):
            raise ValueError("alpha1 shape mismatch")
        self.source = source
        self.target = target
        self.alpha0 = alpha0
        self.alpha1 = alpha1

    def __eq__(self, other):
        return (isinstance(other, MFMorphism) and self.source == other.source
                and self.target == other.target
                and self.alpha0 == other.alpha0 and self.alpha1 == other.alpha1)


def validate_mf(m):
    report = []
    f0 = PolyMatrix.scalar(m.ring, m.r0, m.potential)
    f1 = PolyMatrix.scalar(m.ring, m.r1, m.potential)
    if m.phi1 * m.phi0 != f0:
        report.append("phi1∘phi0 is not f·id on the even part")
    if m.phi0 * m.phi1 != f1:
        report.append("phi0∘phi1 is not f·id on the odd part")
    return report


def validate_mf_morphism(a):
    report = []
    s, t = a.source, a.target
    if t.phi0 * a.alpha0 != a.alpha1 * s.phi0:
        report.append("even square does not commute")
    if t.phi1 * a.alpha1 != a.alpha0 * s.phi1:
        report.append("odd square does not commute")
    return report


def mf_shift(m):
    """Swap the parities and negate both maps; an involution on the nose."""
    return MFObject(m.ring, m.potential, m.r1, m.r0, -m.phi1, -m.phi0)


def mf_cone(a):
    """Mapping cone of a closed degree-0 morphism of factorizations."""
    s, t = a.source, a.target
    ring = s.ring
    phi0 = PolyMatrix.block(
        ring,
        [[t.phi0, a.alpha1],
         [None, -s.phi1]],
        [t.r1, s.r0], [t.r0, s.r1])
    phi1 = PolyMatrix.block(
        ring,
        [[t.phi1, a.alpha0],
         [None, -s.phi0]],
        [t.r0, s.r1], [t.r1, s.r0])
    return MFObject(ring, s.potential, t.r0 + s.r1, t.r1 + s.r0, phi0, phi1)


def mf_direct_sum(m1, m2):
    if m1.ring is not m2.ring or m1.potential != m2.potential:
        raise ValueError("direct sum needs matching ring and potential")
    ring = m1.ring
    phi0 = PolyMatrix.block(ring, [[m1.phi0, None], [None, m2.phi0]],
                            [m1.r1, m2.r1], [m1.r0, m2.r0])
    phi1 = PolyMatrix.block(ring, [[m1.phi1, None], [None, m2.phi1]],
                            [m1.r0, m2.r0], [m1.r1, m2.r1])
    return MFObject(ring, m1.potential, m1.r0 + m2.r0, m1.r1 + m2.r1,
                    phi0, phi1)


def mf_tensor(a, b):
    """Tensor product; the potentials add.

    Even part (E0⊗F0) ⊕ (E1⊗F1), odd part (E0⊗F1) ⊕ (E1⊗F0); both maps
    are `graded_map`s of one `tensor_rule` on summands (p, q), where each
    factor's map takes parity p to 1 - p and the second factor's maps act
    with the sign (-1)^p of the first.  Factors over the same ring stay over
    that ring; otherwise the variable lists must be disjoint and are
    concatenated.
    """
    if a.ring is b.ring:
        merged, off = a.ring, 0
    else:
        merged, off = merge_rings(a.ring, b.ring), len(a.ring.varnames)
    f = embed(a.potential, merged) + embed(b.potential, merged, off)
    pa = (embed_matrix(a.phi0, merged), embed_matrix(a.phi1, merged))
    pb = (embed_matrix(b.phi0, merged, off), embed_matrix(b.phi1, merged, off))
    ra, rb = (a.r0, a.r1), (b.r0, b.r1)
    rule = tensor_rule(merged, pa.__getitem__, pb.__getitem__,
                       ra.__getitem__, rb.__getitem__, lambda p: 1 - p)
    even = [((p, p), ra[p] * rb[p]) for p in (0, 1)]
    odd = [((p, 1 - p), ra[p] * rb[1 - p]) for p in (0, 1)]
    return MFObject(merged, f, a.r0 * b.r0 + a.r1 * b.r1,
                    a.r0 * b.r1 + a.r1 * b.r0,
                    graded_map(merged, even, odd, rule),
                    graded_map(merged, odd, even, rule))


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def _fold_layout(lo, hi):
    """Even and odd degree lists of the window [lo, hi], ascending."""
    evens = [deg for deg in range(lo, hi + 1) if deg % 2 == 0]
    odds = [deg for deg in range(lo, hi + 1) if deg % 2 != 0]
    return evens, odds


def orlov_fold(m):
    """Fold a one-potential module into a factorization of its potential.

    Block from degree u to degree v is d_u when v = u+1 and h_u when
    v = u-1; all other blocks vanish.  Summands are ascending in degree.
    """
    if m.n != 1:
        raise ValueError("folding needs a single potential entry")

    def rule(u, r):
        return (u + 1, m.diff(u)), (u - 1, m.hop(0, u))

    even, odd = ([(u, m.rank(u)) for u in degs]
                 for degs in _fold_layout(m.lo, m.hi))
    return MFObject(m.ring, m.potential[0], sum(r for _, r in even),
                    sum(r for _, r in odd),
                    graded_map(m.ring, even, odd, rule),
                    graded_map(m.ring, odd, even, rule))


def orlov_unfold(mf):
    """The two-term module in degrees [-1, 0] with d = phi1 and h = phi0."""
    ring = mf.ring
    underlying = FreeComplex(ring, -1, 0, {-1: mf.r1, 0: mf.r0},
                             {-1: mf.phi1})
    h = [{0: mf.phi0,
          -1: PolyMatrix.zero(ring, 0, mf.r1)}]
    return KoszulModule(ring, (mf.potential,), underlying, h)


def fold_morphism(g):
    """Fold a morphism of one-potential modules degreewise."""
    src, tgt = g.source, g.target
    if src.n != 1:
        raise ValueError("folding needs a single potential entry")

    def fold(degs):
        return graded_map(src.ring, [(u, src.rank(u)) for u in degs],
                          [(v, tgt.rank(v)) for v in degs],
                          lambda u, r: [(u, g.component(u))])

    return MFMorphism(orlov_fold(src), orlov_fold(tgt),
                      *map(fold, _fold_layout(g.lo, g.hi)))


def compose_mf_morphisms(b, a):
    """b ∘ a."""
    if a.target != b.source:
        raise ValueError("morphisms do not compose")
    return MFMorphism(a.source, b.target, b.alpha0 * a.alpha0,
                      b.alpha1 * a.alpha1)


def residue_homology(m, point):
    """Even and odd homology dimensions of the factorization at a point.

    The point must lie on the hypersurface; otherwise the evaluated value of
    the potential is reported in the error.
    """
    val = evaluate(m.potential, point)
    if val != 0:
        raise ValueError(f"point is not on the hypersurface: potential "
                         f"evaluates to {val}")
    p = m.ring.char
    phi0 = m.phi0.evaluate(point)
    phi1 = m.phi1.evaluate(point)
    rk0 = linalg.rank(phi0, p)
    rk1 = linalg.rank(phi1, p)
    even = m.r0 - rk0 - rk1
    odd = m.r1 - rk1 - rk0
    return even, odd
