"""Matrix factorizations of a single potential, and the folding equivalence.

A factorization is a pair of free modules E0, E1 with maps
phi0 : E0 -> E1 and phi1 : E1 -> E0 composing to f times the identity both
ways.  Folding turns a one-potential Koszul module into a factorization by
summing even degrees into E0 and odd degrees into E1 (each in ascending
degree order) and assembling d + h into the two maps; unfolding is the
two-term inverse.  The fold, the folded morphism (`fold_morphism`), the
cone and the tensor product assemble their maps with
`complexes.graded_map`.

Every ring here (Q, F_p, a polynomial ring over either) is a domain, so
for r0 = r1 and f != 0, phi1∘phi0 = f·id implies phi0∘phi1 = f·id.  In
that case `validate_mf` first asks `complexes.proves_scalar_product`,
which decides phi1∘phi0 = f·id exactly on the product kernel's integer
slot sums, with no product matrix, Poly or Fraction; when it proves the
identity the report is empty.  Otherwise phi1∘phi0 is computed, and
phi0∘phi1 only when the first product alone does not settle it: when
r0 != r1, when f = 0, or when phi1∘phi0 fails, both products are taken,
and the report is the one that two products give on every input (an
invalid input pays the slot sums on top).  A failed identity, and a
square of `validate_mf_morphism` that does not commute, is reported with
its first differing entry in row-major order, found only after the
comparison has failed.

`validate_mf_tensor` checks the tensor product of two validated
factorizations by its structure, in time linear in its nonzeros: every
stored entry must be the one factor entry its position names, and each
map must store as many as the blocks phi_a ⊗ 1 and (-1)^p 1 ⊗ phi_b hold.
A map made of exactly those blocks is a factorization of f_a + f_b, since
the cross terms cancel by the sign (Yoshino; the argument is in its
docstring), so no product is taken.  It calls no builder, and the
`tensor` command uses it on its output; every other object goes through
`validate_mf`.  `residue_homology` ranks both maps at a point as sparse
rows of one `complexes.Evaluation`.
"""

from itertools import chain

from koszulmf import linalg
from koszulmf.complexes import (FreeComplex, PolyMatrix, _first_difference,
                                as_evaluation, cone_rule, embed_matrix,
                                graded_map, proves_scalar_product,
                                tensor_rule)
from koszulmf.koszul import KoszulModule
from koszulmf.ring import Poly, embed, merge_rings, scalar_text


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
    """Report of the identities that fail, phi1∘phi0 = f·id on the even
    part and phi0∘phi1 = f·id on the odd part, each with the first entry
    (row-major) at which it fails; empty means m is a factorization.

    When r0 = r1 = r and f != 0, phi1∘phi0 = f·id implies the second
    identity.  Every ring here (Q, F_p, a polynomial ring over either) is
    a domain, and there det phi1 · det phi0 = f^r != 0, so det phi0 != 0.
    Also (phi0∘phi1 - f·id)∘phi0 = phi0∘(phi1∘phi0) - f·phi0 = 0;
    multiplied on the right by adj phi0 this is
    (phi0∘phi1 - f·id)·det phi0 = 0, and det phi0, a nonzero element of a
    domain, cancels.  In that case `complexes.proves_scalar_product` is
    asked first, and when it proves phi1∘phi0 = f·id on the product
    kernel's slot sums the report is empty, with no product matrix built.
    Otherwise phi1∘phi0 is computed and compared with f·id, and phi0∘phi1
    as well unless the first identity holds in that case (r0 != r1, f = 0,
    or phi1∘phi0 already fails), so the report names each identity that
    fails, as two products give it on every input."""
    report = []
    f = m.potential
    square = m.r0 == m.r1 and not f.is_zero
    if square and proves_scalar_product(m.phi1, m.phi0, f):
        return report
    even, want = m.phi1 * m.phi0, PolyMatrix.scalar(m.ring, m.r0, f)
    if even != want:
        report.append("phi1∘phi0 is not f·id on the even part"
                      + _first_difference(even, want))
    elif square:
        return report
    odd, want = m.phi0 * m.phi1, PolyMatrix.scalar(m.ring, m.r1, f)
    if odd != want:
        report.append("phi0∘phi1 is not f·id on the odd part"
                      + _first_difference(odd, want))
    return report


def validate_mf_morphism(a):
    """Report of the squares that do not commute, each with the first
    entry (row-major) at which its two sides differ; empty means `a` is a
    morphism."""
    report = []
    s, t = a.source, a.target
    for name, x, y in (("even", t.phi0 * a.alpha0, a.alpha1 * s.phi0),
                       ("odd", t.phi1 * a.alpha1, a.alpha0 * s.phi1)):
        if x != y:
            report.append(f"{name} square does not commute"
                          + _first_difference(x, y))
    return report


def validate_mf_tensor(a, b, t):
    """Report of what keeps `t` from being the tensor product of the
    factorizations a and b, which the caller has validated; empty means
    t is that product, and so a factorization of f_a + f_b.

    The check is exact and reads each stored entry of t once; it takes no
    product.  Write δ_a = phi0 ⊕ phi1 of a, an odd map of E0 ⊕ E1 with
    δ_a² = f_a·id, δ_b likewise with δ_b² = f_b·id, and ε for (-1)^p on
    E_p.  Then δ = δ_a ⊗ 1 + ε ⊗ δ_b has
    δ² = δ_a² ⊗ 1 + (δ_a ε + ε δ_a) ⊗ δ_b + ε² ⊗ δ_b² = (f_a + f_b)·id,
    since δ_a is odd (δ_a ε = -ε δ_a) and ε² = 1 (Yoshino, "Tensor
    products of matrix factorizations", Nagoya Math. J. 152, 1998).  So a
    map made exactly of the blocks phi_a(p) ⊗ 1 and (-1)^p 1 ⊗ phi_b(q) is
    a factorization of f_a + f_b, and it is enough to check that t's maps
    are those blocks, entry for entry.

    After the ring, the potential and the ranks, each stored entry of
    phi0 and phi1 is decoded into its target and source summands (p, q),
    each the p-th summand of a tensored with the q-th of b and laid out
    left factor major, and its local row and column.  That names the one
    factor entry it must be: the embedded entry of phi_a(p) on the
    diagonal of kron(phi_a(p), I), or (-1)^p times the embedded entry of
    phi_b(q) in kron(I, phi_b(q)); anything else is refused.  Distinct
    positions decode to distinct factor entries, so when each map also
    stores Σ nnz(phi_a(p))·r_b(q) + r_a(p)·nnz(phi_b(q)) entries, summed
    over its source summands, none is missing.  Nothing here calls
    `mf_tensor`, `tensor_rule` or `graded_map`, so a fault of the builder
    cannot also pass the check.  Each factor entry is embedded (and
    negated) once per call, memoized by identity."""
    if a.ring is b.ring:
        ring, off = a.ring, 0
    else:
        ring, off = merge_rings(a.ring, b.ring), len(a.ring.varnames)
    if not (t.ring is ring and t.phi0.ring is ring and t.phi1.ring is ring):
        return ["ring is not the factors' merged ring"]
    if t.potential != embed(a.potential, ring) + embed(b.potential, ring, off):
        return ["potential is not the sum of the factors' potentials"]
    ra, rb = (a.r0, a.r1), (b.r0, b.r1)
    r0, r1 = ra[0] * rb[0] + ra[1] * rb[1], ra[0] * rb[1] + ra[1] * rb[0]
    if (t.r0, t.r1) != (r0, r1):
        return [f"ranks ({t.r0}, {t.r1}) are not the product's ({r0}, {r1})"]
    fa = tuple(m.nz for m in (a.phi0, a.phi1))
    fb = tuple(m.nz for m in (b.phi0, b.phi1))
    memo = ({}, {})     # [negate]: id(factor entry) -> (entry, its image)

    def image(x, offset, negate):
        hit = memo[negate].get(id(x))
        if hit is None:
            y = embed(x, ring, offset)
            hit = memo[negate][id(x)] = (x, -y if negate else y)
        return hit[1]

    return [line for k, mat in enumerate((t.phi0, t.phi1))
            for line in _tensor_map_report(k, mat, ra, rb, fa, fb, off, image)]


def _nnz(nz):
    return sum(map(len, nz.values()))


def _tensor_map_report(k, mat, ra, rb, fa, fb, off, image):
    """[] when `mat` is map k of the tensor product of factors of ranks ra
    and rb whose maps have the nonzero rows fa and fb, else the one line
    that names its first wrong entry (row-major), or else its first
    missing one.  Map k takes the summands (p, p + k) to (p, p + 1 - k),
    mod 2, each list ordered by p; `image(x, offset, negate)` is the
    factor entry x in the product's ring."""
    split_col = ra[0] * rb[k]           # columns of the source (0, k)
    split_row = ra[0] * rb[1 - k]       # rows of the target (0, 1 - k)
    tgt = ((0, 1 - k), (1, k))

    def decode(i):
        """(tp, tq, ia, ib) of row i: its target summand (tp, tq) and its
        rows of a and b; None outside the map."""
        if 0 <= i < split_row:
            (tp, tq), lr = tgt[0], i
        elif split_row <= i < mat.rows:
            (tp, tq), lr = tgt[1], i - split_row
        else:
            return None
        return (tp, tq, *divmod(lr, rb[tq]))

    def faults():
        """Each stored (i, j) that is not the entry it must be."""
        for i, row in mat.nz.items():
            d = decode(i)
            if d is None:
                yield from ((i, j) for j in row)
                continue
            tp, tq, ia, ib = d
            # source summand 1 - tp gives the a-block, source summand tp
            # the b-block, with sign (-1)^tp
            arow = fa[1 - tp].get(ia, {})
            brow = fb[1 - tq].get(ib, {})
            negate = tp == 1
            for j, e in row.items():
                if 0 <= j < split_col:
                    source, lc = 0, j
                elif split_col <= j < mat.cols:
                    source, lc = 1, j - split_col
                else:
                    yield i, j
                    continue
                if source != tp:
                    ja, jb = divmod(lc, rb[tq])
                    x = arow.get(ja) if jb == ib else None
                    w = None if x is None else image(x, 0, False)
                else:
                    ja, jb = divmod(lc, rb[1 - tq])
                    x = brow.get(jb) if ja == ia else None
                    w = None if x is None else image(x, off, negate)
                if w is None or (e is not w and e != w):
                    yield i, j

    found = faults()
    first = next(found, None)
    if first is not None:
        i, j = min(chain([first], found))
        return [f"phi{k} is not the factors' tensor at ({i}, {j})"]
    want = sum(_nnz(fa[p]) * rb[q] + ra[p] * _nnz(fb[q])
               for p, q in ((0, k), (1, 1 - k)))
    if _nnz(mat.nz) == want:
        return []
    # every stored entry is one the map must have, so one is missing
    for i in range(mat.rows):
        tp, tq, ia, ib = decode(i)
        a0 = 0 if tp == 1 else split_col        # source summand 1 - tp
        b0 = split_col - a0                     # source summand tp
        stored = mat.nz.get(i, {})
        missing = [j for j in chain(
            (a0 + ja * rb[tq] + ib for ja in fa[1 - tp].get(ia, ())),
            (b0 + ia * rb[1 - tq] + jb for jb in fb[1 - tq].get(ib, ())))
            if j not in stored]
        if missing:
            return [f"phi{k} misses the factors' entry at ({i}, "
                    f"{min(missing)})"]


def mf_shift(m):
    """Swap the parities and negate both maps; an involution on the nose."""
    return MFObject(m.ring, m.potential, m.r1, m.r0, -m.phi1, -m.phi0)


def mf_cone(a):
    """Mapping cone of a closed degree-0 morphism of factorizations.

    The target comes first, then the source with its parity flipped: even
    part (F0, E1), odd part (F1, E0).  phi0 and phi1 are `graded_map`s of
    one `complexes.cone_rule` with the parity flip p -> 1 - p."""
    s, t = a.source, a.target
    rule = cone_rule((s.phi0, s.phi1).__getitem__,
                     (t.phi0, t.phi1).__getitem__, lambda p: 1 - p,
                     (a.alpha0, a.alpha1).__getitem__)
    even = [(("t", 0), t.r0), (("s", 1), s.r1)]
    odd = [(("t", 1), t.r1), (("s", 0), s.r0)]
    return MFObject(s.ring, s.potential, t.r0 + s.r1, t.r1 + s.r0,
                    graded_map(s.ring, even, odd, rule),
                    graded_map(s.ring, odd, even, rule))


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

    `point` is a point or a caller's shared `Evaluation` at one.  It must
    lie on the hypersurface; otherwise the evaluated value of the
    potential is reported in the error.  phi0 and phi1 are ranked as the
    sparse rows of that `Evaluation` by `linalg.sparse_rank`.
    """
    at = as_evaluation(m.ring, point)
    val = at.value(m.potential)
    if val != 0:
        raise ValueError(f"point is not on the hypersurface: potential "
                         f"evaluates to {scalar_text(val)}")
    p = m.ring.char
    rk0 = linalg.sparse_rank(at.rows(m.phi0).values(), p)
    rk1 = linalg.sparse_rank(at.rows(m.phi1).values(), p)
    even = m.r0 - rk0 - rk1
    odd = m.r1 - rk1 - rk0
    return even, odd
