"""Matrices over a polynomial ring and bounded cochain complexes of frees.

Complexes are cochain complexes: the differential at degree m maps degree m
to degree m+1 and composites are taken right to left, so the matrix of
d_{m+1} ∘ d_m is diff(m+1) * diff(m).  Matrices act on column vectors; a map
from a rank-c free module to a rank-r one is an r-by-c matrix.

A PolyMatrix stores its nonzero entries only, row index -> {column index:
Poly}, and never stores a zero, so products, sums, blocks, submatrices,
equality and evaluation cost time in the number of nonzeros rather than
in rows * cols.  The public constructor takes a flat row-major entry list
and checks that every entry is a Poly over the matrix ring; results built
inside the library hand their rows to the keyword-only `trusted` argument
and skip that per-entry check.

The product is one fused kernel.  Over Q each operand is scanned once for
the lcm D of its coefficient denominators and, only when D > 1, scaled to
int coefficients; with D = 1 (and always over F_p) its entries are read in
place.  Every term product a_ik * b_kj of an output entry is added as an
int coefficient, with no intermediate Poly and no Fraction.  A constant
entry (the ±1 of permutation and identity blocks) adds c * v under the
other side's exponent tuples, and a pair of two one-term entries adds one
product of exponent tuples.  From the first pair of two non-constant
entries, one of them with more than one term, a product works on packed
monomials (`_Packing`): one scan of both operands fixes a field width per
product, each exponent tuple becomes one int, and a monomial product is
one int add into an int-keyed dict of the output entry.  Those sums are
unpacked, once per distinct monomial, and merged into the entry's
tuple-keyed sums.  Each surviving coefficient is then normalized once:
divided by D_A * D_B over Q, reduced by one `% p` over F_p.  Coefficients
that cancel are dropped, and an entry left empty is not stored.

`graded_map` is the one block assembler of the graded constructions, and
`tensor_rule` the one sign rule of both tensor products.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, lshift

from koszulmf import linalg
from koszulmf.ring import (Poly, embed, evaluate_at, normalize_scalar,
                           point_values)


def _check_indices(idx, bound):
    if idx and (min(idx) < 0 or max(idx) >= bound):
        raise IndexError(f"index out of range 0..{bound - 1}")


def _cleared(nz, ring):
    """(rows, D) for the nonzero rows of a matrix over Q: D is the lcm of
    every coefficient denominator and rows are D times the matrix, with int
    coefficients.  When D = 1 the rows are `nz` itself, not a copy."""
    d = 1
    for row in nz.values():
        for e in row.values():
            for c in e.terms.values():
                if type(c) is not int:
                    d = lcm(d, c.denominator)
    if d == 1:
        return nz, 1
    return ({i: {j: Poly(ring, {k: c.numerator * (d // c.denominator)
                                for k, c in e.terms.items()}, _normalized=True)
                 for j, e in row.items()}
             for i, row in nz.items()}, d)


class _Packing:
    """Packed monomials for one matrix product.

    The exponents (e_1, ..., e_n) of a monomial become the int
    Σ e_v << (w·v), where the field width w = (2 * top).bit_length() holds
    twice the largest exponent `top` of either operand.  The product of two
    monomials is then one int add, which never carries from one variable's
    field into the next.  Each distinct entry is packed once, keyed by
    identity, and each distinct output monomial is unpacked once.
    """

    __slots__ = ("shifts", "mask", "packed", "unpacked")

    def __init__(self, nvars, *nzs):
        top = max(chain.from_iterable(k for nz in nzs for row in nz.values()
                                      for e in row.values() for k in e.terms),
                  default=0)
        w = (2 * top).bit_length()
        self.shifts = [w * v for v in range(nvars)]
        self.mask = (1 << w) - 1
        self.packed = {}
        self.unpacked = {}

    def terms(self, poly):
        """[(packed monomial, coefficient)] of one entry."""
        pt = self.packed.get(id(poly))
        if pt is None:
            shifts = self.shifts
            pt = self.packed[id(poly)] = [(sum(map(lshift, k, shifts)), v)
                                          for k, v in poly.terms.items()]
        return pt

    def merge(self, pacc, acc):
        """Add each packed accumulator pacc[j] of a row into acc[j], keyed
        by exponent tuples."""
        unpacked, shifts, mask = self.unpacked, self.shifts, self.mask
        for j, pout in pacc.items():
            out = acc[j]
            for m, v in pout.items():
                k = unpacked.get(m)
                if k is None:
                    k = unpacked[m] = tuple([(m >> s) & mask for s in shifts])
                out[k] = out.get(k, 0) + v


class PolyMatrix:
    """Sparse matrix of Polys.  Shape is explicit so 0-by-n edges stay sane.

    `nz` maps each row index that has a nonzero entry to {column index:
    nonzero Poly}.  Read it freely; change entries only through `put`.
    """

    __slots__ = ("ring", "rows", "cols", "nz")

    def __init__(self, ring, rows, cols, entries=(), *, trusted=None):
        """`entries` is a flat row-major list of rows*cols Polys over `ring`.

        `trusted` instead takes rows already in the layout of `nz`, built
        inside the library: fresh dicts, indices in range, every value a
        nonzero Poly over `ring`.  They are used as they are, unchecked.
        """
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if trusted is not None:
            if entries:
                raise ValueError("give entries or trusted rows, not both")
            self.nz = trusted
            return
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        nz = {}
        it = iter(entries)
        for i in range(rows):
            row = {}
            for j in range(cols):
                e = next(it)
                if not isinstance(e, Poly) or e.ring is not ring:
                    raise ValueError("entries must be Polys over the matrix ring")
                if e.terms:
                    row[j] = e
            if row:
                nz[i] = row
        self.nz = nz

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring, rows, cols):
        return cls(ring, rows, cols, trusted={})

    @classmethod
    def identity(cls, ring, n):
        return cls.scalar(ring, n, Poly.one(ring))

    @classmethod
    def scalar(cls, ring, n, poly):
        if not isinstance(poly, Poly) or poly.ring is not ring:
            raise ValueError("scalar must be a Poly over the matrix ring")
        if poly.is_zero:
            return cls.zero(ring, n, n)
        return cls(ring, n, n, trusted={i: {i: poly} for i in range(n)})

    @classmethod
    def from_rows(cls, ring, rowlists, cols=None):
        rows = len(rowlists)
        if cols is None:
            if rows == 0:
                raise ValueError("column count needed for empty matrix")
            cols = len(rowlists[0])
        flat = []
        for r in rowlists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(ring, rows, cols, flat)

    @classmethod
    def block(cls, ring, grid, row_sizes, col_sizes):
        """Assemble from a grid of blocks; None means a zero block."""
        nz = {}
        r0 = 0
        for bi, rs in enumerate(row_sizes):
            c0 = 0
            for bj, cs in enumerate(col_sizes):
                blk = grid[bi][bj]
                if blk is not None:
                    if blk.rows != rs or blk.cols != cs:
                        raise ValueError(
                            f"block ({bi},{bj}) is {blk.rows}x{blk.cols}, "
                            f"slot is {rs}x{cs}")
                    if blk.ring is not ring:
                        raise ValueError(f"block ({bi},{bj}) has another ring")
                    for i, brow in blk.nz.items():
                        row = nz.setdefault(r0 + i, {})
                        for j, e in brow.items():
                            row[c0 + j] = e
                c0 += cs
            r0 += rs
        return cls(ring, sum(row_sizes), sum(col_sizes), trusted=nz)

    # --- access -------------------------------------------------------------

    def _check_cell(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a "
                             f"{self.rows}x{self.cols} matrix")

    def at(self, i, j):
        self._check_cell(i, j)
        e = self.nz.get(i, {}).get(j)
        return Poly.zero(self.ring) if e is None else e

    def put(self, i, j, poly):
        self._check_cell(i, j)
        if not isinstance(poly, Poly) or poly.ring is not self.ring:
            raise ValueError("entries must be Polys over the matrix ring")
        if poly.terms:
            self.nz.setdefault(i, {})[j] = poly
            return
        row = self.nz.get(i)
        if row is not None and row.pop(j, None) is not None and not row:
            del self.nz[i]

    def row(self, i):
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}-row matrix")
        z = Poly.zero(self.ring)
        r = self.nz.get(i, {})
        return [r.get(j, z) for j in range(self.cols)]

    @property
    def entries(self):
        """Every entry, zeros included, as a fresh flat row-major list."""
        z = Poly.zero(self.ring)
        out = [z] * (self.rows * self.cols)
        for i, row in self.nz.items():
            base = i * self.cols
            for j, e in row.items():
                out[base + j] = e
        return out

    def submatrix(self, row_idx, col_idx):
        _check_indices(row_idx, self.rows)
        _check_indices(col_idx, self.cols)
        new_cols = {}
        for new, old in enumerate(col_idx):
            new_cols.setdefault(old, []).append(new)
        nz = {}
        for new_i, old_i in enumerate(row_idx):
            row = {}
            for j, e in self.nz.get(old_i, {}).items():
                for new_j in new_cols.get(j, ()):
                    row[new_j] = e
            if row:
                nz[new_i] = row
        return PolyMatrix(self.ring, len(row_idx), len(col_idx), trusted=nz)

    def map_entries(self, fn, ring=None):
        """The matrix of fn(e) for every entry e, over `ring` (default: this
        matrix's ring).  fn must send zero to zero: it only sees nonzeros."""
        ring = self.ring if ring is None else ring
        nz = {}
        for i, row in self.nz.items():
            out = {}
            for j, e in row.items():
                t = fn(e)
                if not isinstance(t, Poly) or t.ring is not ring:
                    raise ValueError("mapped entries must be Polys over the "
                                     "target ring")
                if t.terms:
                    out[j] = t
            if out:
                nz[i] = out
        return PolyMatrix(ring, self.rows, self.cols, trusted=nz)

    # --- arithmetic ---------------------------------------------------------

    def _same_ring(self, other):
        if other.ring is not self.ring:
            raise ValueError("mixed rings")

    def __mul__(self, other):
        """The matrix product, by the fused kernel of the module docstring."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        self._same_ring(other)
        ring = self.ring
        p = ring.char
        anz, bnz = self.nz, other.nz
        d = 1
        if not p:
            anz, da = _cleared(anz, ring)
            bnz, db = _cleared(bnz, ring)
            d = da * db
        one = (0,) * len(ring.varnames)     # exponents of the monomial 1
        packing = None      # built when a multi-term pair first meets
        pacc = {}           # the packed-monomial part of acc
        nz = {}
        for i, arow in anz.items():
            acc = {}
            for k, a in arow.items():
                brow = bnz.get(k)
                if brow is None:
                    continue
                at = a.terms
                # the one term of a one-term a: a constant or a monomial
                ma, mc = next(iter(at.items())) if len(at) == 1 else (None, 0)
                ca = mc if ma == one else None
                pa = None
                for j, b in brow.items():
                    bt = b.terms
                    out = acc.get(j)
                    if out is None:
                        out = acc[j] = {}
                    if ca is not None:
                        for kb, vb in bt.items():
                            out[kb] = out.get(kb, 0) + ca * vb
                    elif len(bt) == 1 and one in bt:
                        cb = bt[one]
                        for ka, va in at.items():
                            out[ka] = out.get(ka, 0) + va * cb
                    elif ma is not None and len(bt) == 1:
                        (kb, vb), = bt.items()
                        kab = tuple(map(add, ma, kb))
                        out[kab] = out.get(kab, 0) + mc * vb
                    else:
                        if pa is None:
                            if packing is None:
                                packing = _Packing(len(one), anz, bnz)
                            pa = packing.terms(a)
                        pb = packing.terms(b)
                        pout = pacc.get(j)
                        if pout is None:
                            pout = pacc[j] = {}
                        for ka, va in pa:
                            for kb, vb in pb:
                                kab = ka + kb
                                pout[kab] = pout.get(kab, 0) + va * vb
            if pacc:
                packing.merge(pacc, acc)
                pacc = {}
            row = {}
            for j, out in acc.items():
                if p:
                    terms = {kab: r for kab, v in out.items() if (r := v % p)}
                elif d == 1:
                    terms = (out if all(out.values())
                             else {kab: v for kab, v in out.items() if v})
                else:
                    terms = {kab: v // d if v % d == 0 else Fraction(v, d)
                             for kab, v in out.items() if v}
                if terms:
                    row[j] = Poly(ring, terms, _normalized=True)
            if row:
                nz[i] = row
        return PolyMatrix(ring, self.rows, other.cols, trusted=nz)

    def _combine(self, other, sub):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in "
                             + ("subtraction" if sub else "addition"))
        self._same_ring(other)
        nz = {i: dict(row) for i, row in self.nz.items()}
        for i, brow in other.nz.items():
            row = nz.setdefault(i, {})
            for j, b in brow.items():
                a = row.get(j)
                if a is None:
                    row[j] = -b if sub else b
                    continue
                s = a - b if sub else a + b
                if s.terms:
                    row[j] = s
                else:
                    del row[j]
            if not row:
                del nz[i]
        return PolyMatrix(self.ring, self.rows, self.cols, trusted=nz)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        # entries are often one shared Poly (a unit, a potential): each
        # distinct entry is negated once, keyed by identity
        negated = {}
        nz = {}
        for i, row in self.nz.items():
            out = nz[i] = {}
            for j, e in row.items():
                n = negated.get(id(e))
                if n is None:
                    n = negated[id(e)] = -e
                out[j] = n
        return PolyMatrix(self.ring, self.rows, self.cols, trusted=nz)

    def scale(self, poly):
        self._same_ring(poly)
        return self.map_entries(poly.__mul__)

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.ring is other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.nz == other.nz)

    @property
    def is_zero(self):
        return not self.nz

    def evaluate(self, point):
        """List of rows of base-field scalars.  The point is normalized once;
        absent entries are the base-field zero without an evaluation."""
        zero = normalize_scalar(self.ring, 0)
        out = [[zero] * self.cols for _ in range(self.rows)]
        if self.rows and self.cols:
            vals = point_values(self.ring, point)
            for i, row in self.nz.items():
                out_row = out[i]
                for j, e in row.items():
                    out_row[j] = evaluate_at(e, vals)
        return out

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"PolyMatrix({self.rows}x{self.cols}: {body})"


def kron(a, b):
    """Kronecker product, left factor major."""
    if a.ring is not b.ring:
        raise ValueError("mixed rings")
    nz = {}
    for ia, arow in a.nz.items():
        for ib, brow in b.nz.items():
            row = {}
            for ja, e in arow.items():
                for jb, g in brow.items():
                    t = e * g
                    if t.terms:
                        row[ja * b.cols + jb] = t
            if row:
                nz[ia * b.rows + ib] = row
    return PolyMatrix(a.ring, a.rows * b.rows, a.cols * b.cols, trusted=nz)


def graded_map(ring, src, tgt, rule):
    """A map of direct sums, assembled block by block.

    `src` and `tgt` list the summands as (key, rank), in order.  For each
    source summand of nonzero rank, `rule(key, rank)` returns or yields
    (target key, block) pairs.  A block whose target key is not a summand
    of `tgt` is dropped, so a rule may give a block towards a summand that
    lies outside the target; every block not given is zero.
    """
    tpos = {key: i for i, (key, _) in enumerate(tgt)}
    grid = [[None] * len(src) for _ in tgt]
    for col, (key, r) in enumerate(src):
        if r:
            for tkey, blk in rule(key, r):
                if tkey in tpos:
                    grid[tpos[tkey]][col] = blk
    return PolyMatrix.block(ring, grid, [r for _, r in tgt],
                            [r for _, r in src])


def tensor_rule(ring, fa, fb, rank_a, rank_b, move):
    """The `graded_map` rule of fa ⊗ 1 + (-1)^p 1 ⊗ fb on summands keyed
    (p, q), the p-th summand of a first factor tensored with the q-th of a
    second.  fa(p) maps the p-th summand of the first factor (rank
    rank_a(p)) to its move(p)-th, and fb(q) likewise for the second; both
    are matrices over `ring`.  Blocks are Kronecker products, left factor
    major."""
    def rule(key, r):
        p, q = key
        yield (move(p), q), kron(fa(p), PolyMatrix.identity(ring, rank_b(q)))
        blk = kron(PolyMatrix.identity(ring, rank_a(p)), fb(q))
        yield (p, move(q)), blk if p % 2 == 0 else -blk
    return rule


def embed_matrix(mat, ring, offset=0):
    """`mat` over a larger ring: every entry e becomes
    `embed(e, ring, offset)` (see `koszulmf.ring.embed`)."""
    return mat.map_entries(lambda e: embed(e, ring, offset), ring)


# Largest size of one object the program reads or builds for output: the
# total rank of a complex or module over its window, r0 + r1 of a
# factorization.  Documents and witness logs are refused past it as
# malformed (koszulmf.documents); one reduction move refuses a module whose
# counit cone, the largest object the move builds, would pass it
# (koszulmf.reduce), so every emitted log is one that is read back; and a
# document is not written with an object past it.  Checks build identity,
# scalar and cone matrices of that size, some of them dense when evaluated
# at a point, so the cost grows with its square.
MAX_TOTAL_RANK = 1000


class FreeComplex:
    """A bounded cochain complex of free modules.

    ranks maps each degree in [lo, hi] to a rank; diffs maps degree m to the
    matrix of d_m (shape rank(m+1) x rank(m)).  Degrees outside the window
    are rank zero.  The stored window may include zero ranks; `trim()`
    shrinks it.
    """

    __slots__ = ("ring", "lo", "hi", "ranks", "diffs")

    def __init__(self, ring, lo, hi, ranks, diffs):
        if lo > hi:
            raise ValueError("empty degree window")
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.ranks = {m: int(ranks[m]) for m in range(lo, hi + 1)}
        for m, r in self.ranks.items():
            if r < 0:
                raise ValueError(f"negative rank at degree {m}")
        # `diff` reads the given dict; its zero fills the window
        self.diffs = diffs
        self.diffs = {m: self.diff(m) for m in range(lo, hi)}

    def rank(self, m):
        return self.ranks.get(m, 0)

    def diff(self, m):
        d = self.diffs.get(m)
        if d is None:
            return PolyMatrix.zero(self.ring, self.rank(m + 1), self.rank(m))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __eq__(self, other):
        return (isinstance(other, FreeComplex) and self.ring is other.ring
                and self.lo == other.lo and self.hi == other.hi
                and self.ranks == other.ranks and self.diffs == other.diffs)

    def trim(self):
        """Drop zero-rank degrees at both ends (keeps at least one degree)."""
        lo, hi = self.lo, self.hi
        while lo < hi and self.rank(lo) == 0:
            lo += 1
        while hi > lo and self.rank(hi) == 0:
            hi -= 1
        if (lo, hi) == (self.lo, self.hi):
            return self
        return self.window(lo, hi)

    def window(self, lo, hi):
        """The complex restricted to (or zero-extended to) degrees lo..hi."""
        return FreeComplex(self.ring, lo, hi,
                           {m: self.rank(m) for m in range(lo, hi + 1)},
                           {m: self.diff(m) for m in range(lo, hi)})

    def __repr__(self):
        rs = " ".join(f"{m}:{self.rank(m)}" for m in self.degrees())
        return f"FreeComplex([{self.lo},{self.hi}] ranks {rs})"


def validate_complex(c):
    """Report of problems; empty list means the complex is valid."""
    report = []
    for m in range(c.lo, c.hi):
        d = c.diff(m)
        if (d.rows, d.cols) != (c.rank(m + 1), c.rank(m)):
            report.append(f"degree {m}: differential is {d.rows}x{d.cols}, "
                          f"want {c.rank(m + 1)}x{c.rank(m)}")
    if report:
        return report
    for m in range(c.lo, c.hi - 1):
        sq = c.diff(m + 1) * c.diff(m)
        if not sq.is_zero:
            report.append(f"degree {m}: d∘d is nonzero")
    return report


def shift_sign(mat, k):
    """`mat` with the sign (-1)^k of a degree shift by k."""
    return -mat if k % 2 else mat


def shift_complex(c, k):
    """Degree shift: the result at degree m is c at degree m+k, and every
    differential picks up the sign (-1)^k."""
    lo, hi = c.lo - k, c.hi - k
    return FreeComplex(c.ring, lo, hi,
                       {m: c.rank(m + k) for m in range(lo, hi + 1)},
                       {m: shift_sign(c.diff(m + k), k)
                        for m in range(lo, hi)})


class ChainMap:
    """A degree-0 map of complexes; component at m is rank_tgt(m) x rank_src(m).

    Source and target need only `ring`, `lo`, `hi`, `rank` and `diff`, so a
    Koszul morphism (a subclass) is a chain map of its modules as it is."""

    __slots__ = ("source", "target", "components", "lo", "hi")

    def __init__(self, source, target, components):
        if source.ring is not target.ring:
            raise ValueError("mixed rings")
        self.source = source
        self.target = target
        self.lo = min(source.lo, target.lo)
        self.hi = max(source.hi, target.hi)
        # `component` reads the given dict; its zero fills the window
        self.components = components
        self.components = {m: self.component(m)
                           for m in range(self.lo, self.hi + 1)}

    def component(self, m):
        g = self.components.get(m)
        if g is None:
            return PolyMatrix.zero(self.source.ring,
                                   self.target.rank(m), self.source.rank(m))
        return g


def component_shape_report(g):
    """Components whose shape is not target rank x source rank."""
    src, tgt = g.source, g.target
    return [f"degree {m}: component is {comp.rows}x{comp.cols}, "
            f"want {tgt.rank(m)}x{src.rank(m)}"
            for m, comp in g.components.items()
            if (comp.rows, comp.cols) != (tgt.rank(m), src.rank(m))]


def validate_chain_map(g):
    report = component_shape_report(g)
    if report:
        return report
    src, tgt = g.source, g.target
    for m in range(g.lo, g.hi):
        lhs = tgt.diff(m) * g.component(m)
        rhs = g.component(m + 1) * src.diff(m)
        if lhs != rhs:
            report.append(f"degree {m}: square does not commute")
    return report


def cone_chain(g):
    """Mapping cone of a chain map; the shifted source block comes first."""
    src, tgt = g.source, g.target
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    ranks = {m: src.rank(m + 1) + tgt.rank(m) for m in range(lo, hi + 1)}
    diffs = {}
    for m in range(lo, hi):
        diffs[m] = PolyMatrix.block(
            src.ring,
            [[-src.diff(m + 1), None],
             [g.component(m + 1), tgt.diff(m)]],
            [src.rank(m + 2), tgt.rank(m + 1)],
            [src.rank(m + 1), tgt.rank(m)])
    return FreeComplex(src.ring, lo, hi, ranks, diffs)


# ---------------------------------------------------------------------------
# pointwise homology (used by quasi-isomorphism checks)
# ---------------------------------------------------------------------------

def homology_dims_at(c, point):
    """Dimensions of the cohomology of the evaluated complex, degree by degree."""
    p = c.ring.char
    ranks = {m: linalg.rank(c.diff(m).evaluate(point), p)
             for m in c.degrees()}
    return {m: c.rank(m) - ranks[m] - ranks.get(m - 1, 0)
            for m in c.degrees()}
