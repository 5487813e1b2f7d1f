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

The product is one fused kernel with one accumulator per product.  Over
Q each operand is scanned once for the lcm D of its coefficient
denominators and, only when D > 1, scaled to int coefficients; with D = 1
(and always over F_p) its entries are read in place.  Every term product
a_ik * b_kj of an output entry is added as an int coefficient, with no
intermediate Poly and no Fraction.  A constant entry (the ±1 of
permutation and identity blocks) adds c * v under the other side's
exponent tuples, a pair of two one-term entries adds one product of
exponent tuples, and any other pair adds the sums of its exponent tuples,
all into dicts keyed by exponent tuple.  At the first pair of two
non-constant entries, one of them with more than one term, the product
asks `_dense_rows` once: when dense lists of packed monomials take no
more slots than the product forms term pairs, `_dense_sums` computes the
whole product on them as raw int slot sums and `_dense_rows` decodes
them, and the tuple sums built so far are dropped; otherwise the product
goes on with its tuple dicts.  Each output entry is normalized once per
coefficient (divided by D_A * D_B over Q, reduced by one `% p` over
F_p), a zero is dropped, and an entry left empty is not stored.

`proves_scalar_product(a, b, f)` is a second reader of the same slot
sums: it decides a·b = f·id without a product matrix, a Poly or a
Fraction.  Over Q, `_dense_sums` clears denominators while it packs, so
the slots hold D_A·D_B times the product, and f is packed scaled by
D_A·D_B in the same radix; over F_p each slot is reduced `% p`.  Off the
diagonal every slot must be zero, and on it the slots must be packed f.
The base b = 2·top + 1 bounds every exponent of the product, so packing
never carries and equal slot lists mean equal polynomials.  It answers
only "proved" or "undecided" (the layout declines, f has an exponent
≥ b or a coefficient that D_A·D_B does not clear, or any slot differs),
and `mf.validate_mf` takes its products only when it is undecided.

A product in which one operand is a selection, a matrix whose every
stored row is one entry, a constant ±1 (permutations, pads, trims,
identities, signed blocks such as -id, and vacuously the zero matrix), is
a reindexing with no arithmetic: S·B takes row k of B as row i wherever
S[i] = {k: ±1}, and A·S moves A[i][k] to column j wherever S[k] = {j: ±1}.
Entries taken with sign +1 are shared with the operands, rows too for S·B;
no matrix is changed once built, so S·B shares B's rows as they are.  An
entry taken with sign -1 is negated, and each distinct entry once per
product: a memo keyed by identity holds its negation.  -1 is read in
normal form, p - 1 over F_p.  A selection is found by a scan that stops
at the first row that is not one constant ±1; when two rows of a
right-hand selection put their entry in one column, the product is a sum
and takes the fused kernel.

A command evaluates each point through one `Evaluation`, shared by its
locus check, replay evidence and residue homology: each distinct entry
once and each distinct monomial once, with new sparse scalar rows on
every call.  `PolyMatrix.evaluate` and `homology_dims_at` are test
references.

`graded_map` is the one block assembler of the graded constructions (it
writes each block straight into the rows of the result), `tensor_rule`
the one sign rule of both tensor products (its blocks hold the factors'
own entries: `kron` pairs an entry with a constant 1 without a product),
and `cone_rule` the one rule of every mapping cone: the Koszul cone puts
the shifted source first, the factorization cone puts the target first.
Complexes come with their check and the sign rule of a degree shift;
morphisms, their cones and shifts are those of Koszul modules
(`koszulmf.koszul`).
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, itemgetter, mul

from koszulmf import linalg
from koszulmf.ring import (Poly, embed, evaluate_at, normalize_scalar,
                           point_values)


def _check_indices(idx, bound):
    if idx and (min(idx) < 0 or max(idx) >= bound):
        raise IndexError(f"index out of range 0..{bound - 1}")


def _denominator(nz):
    """The lcm of every coefficient denominator of the nonzero rows `nz`
    of a matrix over Q."""
    d = 1
    for row in nz.values():
        for e in row.values():
            for c in e.terms.values():
                if type(c) is not int:
                    d = lcm(d, c.denominator)
    return d


def _cleared(nz, ring):
    """(rows, D) for the nonzero rows of a matrix over Q: D is the lcm of
    every coefficient denominator and rows are D times the matrix, with int
    coefficients.  When D = 1 the rows are `nz` itself, not a copy."""
    d = _denominator(nz)
    if d == 1:
        return nz, 1
    return ({i: {j: Poly(ring, {k: c.numerator * (d // c.denominator)
                                for k, c in e.terms.items()}, _normalized=True)
                 for j, e in row.items()}
             for i, row in nz.items()}, d)


def _dense_sums(anz, bnz, n, da=1, db=1):
    """(b, sums) for the product of the nonzero rows `anz` and `bnz` over
    a ring of n ≥ 1 variables, summed in dense lists of packed monomials;
    None when the lists would take more slots than the product forms term
    pairs.  `sums` maps each row i that a term pair reaches to {column j:
    the list of the b^n slot sums of entry (i, j)}, rows and columns in
    the order the pairs first reach them.

    A monomial x_1^e_1 ⋯ x_n^e_n is packed as Σ e_v·b^(v-1), in the mixed
    radix of base b = 2·top + 1 for the largest exponent `top` of either
    operand, so a monomial product is one int add that never carries
    (e + e' ≤ 2·top < b).  Each output entry sums into a list of b^n
    slots, one per monomial of the box, when b^n × (rows of A with a
    nonzero) × (columns of B with a nonzero) is no more than the term
    pairs, Σ_k (terms in column k of A)·(terms in row k of B).  The pairs,
    rows and columns are counted first, and the exponents are read for
    `top` only when base 3, the least base of a non-constant entry, passes
    the rule; a product with no term pair is declined.  Each distinct
    entry is packed once per operand, keyed by identity, with its
    coefficients cleared: da (db) is a multiple of every coefficient
    denominator of A (B), 1 over F_p, and a coefficient u/v is packed as
    the int u·(da/v).  So the slot sums are da·db times the coefficients
    of the product, unreduced over F_p.
    """
    acol = {}       # terms in each column of A
    for row in anz.values():
        for k, e in row.items():
            acol[k] = acol.get(k, 0) + len(e.terms)
    pairs = 0
    cols = set()
    for k, row in bnz.items():
        pairs += acol.get(k, 0) * sum([len(e.terms) for e in row.values()])
        cols.update(row)
    slots = len(anz) * len(cols)
    if not pairs or 3 ** n * slots > pairs:
        return None
    sides = [{id(e): e for row in nz.values() for e in row.values()}
             for nz in (anz, bnz)]
    top = max(map(max, chain.from_iterable(
        [e.terms for side in sides for e in side.values()])))
    b = 2 * top + 1
    size = b ** n
    if size * slots > pairs:
        return None
    powers = [b ** v for v in range(n)]
    pa, pb = ({i: [(sum(map(mul, k, powers)),
                    v.numerator * (d // v.denominator))
                   for k, v in e.terms.items()]
               for i, e in side.items()}
              for side, d in zip(sides, (da, db)))
    sums = {}
    for i, arow in anz.items():
        row = {}
        for k, a in arow.items():
            brow = bnz.get(k)
            if brow is None:
                continue
            pka = pa[id(a)]
            for j, e in brow.items():
                out = row.get(j)
                if out is None:
                    out = row[j] = [0] * size
                pkb = pb[id(e)]
                for ka, va in pka:
                    for kb, vb in pkb:
                        out[ka + kb] += va * vb
        if row:
            sums[i] = row
    return b, sums


def _dense_rows(ring, anz, bnz, p, d):
    """The nonzero rows of the product of the nonzero rows `anz` and
    `bnz`, decoded from the slot sums of `_dense_sums`; None when it
    declines.

    Over F_p, p is the characteristic.  Over Q, p is 0, the coefficients
    of both operands are ints, and d is the product of their common
    denominators.  The caller has met a non-constant entry, so the ring
    has variables.  An output entry is written in one pass over its
    nonzero slots: each sum is reduced mod p or divided by d, a zero is
    dropped, and each distinct monomial is unpacked once.
    """
    n = len(ring.varnames)
    dense = _dense_sums(anz, bnz, n)
    if dense is None:
        return None
    b, sums = dense
    powers = [b ** v for v in range(n)]
    unpacked = {}
    nz = {}
    for i, srow in sums.items():
        row = {}
        for j, out in srow.items():
            terms = {}
            for m, v in filter(itemgetter(1), enumerate(out)):
                if p:
                    v %= p
                elif d != 1:
                    v = v // d if v % d == 0 else Fraction(v, d)
                if v:
                    k = unpacked.get(m)
                    if k is None:
                        k = unpacked[m] = tuple([m // q % b for q in powers])
                    terms[k] = v
            if terms:
                row[j] = Poly(ring, terms, _normalized=True)
        if row:
            nz[i] = row
    return nz


def proves_scalar_product(a, b, f):
    """True when the slot sums of `_dense_sums` prove a·b = f·id; False
    leaves it undecided.  a, b and f are over one ring, and a·b is
    square.  It builds no product matrix, no Poly and no Fraction.

    Over Q the lcms D_A and D_B of the coefficient denominators of a and
    b clear them, so each slot list holds D times an entry of a·b, with
    D = D_A·D_B, and f is packed as D·f in the same radix; over F_p,
    D = 1 and each slot is reduced % p.  An entry off the diagonal must
    be all zeros and each diagonal entry must equal packed f.  The answer
    is False when the ring has no variables or the layout declines, when
    f has an exponent ≥ b, when D·c is not an int for a coefficient c of
    f, or on any mismatch.

    Why this is exact: every exponent of a monomial of a·b is the sum of
    two exponents of the operands, at most 2·top < b = 2·top + 1, and so
    is every exponent of f that passes the check.  So packing is
    injective on the monomials of both sides, a sum of packed exponents
    never carries from one digit into the next, and slot m of entry
    (i, j) is exactly D times the coefficient of the one monomial that
    packs to m (mod p over F_p).  Equal slot lists therefore mean equal
    polynomials, since D ≠ 0."""
    ring = a.ring
    n = len(ring.varnames)
    if not n:
        return False
    p = ring.char
    da = db = 1
    if not p:
        da, db = _denominator(a.nz), _denominator(b.nz)
    dense = _dense_sums(a.nz, b.nz, n, da, db)
    if dense is None:
        return False
    base, sums = dense
    d = da * db
    powers = [base ** v for v in range(n)]
    want = [0] * base ** n
    for k, c in f.terms.items():
        if max(k) >= base or d % c.denominator:
            return False
        want[sum(map(mul, k, powers))] = c.numerator * (d // c.denominator)
    if len(sums) != a.rows:
        return False
    for i, row in sums.items():
        diagonal = row.get(i)
        if diagonal is None:
            return False
        if p:
            diagonal = [v % p for v in diagonal]
        if diagonal != want:
            return False
        for j, out in row.items():
            if j != i and any(out) and (not p or any(v % p for v in out)):
                return False
    return True


def _selection(nz, one, minus):
    """(columns, negated) when every stored row of `nz` is one entry, a
    constant ±1: columns is {row: column}, and negated the set of rows
    whose entry is -1.  `one` is the exponent tuple of the monomial 1 and
    `minus` the normal form of -1 (p - 1 over F_p, so over F_2 no row is
    negated).  None when a row is not; the scan stops at the first such
    row."""
    cols = {}
    negated = set()
    plus = neg = None   # the last entries found to be 1 and -1, often shared
    for i, row in nz.items():
        if len(row) != 1:
            return None
        (k, e), = row.items()
        if e is not plus:
            if e is neg:
                negated.add(i)
            else:
                t = e.terms
                if len(t) != 1:
                    return None
                c = t.get(one)
                if c == 1:
                    plus = e
                elif c == minus:
                    neg = e
                    negated.add(i)
                else:
                    return None
        cols[i] = k
    return cols, negated


def _negated(row, memo):
    """{column: -entry} for the stored row `row`.  `memo` maps the id of
    each entry negated so far to its negation, so each distinct entry is
    negated once while the memo lives; the caller keeps the memo no longer
    than the matrices that hold those entries."""
    out = {}
    for j, e in row.items():
        n = memo.get(id(e))
        if n is None:
            n = memo[id(e)] = -e
        out[j] = n
    return out


class PolyMatrix:
    """Sparse matrix of Polys.  Shape is explicit so 0-by-n edges stay sane.

    `nz` maps each row index that has a nonzero entry to {column index:
    nonzero Poly}.  Read it freely, but never change it: matrices share
    rows and entries.
    """

    __slots__ = ("ring", "rows", "cols", "nz")

    def __init__(self, ring, rows, cols, entries=(), *, trusted=None):
        """`entries` is a flat row-major list of rows*cols Polys over `ring`.

        `trusted` instead takes rows already in the layout of `nz`, built
        inside the library: indices in range, every value a nonzero Poly
        over `ring`; rows may be shared with other matrices.  They are used
        as they are, unchecked.
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

    def at(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a "
                             f"{self.rows}x{self.cols} matrix")
        e = self.nz.get(i, {}).get(j)
        return Poly.zero(self.ring) if e is None else e

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
        """The matrix product: a reindexing when one operand is a selection,
        else the fused kernel (see the module docstring)."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        self._same_ring(other)
        ring = self.ring
        anz, bnz = self.nz, other.nz
        one = (0,) * len(ring.varnames)     # exponents of the monomial 1
        minus = ring.char - 1 if ring.char else -1
        left = _selection(anz, one, minus)
        if left is not None:
            cols, negated = left
            nz = {i: bnz[k] for i, k in cols.items() if k in bnz}
            memo = {}
            for i in negated.intersection(nz):
                nz[i] = _negated(nz[i], memo)
            return PolyMatrix(ring, self.rows, other.cols, trusted=nz)
        right = _selection(bnz, one, minus)
        if right is not None:
            cols, negated = right
            if len(set(cols.values())) == len(cols):
                nz = {}
                memo = {}
                for i, arow in anz.items():
                    row = {cols[k]: a for k, a in arow.items() if k in cols}
                    if row:
                        if negated:
                            row.update(_negated(
                                {cols[k]: arow[k]
                                 for k in negated.intersection(arow)}, memo))
                        nz[i] = row
                return PolyMatrix(ring, self.rows, other.cols, trusted=nz)
        p = ring.char
        d = 1
        if not p:
            anz, da = _cleared(anz, ring)
            bnz, db = _cleared(bnz, ring)
            d = da * db
        ask = True      # whether _dense_rows is still to be asked
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
                        # two non-constant entries, not both one-term
                        if ask:
                            rows = _dense_rows(ring, anz, bnz, p, d)
                            if rows is not None:
                                return PolyMatrix(ring, self.rows,
                                                  other.cols, trusted=rows)
                            ask = False
                        for ka, va in at.items():
                            for kb, vb in bt.items():
                                kab = tuple(map(add, ka, kb))
                                out[kab] = out.get(kab, 0) + va * vb
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
        # distinct entry is negated once
        memo = {}
        return PolyMatrix(self.ring, self.rows, self.cols,
                          trusted={i: _negated(row, memo)
                                   for i, row in self.nz.items()})

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
        """List of rows of base-field scalars: the sparse rows of
        `Evaluation` written out, absent entries the base-field zero."""
        zero = normalize_scalar(self.ring, 0)
        rows = (Evaluation(self.ring, point).rows(self)
                if self.rows and self.cols else {})
        return [[rows.get(i, {}).get(j, zero) for j in range(self.cols)]
                for i in range(self.rows)]

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"PolyMatrix({self.rows}x{self.cols}: {body})"


class Evaluation:
    """Matrices over `ring` evaluated at one point (variable name ->
    scalar; every ring variable must be assigned), as sparse rows.

    `rows(mat)` is {row: {column: nonzero base-field scalar}}, each scalar
    in the normal form of `ring.normalize_scalar`, built new on every call:
    the caller owns the dicts it gets.  Two memos live as long as the
    `Evaluation`: each distinct entry is evaluated once, keyed by identity
    and holding the object it keys, so an id cannot be reused while the
    memo lives; and each distinct monomial (exponent tuple) is computed
    once, whichever entries hold it (`ring.evaluate_at`); `value(poly)`
    sends one polynomial through the same monomial memo.  Over Q a
    monomial whose value would pass the coefficient budget raises
    ValueError.
    """

    __slots__ = ("ring", "vals", "_entries", "_powers")

    def __init__(self, ring, point):
        self.ring = ring
        self.vals = point_values(ring, point)
        self._entries = {}
        self._powers = {}

    def rows(self, mat):
        if mat.ring is not self.ring:
            raise ValueError("matrix over another ring than the evaluation")
        vals, entries, powers = self.vals, self._entries, self._powers
        out = {}
        for i, row in mat.nz.items():
            vrow = {}
            for j, e in row.items():
                ev = entries.get(id(e))
                if ev is None:
                    ev = entries[id(e)] = (e, evaluate_at(e, vals, powers))
                if ev[1]:
                    vrow[j] = ev[1]
            if vrow:
                out[i] = vrow
        return out

    def value(self, poly):
        if poly.ring is not self.ring:
            raise ValueError("polynomial over another ring")
        return evaluate_at(poly, self.vals, self._powers)


def as_evaluation(ring, point):
    """`point` itself when it is an `Evaluation`, else a new one over ring."""
    return point if isinstance(point, Evaluation) else Evaluation(ring, point)


def kron(a, b):
    """Kronecker product, left factor major.  Where one entry of a pair is
    the constant 1, the result holds the other entry itself, not a product."""
    if a.ring is not b.ring:
        raise ValueError("mixed rings")
    one = Poly.one(a.ring).terms
    nz = {}
    for ia, arow in a.nz.items():
        for ib, brow in b.nz.items():
            row = {}
            for ja, e in arow.items():
                unit = e.terms == one
                for jb, g in brow.items():
                    t = g if unit else e if g.terms == one else e * g
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
    lies outside the target; every block not given is zero.  A rule gives
    at most one block per target key.  Blocks are written straight into
    the rows of the result, and one whose shape is not its slot's, or
    whose ring is not `ring`, raises ValueError, as in `PolyMatrix.block`.
    """
    slots = {}      # target key -> (first row, rank)
    r0 = 0
    for key, r in tgt:
        slots[key] = (r0, r)
        r0 += r
    nz = {}
    c0 = 0
    for key, cs in src:
        if cs:
            for tkey, blk in rule(key, cs):
                slot = slots.get(tkey)
                if slot is None:
                    continue
                top, rs = slot
                if blk.rows != rs or blk.cols != cs:
                    raise ValueError(
                        f"block {key!r} -> {tkey!r} is {blk.rows}x{blk.cols}, "
                        f"slot is {rs}x{cs}")
                if blk.ring is not ring:
                    raise ValueError(f"block {key!r} -> {tkey!r} has another "
                                     f"ring")
                for i, brow in blk.nz.items():
                    row = nz.get(top + i)
                    if row is None:
                        row = nz[top + i] = {}
                    for j, e in brow.items():
                        row[c0 + j] = e
        c0 += cs
    return PolyMatrix(ring, r0, c0, trusted=nz)


def tensor_rule(ring, fa, fb, rank_a, rank_b, move):
    """The `graded_map` rule of fa ⊗ 1 + (-1)^p 1 ⊗ fb on summands keyed
    (p, q), the p-th summand of a first factor tensored with the q-th of a
    second.  fa(p) maps the p-th summand of the first factor (rank
    rank_a(p)) to its move(p)-th, and fb(q) likewise for the second; both
    are matrices over `ring`.  Blocks are Kronecker products, left factor
    major, with an identity, so they hold the entries of fa(p) and fb(q)."""
    def rule(key, r):
        p, q = key
        yield (move(p), q), kron(fa(p), PolyMatrix.identity(ring, rank_b(q)))
        blk = kron(PolyMatrix.identity(ring, rank_a(p)), fb(q))
        yield (p, move(q)), blk if p % 2 == 0 else -blk
    return rule


def cone_rule(fs, ft, move, g=None):
    """The `graded_map` rule of a mapping cone, on summands keyed ("s", k),
    a copy of the source at k, and ("t", k), the target at k.  fs(k) and
    ft(k) map the source's and the target's k-th summand to its move(k)-th,
    and g(k), when a morphism is given, the source's k-th to the target's.
    A source summand yields -fs(k) and g(k), a target summand ft(k); the
    order of the summands is the caller's."""
    def rule(key, r):
        side, k = key
        if side == "t":
            yield ("t", move(k)), ft(k)
            return
        yield ("s", move(k)), -fs(k)
        if g is not None:
            yield ("t", k), g(k)
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


def _first_difference(x, y):
    """The text ' at (i, j)' that names the first entry, in row-major
    order, at which the matrices x and y, of one shape and known to
    differ, differ.  Only failure reports call it; it prints no value."""
    for i in range(x.rows):
        rx, ry = x.nz.get(i, {}), y.nz.get(i, {})
        if rx != ry:
            j = min(j for j in rx.keys() | ry.keys() if rx.get(j) != ry.get(j))
            return f" at ({i}, {j})"


def validate_complex(c):
    """Report of problems, each failed d∘d = 0 with its first nonzero
    entry (row-major); empty list means the complex is valid."""
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
            zero = PolyMatrix.zero(c.ring, sq.rows, sq.cols)
            report.append(f"degree {m}: d∘d is nonzero"
                          + _first_difference(sq, zero))
    return report


def shift_sign(mat, k):
    """`mat` with the sign (-1)^k of a degree shift by k."""
    return -mat if k % 2 else mat


# ---------------------------------------------------------------------------
# pointwise homology (a reference for tests)
# ---------------------------------------------------------------------------

def homology_dims_at(c, point):
    """Dimensions of the cohomology of the evaluated complex, degree by
    degree."""
    at = Evaluation(c.ring, point)
    p = c.ring.char
    ranks = {m: linalg.sparse_rank(at.rows(c.diff(m)).values(), p)
             for m in c.degrees()}
    return {m: c.rank(m) - ranks[m] - ranks.get(m - 1, 0)
            for m in c.degrees()}
