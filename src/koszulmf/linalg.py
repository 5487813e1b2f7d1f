"""Exact Gaussian elimination over the rationals or a prime field.

Inputs are dense lists of rows of base-field scalars: rationals in the
normal form of `koszulmf.ring` (int, or Fraction with denominator > 1) in
char 0, ints in [0, p) mod p.  Over Q each row is converted to Fractions
before elimination divides, so no float can appear.  Only ranks and kernel dimensions are needed upstream.  The
evaluated matrices are mostly zero, so elimination works on the nonzero
entries of each row only.
"""

from fractions import Fraction


def rank(mat, p=0):
    # echelon rows keyed by their leading column; each input row is reduced
    # against them until it vanishes or leads in a new column
    pivots = {}
    for r in mat:
        if p:
            row = {c: v % p for c, v in enumerate(r) if v % p}
        else:
            row = {c: Fraction(v) for c, v in enumerate(r) if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            if p:
                factor = row[lead] * pow(piv[lead], p - 2, p) % p
            else:
                factor = row[lead] / piv[lead]
            for c, v in piv.items():
                w = row.get(c, 0) - factor * v
                if p:
                    w %= p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def kernel_dim(mat, cols, p=0):
    """Nullity of a matrix with the given column count (rows may be empty)."""
    return cols - rank(mat, p)
