"""Exact Gaussian elimination over the rationals or a prime field.

Only ranks are needed upstream.  The one elimination loop, `sparse_rank`,
works on sparse rows, {column: nonzero scalar}, of base-field scalars:
rationals in the normal form of `koszulmf.ring` (int, or Fraction with
denominator > 1) in char 0, ints in [0, p) mod p.  Each pivot row is
scaled to lead with 1, so a reduction multiplies and subtracts but never
divides, and over Q a row stays in ints until a lead other than ±1 brings
in a Fraction; no float can appear.  `rank` takes dense lists of rows and
hands their nonzero entries to the same loop.
"""

from fractions import Fraction


def sparse_rank(rows, p=0):
    """Rank of the matrix whose rows are the given sparse rows.  The rows
    are read, never modified."""
    # echelon rows keyed by their leading column, each scaled to lead with
    # 1; each input row is reduced against them until it vanishes or leads
    # in a new column
    pivots = {}
    for row in rows:
        owned = False
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                v = row[lead]
                if v != 1:
                    if p:
                        inv = pow(v, p - 2, p)
                        row = {c: w * inv % p for c, w in row.items()}
                    else:
                        inv = v if v == -1 else 1 / Fraction(v)
                        row = {c: w * inv for c, w in row.items()}
                pivots[lead] = row
                break
            if not owned:
                row = dict(row)
                owned = True
            factor = row[lead]
            for c, v in piv.items():
                w = row.get(c, 0) - factor * v
                if p:
                    w %= p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def rank(mat, p=0):
    """Rank of a dense matrix: a list of rows of base-field scalars (mod p,
    any ints)."""
    if p:
        return sparse_rank(({c: v % p for c, v in enumerate(r) if v % p}
                            for r in mat), p)
    return sparse_rank(({c: v for c, v in enumerate(r) if v} for r in mat))
