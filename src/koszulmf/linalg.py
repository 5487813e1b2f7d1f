"""Exact Gaussian elimination over the rationals or a prime field.

Only ranks are needed upstream.  The one entry point, `sparse_rank`, works
on sparse rows, {column: nonzero scalar}, and reads them without changing
them.  Mod p the scalars are ints in [0, p); each pivot row is scaled to
lead with 1, so a reduction multiplies and subtracts mod p.  Over Q the
scalars are ints or Fractions (normalized or not), and no Fraction enters
the elimination: each row is first made a primitive int row on its line
(scaled by the lcm of its denominators, then divided by the gcd of its
entries).  A row whose lead b meets a pivot's lead a becomes
(a/g)·row − (b/g)·pivot, g = gcd(a, b), which cancels the lead in ints,
and is then divided by the gcd of its entries, so every row in the loop
stays primitive.  `rank` takes dense lists of rows and hands their nonzero
entries to the same elimination.
"""

from math import gcd, lcm


def _rank_q(rows):
    # echelon rows keyed by their leading column, each a primitive int row;
    # each input row is reduced against them until it vanishes or leads in
    # a new column
    pivots = {}
    for row in rows:
        given = row
        try:
            g = gcd(*row.values())
        except TypeError:
            # a Fraction: scale by the lcm of the denominators first
            den = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator)
                   for c, v in row.items()}
            g = gcd(*row.values())
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            a, b = piv[lead], row[lead]
            if a != 1:
                g = gcd(a, b)
                a //= g
                b //= g
                row = {c: a * v for c, v in row.items()}
            elif row is given:
                row = dict(row)
            # (a/g)·b − (b/g)·a = 0: the lead is dropped, not computed
            del row[lead]
            for c, v in piv.items():
                if c != lead:
                    w = row.get(c, 0) - b * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return len(pivots)


def _rank_mod_p(rows, p):
    # echelon rows keyed by their leading column, each scaled to lead with 1
    pivots = {}
    for row in rows:
        owned = False
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                v = row[lead]
                if v != 1:
                    inv = pow(v, p - 2, p)
                    row = {c: w * inv % p for c, w in row.items()}
                pivots[lead] = row
                break
            if not owned:
                row = dict(row)
                owned = True
            factor = row[lead]
            for c, v in piv.items():
                w = (row.get(c, 0) - factor * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def sparse_rank(rows, p=0):
    """Rank of the matrix whose rows are the given sparse rows, over Q when
    p = 0 and mod the prime p otherwise.  The rows are read, never
    modified."""
    return _rank_mod_p(rows, p) if p else _rank_q(rows)


def rank(mat, p=0):
    """Rank of a dense matrix: a list of rows of base-field scalars (mod p,
    any ints)."""
    if p:
        return sparse_rank(({c: v % p for c, v in enumerate(r) if v % p}
                            for r in mat), p)
    return sparse_rank(({c: v for c, v in enumerate(r) if v} for r in mat))
