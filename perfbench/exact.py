"""Exact arithmetic the benchmark owns, so that expected outputs never come
from the code under test.

Polynomials are dicts from exponent tuples to nonzero coefficients
(Fraction over Q, ints in [0, p) over F_p); `p == 0` means Q.
"""

from fractions import Fraction


def norm(c, p):
    if not p:
        return Fraction(c)
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def add(a, b, p):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        s = s % p if p else s
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale(a, c, p):
    c = norm(c, p)
    if not c:
        return {}
    return {k: (v * c) % p if p else v * c for k, v in a.items()}


def mul(a, b, p):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            out[k] = s % p if p else s
    return {k: v for k, v in out.items() if v}


def evaluate(a, point, p):
    total = norm(0, p)
    for exps, c in a.items():
        term = c
        for v, e in zip(point, exps):
            term *= norm(v, p) ** e
        total += term
    return total % p if p else total


def fmt(a, names):
    """Polynomial text the document parser accepts: `3*x^2*y - 1/2*z + 4`."""
    if not a:
        return "0"
    parts = []
    for exps, c in sorted(a.items(), reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(names, exps) if e)
        neg = c < 0
        body = str(-c if neg else c)
        if mono:
            body = f"{body}*{mono}"
        sign = "-" if neg else "+"
        parts.append(f"{sign} {body}" if parts else ("-" + body if neg
                                                     else body))
    return " ".join(parts)


def rank(rows, p):
    """Rank of a list of rows of field elements, by row reduction."""
    rows = [[norm(v, p) for v in r] for r in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], -1, p) if p else 1 / rows[rk][c]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p if p else x - f * y
                           for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk
