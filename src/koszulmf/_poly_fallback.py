"""Pure-Python polynomial term arithmetic.

Terms are dicts mapping exponent tuples to nonzero coefficients; the
characteristic `p` is 0 for the rationals or a prime for integers mod p.
Coefficients are in normal form, and every function keeps them so: over Q
an int when the value is integral and a Fraction with denominator > 1
otherwise (a Fraction result that comes out integral is demoted to int),
mod p the residue in [1, p).  The compiled module `_poly_speedups` exports
the same four functions; `_kernel` picks whichever is available at import
time.  Keep the two implementations in lockstep — there is a parity test.
"""

from fractions import Fraction
from operator import add


def terms_add(a, b, p):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            s = w + v
            if p:
                s %= p
            elif type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def terms_neg(a, p):
    if p:
        return {k: (-v) % p for k, v in a.items()}
    return {k: -v for k, v in a.items()}


def terms_scale(a, c, p):
    if p:
        c %= p
    if not c:
        return {}
    out = {}
    for k, v in a.items():
        s = v * c
        if p:
            s %= p
        elif type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            out[k] = s
    return out


def terms_mul(a, b, p):
    if not a or not b:
        return {}
    if len(a) == 1 and len(b) == 1:
        # monomial times monomial: most products in practice
        (ka, va), = a.items()
        (kb, vb), = b.items()
        c = va * vb
        if p:
            c %= p
        elif type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        return {tuple(map(add, ka, kb)): c} if c else {}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            c = va * vb
            w = out.get(k)
            if w is not None:
                c = c + w
            if p:
                c %= p
            if c:
                out[k] = c
            elif w is not None:
                del out[k]
    if not p:
        for k, c in out.items():
            if type(c) is Fraction and c.denominator == 1:
                out[k] = c.numerator
    return out
