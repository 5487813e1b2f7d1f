# cython: language_level=3
"""Compiled twin of _poly_fallback.  Same four functions, same semantics,
same coefficient normal form (over Q an int when integral, else a Fraction
with denominator > 1; mod p the residue in [1, p)).

The win is loop/dispatch overhead on the dict-of-tuples representation;
coefficients stay Python objects (int or Fraction) so exactness is untouched.
"""

from fractions import Fraction
from operator import add


def terms_add(dict a, dict b, long p):
    cdef dict out = dict(a)
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


def terms_neg(dict a, long p):
    cdef dict out = {}
    for k, v in a.items():
        if p:
            out[k] = (-v) % p
        else:
            out[k] = -v
    return out


def terms_scale(dict a, c, long p):
    if p:
        c %= p
    if not c:
        return {}
    cdef dict out = {}
    for k, v in a.items():
        s = v * c
        if p:
            s %= p
        elif type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            out[k] = s
    return out


def terms_mul(dict a, dict b, long p):
    if not a or not b:
        return {}
    cdef tuple ka, kb
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
    cdef dict out = {}
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
