"""Exact coefficient rings: rationals, prime fields, flat polynomial rings.

Polynomials are dicts from exponent tuples to nonzero coefficients in
normal form: over the rationals an int when the value is integral and a
Fraction with denominator > 1 otherwise (`normalize_scalar`, and the kernel
keeps the form after every operation); mod p the canonical int
representative in [1, p).  Integral values are the common case, and int
arithmetic is far cheaper than Fraction arithmetic.  The
term order everywhere is graded lexicographic with earlier variables more
significant; printing lists terms with the leading term first, and
`parse_poly(str(p), ring) == p` round-trips.
"""

import re
from fractions import Fraction

from koszulmf._kernel import terms_add, terms_mul, terms_neg, terms_scale

_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_spec(kind, p, vars, base):
    if kind == "rationals":
        if p or vars or base is not None:
            raise ValueError("rationals take no parameters")
    elif kind == "prime_field":
        if not _is_prime(p):
            raise ValueError(f"prime_field characteristic {p} is not prime")
        if vars or base is not None:
            raise ValueError("prime_field takes only p")
    elif kind == "polynomial":
        if not isinstance(base, RingSpec) or base.kind == "polynomial":
            raise ValueError("polynomial ring needs a field as base")
        if not vars:
            raise ValueError("polynomial ring needs at least one variable")
        seen = set()
        for v in vars:
            if not isinstance(v, str) or not _VAR_RE.match(v):
                raise ValueError(f"bad variable name {v!r}")
            if v in seen:
                raise ValueError(f"duplicate variable {v!r}")
            seen.add(v)
        if p:
            raise ValueError("characteristic lives on the base field")
    else:
        raise ValueError(f"unknown ring kind {kind!r}")


class RingSpec:
    """A base field, or a polynomial ring in finitely many variables over one.

    kind is one of "rationals", "prime_field", "polynomial".  Nesting depth
    is at most two: a polynomial ring's base must be a field.

    Specs are interned and immutable: constructing a spec equal to an
    existing one returns that same object, so equality is identity and the
    ring checks throughout the library are `is` tests.  `char`, `is_field`,
    `varnames` (empty for a field) and `base_field` (the spec itself for a
    field) are fixed when the spec is first built.
    """

    __slots__ = ("kind", "p", "vars", "base",
                 "char", "is_field", "varnames", "base_field")
    _interned = {}

    def __new__(cls, kind, p=0, vars=(), base=None):
        vars = tuple(vars)
        key = (kind, p, vars, base)
        spec = cls._interned.get(key)
        if spec is None:
            _check_spec(kind, p, vars, base)
            spec = super().__new__(cls)
            field = kind != "polynomial"
            fields = {"kind": kind, "p": p, "vars": vars, "base": base,
                      "char": p if field else base.char,
                      "is_field": field,
                      "varnames": () if field else vars,
                      "base_field": spec if field else base}
            for name, value in fields.items():
                object.__setattr__(spec, name, value)
            spec = cls._interned.setdefault(key, spec)
        return spec

    def __setattr__(self, name, value):
        raise AttributeError("RingSpec is immutable")

    def __reduce__(self):
        return (RingSpec, (self.kind, self.p, self.vars, self.base))

    def __repr__(self):
        return (f"RingSpec(kind={self.kind!r}, p={self.p!r}, "
                f"vars={self.vars!r}, base={self.base!r})")


def rationals():
    return RingSpec("rationals")


def prime_field(p):
    return RingSpec("prime_field", p=p)


def polynomial_ring(base, varnames):
    return RingSpec("polynomial", vars=tuple(varnames), base=base)


def normalize_scalar(ring, c):
    """Coerce c (int or Fraction) into the base field of `ring`, in its
    normal form: over F_p the residue in [0, p); over Q an int when c is
    integral and a Fraction with denominator > 1 otherwise."""
    p = ring.char
    if p:
        if isinstance(c, Fraction):
            if c.denominator % p == 0:
                raise ZeroDivisionError(f"denominator {c.denominator} vanishes mod {p}")
            return c.numerator * pow(c.denominator, p - 2, p) % p
        return int(c) % p
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """An exact polynomial attached to a RingSpec.

    Over a bare field the exponent tuples are empty and the poly is just a
    boxed scalar, which keeps the matrix layer uniform.

    Polys are immutable: every operation builds a new `terms` dict and none
    changes one in place, so one Poly may be shared by many matrix entries
    (the document reader's entry memo relies on this).
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None, _normalized=False):
        self.ring = ring
        if terms is None:
            terms = {}
        if _normalized:
            self.terms = terms
            return
        nv = len(ring.varnames)
        p = ring.char
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nv:
                raise ValueError(f"exponent tuple {exps} has wrong length (want {nv})")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = normalize_scalar(ring, c)
            if c:
                clean[exps] = c
        self.terms = clean

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, _normalized=True)

    @classmethod
    def const(cls, ring, c):
        c = normalize_scalar(ring, c)
        if not c:
            return cls.zero(ring)
        return cls(ring, {(0,) * len(ring.varnames): c}, _normalized=True)

    @classmethod
    def one(cls, ring):
        return cls.const(ring, 1)

    @classmethod
    def var(cls, ring, name):
        names = ring.varnames
        if name not in names:
            raise ValueError(f"{name!r} is not a variable of the ring")
        exps = tuple(1 if v == name else 0 for v in names)
        return cls(ring, {exps: normalize_scalar(ring, 1)}, _normalized=True)

    # --- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ring is not self.ring:
            raise ValueError("mixed rings")

    def __add__(self, other):
        self._check(other)
        return Poly(self.ring, terms_add(self.terms, other.terms, self.ring.char),
                    _normalized=True)

    def __sub__(self, other):
        self._check(other)
        p = self.ring.char
        return Poly(self.ring, terms_add(self.terms, terms_neg(other.terms, p), p),
                    _normalized=True)

    def __neg__(self):
        return Poly(self.ring, terms_neg(self.terms, self.ring.char), _normalized=True)

    def __mul__(self, other):
        self._check(other)
        return Poly(self.ring, terms_mul(self.terms, other.terms, self.ring.char),
                    _normalized=True)

    def scale(self, c):
        return Poly(self.ring, terms_scale(self.terms, normalize_scalar(self.ring, c),
                                           self.ring.char), _normalized=True)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ring is self.ring
                and other.terms == self.terms)

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The scalar value of a constant polynomial (0 if zero)."""
        if not self.terms:
            return normalize_scalar(self.ring, 0)
        nv = len(self.ring.varnames)
        z = (0,) * nv
        if set(self.terms) != {z}:
            raise ValueError("polynomial is not constant")
        return self.terms[z]

    # --- printing -----------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order, leading term first.  Deterministic."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.varnames
        p = self.ring.char
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(names, exps) if e)
            if p:
                coeff, negative = c, False
            else:
                negative = c < 0
                coeff = -c if negative else c
            if mono and coeff == 1:
                body = mono
            elif mono:
                body = f"{coeff}*{mono}"
            else:
                body = str(coeff)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One pass over the text: every token is one match, whitespace before it
# included; the last alternative catches any other character as an error.
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9_]*)|([-+*^()/])|(\S))")

# The coefficient budget of parsed text: an integer literal of more than
# this many digits, or a parsed polynomial with a coefficient whose
# numerator or denominator has more (say from a power), is malformed input.
# The product of two coefficients within the budget still prints: Python
# refuses int <-> str conversions past 4300 digits.
MAX_COEFF_DIGITS = 1000
_COEFF_LIMIT = 10 ** MAX_COEFF_DIGITS
_COEFF_LIMIT_BITS = _COEFF_LIMIT.bit_length()


def _too_long(n):
    """Whether |n| has more than MAX_COEFF_DIGITS digits, without str()."""
    return n.bit_length() >= _COEFF_LIMIT_BITS and abs(n) >= _COEFF_LIMIT


def _tokenize(text):
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        num, name, op, other = m.groups()
        if op is not None:
            append(("op", op, m.start(3)))
        elif name is not None:
            append(("name", name, m.start(2)))
        elif num is not None:
            if len(num) > MAX_COEFF_DIGITS:
                raise ParseError(f"integer literal of {len(num)} digits is "
                                 f"too long", m.start(1))
            append(("num", int(num), m.start(1)))
        else:
            raise ParseError(f"unexpected character {other!r}", m.start(4))
    append(("end", None, len(text)))
    return tokens


# The work budget of parsed text: one product of an entry, a `*` or a step
# of a power's square-and-multiply chain, may multiply at most this many
# pairs of terms (len(a.terms) * len(b.terms)), and over Q not two
# coefficients whose product surely has more than MAX_COEFF_DIGITS digits
# (numerators or denominators, by bit length).  Both are decided on the
# operands, so such input is refused as malformed before the product is
# computed; a later factor that would cancel it does not matter.
MAX_TERM_PRODUCTS = 100_000


def _coeff_bits(p):
    """The bit lengths of p's largest numerator and denominator."""
    num = den = 0
    for c in p.terms.values():
        b = c.numerator.bit_length()
        if b > num:
            num = b
        if type(c) is not int:
            b = c.denominator.bit_length()
            if b > den:
                den = b
    return num, den


def _checked_product(a, b, pos):
    """a * b, refused first when past the work budget."""
    if len(a.terms) * len(b.terms) > MAX_TERM_PRODUCTS:
        raise ParseError(f"product of {len(a.terms)} by {len(b.terms)} "
                         f"terms is past {MAX_TERM_PRODUCTS} term products",
                         pos)
    if not a.ring.char:
        an, ad = _coeff_bits(a)
        bn, bd = (an, ad) if b is a else _coeff_bits(b)
        # |c| * |c'| >= 2^(bits - 1 + bits' - 1) > 10^MAX_COEFF_DIGITS
        if max(an + bn, ad + bd) - 2 >= _COEFF_LIMIT_BITS:
            raise ParseError(f"coefficient of more than {MAX_COEFF_DIGITS} "
                             "digits", 0)
    return a * b


# Each parenthesis level costs the recursive-descent parser five stack
# frames; deeper input is refused as malformed rather than left to exhaust
# the interpreter's recursion limit.
MAX_PAREN_DEPTH = 100


class _Parser:
    def __init__(self, text, ring):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.take()

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = _checked_product(p, self.unary(), pos)
            else:
                return p

    def unary(self):
        # a run of signs is folded in a loop, so its length costs no stack
        negate = False
        kind, val, _ = self.peek()
        while kind == "op" and val in "+-":
            self.take()
            negate ^= val == "-"
            kind, val, _ = self.peek()
        p = self.power()
        return -p if negate else p

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, n, npos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", npos)
            self.take()
            # Poly.__pow__'s square-and-multiply chain, each product checked
            out = None
            while n:
                if n & 1:
                    out = base if out is None else _checked_product(out, base,
                                                                    pos)
                n >>= 1
                if n:
                    base = _checked_product(base, base, pos)
            return Poly.one(self.ring) if out is None else out
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.peek()
                if k3 != "num":
                    raise ParseError("expected integer denominator", p3)
                self.take()
                if v3 == 0:
                    raise ParseError("zero denominator", p3)
                try:
                    return Poly.const(self.ring, Fraction(val, v3))
                except ZeroDivisionError as e:
                    raise ParseError(str(e), p3) from None
            return Poly.const(self.ring, val)
        if kind == "name":
            if val not in self.ring.varnames:
                raise ParseError(f"unknown variable {val!r}", pos)
            return Poly.var(self.ring, val)
        if kind == "op" and val == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested deeper than "
                                 f"{MAX_PAREN_DEPTH}", pos)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse_poly(text, ring):
    """Parse polynomial text in the given ring.  Raises ParseError, also
    when a coefficient of the result is past MAX_COEFF_DIGITS."""
    poly = _Parser(text, ring).parse()
    for c in poly.terms.values():
        if _too_long(c.numerator) or _too_long(c.denominator):
            raise ParseError(f"coefficient of more than {MAX_COEFF_DIGITS} "
                             "digits", 0)
    return poly


def point_values(ring, point):
    """The coordinates of a point (variable name -> scalar) in ring order,
    normalized into the base field.  Every ring variable must be assigned."""
    names = ring.varnames
    missing = [v for v in names if v not in point]
    if missing:
        raise ValueError(f"point does not assign variables {missing}")
    return [normalize_scalar(ring, point[v]) for v in names]


def evaluate_at(poly, vals):
    """Evaluate at coordinates already normalized by `point_values`."""
    p = poly.ring.char
    total = normalize_scalar(poly.ring, 0)
    for exps, c in poly.terms.items():
        term = c
        for v, e in zip(vals, exps):
            if e:
                term = term * v ** e
                if p:
                    term %= p
        total = total + term
        if p:
            total %= p
    if type(total) is Fraction and total.denominator == 1:
        total = total.numerator
    return total


def evaluate(poly, point):
    """Evaluate at a point (mapping variable name -> base-field scalar).

    Every ring variable must be assigned.  Returns a base-field scalar in
    normal form (see `normalize_scalar`): over Q an int or a Fraction with
    denominator > 1, over a prime field an int in [0, p).
    """
    return evaluate_at(poly, point_values(poly.ring, point))


def embed(poly, ring, offset=0):
    """The image of `poly` in a polynomial ring over the same base field
    whose variables at positions offset, offset+1, ... are the variables of
    poly's ring, in order; every other variable gets exponent zero."""
    if ring is poly.ring and offset == 0:
        return poly
    src = poly.ring.varnames
    if (offset < 0 or ring.base_field is not poly.ring.base_field
            or ring.varnames[offset:offset + len(src)] != src):
        raise ValueError("ring does not contain the polynomial's ring "
                         f"at offset {offset}")
    left = (0,) * offset
    right = (0,) * (len(ring.varnames) - offset - len(src))
    return Poly(ring, {left + exps + right: c for exps, c in poly.terms.items()},
                _normalized=True)


def merge_rings(ra, rb):
    """Polynomial ring on the disjoint union of variables, left vars first."""
    base_a, base_b = ra.base_field, rb.base_field
    if base_a is not base_b:
        raise ValueError("tensor factors must share the base field")
    va, vb = ra.varnames, rb.varnames
    if set(va) & set(vb):
        raise ValueError(f"variable names collide: {sorted(set(va) & set(vb))}")
    merged_vars = va + vb
    if not merged_vars:
        return base_a
    return polynomial_ring(base_a, merged_vars)
