"""Exact coefficient rings: rationals, prime fields, flat polynomial rings.

Polynomials are dicts from exponent tuples to nonzero coefficients in
normal form: over the rationals an int when the value is integral and a
Fraction with denominator > 1 otherwise (`normalize_scalar`); mod p the
canonical int representative in [1, p).  Integral values are the common
case, and int arithmetic is far cheaper than Fraction arithmetic.  The
term order everywhere is graded lexicographic with earlier variables more
significant; printing lists terms with the leading term first, and
`parse_poly(str(p), ring) == p` round-trips.

The term functions `terms_add`, `terms_neg` and `terms_mul` keep the normal
form on bare dicts.  `Poly` wraps a dict with its ring and calls them; the
parser computes on dicts throughout and wraps its result in one `Poly`.
Both raise powers through the one chain `_power`, and both call the term
functions through this module's globals, so a wrapper on
`koszulmf.ring.terms_mul` sees every product of either.  Matrix products
have their own fused loop (`PolyMatrix.__mul__`).

`parse_poly` first offers the text to `_flat_terms`, a one-pass reader
for the flat sums that documents and witness logs hold.  It declines any
other text and never raises: the recursive-descent parser reads the rest
and is the one source of every ParseError.
"""

import re
from fractions import Fraction
from operator import add

_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


# a characteristic is below 2^64, where Miller-Rabin on the first twelve
# primes decides primality exactly (it does below 3.18e23: Sorenson and
# Webster 2015), so no p costs more than a few modular powers
MAX_CHAR = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_spec(kind, p, vars, base):
    if kind == "rationals":
        if p or vars or base is not None:
            raise ValueError("rationals take no parameters")
    elif kind == "prime_field":
        if p >= MAX_CHAR:
            raise ValueError(f"prime_field characteristic {p} is not below "
                             f"2^64")
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


# ---------------------------------------------------------------------------
# term arithmetic: dicts of exponent tuples -> coefficients in normal form;
# p is the characteristic, 0 for the rationals
# ---------------------------------------------------------------------------

def terms_add(a, b, p):
    out = dict(a)
    _add_into(out, b.items(), p)
    return out


def _add_into(out, items, p):
    """Add the (exponents, nonzero coefficient) pairs `items` into the term
    dict `out` in place, in order."""
    for k, v in items:
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


def terms_neg(a, p):
    if p:
        return {k: (-v) % p for k, v in a.items()}
    return {k: -v for k, v in a.items()}


def terms_mul(a, b, p):
    if not a or not b:
        return {}
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


def _power(a, n, one, mul):
    """a^n by square-and-multiply, every product `mul(x, y)`; `one` for
    n = 0.  A chain starts from a itself, never from a product by one."""
    out = None
    while n:
        if n & 1:
            out = a if out is None else mul(out, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return one if out is None else out


class Poly:
    """An exact polynomial attached to a RingSpec.

    Over a bare field the exponent tuples are empty and the poly is just a
    boxed scalar, which keeps the matrix layer uniform.

    Polys are immutable: no operation changes a `terms` dict in place, so
    one Poly may be shared by many matrix entries (the document reader's
    entry memo relies on this).
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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        p = self.ring.char
        one = {(0,) * len(self.ring.varnames): 1}
        return Poly(self.ring, _power(self.terms, n, one,
                                      lambda a, b: terms_mul(a, b, p)),
                    _normalized=True)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ring is self.ring
                and other.terms == self.terms)

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

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


def _coeff_bits(terms):
    """The bit lengths of the largest numerator and denominator."""
    num = den = 0
    for c in terms.values():
        b = c.numerator.bit_length()
        if b > num:
            num = b
        if type(c) is not int:
            b = c.denominator.bit_length()
            if b > den:
                den = b
    return num, den


def _checked_product(a, b, p, pos):
    """terms_mul(a, b, p), refused first when past the work budget."""
    if len(a) * len(b) > MAX_TERM_PRODUCTS:
        raise ParseError(f"product of {len(a)} by {len(b)} "
                         f"terms is past {MAX_TERM_PRODUCTS} term products",
                         pos)
    if not p:
        an, ad = _coeff_bits(a)
        bn, bd = (an, ad) if b is a else _coeff_bits(b)
        # |c| * |c'| >= 2^(bits - 1 + bits' - 1) > 10^MAX_COEFF_DIGITS
        if max(an + bn, ad + bd) - 2 >= _COEFF_LIMIT_BITS:
            raise ParseError(f"coefficient of more than {MAX_COEFF_DIGITS} "
                             "digits", 0)
    return terms_mul(a, b, p)


# Each parenthesis level costs the recursive-descent parser five stack
# frames; deeper input is refused as malformed rather than left to exhaust
# the interpreter's recursion limit.
MAX_PAREN_DEPTH = 100


class _Parser:
    """Recursive descent over the tokens; every rule returns a term dict."""

    def __init__(self, text, ring):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.p = ring.char
        names = ring.varnames
        self.one = (0,) * len(names)
        self.exps = {v: tuple(int(v == w) for w in names) for v in names}
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expr(self):
        t = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                u = self.term()
                if val == "-":
                    u = terms_neg(u, self.p)
                t = terms_add(t, u, self.p)
            else:
                return t

    def term(self):
        t = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                t = _checked_product(t, self.unary(), self.p, pos)
            else:
                return t

    def unary(self):
        # a run of signs is folded in a loop, so its length costs no stack
        negate = False
        kind, val, _ = self.peek()
        while kind == "op" and val in "+-":
            self.take()
            negate ^= val == "-"
            kind, val, _ = self.peek()
        t = self.power()
        return terms_neg(t, self.p) if negate else t

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, n, npos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", npos)
            self.take()
            return _power(base, n, {self.one: 1},
                          lambda a, b: _checked_product(a, b, self.p, pos))
        return base

    def constant(self, c):
        c = normalize_scalar(self.ring, c)
        return {self.one: c} if c else {}

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
                    return self.constant(Fraction(val, v3))
                except ZeroDivisionError as e:
                    raise ParseError(str(e), p3) from None
            return self.constant(val)
        if kind == "name":
            exps = self.exps.get(val)
            if exps is None:
                raise ParseError(f"unknown variable {val!r}", pos)
            return {exps: 1}
        if kind == "op" and val == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested deeper than "
                                 f"{MAX_PAREN_DEPTH}", pos)
            self.depth += 1
            t = self.expr()
            kind, val, pos = self.take()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            return t
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


# One term of a flat sum: c, c/d, c*m, c/d*m or m, where m is a *-joined
# run of x or x^e; a digit run past MAX_COEFF_DIGITS does not match.
_DIGITS = rf"[0-9]{{1,{MAX_COEFF_DIGITS}}}"
_FACTOR = rf"[a-zA-Z][a-zA-Z0-9_]*(?:\^{_DIGITS})?"
_MONOMIAL = rf"{_FACTOR}(?:\*{_FACTOR})*"
_FLAT_TERM_RE = re.compile(
    rf"({_DIGITS})(?:/({_DIGITS}))?(?:\*({_MONOMIAL}))?|({_MONOMIAL})")


def _flat_terms(text, ring):
    """The term dict of a flat sum, or None to leave the text to `_Parser`.

    A flat sum is what `Poly.__str__` prints, in any term order and with a
    coefficient 1 written or not: terms of `_FLAT_TERM_RE` joined by " + "
    and " - ", the first one perhaps with a leading "-".  Its dict is the
    full parser's, key order included: each signed coefficient in normal
    form, added left to right as `terms_add` adds.  Any other text, a zero
    denominator, a denominator that vanishes mod p or an unknown variable
    returns None.  A flat term is a literal times a monomial, which no
    budget refuses.
    """
    first, *rest = text.split(" ")
    negative = first[:1] == "-"
    signs = ["-" if negative else "+", *rest[0::2]]
    bodies = [first[1:] if negative else first, *rest[1::2]]
    if len(signs) != len(bodies):
        return None
    p = ring.char
    index = {v: i for i, v in enumerate(ring.varnames)}
    items = []
    for sign, body in zip(signs, bodies):
        m = _FLAT_TERM_RE.fullmatch(body)
        if m is None or sign not in ("+", "-"):
            return None
        num, den, mono, bare = m.groups()
        mono = mono or bare
        exps = [0] * len(index)
        for factor in mono.split("*") if mono else ():
            name, _, e = factor.partition("^")
            i = index.get(name)
            if i is None:
                return None
            exps[i] += int(e) if e else 1
        c = int(num) if num else 1
        if sign == "-":
            c = -c
        if den is not None:
            try:
                c = normalize_scalar(ring, Fraction(c, int(den)))
            except ZeroDivisionError:
                return None
        elif p:
            c %= p
        if c:
            items.append((tuple(exps), c))
    out = {}
    _add_into(out, items, p)
    return out


def parse_poly(text, ring):
    """Parse polynomial text in the given ring.  Raises ParseError, also
    when a coefficient of the result is past MAX_COEFF_DIGITS."""
    terms = _flat_terms(text, ring)
    if terms is None:
        parser = _Parser(text, ring)
        terms = parser.expr()
        kind, val, pos = parser.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
    for c in terms.values():
        if _too_long(c.numerator) or _too_long(c.denominator):
            raise ParseError(f"coefficient of more than {MAX_COEFF_DIGITS} "
                             "digits", 0)
    return Poly(ring, terms, _normalized=True)


def point_values(ring, point):
    """The coordinates of a point (variable name -> scalar) in ring order,
    normalized into the base field.  Every ring variable must be assigned."""
    names = ring.varnames
    missing = [v for v in names if v not in point]
    if missing:
        raise ValueError(f"point does not assign variables {missing}")
    return [normalize_scalar(ring, point[v]) for v in names]


def _power_too_long(v, e):
    """Whether v^e over Q surely has a numerator or denominator of more
    than MAX_COEFF_DIGITS digits, decided from e and the bit lengths of v:
    |n|^e >= 2^((bits - 1) * e).  v in {0, 1, -1} never does."""
    if type(v) is not int:
        return (_power_too_long(v.numerator, e)
                or _power_too_long(v.denominator, e))
    return (v.bit_length() - 1) * e >= _COEFF_LIMIT_BITS


def evaluate_at(poly, vals):
    """Evaluate at coordinates already normalized by `point_values`.

    Over Q a power v^e whose value would pass the coefficient budget is
    refused with a ValueError before it is computed."""
    p = poly.ring.char
    total = 0
    for exps, c in poly.terms.items():
        for v, e in zip(vals, exps):
            if not e:
                continue
            if p:
                # mod p the power is reduced as it is built: x^(10^7) at a
                # point is a few dozen products, not a ten-million-bit int
                c = c * pow(v, e, p) % p
            elif e > 1 and v and _power_too_long(v, e):
                raise ValueError(f"the power ({v})^{e} at a point would "
                                 f"pass {MAX_COEFF_DIGITS} digits")
            else:
                c = c * v ** e
        total = (total + c) % p if p else total + c
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
