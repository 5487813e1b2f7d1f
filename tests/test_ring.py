"""Coefficient rings, polynomial arithmetic, parsing, evaluation."""

import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulmf import ring
from koszulmf.ring import (MAX_COEFF_DIGITS, MAX_PAREN_DEPTH,
                           MAX_TERM_PRODUCTS, ParseError, Poly, embed,
                           evaluate, evaluate_at, normalize_scalar,
                           parse_poly, point_values, polynomial_ring,
                           prime_field, rationals)

QX = polynomial_ring(rationals(), ("x",))
QXY = polynomial_ring(rationals(), ("x", "y"))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))


# ---------------------------------------------------------------------------
# ring specs
# ---------------------------------------------------------------------------

def test_ring_spec_basics():
    assert rationals().char == 0
    assert prime_field(7).char == 7
    assert QXY.char == 0
    assert F5XY.char == 5
    assert QXY.varnames == ("x", "y")
    assert rationals().varnames == ()
    assert F5XY.base_field == prime_field(5)


def test_ring_specs_are_interned():
    assert (polynomial_ring(rationals(), ("x", "y"))
            is polynomial_ring(rationals(), ["x", "y"]))
    assert polynomial_ring(rationals(), ("x", "y")) is QXY
    assert prime_field(5) is F5XY.base_field
    assert polynomial_ring(rationals(), ("y", "x")) is not QXY
    assert polynomial_ring(prime_field(5), ("x", "y")) != QXY
    assert copy.deepcopy(QXY) is QXY
    assert pickle.loads(pickle.dumps(F5XY)) is F5XY
    with pytest.raises(AttributeError):
        QXY.vars = ("z",)


def test_ring_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        polynomial_ring(rationals(), ("x", "x"))
    with pytest.raises(ValueError):
        polynomial_ring(rationals(), ("2bad",))
    with pytest.raises(ValueError):
        polynomial_ring(rationals(), ())
    with pytest.raises(ValueError):
        polynomial_ring(QX, ("y",))   # no towers


def test_normalize_scalar():
    assert normalize_scalar(QX, 3) == Fraction(3)
    # Q normal form: an int when integral, never a bool
    for c in (3, Fraction(6, 2), True, Fraction(0)):
        assert type(normalize_scalar(QX, c)) is int
    assert normalize_scalar(QX, True) == 1
    half = normalize_scalar(QX, Fraction(2, 4))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert normalize_scalar(F5XY, 7) == 2
    assert normalize_scalar(F5XY, Fraction(1, 2)) == 3   # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        normalize_scalar(F5XY, Fraction(1, 5))


# ---------------------------------------------------------------------------
# printing and parsing
# ---------------------------------------------------------------------------

def test_str_canonical_forms():
    x, y = Poly.var(QXY, "x"), Poly.var(QXY, "y")
    assert str(Poly.zero(QXY)) == "0"
    assert str(Poly.one(QXY)) == "1"
    assert str(x * x) == "x^2"
    assert str(x * y + Poly.const(QXY, 3)) == "x*y + 3"
    assert str(x - y) == "x - y"
    assert str(-x) == "-x"
    assert str(Poly.const(QXY, Fraction(-1, 2)) * x) == "-1/2*x"


def test_leading_term_is_graded_lex():
    # x^2 beats x*y? no: same total degree, x more significant -> x^2 first
    p = parse_poly("x*y + x^2 + y^3", QXY)
    assert str(p) == "y^3 + x^2 + x*y"


def test_parse_round_trip_samples():
    for text in ["0", "1", "-1", "x", "x^2*y + 3", "x - y",
                 "1/2*x^3 - 2/3", "x*y*x"]:
        p = parse_poly(text, QXY)
        assert parse_poly(str(p), QXY) == p


def test_parse_parentheses_and_signs():
    assert parse_poly("(x+y)*(x-y)", QXY) == parse_poly("x^2 - y^2", QXY)
    assert parse_poly("-(x - y)", QXY) == parse_poly("y - x", QXY)
    assert parse_poly("+x", QXY) == parse_poly("x", QXY)
    assert parse_poly("2^3", QXY) == parse_poly("8", QXY)


def test_parse_refuses_integer_literals_past_the_digit_limit():
    # past the interpreter's int <-> str limit (4300 digits by default)
    with pytest.raises(ParseError, match="5000 digits") as exc:
        parse_poly("x + " + "1" * 5000, QXY)
    assert exc.value.position == 4
    assert parse_poly("1" * 300, QXY) == Poly.const(QXY, int("1" * 300))


def test_parse_refuses_coefficients_past_the_budget():
    assert MAX_COEFF_DIGITS == 1000
    nines = "9" * MAX_COEFF_DIGITS
    assert parse_poly(nines + "*x", QXY) == Poly(QXY, {(1, 0): int(nines)})
    assert parse_poly("1/" + nines, QXY) == Poly.const(
        QXY, Fraction(1, int(nines)))
    assert parse_poly("10^999", QXY) == Poly.const(QXY, 10 ** 999)
    # a literal one digit longer is refused where it stands
    with pytest.raises(ParseError, match="literal of 1001 digits") as exc:
        parse_poly("x + 1/" + nines + "9", QXY)
    assert exc.value.position == 6
    # so is a coefficient computed past the budget, numerator or
    # denominator, and the error points at the start of the entry
    for text in ("10^1000", "x*(" + nines + "+1)", "-10^1000*x + 1",
                 "(" + "9" * 600 + ")^2*x^2", "(1/" + "9" * 600 + ")^2",
                 "x + (2/3)^2100"):
        with pytest.raises(ParseError, match="coefficient of more than "
                           "1000 digits") as exc:
            parse_poly(text, QXY)
        assert exc.value.position == 0
    # mod p the coefficient is the residue
    assert parse_poly("10^1000", F5XY) == Poly.zero(F5XY)


def test_tokenizer_errors_keep_their_positions():
    for text, message, position in [
            ("x + $", "unexpected character '$'", 4),
            ("x\t\n  #y", "unexpected character '#'", 5),
            ("2*x é", "unexpected character 'é'", 4),
            ("x ²", "unexpected character '²'", 2),
            ("_x", "unexpected character '_'", 0),
            ("x + 1 . 5", "unexpected character '.'", 6),
            ("$ " + "1" * 5000, "unexpected character '$'", 0),
            ("x + " + "1" * 5000 + " $",
             "integer literal of 5000 digits is too long", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, QXY)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position
    # any Unicode whitespace separates tokens, and trailing whitespace is
    # no token at all
    assert parse_poly("x\u00a0+\u3000y \n", QXY) == parse_poly("x + y", QXY)
    with pytest.raises(ParseError, match="unexpected end of input") as exc:
        parse_poly("x +   ", QXY)
    assert exc.value.position == 6


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + z", QXY)
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("x ^ -2", QXY)
    with pytest.raises(ParseError):
        parse_poly("", QXY)
    with pytest.raises(ParseError):
        parse_poly("x +", QXY)
    with pytest.raises(ParseError):
        parse_poly("(x", QXY)
    with pytest.raises(ParseError):
        parse_poly("x y", QXY)


def test_parse_rationals_in_normal_form():
    two = parse_poly("4/2", QXY).terms
    assert two == {(0, 0): 2} and type(two[(0, 0)]) is int
    half = parse_poly("2/4*x", QXY).terms[(1, 0)]
    assert type(half) is Fraction and half == Fraction(1, 2)
    # a product of Fractions that comes out integral is an int
    one = parse_poly("2/3*x * 3/2*y", QXY).terms[(1, 1)]
    assert type(one) is int and one == 1


def test_parse_mod_p_normalizes():
    p = parse_poly("7*x + 10", F5XY)
    assert p == parse_poly("2*x", F5XY)
    assert parse_poly("1/2", F5XY) == parse_poly("3", F5XY)


def test_parse_builds_one_poly(monkeypatch):
    # the parser computes on term dicts and wraps only its result
    built = []
    real_init = Poly.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", init)
    for text, ring in (("x", QXY), ("0", QXY), ("-3/4", QXY),
                       ("(x + 2*y)^3 - x*(y - 1/2) + 7", QXY),
                       ("(x - y)^5*x + --y", F5XY), ("2^10", QX)):
        built.clear()
        got = parse_poly(text, ring)
        assert built == [got]


F32003 = prime_field(32003)


def _sympy_texts(names):
    """Pairs (text for parse_poly, the same expression for sympy) built
    from integers, fractions a/b, variables, parentheses, powers, runs of
    signs, products, sums and differences, at the parser's precedence."""
    atoms = (st.integers(0, 40).map(lambda n: (str(n), str(n)))
             | st.tuples(st.integers(0, 40), st.integers(1, 9)).map(
                 lambda t: (f"{t[0]}/{t[1]}", f"({t[0]}/{t[1]})"))
             | st.sampled_from(names).map(lambda v: (v, v)))

    def extend(inner):
        atom = atoms | inner.map(lambda e: (f"({e[0]})", f"({e[1]})"))
        power = st.tuples(atom, st.none() | st.integers(0, 3)).map(
            lambda t: t[0] if t[1] is None else
            (f"{t[0][0]}^{t[1]}", f"{t[0][1]}**{t[1]}"))
        unary = st.tuples(st.text("+-", max_size=3), power).map(
            lambda t: (t[0] + t[1][0], t[0] + t[1][1]))
        term = st.lists(unary, min_size=1, max_size=3).map(
            lambda us: ("*".join(u[0] for u in us),
                        "*".join(u[1] for u in us)))
        return st.tuples(term, st.lists(st.tuples(
            st.sampled_from((" + ", " - ")), term), max_size=3)).map(
            lambda t: (t[0][0] + "".join(op + u[0] for op, u in t[1]),
                       t[0][1] + "".join(op + u[1] for op, u in t[1])))

    return st.recursive(atoms, extend, max_leaves=10)


@pytest.mark.parametrize("base", [rationals(), F32003], ids=["Q", "F32003"])
@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")],
                         ids=["1var", "2vars", "3vars"])
def test_parse_matches_sympy(base, names):
    sympy = pytest.importorskip("sympy")
    ring = polynomial_ring(base, names)
    gens = sympy.symbols(names)

    @settings(max_examples=40, deadline=None)
    @given(_sympy_texts(names))
    def check(texts):
        ours, theirs = texts
        want = sympy.Poly(sympy.expand(sympy.sympify(theirs)), *gens,
                          domain=sympy.QQ)
        # Poly() brings the rational coefficients into the ring's normal
        # form, mod p too
        assert nf(parse_poly(ours, ring)) == Poly(ring, {
            k: Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
            for k, c in want.as_dict().items()})

    check()


# ---------------------------------------------------------------------------
# arithmetic laws (property-based)
# ---------------------------------------------------------------------------

def _polys(ring):
    coeff = st.integers(-4, 4)
    nvars = len(ring.varnames)
    exp = st.tuples(*[st.integers(0, 2)] * nvars)
    if not ring.char:
        # halves and thirds too, so that products and sums come out
        # integral as Fractions and must be demoted
        coeff = coeff | st.builds(Fraction, st.integers(-4, 4),
                                  st.sampled_from((2, 3)))
    return st.dictionaries(exp, coeff, max_size=4).map(
        lambda d: Poly(ring, {e: normalize_scalar(ring, c)
                              for e, c in d.items() if c % ring.char != 0}
                       if ring.char else
                       {e: Fraction(c) for e, c in d.items() if c}))


def nf(poly):
    """Assert that `poly` is in term normal form, and return it: exponent
    tuples of the ring's arity, no zero coefficients, and every coefficient
    a residue in 1..p-1 over F_p, or over Q an int (never a bool) when
    integral and a Fraction with denominator > 1 otherwise."""
    p = poly.ring.char
    for exps, c in poly.terms.items():
        assert len(exps) == len(poly.ring.varnames)
        assert c != 0
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert type(c) is int or (type(c) is Fraction
                                       and c.denominator > 1)
    return poly


@settings(max_examples=60, deadline=None)
@given(_polys(QXY), _polys(QXY), _polys(QXY))
def test_ring_laws_rationals(a, b, c):
    assert nf(a + b) == nf(b + a)
    assert nf(a * b) == nf(b * a)
    assert nf(nf(a + b) + c) == nf(a + nf(b + c))
    assert nf(nf(a * b) * c) == nf(a * nf(b * c))
    assert nf(a * nf(b + c)) == nf(nf(a * b) + nf(a * c))
    assert nf(a - a) == Poly.zero(QXY)
    assert nf(a * Poly.one(QXY)) == a
    assert nf(nf(-a) + a) == Poly.zero(QXY)


@settings(max_examples=60, deadline=None)
@given(_polys(F5XY), _polys(F5XY))
def test_ring_laws_mod_p(a, b):
    assert nf(a * b) == nf(b * a)
    assert nf(nf(a + b) - b) == a
    assert nf(nf(-a) + a) == Poly.zero(F5XY)
    # freshman's dream in characteristic 5
    assert nf(nf(a + b) ** 5) == nf(nf(a ** 5) + nf(b ** 5))


@settings(max_examples=40, deadline=None)
@given(_polys(QXY))
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), QXY) == p


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_rationals():
    p = parse_poly("x^2*y - 1/2", QXY)
    assert evaluate(p, {"x": Fraction(2), "y": Fraction(1, 4)}) == Fraction(1, 2)
    assert evaluate(Poly.zero(QXY), {"x": 0, "y": 0}) == 0
    # values come back in the Q normal form
    whole = evaluate(p, {"x": Fraction(1, 2), "y": 6})
    assert type(whole) is int and whole == 1
    assert type(evaluate(Poly.zero(QXY), {"x": 0, "y": 0})) is int


def test_evaluate_mod_p():
    p = parse_poly("x*y + 3", F5XY)
    assert evaluate(p, {"x": 2, "y": 4}) == (8 + 3) % 5


def test_evaluate_mod_p_reduces_large_powers():
    ring = polynomial_ring(F32003, ("x", "y"))
    e = 10 ** 7
    p = parse_poly(f"x^{e}*y + 5*x^{e + 1}", ring)
    want = (pow(3, e, 32003) * 2 + 5 * pow(3, e + 1, 32003)) % 32003
    assert evaluate(p, {"x": 3, "y": 2}) == want
    assert evaluate(p, {"x": 3, "y": 0}) == 5 * pow(3, e + 1, 32003) % 32003
    assert evaluate(p, {"x": 0, "y": 1}) == 0


def test_evaluate_over_q_refuses_powers_past_the_coefficient_budget():
    e = 10 ** 7
    p = parse_poly(f"x^{e}*y", QXY)
    with pytest.raises(ValueError, match=r"the power \(3\)\^10000000 at a "
                                         r"point would pass 1000 digits"):
        evaluate(p, {"x": 3, "y": 0})
    with pytest.raises(ValueError, match=r"\(1/2\)\^10000000"):
        evaluate(p, {"x": Fraction(1, 2), "y": 1})

    # refused before the power is computed
    class NoPower(int):
        def __pow__(self, e):
            raise AssertionError("the power was computed")

    with pytest.raises(ValueError):
        evaluate_at(p, [NoPower(3), 0])
    # 0, 1 and -1 are never refused, whatever the exponent
    assert evaluate(p, {"x": 1, "y": 2}) == 2
    assert evaluate(p, {"x": -1, "y": 2}) == 2
    assert evaluate(p, {"x": 0, "y": 2}) == 0
    # 2^3321 has 1000 digits, 2^3322 has 1001
    assert evaluate(parse_poly("x^3321", QXY), {"x": 2, "y": 0}) == 2 ** 3321
    with pytest.raises(ValueError):
        evaluate(parse_poly("x^3322", QXY), {"x": 2, "y": 0})


def test_evaluate_requires_all_vars():
    p = parse_poly("x + y", QXY)
    with pytest.raises(ValueError):
        evaluate(p, {"x": 1})


def test_evaluate_at_matches_evaluate():
    p = parse_poly("x^2*y - 1/2*y + 3", QXY)
    point = {"x": Fraction(2, 3), "y": -4, "z": 9}
    assert evaluate_at(p, point_values(QXY, point)) == evaluate(p, point)
    assert point_values(F5XY, {"x": 7, "y": Fraction(1, 2)}) == [2, 3]
    with pytest.raises(ValueError):
        point_values(QXY, {"y": 0})


# ---------------------------------------------------------------------------
# powers and embeddings
# ---------------------------------------------------------------------------

def test_power_by_squaring_matches_repeated_product():
    p = parse_poly("x+1", QX)
    want = Poly.one(QX)
    for _ in range(64):
        want = want * p
    assert parse_poly("(x+1)^64", QX) == want
    q = parse_poly("x - 2*y + 1", F5XY)
    for n in range(12):
        want = Poly.one(F5XY)
        for _ in range(n):
            want = want * q
        assert q ** n == want


def test_large_monomial_power_is_fast():
    start = time.perf_counter()
    p = parse_poly("x^100000", QX)
    assert time.perf_counter() - start < 1.0
    assert p.terms == {(100000,): Fraction(1)}


def test_embed_pads_exponents():
    big = polynomial_ring(rationals(), ("a", "x", "y", "b"))
    p = parse_poly("x^2*y - 3", QXY)
    assert embed(p, big, 1) == parse_poly("x^2*y - 3", big)
    assert embed(p, QXY) is p
    assert embed(parse_poly("x", QX), QXY) == parse_poly("x", QXY)
    with pytest.raises(ValueError):
        embed(p, big, 0)
    with pytest.raises(ValueError):
        embed(p, polynomial_ring(prime_field(5), ("x", "y")))


def test_parse_nesting_depth_is_limited():
    deep = "(" * MAX_PAREN_DEPTH + "x" + ")" * MAX_PAREN_DEPTH
    assert parse_poly(deep, QXY) == parse_poly("x", QXY)
    too_deep = "(" + deep + ")"
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse_poly(too_deep, QXY)
    assert exc.value.position == MAX_PAREN_DEPTH
    with pytest.raises(ParseError, match="nested deeper"):
        parse_poly("(" * 3000 + "x" + ")" * 3000, QXY)


QXYZ = polynomial_ring(rationals(), ("x", "y", "z"))


@pytest.fixture
def budgeted_products(monkeypatch):
    """Parse with every product of term dicts checked against the work
    budget, at `koszulmf.ring.terms_mul`, which both the parser and Poly
    call: a product past the budget fails the test, so a refusal must come
    before the product is computed.  Records the largest product
    computed."""
    real_mul = ring.terms_mul
    seen = {"pairs": 0}

    bits = (10 ** MAX_COEFF_DIGITS).bit_length() + 1

    def mul(a, b, p):
        pairs = len(a) * len(b)
        assert pairs <= MAX_TERM_PRODUCTS
        for x in a.values():
            for y in b.values():
                assert (x.numerator * y.numerator).bit_length() <= bits
                assert (x.denominator * y.denominator).bit_length() <= bits
        seen["pairs"] = max(seen["pairs"], pairs)
        return real_mul(a, b, p)

    monkeypatch.setattr(ring, "terms_mul", mul)
    return seen


def _refused(text, ring, message, position):
    with pytest.raises(ParseError, match=message) as exc:
        parse_poly(text, ring)
    assert exc.value.position == position


def test_power_past_the_work_budget_is_refused_before_computing(
        budgeted_products):
    assert MAX_TERM_PRODUCTS == 100_000
    # 39,711 terms and some 30 million term products: refused at the
    # product of x^12 by x^16's terms, after some 30,000
    _refused("(x+y+z+1)^60", QXYZ, "product of 455 by 969 terms is past "
             "100000 term products", 9)
    _refused("x*(x+1)^100000", QX, "product of 513 by 513 terms", 7)
    # within the budget, also where a term bound would be far past it
    assert parse_poly("(x+1)^500", F5XY) == parse_poly("(x^125+1)^4", F5XY)
    assert len(parse_poly("(x+y+z+1)^15", QXYZ).terms) == 816
    assert len(parse_poly("(x+1)^450", QX).terms) == 451
    assert parse_poly("(x+y)^0", QXY) == Poly.one(QXY)
    assert parse_poly("0^100000", QXY) == Poly.zero(QXY)
    assert parse_poly("x^100000", QX) == Poly(QX, {(100000,): 1})
    assert budgeted_products["pairs"] <= MAX_TERM_PRODUCTS


def test_product_past_the_work_budget_is_refused_before_computing(
        budgeted_products):
    def sum_text(k):
        return "(" + " + ".join(f"x^{i}" for i in range(k)) + ")"

    p = parse_poly(sum_text(300) + "*" + sum_text(300), QX)
    assert len(p.terms) == 599
    assert budgeted_products["pairs"] == 90_000
    text = sum_text(300) + "*" + sum_text(400)
    _refused(text, QX, "product of 300 by 400 terms is past 100000 term "
             "products", text.index(")*(") + 1)


def test_power_past_the_coefficient_budget_is_refused_before_computing(
        budgeted_products):
    nines = "9" * 600
    big = "9" * 1000
    # monomials, and a large coefficient on any term of a sum, also on a
    # term between the leading and the trailing one
    for text in ("9^1000000", "(1/3*x)^2100", "x*y + (x^2)^3*(7*y)^1184",
                 f"({nines}*x + y)^2", f"(x + {nines}*y)^2",
                 f"(x + 1/{nines})^2", f"(x + {big}*y + 1)^40",
                 f"{nines}*x*{nines}"):
        _refused(text, QXY, "coefficient of more than 1000 digits", 0)
    # only a coefficient other than 1 or -1 grows; mod p none does
    assert parse_poly("(-x)^1000001", QXY) == -parse_poly("x^1000001", QXY)
    assert parse_poly("9^1000000", F5XY) == Poly.one(F5XY)
    assert parse_poly("3^2095", QX) == Poly.const(QX, 3 ** 2095)
    assert parse_poly(f"({nines}*x + 1)*(1/{nines}*y)", QXY) == \
        parse_poly(f"x*y + 1/{nines}*y", QXY)
    # a product of coefficients in budget that comes out past it is
    # refused once parsed, also where a later factor cancels it
    with pytest.raises(ParseError, match="coefficient of more than") as exc:
        parse_poly("10^1000", QX)
    assert exc.value.position == 0
    assert parse_poly("0*10^1000", QX) == Poly.zero(QX)


def test_long_sign_runs_parse_without_recursion():
    assert parse_poly("-" * 3000 + "x", QXY) == parse_poly("x", QXY)
    assert parse_poly("-" * 3001 + "x^2", QXY) == parse_poly("-x^2", QXY)
    assert parse_poly("y * +-+-" + "-" * 2999 + "x", QXY) == \
        parse_poly("-x*y", QXY)
