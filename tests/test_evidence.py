"""Pointwise quasi-isomorphism evidence against a dense reference.

`cone_acyclic_at` ranks the cone's differentials as sparse scalar rows,
assembled from the evaluated blocks.  The reference builds the cone with
`cone_koszul`, evaluates its underlying complex densely and ranks it with
the brute-force oracle.  A replay shares one `Evaluation` per point between steps; its
verdicts must be those of a replay whose steps share no object.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import genmod
from oracle_rank import rank_bruteforce

from koszulmf import complexes, documents as docs, ring as ring_module
from koszulmf.complexes import Evaluation, FreeComplex, PolyMatrix
from koszulmf.koszul import (KoszulMorphism, cone_acyclic_at, cone_koszul,
                             counit_map, free_koszul)
from koszulmf.reduce import (WitnessLog, WitnessStep, amplitude_reduce,
                             fold_with_witness, validate_log)
from koszulmf.ring import (Poly, evaluate, parse_poly, point_values,
                           polynomial_ring, prime_field, rationals)

# the oracle is exponential: matrices past this size are not compared
ORACLE_SIZE = 7


def _reference(g, point):
    """Exactness of the dense evaluated cone, ranked by the oracle; None
    when a differential is too large for it."""
    cone = cone_koszul(g).underlying
    p = cone.ring.char or None
    ranks = {}
    for m in cone.degrees():
        d = cone.diff(m)
        if max(d.rows, d.cols) > ORACLE_SIZE:
            return None
        ranks[m] = rank_bruteforce(d.evaluate(point), p) if d.rows else 0
    return all(cone.rank(m) == ranks[m] + ranks.get(m - 1, 0)
               for m in cone.degrees())


def _scalar_endo(m, poly):
    return KoszulMorphism(m, m, {s: PolyMatrix.scalar(m.ring, m.rank(s), poly)
                                 for s in range(m.lo, m.hi + 1)})


def _morphisms(m):
    """Endomorphisms 1, 0 and f_1, and the counit when it is small."""
    one = parse_poly("1", m.ring)
    yield _scalar_endo(m, one)
    yield _scalar_endo(m, one - one)
    yield _scalar_endo(m, m.potential[0])
    if sum(m.underlying.ranks.values()) <= 3:
        yield counit_map(m)


def _random_point(rng, ring):
    return {v: Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
            for v in ring.varnames}


def _agree(g, points):
    compared = 0
    for pt in points:
        want = _reference(g, pt)
        if want is not None:
            assert cone_acyclic_at(g, pt) == want
            compared += 1
    return compared


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.name)
def test_cone_acyclic_at_matches_dense_reference_on_corpus(entry):
    rng = random.Random(entry.name)
    points = entry.points + [_random_point(rng, entry.module.ring)]
    for g in _morphisms(entry.module):
        _agree(g, points)


def test_cone_acyclic_at_matches_dense_reference_on_random_modules():
    rng = random.Random(20261019)
    compared = {0: 0, 5: 0}
    verdicts = set()
    for _ in range(40):
        m = genmod.random_module(rng, n=rng.randint(1, 2), max_rank=2,
                                 max_amp=2)
        origin = {v: 0 for v in m.ring.varnames}
        points = [origin, _random_point(rng, m.ring)]
        for g in _morphisms(m):
            compared[m.ring.char] += _agree(g, points)
            verdicts.update(cone_acyclic_at(g, pt) for pt in points)
    # both fields were compared, and both verdicts occurred
    assert compared[0] and compared[5]
    assert verdicts == {True, False}


def test_identity_and_zero_cones_match_reference():
    m = corpus.by_name("m3").module
    origin, axis = corpus.by_name("m3").points
    ident = _scalar_endo(m, parse_poly("1", m.ring))
    zero = _scalar_endo(m, parse_poly("0", m.ring))
    for g, pt, want in ((ident, origin, True), (ident, axis, True),
                        (zero, origin, False), (zero, axis, True)):
        assert cone_acyclic_at(g, pt) is want
        assert _reference(g, pt) is want


def test_shared_evaluation_gives_the_same_verdicts():
    # one Evaluation per point across morphisms that share their module
    m = corpus.by_name("m3").module
    morphisms = list(_morphisms(m))
    for pt in corpus.by_name("m3").points:
        at = Evaluation(m.ring, pt)
        assert ([cone_acyclic_at(g, at) for g in morphisms]
                == [cone_acyclic_at(g, pt) for g in morphisms])


def test_evaluation_of_another_ring_is_refused():
    m = corpus.by_name("m3").module
    other = polynomial_ring(rationals(), ("x",))
    g = _scalar_endo(m, parse_poly("1", m.ring))
    with pytest.raises(ValueError, match="another ring"):
        cone_acyclic_at(g, Evaluation(other, {"x": 0}))


def test_power_refusal_still_raises():
    qx = polynomial_ring(rationals(), ("x",))
    base = FreeComplex(qx, -1, 0, {-1: 1, 0: 1},
                       {-1: PolyMatrix(qx, 1, 1, [parse_poly("x^4000", qx)])})
    m = free_koszul(base, (parse_poly("x^2", qx),))
    g = _scalar_endo(m, parse_poly("1", qx))
    with pytest.raises(ValueError, match="would pass 1000 digits"):
        cone_acyclic_at(g, {"x": 2})


# ---------------------------------------------------------------------------
# replays whose steps share module objects
# ---------------------------------------------------------------------------

def _unshared(log):
    """The log read back from its payload: no two steps share an object."""
    raw = json.loads(docs.dumps(docs.witness_payload(log)))
    return docs.parse_witness(raw)[0]


def test_replay_with_shared_modules_matches_unshared_replay():
    m = corpus.by_name("m3").module
    origin, axis = corpus.by_name("m3").points
    one = parse_poly("1", m.ring)
    # steps 0 and 2 share every matrix of m with step 1; only the zero
    # endomorphism of step 1 fails, and only at the origin
    shared = WitnessLog(m, m, [
        WitnessStep("explicit_quasi_iso", "forward",
                    morphism=_scalar_endo(m, one)),
        WitnessStep("explicit_quasi_iso", "forward",
                    morphism=_scalar_endo(m, one - one)),
        WitnessStep("explicit_quasi_iso", "backward",
                    morphism=_scalar_endo(m, one))])
    for points in ([origin], [axis], [axis, origin], [origin, axis]):
        report = validate_log(shared, points)
        assert report == validate_log(_unshared(shared), points)
        fails = ["does not vanish" in line for line in report]
        assert fails == [True] * points.count(origin)


def test_emitted_logs_replay_the_same_shared_or_not():
    rng = random.Random(7)
    for _ in range(6):
        m = genmod.random_fold_input(rng, max_amplitude=4)
        points = [{v: 0 for v in m.ring.varnames}]
        _, log = fold_with_witness(m, points)
        assert validate_log(log, points) == []
        assert validate_log(_unshared(log), points) == []
    m = corpus.by_name("fk_xyz").module
    points = corpus.by_name("fk_xyz").points
    _, log = amplitude_reduce(m)
    assert validate_log(log, points) == []
    assert validate_log(_unshared(log), points) == []


def test_replay_evaluates_each_entry_once_per_point(monkeypatch):
    m = corpus.by_name("m3").module
    points = corpus.by_name("m3").points
    _, log = fold_with_witness(m, points)
    seen = []
    real = complexes.evaluate_at

    def counting(poly, vals, powers=None):
        seen.append((poly, tuple(vals)))
        return real(poly, vals, powers)

    monkeypatch.setattr(complexes, "evaluate_at", counting)
    assert validate_log(log, points) == []
    assert seen
    keys = [(id(poly), vals) for poly, vals in seen]
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# the evaluation memos: each monomial once per point, values in normal form
# ---------------------------------------------------------------------------

def _counting_monomials(monkeypatch):
    """Record (exponents, coordinates) of every monomial value computed."""
    seen = []
    real = ring_module._monomial

    def counting(vals, exps, p):
        seen.append((exps, tuple(vals)))
        return real(vals, exps, p)

    monkeypatch.setattr(ring_module, "_monomial", counting)
    return seen


def test_each_monomial_is_computed_once_per_point(monkeypatch):
    qxy = polynomial_ring(rationals(), ("x", "y"))
    texts = ["x^2*y + 3*x - 1", "x^2*y - 1/2*y", "3*x + 7", "x^2*y",
             "y - 1", "x^2*y + 3*x - 1"]
    a = PolyMatrix(qxy, 2, 3, [parse_poly(t, qxy) for t in texts])
    b = PolyMatrix(qxy, 1, 2, [parse_poly("x*y^3 - x^2*y", qxy),
                               parse_poly("1/3", qxy)])
    monomials = {k for mat in (a, b) for e in mat.entries for k in e.terms}
    seen = _counting_monomials(monkeypatch)
    points = [{"x": 2, "y": -1}, {"x": Fraction(1, 2), "y": 3}]
    for pt in points:
        at = Evaluation(qxy, pt)
        before = len(seen)
        rows = [at.rows(a), at.rows(b), at.rows(a)]
        computed = [exps for exps, _ in seen[before:]]
        # every distinct monomial once, at this point's coordinates
        assert sorted(computed) == sorted(monomials)
        assert {vals for _, vals in seen[before:]} == {tuple(at.vals)}
        assert rows[0] == rows[2]
        assert rows[0] == {i: {j: evaluate(e, pt) for j, e in row.items()}
                           for i, row in a.nz.items()}
        assert rows[1] == {0: {0: evaluate(b.at(0, 0), pt), 1: Fraction(1, 3)}}


def test_rows_are_new_on_every_call():
    qxy = polynomial_ring(rationals(), ("x", "y"))
    a = PolyMatrix(qxy, 2, 2, [parse_poly(t, qxy)
                               for t in ("x + 1", "0", "y", "x*y - 2")])
    at = Evaluation(qxy, {"x": 2, "y": 3})
    first, second = at.rows(a), at.rows(a)
    assert first == second == {0: {0: 3}, 1: {0: 3, 1: 4}}
    assert first is not second
    assert all(first[i] is not second[i] for i in first)
    # the caller owns what it gets: changing it leaves later calls alone
    first[0][5] = 7
    first[1].clear()
    first[2] = {0: 1}
    assert at.rows(a) == {0: {0: 3}, 1: {0: 3, 1: 4}}
    assert at.rows(PolyMatrix.zero(qxy, 2, 2)) == {}


def test_replay_computes_each_monomial_once_per_point(monkeypatch):
    m = corpus.by_name("m3").module
    points = corpus.by_name("m3").points
    _, log = fold_with_witness(m, points)
    seen = _counting_monomials(monkeypatch)
    assert validate_log(log, points) == []
    assert seen
    assert len(seen) == len(set(seen))
    assert {vals for _, vals in seen} == {
        tuple(point_values(m.ring, pt)) for pt in points}


def _naive_value(poly, point):
    """Σ c·Π v^e in Fractions, reduced mod p: the definition, no memo."""
    ring = poly.ring
    p = ring.char
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = Fraction(c)
        for name, e in zip(ring.varnames, exps):
            term *= Fraction(point[name]) ** e
        total += term
    if p:
        return total.numerator * pow(total.denominator, -1, p) % p
    return total


_EVAL_RINGS = {0: polynomial_ring(rationals(), ("x", "y", "z")),
               5: polynomial_ring(prime_field(5), ("x", "y", "z")),
               32003: polynomial_ring(prime_field(32003), ("x", "y", "z"))}


def _eval_poly(ring):
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.sampled_from([1, 1, 2, 3, 7]))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: Poly(ring, d))


def _eval_point(char):
    coord = st.one_of(st.integers(-5, 5),
                      st.builds(Fraction, st.integers(-5, 5),
                                st.sampled_from([2, 3, 4, 9])))
    if char == 5:
        # denominators that do not vanish mod 5
        coord = coord.filter(lambda v: Fraction(v).denominator % 5)
    return st.fixed_dictionaries({v: coord for v in ("x", "y", "z")})


@pytest.mark.parametrize("char", sorted(_EVAL_RINGS), ids=lambda c: f"p{c}")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_evaluation_rows_agree_with_evaluate(char, data):
    ring = _EVAL_RINGS[char]
    pool = data.draw(st.lists(_eval_poly(ring), min_size=1, max_size=5))
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    # entries drawn from a small pool: shared entries and shared monomials
    mats = [PolyMatrix(ring, rows, cols,
                       [data.draw(st.sampled_from(pool))
                        for _ in range(rows * cols)]) for _ in range(2)]
    points = data.draw(st.lists(_eval_point(char), min_size=2, max_size=2))
    for pt in points:
        at = Evaluation(ring, pt)
        for mat in mats:
            got = at.rows(mat)
            for i in range(rows):
                for j in range(cols):
                    e = mat.at(i, j)
                    want = evaluate(e, pt)
                    assert want == _naive_value(e, pt)
                    v = got.get(i, {}).get(j, 0)
                    assert v == want
                    # normal form: no stored zero, no integral Fraction,
                    # and mod p the representative in [0, p)
                    assert type(v) is int or v.denominator > 1
                    assert not char or 0 <= v < char
                    assert (j in got.get(i, {})) == (want != 0)
