"""The acceptance gate: one test per numbered criterion.

Every check is exact — literal equality of matrices, dimensions, and step
counts.  Random objects come from tests/genmod.py (seeded), hand values
from tests/corpus.py, and criterion 7 recomputes its four residue pairs
with the independent brute-force oracle in tests/oracle_rank.py.

Run with -v for the per-criterion pass/fail lines, or -s to see the
printed summaries.
"""

import random
import time
from fractions import Fraction

import corpus
import genmod
import oracle_rank
from koszulmf.complexes import PolyMatrix
from koszulmf.koszul import KoszulMorphism, koszul_complex, validate_koszul
from koszulmf.mf import (MFObject, compose_mf_morphisms, fold_morphism,
                         mf_cone, mf_shift, mf_tensor, orlov_fold,
                         orlov_unfold, residue_homology, validate_mf,
                         validate_mf_morphism)
from koszulmf.reduce import (amplitude_reduce, apply_step, codim_reduce_chart,
                             chart_operator, default_points,
                             fold_with_witness, validate_log)
from koszulmf.ring import parse_poly, polynomial_ring, rationals

_QX = polynomial_ring(rationals(), ("x",))


def _n1_corpus():
    return [e for e in corpus.CORPUS if e.module.n == 1]


# ---------------------------------------------------------------------------
# 1. generator soundness: random modules are valid, and cheaply so
# ---------------------------------------------------------------------------

def test_criterion_1_random_modules_validate():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for _ in range(200):
        m = genmod.random_module(rng, max_rank=4)
        assert m.n <= 3
        assert validate_koszul(m) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1 (200 random modules valid, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 2. fold/unfold round trip and functoriality
# ---------------------------------------------------------------------------

def _compose(b, a):
    """b after a for Koszul morphisms, degree by degree."""
    lo = min(a.source.lo, b.target.lo)
    hi = max(a.source.hi, b.target.hi)
    return KoszulMorphism(a.source, b.target,
                          {m: b.component(m) * a.component(m)
                           for m in range(lo, hi + 1)})


def test_criterion_2_orlov_round_trip():
    rng = random.Random(1002)
    for _ in range(100):
        mf = genmod.random_mf(rng)
        assert orlov_fold(orlov_unfold(mf)) == mf
    for _ in range(50):
        a, b = genmod.random_composable_pair(rng)
        assert fold_morphism(_compose(b, a)) == \
            compose_mf_morphisms(fold_morphism(b), fold_morphism(a))
    print("criterion 2 (fold round trip + composition): PASS")


# ---------------------------------------------------------------------------
# 3. the folded object is a matrix factorization, literally
# ---------------------------------------------------------------------------

def test_criterion_3_fold_identity_on_corpus():
    for entry in _n1_corpus():
        m = entry.module
        mf = orlov_fold(m)
        f = mf.potential
        assert mf.phi1 * mf.phi0 == PolyMatrix.scalar(m.ring, mf.r0, f)
        assert mf.phi0 * mf.phi1 == PolyMatrix.scalar(m.ring, mf.r1, f)
    print("criterion 3 ((d+h)^2 = f*id on folded corpus): PASS")


# ---------------------------------------------------------------------------
# 4. witnessed fold agrees with the closed-form fold, n = 1
# ---------------------------------------------------------------------------

def _check_witnessed_fold(m, points):
    mf, log = fold_with_witness(m, points)
    assert validate_log(log, points) == []
    current = log.start
    for step in log.steps:
        current = apply_step(step, current)
    assert current == log.end
    witness_mf = orlov_fold(log.end)
    for pt in points:
        assert residue_homology(witness_mf, pt) == residue_homology(mf, pt)


def test_criterion_4_witnessed_fold():
    m3 = corpus.by_name("m3")
    _check_witnessed_fold(m3.module, m3.points)
    rng = random.Random(1004)
    for _ in range(20):
        m = genmod.random_fold_input(rng, max_amplitude=5)
        _check_witnessed_fold(
            m, list(default_points(m.ring, m.potential).values()))
    print("criterion 4 (witnessed fold on m3 + 20 random): PASS")


# ---------------------------------------------------------------------------
# 5. amplitude bound and step count
# ---------------------------------------------------------------------------

def test_criterion_5_amplitude_reduction():
    caps = {1: (2, 3), 2: (1, 2), 3: (1, 1)}
    rng = random.Random(1005)
    total_steps = 0
    for i in range(50):
        n = (i % 3) + 1
        max_rank, max_amp = caps[n]
        m = genmod.random_module(rng, n=n, max_rank=max_rank,
                                 max_amp=max_amp).trim()
        reduced, log = amplitude_reduce(m)
        assert reduced.amplitude <= n + 1
        assert validate_koszul(reduced) == []
        assert validate_log(log) == []
        steps = sum(1 for s in log.steps if s.kind == "cone_off_free"
                    and s.orientation == "forward")
        assert steps == max(m.amplitude - (n + 1), 0)
        total_steps += steps
    assert total_steps >= 10
    print(f"criterion 5 (50 reductions, {total_steps} steps): PASS")


# ---------------------------------------------------------------------------
# 6. perfect objects fold to nothing
# ---------------------------------------------------------------------------

def test_criterion_6_perfect_objects_vanish():
    checked = 0
    for entry in corpus.CORPUS:
        if entry.kind not in ("free", "cone_id") or entry.module.n != 1:
            continue
        mf = orlov_fold(entry.module)
        for pt in entry.points:
            assert residue_homology(mf, pt) == (0, 0)
            checked += 1
    assert checked >= 6
    print(f"criterion 6 ({checked} vanishing residues): PASS")


# ---------------------------------------------------------------------------
# 7. hand oracles, recomputed by the brute-force rank routine
# ---------------------------------------------------------------------------

def test_criterion_7_hand_oracles():
    def oracle(mf, pt):
        return oracle_rank.residue_dims(mf.phi0.evaluate(pt),
                                        mf.phi1.evaluate(pt),
                                        mf.r0, mf.r1)

    def mf1(f, a, b):
        return MFObject(_QX, parse_poly(f, _QX), 1, 1,
                        PolyMatrix(_QX, 1, 1, [parse_poly(a, _QX)]),
                        PolyMatrix(_QX, 1, 1, [parse_poly(b, _QX)]))

    zero1 = {"x": Fraction(0)}
    zero2 = {"x": Fraction(0), "y": Fraction(0)}
    cases = [
        (mf1("x^2", "x", "x"), zero1, (1, 1)),
        (mf1("x^4", "x", "x^3"), zero1, (1, 1)),
        (mf1("x^2", "x^2", "1"), zero1, (0, 0)),
        (orlov_fold(corpus.by_name("m3").module), zero2, (2, 2)),
    ]
    for mf, pt, expected in cases:
        assert oracle(mf, pt) == expected
        assert residue_homology(mf, pt) == expected
    print("criterion 7 (four hand oracles re-derived): PASS")


# ---------------------------------------------------------------------------
# 8. codimension reduction coherence
# ---------------------------------------------------------------------------

def test_criterion_8_codim_reduction():
    for entry in _n1_corpus():
        assert codim_reduce_chart(entry.module) is entry.module

    kuv = corpus.by_name("kuv").module
    reduced = codim_reduce_chart(kuv)
    assert validate_koszul(reduced) == []
    origin = {v: Fraction(0) for v in reduced.ring.varnames}
    mf, log = fold_with_witness(reduced, [origin])
    assert validate_log(log, [origin]) == []
    assert residue_homology(mf, origin) == (0, 0)

    op = chart_operator(orlov_fold(reduced), 1)
    assert validate_mf_morphism(op) == []

    xyz = orlov_fold(codim_reduce_chart(corpus.by_name("fk_xyz").module))
    ops = {k: chart_operator(xyz, k) for k in (1, 2)}
    for op in ops.values():
        assert validate_mf_morphism(op) == []
    assert compose_mf_morphisms(ops[1], ops[2]) == \
        compose_mf_morphisms(ops[2], ops[1])
    print("criterion 8 (chart reduction + operators): PASS")


# ---------------------------------------------------------------------------
# 9. category axioms and the displayed n=2 matrices
# ---------------------------------------------------------------------------

def test_criterion_9_mf_axioms_and_goldens():
    rng = random.Random(1009)
    for _ in range(100):
        mf = genmod.random_mf(rng)
        assert mf_shift(mf_shift(mf)) == mf
    for _ in range(50):
        a, b = genmod.random_composable_pair(rng)
        assert validate_mf(mf_cone(fold_morphism(a))) == []
        assert validate_mf(mf_cone(fold_morphism(b))) == []
    for _ in range(100):
        ring = rng.choice(genmod.standard_rings())
        a = genmod.random_mf(rng, ring)
        b = genmod.random_mf(rng, ring)
        t = mf_tensor(a, b)
        assert t.potential == a.potential + b.potential
        assert validate_mf(t) == []

    ruv = polynomial_ring(rationals(), ("u", "v"))
    u, v = parse_poly("u", ruv), parse_poly("v", ruv)
    k2 = koszul_complex(ruv, (u, v))
    assert (k2.lo, k2.hi) == (-2, 0)
    assert k2.diff(-2) == PolyMatrix(ruv, 2, 1, [-v, u])
    assert k2.diff(-1) == PolyMatrix(ruv, 1, 2, [u, v])

    kuv = corpus.by_name("kuv").module
    assert kuv.underlying == k2
    one, zero = parse_poly("1", ruv), parse_poly("0", ruv)
    assert kuv.hop(0, 0) == PolyMatrix(ruv, 2, 1, [one, zero])
    assert kuv.hop(0, -1) == PolyMatrix(ruv, 1, 2, [zero, one])
    assert kuv.hop(1, 0) == PolyMatrix(ruv, 2, 1, [zero, one])
    assert kuv.hop(1, -1) == PolyMatrix(ruv, 1, 2, [-one, zero])
    print("criterion 9 (axioms x100 + displayed matrices): PASS")
