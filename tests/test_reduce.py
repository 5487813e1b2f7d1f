"""Witnessed reductions: folding logs, amplitude, chart, operators."""

import json
import random

import pytest

import corpus
import genmod
from koszulmf import documents as docs
from koszulmf.complexes import FreeComplex, PolyMatrix
from koszulmf.koszul import (KoszulMorphism, free_koszul, shift_koszul,
                             validate_koszul)
from koszulmf.mf import (compose_mf_morphisms, orlov_fold, residue_homology,
                         validate_mf_morphism)
from koszulmf.reduce import (AmplitudeMinimalError, WitnessError, WitnessLog,
                             WitnessStep, amplitude_reduce,
                             amplitude_reduce_step, apply_step,
                             codim_reduce_chart, default_points,
                             eisenbud_operator, fold_with_witness,
                             validate_log)
from koszulmf.ring import parse_poly, polynomial_ring, rationals


def _zero_endo(m):
    comps = {u: PolyMatrix.zero(m.ring, m.rank(u), m.rank(u))
             for u in range(m.lo, m.hi + 1)}
    return KoszulMorphism(m, m, comps)


def _reparse(log, mutate, points=None):
    """Round-trip a log through its serialized form, mutating the payload."""
    payload = json.loads(docs.dumps(docs.witness_payload(log, points)))
    mutate(payload)
    return docs.parse_witness(payload)


# ---------------------------------------------------------------------------
# the witnessed fold
# ---------------------------------------------------------------------------

def test_fold_with_witness_m3():
    entry = corpus.by_name("m3")
    mf, log = fold_with_witness(entry.module, entry.points)
    assert (mf.r0, mf.r1) == (2, 2)
    assert [(s.kind, s.orientation) for s in log.steps] == [
        ("explicit_quasi_iso", "forward"),
        ("cone_off_free", "forward"),
        ("explicit_quasi_iso", "forward"),
        ("cone_off_free", "backward"),
        ("explicit_quasi_iso", "backward"),
        ("shift_by_two", "forward"),
    ]
    assert (log.end.lo, log.end.hi) == (-1, 0)
    assert validate_log(log, entry.points) == []
    for pt in entry.points:
        assert residue_homology(orlov_fold(log.end), pt) \
            == residue_homology(mf, pt)


def test_fold_with_witness_two_term_is_empty_log():
    m = corpus.by_name("a1_module").module
    mf, log = fold_with_witness(m)
    assert len(log) == 0
    assert log.start == log.end == m
    assert mf == orlov_fold(m)


def test_fold_with_witness_salto_path():
    entry = corpus.by_name("two_term_xy")
    m = entry.module
    assert (m.lo, m.hi) == (0, 1)
    mf, log = fold_with_witness(m, entry.points)
    assert [s.kind for s in log.steps] == [
        "cone_off_free", "explicit_quasi_iso",
        "cone_off_free", "explicit_quasi_iso"]
    assert (log.end.lo, log.end.hi) == (-1, 0)
    assert validate_log(log, entry.points) == []
    for pt in entry.points:
        assert residue_homology(orlov_fold(log.end), pt) \
            == residue_homology(mf, pt)


@pytest.mark.parametrize("name", [e.name for e in corpus.CORPUS
                                  if e.module.n == 1])
def test_fold_with_witness_corpus(name):
    entry = corpus.by_name(name)
    mf, log = fold_with_witness(entry.module, entry.points)
    assert validate_log(log, entry.points) == []
    for pt in entry.points:
        assert residue_homology(orlov_fold(log.end), pt) \
            == residue_homology(mf, pt)


def test_fold_with_witness_random_modules():
    rng = random.Random(421)
    for _ in range(12):
        m = genmod.random_fold_input(rng)
        pts = list(default_points(m.ring, m.potential).values())
        mf, log = fold_with_witness(m, pts)
        assert validate_log(log, pts) == []
        for pt in pts:
            assert residue_homology(orlov_fold(log.end), pt) \
                == residue_homology(mf, pt)


def test_fold_with_witness_needs_one_potential():
    with pytest.raises(ValueError):
        fold_with_witness(corpus.by_name("kuv").module)


# ---------------------------------------------------------------------------
# log validation and tampering
# ---------------------------------------------------------------------------

def test_validate_log_catches_pointwise_failure():
    m = corpus.by_name("m3").module
    # the zero endomorphism is a perfectly good morphism, but its cone is
    # only exact where the module itself is
    log = WitnessLog(m, m, [WitnessStep("explicit_quasi_iso", "forward",
                                        morphism=_zero_endo(m))])
    origin, axis = corpus.by_name("m3").points
    assert validate_log(log, [axis]) == []
    report = validate_log(log, [origin])
    assert report and "does not vanish" in report[0]


def test_validate_log_catches_wrong_end():
    m = corpus.by_name("m3").module
    log = WitnessLog(m, shift_koszul(m, 2), [])
    report = validate_log(log)
    assert report and "end module" in report[0]


def test_apply_step_rejects_odd_shift():
    m = corpus.by_name("m3").module
    with pytest.raises(WitnessError, match="even"):
        apply_step(WitnessStep("shift_by_two", "forward", offset=1), m)


def test_witness_step_rejects_unknown_kind():
    with pytest.raises(ValueError):
        WitnessStep("mystery", "forward")
    with pytest.raises(ValueError):
        WitnessStep("shift_by_two", "sideways")


def test_tampered_matrix_entry_is_caught():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)

    def corrupt(payload):
        step = payload["steps"][1]
        assert step["kind"] == "cone_off_free"
        for deg in sorted(step["components"], key=int):
            mat = step["components"][deg]
            if mat and mat[0]:
                mat[0][0] = "x + 1"
                return
        raise AssertionError("no nonempty component to corrupt")

    tampered, _ = _reparse(log, corrupt)
    assert validate_log(tampered, entry.points) != []


def test_tampered_end_module_is_caught():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)

    def corrupt(payload):
        payload["end"]["d"]["-1"][0][0] = "y"

    tampered, _ = _reparse(log, corrupt)
    report = validate_log(tampered, entry.points)
    assert report != []


def test_tampered_orientation_is_caught():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)

    def corrupt(payload):
        payload["steps"][0]["orientation"] = "backward"

    tampered, _ = _reparse(log, corrupt)
    assert validate_log(tampered, entry.points) != []


def test_tampered_odd_offset_rejected_at_parse():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)

    def corrupt(payload):
        payload["steps"][-1]["offset"] = 1

    with pytest.raises(docs.DocumentError, match="even"):
        _reparse(log, corrupt)


def test_witness_round_trip_validates():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    points = {"origin": entry.points[0], "axis": entry.points[1]}
    reparsed, stored = _reparse(log, lambda payload: None, points)
    assert stored == points
    assert validate_log(reparsed, list(stored.values())) == []
    assert reparsed.start == log.start and reparsed.end == log.end


# ---------------------------------------------------------------------------
# amplitude reduction
# ---------------------------------------------------------------------------

def test_amplitude_reduce_step_counts():
    # each reduction step can multiply ranks by 2^n, so keep inputs small
    caps = {1: (2, 3), 2: (1, 2), 3: (1, 1)}
    rng = random.Random(422)
    reduced = 0
    for _ in range(18):
        ring = rng.choice(genmod.standard_rings())
        n = rng.choice([1, 2, 3])
        max_rank, max_amp = caps[n]
        m = genmod.random_module(rng, ring, n=n, max_rank=max_rank,
                                 max_amp=max_amp).trim()
        if m.amplitude <= m.n + 1:
            with pytest.raises(AmplitudeMinimalError):
                amplitude_reduce_step(m)
            continue
        out, log = amplitude_reduce(m)
        reduced += 1
        assert out.amplitude <= m.n + 1
        assert validate_koszul(out) == []
        forward_cones = sum(1 for s in log.steps
                            if s.kind == "cone_off_free"
                            and s.orientation == "forward")
        assert forward_cones == m.amplitude - (m.n + 1)
        assert validate_log(log) == []
    assert reduced >= 8


def test_amplitude_reduce_single_step_drops_one_degree():
    m = corpus.by_name("fk_xy").module      # n = 1, amplitude 3
    out, log = amplitude_reduce_step(m)
    assert out.amplitude == m.amplitude - 1
    assert validate_log(log, corpus.by_name("fk_xy").points) == []


def test_amplitude_reduce_on_minimal_is_identity_log():
    m = corpus.by_name("a1_module").module
    out, log = amplitude_reduce(m)
    assert out == m and len(log) == 0
    with pytest.raises(AmplitudeMinimalError):
        amplitude_reduce_step(m)


# ---------------------------------------------------------------------------
# chart reduction and operators
# ---------------------------------------------------------------------------

def test_codim_reduce_chart_identity_for_one_potential():
    m = corpus.by_name("m3").module
    assert codim_reduce_chart(m) is m


def test_codim_reduce_chart_two_potentials():
    m = corpus.by_name("kuv").module
    red = codim_reduce_chart(m)
    assert red.ring.varnames == ("u", "v", "t1")
    assert red.n == 1
    assert red.potential[0] == parse_poly("u*t1 + v", red.ring)
    assert validate_koszul(red) == []
    pt = {"u": 0, "v": 0, "t1": 0}
    assert residue_homology(orlov_fold(red), pt) == (0, 0)


def test_codim_reduce_chart_variable_collision():
    ring = polynomial_ring(rationals(), ("x", "t1"))
    base = FreeComplex(ring, 0, 0, {0: 1}, {})
    m = free_koszul(base, (parse_poly("x", ring), parse_poly("t1", ring)))
    with pytest.raises(ValueError, match="collide"):
        codim_reduce_chart(m)


def test_eisenbud_operators_validate_and_commute():
    m = corpus.by_name("fk_xyz").module     # n = 3
    e1 = eisenbud_operator(m, 1)
    e2 = eisenbud_operator(m, 2)
    assert validate_mf_morphism(e1) == []
    assert validate_mf_morphism(e2) == []
    assert compose_mf_morphisms(e1, e2) == compose_mf_morphisms(e2, e1)
    both = compose_mf_morphisms(e1, e2)
    assert both.alpha0.at(0, 0) == parse_poly("t1*t2", both.source.ring)


def test_eisenbud_operator_range_errors():
    kuv = corpus.by_name("kuv").module
    with pytest.raises(ValueError):
        eisenbud_operator(kuv, 0)
    with pytest.raises(ValueError):
        eisenbud_operator(kuv, 2)
    with pytest.raises(ValueError):
        eisenbud_operator(corpus.by_name("m3").module, 1)


def test_default_points():
    m3 = corpus.by_name("m3").module
    assert default_points(m3.ring, m3.potential) == {"origin": {"x": 0, "y": 0}}
    ring = polynomial_ring(rationals(), ("x",))
    base = FreeComplex(ring, 0, 0, {0: 1}, {})
    off = free_koszul(base, (parse_poly("x + 1", ring),))
    assert default_points(off.ring, off.potential) == {}
    # a factorization's potential is one entry; every entry must vanish
    x = parse_poly("x", ring)
    assert default_points(ring, (x * x,)) == {"origin": {"x": 0}}
    assert default_points(ring, (x, x + parse_poly("1", ring))) == {}
