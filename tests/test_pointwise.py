"""One pointwise path: each command evaluates a point once.

A command turns each of its points into one `complexes.Evaluation`, which
its locus check, its replay's evidence and `residue_homology` share.  These
tests check `residue_homology` through an `Evaluation` against the dense
reference (`PolyMatrix.evaluate` ranked by the brute-force oracle), that a
replay gives the same report for points and for `Evaluation`s, that no
command computes a (monomial, point) pair twice, and that no command reaches
`PolyMatrix.evaluate` or `linalg.rank`, which stay as test references.
"""

import json
import os
import random
import sys

import pytest

import corpus
import test_cli_transcript as transcript
from oracle_rank import residue_dims
from test_evidence import _counting_monomials, _scalar_endo
from koszulmf import cli, documents as docs, linalg, ring as ring_module
from koszulmf.complexes import Evaluation, PolyMatrix
from koszulmf.mf import residue_homology
from koszulmf.reduce import (WitnessLog, WitnessStep, amplitude_reduce,
                             fold_with_witness, validate_log)

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)
import gen  # noqa: E402


def _dense_document(p, seed, k):
    rng = random.Random(f"pointwise:{seed}")
    trng = random.Random(f"pointwise-template:{seed}")
    text = gen.dense_document(p, [gen.dense_mf(rng, trng, p, k,
                                               moves=4 * k)])
    return docs.parse_document(json.loads(text))


# ---------------------------------------------------------------------------
# residue homology through an Evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0, gen.DENSE_P], ids=["Q", "F32003"])
def test_residue_homology_matches_the_dense_reference(p):
    seen = set()
    for seed in range(6):
        for k in (1, 2, 3):
            doc = _dense_document(p, seed, k)
            mf = doc.objects["mf0"]
            for name, pt in doc.points.items():
                want = residue_dims(mf.phi0.evaluate(pt), mf.phi1.evaluate(pt),
                                    mf.r0, mf.r1, p or None)
                at = Evaluation(mf.ring, pt)
                assert residue_homology(mf, at) == want
                # the same Evaluation again, and a bare point
                assert residue_homology(mf, at) == want
                assert residue_homology(mf, pt) == want
                seen.add(want == (mf.r0, mf.r1))
    # both a full residue (singular points) and a smaller one occurred
    assert seen == {True, False}


def test_residue_homology_refuses_an_evaluation_of_another_ring():
    mf = _dense_document(0, 0, 2).objects["mf0"]
    other = _dense_document(gen.DENSE_P, 0, 2)
    with pytest.raises(ValueError, match="another ring"):
        residue_homology(mf, Evaluation(other.ring, other.points["origin"]))


# ---------------------------------------------------------------------------
# a replay takes points or Evaluations
# ---------------------------------------------------------------------------

def _logs():
    """(ring, log, points) of emitted folds and an amplitude reduction."""
    for name in ("m3", "cone_id_m3", "fk_f5", "fk_xyz"):
        entry = corpus.by_name(name)
        m = entry.module
        log = (fold_with_witness(m, entry.points)[1] if m.n == 1
               else amplitude_reduce(m)[1])
        yield m.ring, log, entry.points


def test_validate_log_reports_the_same_for_points_and_evaluations():
    m3 = corpus.by_name("m3")
    one = ring_module.parse_poly("1", m3.module.ring)
    # a log that fails at the origin only, and valid emitted logs
    failing = WitnessLog(m3.module, m3.module, [
        WitnessStep("explicit_quasi_iso", "forward",
                    morphism=_scalar_endo(m3.module, one - one))])
    cases = [(m3.module.ring, failing, m3.points), *_logs()]
    for ring, log, points in cases:
        ats = [Evaluation(ring, pt) for pt in points]
        want = validate_log(log, points)
        assert validate_log(log, ats) == want
        # an Evaluation used once already gives the same report again
        assert validate_log(log, ats) == want
    assert validate_log(failing, m3.points) == [
        "step 0 (explicit_quasi_iso): cone homology does not vanish at "
        "point 0"]


# ---------------------------------------------------------------------------
# per command: each (monomial, point) once, no dense reference reached
# ---------------------------------------------------------------------------

def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_each_command_computes_each_monomial_once_per_point(
        monkeypatch, capsys, tmp_path):
    fk = corpus.by_name("fk_xy")
    fk_doc = tmp_path / "fk.json"
    docs.write_json(fk_doc, docs.document_payload(
        fk.module.ring, fk.module.potential, {"m": fk.module},
        {"origin": fk.points[0], "axis": fk.points[1]}))
    dense_doc = tmp_path / "dense.json"
    doc = _dense_document(0, 1, 3)
    docs.write_json(dense_doc, docs.document_payload(
        doc.ring, doc.potential, {"mf": doc.objects["mf0"]}, doc.points))
    m3 = os.path.join(corpus.DATA, "m3.json")
    wfold, wamp = tmp_path / "fold.json", tmp_path / "amp.json"
    runs = [
        ["fold", "--input", m3, "--points", "origin,axis",
         "--witness", str(wfold)],
        ["reduce-amplitude", "--input", str(fk_doc), "--points",
         "origin,axis", "--witness", str(wamp)],
        ["witness-check", "--witness", str(wfold)],
        ["witness-check", "--witness", str(wamp)],
        ["residue-homology", "--input", str(dense_doc), "--points",
         "origin,q"],
    ]
    seen = _counting_monomials(monkeypatch)
    for argv in runs:
        del seen[:]
        code, lines = _run(capsys, argv)
        assert (code, lines[-1]) == (0, "status=ok"), argv
        assert seen, argv
        assert len(seen) == len(set(seen)), argv
        # two points, each with its own coordinates
        assert len({vals for _, vals in seen}) == 2, argv


def test_no_command_reaches_the_dense_references(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense reference was called")

    monkeypatch.setattr(PolyMatrix, "evaluate", refuse)
    monkeypatch.setattr(linalg, "rank", refuse)
    golden = transcript._golden()
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    transcript.write_inputs(golden["inputs"], str(in_dir))
    for i, case in enumerate(golden["cases"]):
        out_dir = tmp_path / f"out{i}"
        out_dir.mkdir()
        got = transcript.run_case(case["argv"], str(in_dir), str(out_dir))
        assert got == (case["code"], case["stdout"], case["files"]), \
            case["id"]
