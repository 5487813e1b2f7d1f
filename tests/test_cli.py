"""End-to-end CLI tests: subcommands, reports, exit codes, determinism."""

import json
import os
import re

import pytest

import corpus
from koszulmf import cli, reduce
from koszulmf import documents as docs
from koszulmf.complexes import FreeComplex, PolyMatrix
from koszulmf.koszul import KoszulMorphism, free_koszul
from koszulmf.mf import MFObject, mf_shift, orlov_unfold
from koszulmf.reduce import WitnessLog, WitnessStep, fold_with_witness
from koszulmf.ring import Poly, parse_poly, polynomial_ring, rationals

A1 = os.path.join(corpus.DATA, "a1.json")
M3 = os.path.join(corpus.DATA, "m3.json")
KUV = os.path.join(corpus.DATA, "koszul_uv.json")


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_a1(capsys):
    code, lines = run(capsys, ["validate", "--input", A1])
    assert code == 0
    assert lines == ["a1=valid", "status=ok"]


def test_validate_corpus_files(capsys):
    for path in (M3, KUV):
        code, lines = run(capsys, ["validate", "--input", path])
        assert code == 0
        assert lines[-1] == "status=ok"


def test_validate_reports_broken_object(capsys, tmp_path):
    raw = json.load(open(A1))
    raw["objects"]["a1"]["phi1"] = [["x^2"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    code, lines = run(capsys, ["validate", "--input", str(path)])
    assert code == 1
    assert lines[0].startswith("a1=invalid")
    assert lines[-1] == "status=failed"


def test_validate_needs_input(capsys):
    code, lines = run(capsys, ["validate"])
    assert code == 3
    assert lines[0].startswith("error=precondition")


# ---------------------------------------------------------------------------
# fold pipeline
# ---------------------------------------------------------------------------

def test_fold_m3_full_report(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    opath = tmp_path / "out.json"
    code, lines = run(capsys, [
        "fold", "--input", M3, "--points", "origin,axis",
        "--witness", str(wpath), "--output", str(opath)])
    assert code == 0
    assert "object=m3" in lines
    assert "r0=2" in lines and "r1=2" in lines
    assert "witness_steps=6" in lines
    steps = [l for l in lines if l.startswith("step_")]
    assert len(steps) == 6 and all(l.endswith(":ok") for l in steps)
    assert "residue_homology[origin]=even=2 odd=2" in lines
    assert "residue_homology[axis]=even=0 odd=0" in lines
    assert lines[-1] == "status=ok"

    # the output document holds the factorization
    out_doc = docs.load_document(opath)
    mf = out_doc.objects["m3_folded"]
    assert (mf.r0, mf.r1) == (2, 2)

    # byte-identical rerun
    w2 = tmp_path / "w2.json"
    o2 = tmp_path / "o2.json"
    code2, lines2 = run(capsys, [
        "fold", "--input", M3, "--points", "origin,axis",
        "--witness", str(w2), "--output", str(o2)])
    assert code2 == 0 and lines2 == lines
    assert wpath.read_bytes() == w2.read_bytes()
    assert opath.read_bytes() == o2.read_bytes()


def test_fold_emitted_witness_passes_check(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    code, _ = run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    assert code == 0
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 0
    assert "steps=6" in lines
    assert "start_degrees=-2..0" in lines
    assert "end_degrees=-1..0" in lines
    assert lines[-1] == "status=ok"


def test_witness_check_catches_tampering(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    raw = json.loads(wpath.read_text())
    raw["end"]["d"]["-1"][0][0] = "y"
    wpath.write_text(json.dumps(raw))
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 1
    assert any(l.startswith("check=") for l in lines)
    assert lines[-1] == "status=failed"


def test_witness_check_validates_the_endpoints(capsys, tmp_path):
    # a chain of no steps from a module to itself replays cleanly, but the
    # module on [0, 2] with d = [1] in both places has d∘d != 0
    module = {"degrees": [0, 2], "ranks": {"0": 1, "1": 1, "2": 1},
              "d": {"0": [["1"]], "1": [["1"]]},
              "h": [{"0": [], "1": [["0"]], "2": [["0"]]}]}
    raw = {"schema": "koszulmf.witness/1",
           "ring": {"kind": "polynomial", "vars": ["x"]},
           "potential": ["0"], "points": {}, "start": module,
           "end": module, "steps": []}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(raw))
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 1
    assert lines == ["steps=0", "points=0",
                     "check=start module: underlying: degree 0: d∘d is "
                     "nonzero",
                     "check=end module: underlying: degree 0: d∘d is "
                     "nonzero",
                     "status=failed"]
    # the same log over a valid module passes
    module["d"] = {"0": [["0"]], "1": [["1"]]}
    wpath.write_text(json.dumps(raw))
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 0 and lines[-1] == "status=ok"


def test_witness_check_with_extra_inline_point(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath),
                               "--point", "x=1,y=0"])
    assert code == 0
    assert "points=2" in lines


def test_witness_check_needs_witness(capsys):
    code, lines = run(capsys, ["witness-check", "--input", M3])
    assert code == 3


def test_witness_check_points_need_input(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath),
                               "--points", "origin"])
    assert code == 3


def test_witness_check_ring_mismatch(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath),
                               "--input", A1])
    assert code == 3
    assert "ring" in lines[0]


def _forged_m3_log(path):
    """A log taking m3 to the free module on one generator by the zero map:
    a strict, h-equivariant chain map, but no quasi-isomorphism."""
    m3 = corpus.by_name("m3").module
    free = free_koszul(FreeComplex(m3.ring, 0, 0, {0: 1}, {}), m3.potential)
    step = WitnessStep("explicit_quasi_iso", "forward",
                       morphism=KoszulMorphism(m3, free, {}))
    docs.write_json(path, docs.witness_payload(
        WitnessLog(m3, free, [step]), {}))


def test_witness_check_refuses_a_log_without_evidence(capsys, tmp_path):
    wpath = tmp_path / "forged.json"
    _forged_m3_log(wpath)
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert (code, lines) == (1, [
        "steps=1", "points=0",
        "check=step 0 (explicit_quasi_iso): no point to test its cone at",
        "status=failed"])
    # with a point, the cone is tested and the forgery shows
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath),
                               "--point", "x=0,y=0"])
    assert code == 1
    assert ("check=step 0 (explicit_quasi_iso): cone homology does not "
            "vanish at point 0") in lines


def test_witness_check_reads_evidence_from_stored_or_given_points(
        capsys, tmp_path):
    wpath = tmp_path / "w.json"
    run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    raw = json.loads(wpath.read_text())
    assert raw["points"]
    raw["points"] = {}
    wpath.write_text(json.dumps(raw))
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 1 and lines[-2].endswith("no point to test its cone at")
    for extra in (["--point", "x=0,y=0"], ["--input", M3, "--points", "axis"]):
        code, lines = run(capsys, ["witness-check", "--witness", str(wpath),
                                   *extra])
        assert (code, lines[-1]) == (0, "status=ok"), extra


def test_emitted_logs_need_a_point_for_their_quasi_iso_steps(capsys,
                                                             tmp_path):
    # the potential x + 1 misses the origin, so no point is known by
    # default, and both logs have explicit_quasi_iso steps
    qx = polynomial_ring(rationals(), ("x",))
    m = free_koszul(
        FreeComplex(qx, -1, 0, {-1: 1, 0: 1},
                    {-1: PolyMatrix(qx, 1, 1, [parse_poly("x", qx)])}),
        (parse_poly("x + 1", qx),))
    doc = tmp_path / "m.json"
    docs.write_json(str(doc), docs.document_payload(qx, m.potential,
                                                    {"m": m}))
    wpath = tmp_path / "w.json"
    for cmd in ("fold", "reduce-amplitude"):
        argv = [cmd, "--input", str(doc)]
        code, lines = run(capsys, [*argv, "--witness", str(wpath)])
        assert (code, lines) == (3, [
            "error=precondition the witness log has an explicit_quasi_iso "
            "step and no point to test its cone at; give --point or "
            "--points"]), cmd
        assert not wpath.exists()
        code, lines = run(capsys, argv)
        assert (code, lines[-1]) == (0, "status=ok"), cmd
        # with a point on the locus the log is written and passes the check
        code, lines = run(capsys, [*argv, "--witness", str(wpath),
                                   "--point", "x=-1"])
        assert (code, lines[-1]) == (0, "status=ok"), cmd
        code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
        assert (code, lines[-1]) == (0, "status=ok"), cmd
        wpath.unlink()


def _shift_step(raw):
    return next(s for s in raw["steps"] if s["kind"] == "shift_by_two")


def test_backward_shift_undoes_its_offset(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    raw = json.loads(wpath.read_text())
    step = _shift_step(raw)
    assert (step["orientation"], step["offset"]) == ("forward", -2)
    step["orientation"] = "backward"
    wpath.write_text(json.dumps(raw))
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert (code, lines[-2:]) == (1, [
        "check=chain result does not equal the recorded end module",
        "status=failed"])
    # backward by +2 is the same move as forward by -2
    step["offset"] = 2
    wpath.write_text(json.dumps(raw))
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 0 and "step_5=shift_by_two:backward:ok" in lines


def test_fold_rejects_off_locus_point(capsys):
    code, lines = run(capsys, ["fold", "--input", M3, "--point", "x=1,y=1"])
    assert code == 3
    assert "zero locus" in lines[0]


def test_fold_rejects_two_potentials(capsys):
    code, lines = run(capsys, ["fold", "--input", KUV])
    assert code == 3
    assert "one potential" in lines[0]


def test_fold_unknown_point_name(capsys):
    code, lines = run(capsys, ["fold", "--input", M3, "--points", "nowhere"])
    assert code == 3


# ---------------------------------------------------------------------------
# unfold / shift / cone / tensor
# ---------------------------------------------------------------------------

def test_unfold_a1(capsys, tmp_path):
    opath = tmp_path / "out.json"
    code, lines = run(capsys, ["unfold", "--input", A1,
                               "--output", str(opath)])
    assert code == 0
    assert "degrees=-1..0" in lines
    assert "ranks=1,1" in lines
    out_doc = docs.load_document(opath)
    a1 = docs.load_document(A1).objects["a1"]
    assert out_doc.objects["a1_unfolded"] == orlov_unfold(a1)
    # named points survive, so the output chains into point-using commands
    assert list(out_doc.points) == ["origin"]


def test_unfold_then_fold_chain(capsys, tmp_path):
    mpath = tmp_path / "mod.json"
    run(capsys, ["unfold", "--input", A1, "--output", str(mpath)])
    code, lines = run(capsys, ["fold", "--input", str(mpath),
                               "--points", "origin"])
    assert code == 0
    assert "residue_homology[origin]=even=1 odd=1" in lines


def test_shift_a1(capsys, tmp_path):
    opath = tmp_path / "out.json"
    code, lines = run(capsys, ["shift", "--input", A1, "--output", str(opath)])
    assert code == 0
    a1 = docs.load_document(A1).objects["a1"]
    assert docs.load_document(opath).objects["a1_shifted"] == mf_shift(a1)


def test_shift_checks_its_result(capsys, tmp_path, monkeypatch):
    # a shift whose result is not a factorization is refused, not written
    def broken(mf):
        out = mf_shift(mf)
        return MFObject(out.ring, out.potential, out.r0, out.r1,
                        out.phi0 + out.phi0, out.phi1)

    monkeypatch.setattr(cli, "mf_shift", broken)
    opath = tmp_path / "out.json"
    code, lines = run(capsys, ["shift", "--input", A1, "--output",
                               str(opath)])
    assert code == 1
    assert lines[0].startswith("a1_shifted=invalid ")
    assert lines[-1] == "status=failed" and not opath.exists()


def test_cone_of_koszul_morphism(capsys, tmp_path):
    m3 = corpus.by_name("m3").module
    ident = KoszulMorphism(
        m3, m3, {u: PolyMatrix.identity(m3.ring, m3.rank(u))
                 for u in range(m3.lo, m3.hi + 1)})
    payload = docs.document_payload(
        m3.ring, m3.potential,
        {"m3": {"type": "koszul_module", **docs.module_payload(m3)},
         "zid": {"type": "koszul_morphism", "source": "m3", "target": "m3",
                 "components": docs._degree_matrices_payload(
                     ident.component, ident.lo, ident.hi)}})
    ipath = tmp_path / "in.json"
    opath = tmp_path / "cone.json"
    docs.write_json(ipath, payload)
    code, lines = run(capsys, ["cone", "--input", str(ipath),
                               "--output", str(opath)])
    assert code == 0
    assert "degrees=-3..0" in lines
    assert "ranks=1,3,3,1" in lines
    code, lines = run(capsys, ["validate", "--input", str(opath)])
    assert code == 0


def test_cone_of_mf_morphism(capsys, tmp_path):
    a1 = docs.load_document(A1).objects["a1"]
    ring = a1.ring
    payload = docs.document_payload(
        ring, (a1.potential,),
        {"a": docs.mf_payload(a1),
         "b": docs.mf_payload(a1),
         "zmap": {"type": "mf_morphism", "source": "a", "target": "b",
                  "alpha0": [["1"]], "alpha1": [["1"]]}})
    ipath = tmp_path / "in.json"
    docs.write_json(ipath, payload)
    code, lines = run(capsys, ["cone", "--input", str(ipath)])
    assert code == 0
    assert "r0=2" in lines and "r1=2" in lines


def test_cone_needs_exactly_one_morphism(capsys):
    code, lines = run(capsys, ["cone", "--input", M3])
    assert code == 3
    assert "morphism" in lines[0]


def test_tensor_two_mfs(capsys, tmp_path):
    a1 = docs.load_document(A1).objects["a1"]
    payload = docs.document_payload(
        a1.ring, (a1.potential,),
        {"a": docs.mf_payload(a1), "b": docs.mf_payload(a1)})
    ipath = tmp_path / "in.json"
    opath = tmp_path / "t.json"
    docs.write_json(ipath, payload)
    code, lines = run(capsys, ["tensor", "--input", str(ipath),
                               "--output", str(opath)])
    assert code == 0
    assert "f=2*x^2" in lines
    assert "r0=2" in lines and "r1=2" in lines
    code, _ = run(capsys, ["validate", "--input", str(opath)])
    assert code == 0


def _diagonal_mfs_doc(tmp_path, *ranks):
    """Factorizations x·id, x·id of x^2 over Q[x], one per rank."""
    def diag(r):
        return [["x" if i == j else "0" for j in range(r)] for i in range(r)]
    objects = {f"d{k}": {"type": "mf", "f": "x^2", "r0": r, "r1": r,
                         "phi0": diag(r), "phi1": diag(r)}
               for k, r in enumerate(ranks)}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"ring": {"kind": "polynomial", "vars": ["x"]},
                                "potential": ["x^2"], "objects": objects}))
    return str(path)


def test_tensor_past_the_budget_is_refused_before_it_is_built(
        capsys, tmp_path, monkeypatch):
    def never(a, b):
        raise AssertionError("mf_tensor entered")

    monkeypatch.setattr(cli, "mf_tensor", never)
    # total ranks 60 and 60: a product of total rank 3600
    doc = _diagonal_mfs_doc(tmp_path, 30, 30)
    code, lines = run(capsys, ["tensor", "--input", doc])
    assert (code, lines) == (3, ["error=precondition tensor product would "
                                 "have total rank 3600, past 1000"])


def test_tensor_at_the_budget_is_built_and_written(capsys, tmp_path):
    # total ranks 20 and 50: a product of total rank exactly 1000
    doc = _diagonal_mfs_doc(tmp_path, 10, 25)
    out = tmp_path / "t.json"
    code, lines = run(capsys, ["tensor", "--input", doc,
                               "--output", str(out)])
    assert code == 0 and lines[-1] == "status=ok"
    assert "r0=500" in lines and "r1=500" in lines
    code, _ = run(capsys, ["validate", "--input", str(out)])
    assert code == 0


def test_tensor_needs_two_mfs(capsys):
    code, lines = run(capsys, ["tensor", "--input", A1])
    assert code == 3
    assert "two mf" in lines[0]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _write_module_doc(path, m, points=None):
    payload = docs.document_payload(
        m.ring, m.potential,
        {"m": {"type": "koszul_module", **docs.module_payload(m)}}, points)
    docs.write_json(path, payload)


def test_reduce_amplitude_cli(capsys, tmp_path):
    ipath = tmp_path / "in.json"
    wpath = tmp_path / "w.json"
    _write_module_doc(ipath, corpus.by_name("fk_xy").module)
    code, lines = run(capsys, ["reduce-amplitude", "--input", str(ipath),
                               "--witness", str(wpath)])
    assert code == 0
    assert "reduction_steps=2" in lines
    assert "degrees=-2..-1" in lines
    assert lines[-1] == "status=ok"
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 0


def test_reduce_amplitude_on_minimal_module(capsys, tmp_path):
    ipath = tmp_path / "in.json"
    _write_module_doc(ipath, corpus.by_name("a1_module").module)
    code, lines = run(capsys, ["reduce-amplitude", "--input", str(ipath)])
    assert code == 0
    assert "reduction_steps=0" in lines


@pytest.mark.parametrize("hi,top,end", [
    (4, 4, "degrees=0..0"),     # a step leaves zero ranks at the top
    (5, 5, "degrees=0..1"),     # ... and the trimmed module is reduced on
])
def test_reduce_amplitude_with_zero_ranks_inside_the_window(capsys, tmp_path,
                                                            hi, top, end):
    # potential 0, rank 1 at degrees 0 and `top` of [0, hi], zero maps
    ipath = tmp_path / "in.json"
    wpath = tmp_path / "w.json"
    ipath.write_text(json.dumps({
        "ring": {"kind": "polynomial", "vars": ["x"]}, "potential": ["0"],
        "objects": {"m": {"type": "koszul_module", "degrees": [0, hi],
                          "ranks": {"0": 1, str(top): 1}, "h": [{}]}}}))
    code, lines = run(capsys, ["reduce-amplitude", "--input", str(ipath),
                               "--witness", str(wpath)])
    assert code == 0 and lines[-1] == "status=ok"
    assert "reduction_steps=2" in lines and end in lines
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 0 and lines[-1] == "status=ok"
    # each trim is its own forward iso step onto a narrower window
    log, _ = docs.load_witness(wpath)
    trims = [s.morphism for s in log.steps
             if (s.kind, s.orientation) == ("explicit_quasi_iso", "forward")]
    assert len(trims) == 2
    assert all(g.target.hi < g.source.hi for g in trims)


def _checked_steps(log):
    return sum(1 for s in log.steps if s.kind != "shift_by_two")


def test_each_witness_step_is_checked_once(capsys, tmp_path, monkeypatch):
    """The log replay is the only caller of validate_koszul_morphism in
    `reduce`, and it checks each non-shift step once."""
    calls = []
    real = reduce.validate_koszul_morphism
    monkeypatch.setattr(reduce, "validate_koszul_morphism",
                        lambda g: calls.append(g) or real(g))
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    assert len(calls) == _checked_steps(log) == 5

    calls.clear()
    ipath = tmp_path / "in.json"
    wpath = tmp_path / "w.json"
    _write_module_doc(ipath, corpus.by_name("fk_xy").module)
    code, _ = run(capsys, ["reduce-amplitude", "--input", str(ipath),
                           "--witness", str(wpath)])
    assert code == 0
    log, _ = docs.load_witness(wpath)
    assert len(calls) == _checked_steps(log) == 8


def _bump(mat):
    """`mat` with one added to its (0, 0) entry."""
    one = {0: {0: Poly.one(mat.ring)}}
    return mat + PolyMatrix(mat.ring, mat.rows, mat.cols, trusted=one)


def _fault_in_permutation(monkeypatch):
    real = reduce._reindex_step

    def faulty(x, idx, lo, hi):
        step, moved = real(x, idx, lo, hi)
        g = step.morphism
        s = min(s for s, mat in g.components.items() if mat.rows)
        bumped = KoszulMorphism(g.source, g.target,
                                {**g.components, s: _bump(g.component(s))})
        return (reduce.WitnessStep(step.kind, step.orientation,
                                   morphism=bumped), moved)

    monkeypatch.setattr(reduce, "_reindex_step", faulty)


def _fault_in_graph(monkeypatch):
    real = reduce._graph_truncate

    def faulty(x, slots, mid_tag, det_tag):
        step, truncated, new_slots = real(x, slots, mid_tag, det_tag)
        g = step.morphism
        tm = g.source.hi
        bumped = KoszulMorphism(g.source, g.target,
                                {**g.components, tm: _bump(g.component(tm))})
        return (reduce.WitnessStep(step.kind, step.orientation,
                                   morphism=bumped),
                truncated, new_slots)

    monkeypatch.setattr(reduce, "_graph_truncate", faulty)


@pytest.mark.parametrize("fault", [_fault_in_permutation, _fault_in_graph])
def test_builder_faults_surface_through_the_replay(capsys, tmp_path,
                                                   monkeypatch, fault):
    fault(monkeypatch)
    entry = corpus.by_name("m3")
    with pytest.raises(reduce.WitnessError, match=r"^emitted log fails "
                       r"validation: step \d+ \(explicit_quasi_iso\): "
                       r"quasi-isomorphism invalid: degree "):
        fold_with_witness(entry.module, entry.points)

    wpath = tmp_path / "w.json"
    code, lines = run(capsys, ["fold", "--input", M3,
                               "--witness", str(wpath)])
    assert code == 1
    assert len(lines) == 1
    assert re.match(r"error=validation emitted log fails validation: "
                    r"step \d+ \(explicit_quasi_iso\): quasi-isomorphism "
                    r"invalid: degree ", lines[0])
    assert not wpath.exists()

    ipath = tmp_path / "in.json"
    _write_module_doc(ipath, corpus.by_name("fk_xy").module)
    code, lines = run(capsys, ["reduce-amplitude", "--input", str(ipath),
                               "--witness", str(wpath)])
    assert code == 1
    assert re.match(r"witness=invalid step \d+ \(explicit_quasi_iso\): "
                    r"quasi-isomorphism invalid: degree ", lines[0])
    assert lines[-1] == "status=failed"
    assert not wpath.exists()


def test_reduce_codim_plain(capsys, tmp_path):
    opath = tmp_path / "red.json"
    code, lines = run(capsys, ["reduce-codim", "--input", KUV,
                               "--output", str(opath)])
    assert code == 0
    assert "potentials_in=2" in lines
    assert "potentials_out=1" in lines
    assert "vars=u,v,t1" in lines
    assert "potential=u*t1 + v" in lines
    code, lines = run(capsys, ["validate", "--input", str(opath)])
    assert code == 0


def test_reduce_codim_then_fold(capsys):
    code, lines = run(capsys, ["reduce-codim", "--input", KUV,
                               "--then", "fold", "--points", "origin"])
    assert code == 0
    assert "residue_homology[origin]=even=0 odd=0" in lines
    assert lines[-1] == "status=ok"


def test_reduce_codim_witness_needs_fold(capsys, tmp_path):
    code, lines = run(capsys, ["reduce-codim", "--input", KUV,
                               "--witness", str(tmp_path / "w.json")])
    assert code == 3
    assert "--then fold" in lines[-1]


# ---------------------------------------------------------------------------
# residue homology and operators
# ---------------------------------------------------------------------------

def test_residue_homology_of_fold_output(capsys, tmp_path):
    opath = tmp_path / "folded.json"
    run(capsys, ["fold", "--input", M3, "--points", "origin,axis",
                 "--output", str(opath)])
    code, lines = run(capsys, ["residue-homology", "--input", str(opath)])
    assert code == 0
    assert "residue_homology[origin]=even=2 odd=2" in lines
    code, lines = run(capsys, ["residue-homology", "--input", str(opath),
                               "--points", "axis"])
    assert code == 0
    assert lines[1] == "residue_homology[axis]=even=0 odd=0"


def test_residue_homology_origin_off_hypersurface(capsys, tmp_path):
    ring = polynomial_ring(rationals(), ("x",))
    payload = docs.document_payload(
        ring, (parse_poly("x + 1", ring),),
        {"a": {"type": "mf", "f": "x + 1", "r0": 1, "r1": 1,
               "phi0": [["1"]], "phi1": [["x + 1"]]}})
    ipath = tmp_path / "in.json"
    docs.write_json(ipath, payload)
    code, lines = run(capsys, ["residue-homology", "--input", str(ipath)])
    assert code == 3
    assert "origin" in lines[0]


def test_eisenbud_kuv(capsys, tmp_path):
    opath = tmp_path / "ops.json"
    code, lines = run(capsys, ["eisenbud", "--input", KUV,
                               "--output", str(opath)])
    assert code == 0
    assert "operators=1" in lines
    assert "eisenbud_1=valid" in lines
    assert lines[-1] == "status=ok"
    code, lines = run(capsys, ["validate", "--input", str(opath)])
    assert code == 0


def test_eisenbud_three_potentials_commute(capsys, tmp_path):
    ipath = tmp_path / "in.json"
    _write_module_doc(ipath, corpus.by_name("fk_xyz").module)
    code, lines = run(capsys, ["eisenbud", "--input", str(ipath)])
    assert code == 0
    assert "operators=2" in lines
    assert "commute_1_2=ok" in lines


def test_eisenbud_builds_the_chart_module_once(capsys, tmp_path,
                                                monkeypatch):
    # every operator acts on the command's own folded chart module
    calls = []
    real = reduce.codim_reduce_chart
    for owner in (cli, reduce):
        monkeypatch.setattr(owner, "codim_reduce_chart",
                            lambda m: calls.append(m) or real(m))
    ipath = tmp_path / "in.json"
    _write_module_doc(ipath, corpus.by_name("fk_xyz").module)
    code, lines = run(capsys, ["eisenbud", "--input", str(ipath)])
    assert code == 0 and "operators=2" in lines
    assert len(calls) == 1


def test_eisenbud_needs_two_potentials(capsys):
    code, lines = run(capsys, ["eisenbud", "--input", M3])
    assert code == 3


# ---------------------------------------------------------------------------
# exit codes and flag plumbing
# ---------------------------------------------------------------------------

def test_characteristic_budget(capsys, tmp_path):
    # trial division took seconds on a 17-digit prime; every p below 2^64
    # is decided by a few modular powers, and a larger one is refused
    doc = tmp_path / "p.json"
    for p, code, last in (
            (10000000000000061, 0, "status=ok"),
            (1000000007 * 998244353, 2, "error=parse ring: prime_field "
             "characteristic 998244359987710471 is not prime"),
            (2 ** 64 + 13, 2, "error=parse ring: prime_field characteristic "
             "18446744073709551629 is not below 2^64")):
        doc.write_text(json.dumps({"ring": {"kind": "prime_field", "p": p},
                                   "potential": ["0"], "objects": {}}))
        assert run(capsys, ["validate", "--input", str(doc)]) == (code,
                                                                   [last])


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, lines = run(capsys, ["validate", "--input", str(bad)])
    assert code == 2
    assert lines[0].startswith("error=parse")


def test_missing_file_exit_2(capsys, tmp_path):
    code, lines = run(capsys, ["validate", "--input",
                               str(tmp_path / "absent.json")])
    assert code == 2


def test_inline_point_with_unknown_variable_exit_2(capsys):
    code, lines = run(capsys, ["fold", "--input", M3, "--point", "z=0"])
    assert code == 2
    assert lines[0].startswith("error=parse")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fold", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_error_names_the_commands_options(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eisenbud", "--input", KUV, "--witness", "w.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("usage: koszulmf eisenbud [-h] [--input PATH] "
                      "[--output PATH]")
    assert err[-1] == ("koszulmf eisenbud: error: unrecognized arguments: "
                       "--witness w.json")
    for cmd in cli._HANDLERS:
        with pytest.raises(SystemExit):
            cli.main([cmd, "--bogus"])
        assert capsys.readouterr().err.startswith(f"usage: koszulmf {cmd} ")


def test_seed_flag_is_refused(capsys):
    # no subcommand reads a seed, so the option is gone
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--input", A1, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


# the options each command reads; every other option is a usage error
_READS = {
    "validate": {"--input"},
    **{cmd: {"--input", "--output"}
       for cmd in ("unfold", "cone", "shift", "tensor", "eisenbud")},
    **{cmd: {"--input", "--output", "--witness", "--points", "--point"}
       for cmd in ("fold", "reduce-amplitude")},
    "reduce-codim": {"--input", "--output", "--witness", "--points",
                     "--point", "--then"},
    "residue-homology": {"--input", "--points", "--point"},
    "witness-check": {"--witness", "--input", "--points", "--point"},
}
_VALUES = {"--input": "in.json", "--output": "out.json",
           "--witness": "w.json", "--points": "origin", "--point": "x=0",
           "--then": "fold"}


def test_each_command_accepts_only_the_options_it_reads(capsys):
    assert set(_READS) == set(cli._HANDLERS)
    assert sum(map(len, _READS.values())) == 34
    for cmd, reads in _READS.items():
        for opt, val in _VALUES.items():
            argv = [cmd, opt, val]
            if opt in reads:
                args = cli._parser().parse_args(argv)
                assert getattr(args, opt[2:]) in (val, [val])
                continue
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {opt} {val}" in (
                capsys.readouterr().err)


def test_unread_options_no_longer_pass_silently(capsys, tmp_path):
    # eisenbud writes no witness and residue-homology no document, so the
    # options are refused instead of being ignored with status=ok
    for argv in (["eisenbud", "--input", KUV,
                  "--witness", str(tmp_path / "w.json")],
                 ["residue-homology", "--input", A1,
                  "--output", str(tmp_path / "y.json")]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


def test_status_ok_is_printed_once_after_the_handler(capsys):
    for argv in (["validate", "--input", A1], ["fold", "--input", M3],
                 ["eisenbud", "--input", KUV]):
        code, lines = run(capsys, argv)
        assert code == 0 and lines.count("status=ok") == 1
        assert lines[-1] == "status=ok"
    code, lines = run(capsys, ["fold", "--input", KUV])
    assert code == 3 and "status=ok" not in lines


def test_evaluation_past_the_coefficient_budget_exit_3(capsys, tmp_path):
    # evaluating x^10000000 at x=3 would build a 4.8-million-digit value
    doc = tmp_path / "pow.json"
    doc.write_text(json.dumps({
        "ring": {"kind": "polynomial", "vars": ["x", "y"]},
        "potential": ["x^10000000*y"],
        "objects": {"a": {"type": "mf", "f": "x^10000000*y", "r0": 1,
                          "r1": 1, "phi0": [["x^10000000"]],
                          "phi1": [["y"]]}}}))
    code, lines = run(capsys, ["residue-homology", "--input", str(doc),
                               "--point", "x=3,y=0"])
    assert (code, lines[-1]) == (3, "error=precondition the power "
                                    "(3)^10000000 at a point would pass "
                                    "1000 digits")
    code, lines = run(capsys, ["residue-homology", "--input", str(doc),
                               "--point", "x=1,y=0"])
    assert (code, lines[-1]) == (0, "status=ok")


def test_parser_is_built_once_and_carries_no_state(capsys):
    assert cli._parser() is cli._parser()
    args = cli._parser().parse_args(["fold", "--input", M3, "--points",
                                     "axis", "--point", "x=0,y=0"])
    assert args.points == "axis" and args.point == ["x=0,y=0"]
    again = cli._parser().parse_args(["fold", "--input", M3])
    assert again.points is None and again.point == []
    assert cli._parser().parse_args(
        ["reduce-codim", "--input", KUV, "--then", "fold"]).then == "fold"
    assert cli._parser().parse_args(
        ["reduce-codim", "--input", KUV]).then is None
    # end to end: a run with points leaves the next run without them
    plain = run(capsys, ["fold", "--input", M3])
    assert plain[0] == 0
    assert "residue_homology[origin]=even=2 odd=2" in plain[1]
    code, lines = run(capsys, ["fold", "--input", M3, "--points", "axis",
                               "--point", "x=0,y=0"])
    assert code == 0
    assert [l for l in lines if l.startswith("residue_homology")] == [
        "residue_homology[axis]=even=0 odd=0",
        "residue_homology[point0]=even=2 odd=2"]
    assert run(capsys, ["fold", "--input", M3]) == plain


# ---------------------------------------------------------------------------
# malformed input ends in exit 2 (error=parse), never exit 3 or a traceback
# ---------------------------------------------------------------------------

def _emitted_witness(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    code, _ = run(capsys, ["fold", "--input", M3, "--witness", str(wpath)])
    assert code == 0
    return json.loads(wpath.read_text())


def _huge_int_json(raw):
    """JSON text of `raw` whose first potential entry is an integer literal
    of 5000 digits."""
    raw = dict(raw, potential=["HUGE"])
    return json.dumps(raw).replace('"HUGE"', "1" * 5000)


def _expect_parse_error(capsys, argv):
    code, lines = run(capsys, argv)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error=parse ")
    return lines[0]


@pytest.mark.parametrize("command", ["validate", "witness-check"])
def test_bytes_that_are_not_utf8_exit_2(capsys, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"ring": "\xff\xfe"}')
    flag = "--input" if command == "validate" else "--witness"
    line = _expect_parse_error(capsys, [command, flag, str(bad)])
    assert "utf-8" in line


def test_huge_json_integer_exit_2(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(_huge_int_json(json.load(open(A1))))
    line = _expect_parse_error(capsys, ["validate", "--input", str(doc)])
    assert "not valid JSON" in line
    wpath = tmp_path / "w.json"
    wpath.write_text(_huge_int_json(_emitted_witness(capsys, tmp_path)))
    _expect_parse_error(capsys, ["witness-check", "--witness", str(wpath)])


def test_huge_integer_entry_exit_2(capsys, tmp_path):
    raw = json.load(open(A1))
    raw["objects"]["a1"]["phi0"] = [["1" * 5000]]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    line = _expect_parse_error(capsys, ["validate", "--input", str(doc)])
    assert "objects.a1.phi0" in line and "5000 digits" in line
    w = _emitted_witness(capsys, tmp_path)
    w["start"]["d"]["-1"][0][0] = "1" * 5000
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert "start.d[-1]" in line


def _a1_scaled(tmp_path, c):
    """a1.json with phi0 = phi1 = c*x and f = c^2*x^2 (c is entry text)."""
    raw = json.load(open(A1))
    raw["potential"] = [f"({c})^2*x^2"]
    raw["objects"]["a1"].update(f=f"({c})^2*x^2", phi0=[[f"({c})*x"]],
                                phi1=[[f"({c})*x"]])
    doc = tmp_path / "scaled.json"
    doc.write_text(json.dumps(raw))
    return str(doc)


def test_coefficients_past_the_budget_exit_2(capsys, tmp_path):
    # 3000 nines: the document used to pass validate, and shift --output
    # then died printing the 6000-digit f (exit 3)
    doc = _a1_scaled(tmp_path, "9" * 3000)
    out = str(tmp_path / "out.json")
    for argv in (["validate", "--input", doc],
                 ["shift", "--input", doc, "--output", out]):
        line = _expect_parse_error(capsys, argv)
        assert line == ("error=parse potential[0]: integer literal of 3000 "
                        "digits is too long (at position 1)")
    assert not os.path.exists(out)
    # 600 nines: every literal fits, the squared coefficient does not
    line = _expect_parse_error(capsys, ["validate", "--input",
                                        _a1_scaled(tmp_path, "9" * 600)])
    assert line == ("error=parse potential[0]: coefficient of more than "
                    "1000 digits (at position 0)")
    # the same entries in a witness log
    for entry in ("9" * 3000 + "*x", "(" + "9" * 600 + ")^2*x"):
        w = _emitted_witness(capsys, tmp_path)
        w["start"]["d"]["-1"][0][0] = entry
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(w))
        line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                            str(wpath)])
        assert "start.d[-1]" in line


def test_coefficients_within_the_budget_print(capsys, tmp_path):
    # c has 500 digits and f = c^2*x^2 has 1000: still in budget, and the
    # shifted factorization prints
    c = "9" * 500
    doc = _a1_scaled(tmp_path, c)
    out = tmp_path / "out.json"
    code, lines = run(capsys, ["shift", "--input", doc, "--output", str(out)])
    assert code == 0 and lines[-1] == "status=ok"
    shifted = json.loads(out.read_text())["objects"]["a1_shifted"]
    assert shifted["phi0"] == [[f"-{c}*x"]]
    assert shifted["f"] == f"{int(c) ** 2}*x^2"


@pytest.mark.parametrize("field,where", [
    ("objects", "objects: must map names to objects"),
    ("points", "points: must map names to points"),
])
def test_document_maps_given_as_lists_exit_2(capsys, tmp_path, field, where):
    raw = json.load(open(M3))
    raw[field] = [raw[field]]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    line = _expect_parse_error(capsys, ["validate", "--input", str(doc)])
    assert line == f"error=parse {where}"


def test_morphism_components_given_as_list_exit_2(capsys, tmp_path):
    raw = json.load(open(M3))
    raw["objects"]["zid"] = {"type": "koszul_morphism", "source": "m3",
                             "target": "m3", "components": [[["1"]]]}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    line = _expect_parse_error(capsys, ["validate", "--input", str(doc)])
    assert line == ("error=parse objects.zid.components: must map degrees "
                    "to matrices")


def test_morphism_component_degree_keys_are_checked(capsys, tmp_path):
    raw = json.load(open(M3))
    raw["objects"]["zid"] = {"type": "koszul_morphism", "source": "m3",
                             "target": "m3", "components": {"top": [["1"]]}}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    line = _expect_parse_error(capsys, ["validate", "--input", str(doc)])
    assert line == "error=parse objects.zid.components: bad degree key 'top'"


def _step(w, kind):
    return next(s for s in w["steps"] if s["kind"] == kind)


@pytest.mark.parametrize("edit,where", [
    (lambda w: _step(w, "explicit_quasi_iso").update(components=[]),
     "components: must map degrees to matrices"),
    (lambda w: _step(w, "cone_off_free").update(components=[[["1"]]]),
     "components: must map degrees to matrices"),
    (lambda w: _step(w, "cone_off_free").update(generators=[]),
     "generators: must be an object"),
    (lambda w: _step(w, "cone_off_free").update(generators=None),
     "generators: must be an object"),
    (lambda w: w.update(points=[]), "points: must map names to points"),
], ids=["quasi_iso_components", "cone_components", "generators_list",
        "generators_null", "points_list"])
def test_witness_shapes_exit_2(capsys, tmp_path, edit, where):
    ipath = tmp_path / "in.json"
    _write_module_doc(ipath, corpus.by_name("fk_xy").module)
    wpath = tmp_path / "w.json"
    code, _ = run(capsys, ["reduce-amplitude", "--input", str(ipath),
                           "--witness", str(wpath)])
    assert code == 0
    w = json.loads(wpath.read_text())
    edit(w)
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert line.endswith(where)


def test_witness_unknown_key_exit_2(capsys, tmp_path):
    w = _emitted_witness(capsys, tmp_path)
    step = w["steps"].index(_step(w, "cone_off_free"))
    w["steps"][step]["generators"]["h"] = []
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert line == (f"error=parse steps[{step}].generators: unknown key "
                    "'h'")


# ---------------------------------------------------------------------------
# degree windows: missing ranks are zero, and the width is bounded
# ---------------------------------------------------------------------------

def test_window_wider_than_its_ranks_validates(capsys, tmp_path):
    raw = json.load(open(M3))
    raw["objects"]["m3"]["degrees"][1] = 1      # no rank listed at 1
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    code, lines = run(capsys, ["validate", "--input", str(doc)])
    assert (code, lines) == (0, ["m3=valid", "status=ok"])
    code, lines = run(capsys, ["fold", "--input", str(doc)])
    assert code == 0 and lines[-1] == "status=ok"


def _windows(w):
    """Every degree window of a witness log, as (where, payload)."""
    yield "start", w["start"]
    yield "end", w["end"]
    for i, step in enumerate(w["steps"]):
        for key in ("generators", "source", "target"):
            if key in step:
                yield f"steps[{i}].{key}", step[key]


def test_witness_windows_wider_than_their_ranks(capsys, tmp_path):
    # one more degree at either end of any window: no rank is listed there,
    # so it is zero, and the replay gives a verdict, never a traceback
    w0 = _emitted_witness(capsys, tmp_path)
    wpath = tmp_path / "wide.json"
    widened = 0
    for index, (where, _) in enumerate(_windows(w0)):
        for end, delta in ((0, -1), (1, 1)):
            w = json.loads(json.dumps(w0))
            window = dict(_windows(w))[where]
            window["degrees"][end] += delta
            wpath.write_text(json.dumps(w))
            code, lines = run(capsys, ["witness-check", "--witness",
                                       str(wpath)])
            assert code in (0, 1), (where, end, lines)
            assert lines[-1] == ("status=ok" if code == 0
                                 else "status=failed")
            widened += 1
    assert widened >= 10


@pytest.mark.parametrize("edit,line", [
    # d of m3 lives on [-2, -1], each h_i on [-2, 0]
    (lambda raw: raw["objects"]["m3"]["d"].update({"0": []}),
     "objects.m3.d: degree 0 outside window"),
    (lambda raw: raw["objects"]["m3"]["h"][0].update({"1": []}),
     "objects.m3.h[0]: degree 1 outside window"),
    (lambda raw: raw["objects"].update(zid={
        "type": "koszul_morphism", "source": "m3", "target": "m3",
        "components": {"-3": [], "0": [["1"]]}}),
     "objects.zid.components: degree -3 outside window"),
], ids=["d", "h", "components"])
def test_document_degrees_outside_the_window_exit_2(capsys, tmp_path, edit,
                                                    line):
    raw = json.load(open(M3))
    edit(raw)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    assert _expect_parse_error(capsys, ["validate", "--input", str(doc)]) \
        == f"error=parse {line}"


def _mf_object(**fields):
    obj = {"type": "mf", "f": "x*y", "r0": 1, "r1": 1,
           "phi0": [["x"]], "phi1": [["y"]]}
    obj.update(fields)
    return {"a": obj}


@pytest.mark.parametrize("edit,line", [
    (lambda raw: raw["objects"]["m3"].update(degrees=[-2, True]),
     "objects.m3: degrees must be [lo, hi] with lo <= hi"),
    (lambda raw: raw["objects"]["m3"]["ranks"].update({"-2": True}),
     "objects.m3: rank at -2 must be a nonnegative integer"),
    (lambda raw: raw["points"].update(o={"x": False, "y": False}),
     "points.o.x: point values must be integers or fractions"),
    (lambda raw: raw["objects"].update(_mf_object(r0=True)),
     "objects.a: r0 and r1 must be nonnegative integers"),
    (lambda raw: raw["objects"].update(_mf_object(r1=False)),
     "objects.a: r0 and r1 must be nonnegative integers"),
    (lambda raw: raw["ring"].update(p=True), "ring: p must be an integer"),
    (lambda raw: raw["objects"]["m3"]["h"][0].update({"0": [[True], ["0"]]}),
     "objects.m3.h[0][0]: matrix entry 'True' is not a string or an integer"),
], ids=["degrees", "rank", "point", "r0", "r1", "p", "entry"])
def test_json_booleans_are_not_integers_exit_2(capsys, tmp_path, edit, line):
    # JSON true and false are Python bools, which isinstance(v, int) accepts
    raw = json.load(open(M3))
    edit(raw)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    assert _expect_parse_error(capsys, ["validate", "--input", str(doc)]) \
        == f"error=parse {line}"


def test_witness_offset_false_is_not_an_even_integer_exit_2(capsys, tmp_path):
    wpath = tmp_path / "w.json"
    code, _ = run(capsys, ["fold", "--input", M3, "--points", "origin",
                           "--witness", str(wpath)])
    assert code == 0
    w = json.loads(wpath.read_text())
    step = w["steps"].index(_step(w, "shift_by_two"))
    w["steps"][step]["offset"] = False
    wpath.write_text(json.dumps(w))
    assert _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)]) \
        == f"error=parse steps[{step}]: offset must be an even integer"


@pytest.mark.parametrize("kind", ["cone_off_free", "explicit_quasi_iso"])
def test_witness_components_outside_the_window_exit_2(capsys, tmp_path,
                                                       kind):
    # the stray degree used to be dropped, and the log passed
    w = _emitted_witness(capsys, tmp_path)
    step = w["steps"].index(_step(w, kind))
    w["steps"][step]["components"]["9999"] = []
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert line == (f"error=parse steps[{step}].components: degree 9999 "
                    "outside window")


def test_cone_step_components_span_the_free_source(capsys, tmp_path):
    # the free source of a cone_off_free step reaches n degrees below its
    # generators: a component there is read, one further down is refused
    w = _emitted_witness(capsys, tmp_path)
    step = _step(w, "cone_off_free")
    lo = step["generators"]["degrees"][0] - 1
    assert lo < step["target"]["degrees"][0]
    assert str(lo) in step["components"]
    step["components"][str(lo - 1)] = []
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert line.endswith(f"components: degree {lo - 1} outside window")


def test_huge_degree_window_is_refused(capsys, tmp_path):
    raw = json.load(open(M3))
    raw["objects"]["m3"]["degrees"] = [-1000000000, 0]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    line = _expect_parse_error(capsys, ["validate", "--input", str(doc)])
    assert line == ("error=parse objects.m3: degree window [-1000000000, 0] "
                    f"spans more than {docs.MAX_DEGREE_SPAN} degrees")
    w = _emitted_witness(capsys, tmp_path)
    _step(w, "cone_off_free")["generators"]["degrees"] = [-1000000000, 0]
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert "generators: degree window" in line


def test_degree_window_at_the_limit_is_accepted(capsys, tmp_path):
    raw = json.load(open(M3))
    for hi, code in ((docs.MAX_DEGREE_SPAN - 2, 0),
                     (docs.MAX_DEGREE_SPAN - 1, 2)):
        raw["objects"]["m3"]["degrees"] = [-2, hi]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(raw))
        assert run(capsys, ["validate", "--input", str(doc)])[0] == code


def _sized_doc(tmp_path, obj, potential="0", n=1, objects=()):
    path = tmp_path / "sized.json"
    path.write_text(json.dumps({
        "ring": {"kind": "polynomial", "vars": ["x"]},
        "potential": [potential] * n, "objects": {"o": obj, **dict(objects)}}))
    return str(path)


def _rank_module(ranks, n=1):
    degs = sorted(int(k) for k in ranks)
    return {"type": "koszul_module", "degrees": [degs[0], degs[-1]],
            "ranks": ranks, "h": [{}] * n}


def _spread(total, lo, hi):
    """Ranks adding up to `total`, spread evenly over degrees lo..hi."""
    span = hi - lo + 1
    return {str(d): total // span + (d - lo < total % span)
            for d in range(lo, hi + 1)}


def test_total_rank_past_the_budget_exit_2(capsys, tmp_path):
    limit = docs.MAX_TOTAL_RANK
    assert limit == 1000
    # one huge rank used to build a 300,000-entry f*id in `validate`
    for ranks in ({"0": 300000}, {"0": limit + 1}, {"-1": 600, "0": 401}):
        path = _sized_doc(tmp_path, _rank_module(ranks), "x")
        line = _expect_parse_error(capsys, ["validate", "--input", path])
        total = sum(ranks.values())
        assert line == (f"error=parse objects.o: total rank {total} is past "
                        f"{limit}")
    path = _sized_doc(tmp_path, {"type": "mf", "f": "0", "r0": limit + 1,
                                 "r1": 0, "phi0": [],
                                 "phi1": [[]] * (limit + 1)})
    line = _expect_parse_error(capsys, ["validate", "--input", path])
    assert line == f"error=parse objects.o: total rank {limit + 1} is past {limit}"
    # at the budget the object is read and checked
    path = _sized_doc(tmp_path, _rank_module({"-1": 500, "0": 500}))
    assert run(capsys, ["validate", "--input", path]) == (
        0, ["o=valid", "status=ok"])


@pytest.mark.parametrize("command,n,lo,hi", [
    ("fold", 1, 0, 1),                  # the parity jump
    ("reduce-amplitude", 3, 0, 4),      # one amplitude step
])
def test_witnessed_reductions_at_the_budget_read_back(capsys, tmp_path,
                                                      command, n, lo, hi):
    # the move's counit cone has total rank (2^n + 1) times the module's:
    # at the budget the log is written and witness-check reads it back
    limit = docs.MAX_TOTAL_RANK
    total = limit // (2 ** n + 1)
    wpath = tmp_path / "w.json"
    doc = _sized_doc(tmp_path, _rank_module(_spread(total, lo, hi), n), n=n)
    code, lines = run(capsys, [command, "--input", doc,
                               "--witness", str(wpath)])
    assert code == 0 and lines[-1] == "status=ok"
    code, lines = run(capsys, ["witness-check", "--witness", str(wpath)])
    assert code == 0 and lines[-1] == "status=ok"
    # one more rank and the move is refused before it is built
    wpath.unlink()
    doc = _sized_doc(tmp_path, _rank_module(_spread(total + 1, lo, hi), n),
                     n=n)
    code, lines = run(capsys, [command, "--input", doc,
                               "--witness", str(wpath)])
    size = (2 ** n + 1) * (total + 1)
    assert (code, lines) == (3, [f"error=precondition reduction needs a cone "
                                 f"of total rank {size}, past {limit}"])
    assert not wpath.exists()


def test_outputs_past_the_budget_are_not_written(capsys, tmp_path):
    # the cone of a zero map on a rank-600 module has total rank 1200,
    # which a document is not read with
    zero = {"type": "koszul_morphism", "source": "o", "target": "o",
            "components": {}}
    doc = _sized_doc(tmp_path, _rank_module({"0": 600}), objects={"z": zero})
    out = tmp_path / "cone.json"
    code, lines = run(capsys, ["cone", "--input", doc, "--output", str(out)])
    assert code == 3 and lines[-1] == ("error=precondition objects.z_cone: "
                                       "total rank 1200 is past 1000")
    assert not out.exists()


def test_witness_modules_past_the_budget_exit_2(capsys, tmp_path):
    wpath = tmp_path / "big.json"
    w = _emitted_witness(capsys, tmp_path)
    w["start"] = {"degrees": [0, 0], "ranks": {"0": 2000}, "h": [{}]}
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert line == "error=parse start: total rank 2000 is past 1000"
    # the free module on a step's generators is 2^n times their size
    w = _emitted_witness(capsys, tmp_path)
    step = w["steps"].index(_step(w, "cone_off_free"))
    w["steps"][step]["generators"] = {"degrees": [0, 0], "ranks": {"0": 501}}
    wpath.write_text(json.dumps(w))
    line = _expect_parse_error(capsys, ["witness-check", "--witness",
                                        str(wpath)])
    assert line == (f"error=parse steps[{step}].generators (free module): "
                    "total rank 1002 is past 1000")


def test_entry_past_the_parser_work_budget_exit_2(capsys, tmp_path):
    raw = {"ring": {"kind": "polynomial", "vars": ["x", "y", "z"]},
           "potential": ["(x+y+z+1)^60"], "objects": {}}
    path = tmp_path / "pow.json"
    path.write_text(json.dumps(raw))
    # refused before the product past the budget (tests/test_ring.py)
    line = _expect_parse_error(capsys, ["validate", "--input", str(path)])
    assert line == ("error=parse potential[0]: product of 455 by 969 terms "
                    "is past 100000 term products (at position 9)")
