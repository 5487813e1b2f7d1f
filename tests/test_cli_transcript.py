"""Golden CLI transcript: every subcommand, byte for byte.

Each case runs `cli.main` on input documents stored in
`golden/cli_transcript.json` and compares the exit code, the stdout lines
and the sha256 of every file the run writes (`--output`, `--witness`) with
the recorded values.  The cases cover success, `=invalid` reports,
precondition failures (exit 3), parse errors (exit 2) and points off the
zero locus, for all eleven subcommands.

The inputs are stored verbatim, so the transcript does not depend on the
payload builders it is meant to pin down.  Argument strings use `{in}` for
the input directory and `{out}` for the case's own output directory;
stdout is compared with those directories put back as placeholders.

Re-record (only after an intended output change) with

    PYTHONPATH=src python tests/test_cli_transcript.py --record
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "cli_transcript.json")
DATA = os.path.join(HERE, "data")


def write_inputs(inputs, directory):
    for name, raw in inputs.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def run_case(argv, in_dir, out_dir):
    """Run one CLI call; return (exit code, stdout lines, {file: sha256})."""
    from koszulmf import cli

    real = [a.replace("{in}", in_dir).replace("{out}", out_dir) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(real)
    lines = [l.replace(out_dir, "{out}").replace(in_dir, "{in}")
             for l in buf.getvalue().splitlines()]
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return code, lines, files


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def _load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def _module_doc(entry):
    from koszulmf import documents as docs

    m = entry.module
    return json.loads(docs.dumps(docs.document_payload(
        m.ring, m.potential,
        {entry.name: {"type": "koszul_module", **docs.module_payload(m)}})))


def _build_inputs():
    sys.path.insert(0, HERE)
    import corpus

    a1, m3, kuv = _load("a1.json"), _load("m3.json"), _load("koszul_uv.json")
    inputs = {"a1.json": a1, "m3.json": m3, "kuv.json": kuv}

    bad = copy.deepcopy(a1)
    bad["objects"]["a1"]["phi1"] = [["x^2"]]
    inputs["a1_bad.json"] = bad

    bad = copy.deepcopy(m3)
    bad["objects"]["m3"]["d"]["-1"] = [["x", "x"]]
    inputs["m3_bad.json"] = bad

    bad = copy.deepcopy(kuv)
    bad["objects"]["kuv"]["h"][1]["0"] = [["1"], ["1"]]
    inputs["kuv_bad.json"] = bad

    inputs["fk_xy.json"] = _module_doc(corpus.by_name("fk_xy"))
    inputs["fk_xyz.json"] = _module_doc(corpus.by_name("fk_xyz"))

    ident = {"-2": [["1"]], "-1": [["1", "0"], ["0", "1"]], "0": [["1"]]}
    kmor = copy.deepcopy(m3)
    kmor["objects"]["zid"] = {"type": "koszul_morphism", "source": "m3",
                              "target": "m3", "components": ident}
    inputs["kmor.json"] = kmor
    kmor_bad = copy.deepcopy(kmor)
    kmor_bad["objects"]["zid"]["components"]["-1"] = [["1", "0"], ["0", "0"]]
    inputs["kmor_bad.json"] = kmor_bad

    mf = a1["objects"]["a1"]
    two = copy.deepcopy(a1)
    two["objects"] = {"a": mf, "b": mf}
    inputs["two_mf.json"] = two
    two_bad = copy.deepcopy(two)
    two_bad["objects"]["b"] = bad_mf = dict(mf)
    bad_mf["phi0"] = [["x + 1"]]
    inputs["two_mf_bad.json"] = two_bad

    mfmor = copy.deepcopy(two)
    mfmor["objects"]["zmap"] = {"type": "mf_morphism", "source": "a",
                                "target": "b", "alpha0": [["1"]],
                                "alpha1": [["1"]]}
    inputs["mfmor.json"] = mfmor
    mfmor_bad = copy.deepcopy(mfmor)
    mfmor_bad["objects"]["zmap"]["alpha1"] = [["0"]]
    inputs["mfmor_bad.json"] = mfmor_bad

    inputs["complex.json"] = {
        "ring": {"kind": "polynomial", "vars": ["x"], "p": 5},
        "potential": ["x^2"],
        "objects": {
            "c": {"type": "complex", "degrees": [0, 2],
                  "ranks": {"0": 1, "1": 1, "2": 1},
                  "d": {"0": [["x"]], "1": [["x"]]}},
            "c_ok": {"type": "complex", "degrees": [0, 1],
                     "ranks": {"0": 1, "1": 2},
                     "d": {"0": [["x"], ["2*x^3"]]}}}}

    inputs["off_origin.json"] = {
        "ring": {"kind": "polynomial", "vars": ["x"]},
        "potential": ["x + 1"],
        "objects": {"a": {"type": "mf", "f": "x + 1", "r0": 1, "r1": 1,
                          "phi0": [["1"]], "phi1": [["x + 1"]]}}}

    # parse errors
    inputs["bad_type.json"] = {**a1, "objects": {"z": {"type": "sheaf"}}}
    bad = copy.deepcopy(m3)
    bad["objects"]["m3"]["ranks"] = {"two": 1}
    inputs["bad_rank_key.json"] = bad
    bad = copy.deepcopy(m3)
    bad["objects"]["m3"]["d"]["-1"] = [["x", "y"], ["x", "y"]]
    inputs["bad_shape.json"] = bad
    bad = copy.deepcopy(m3)
    bad["objects"]["m3"]["d"]["-1"] = [["x", "y +"]]
    inputs["bad_entry.json"] = bad
    bad = copy.deepcopy(m3)
    bad["objects"]["m3"]["d"] = [["x"]]
    inputs["bad_d.json"] = bad
    bad = copy.deepcopy(kmor)
    bad["objects"]["zid"]["target"] = "nowhere"
    inputs["bad_target.json"] = bad

    # witness logs and a folded document, emitted by the code under record
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs({"m3.json": m3, "fk_xy.json": inputs["fk_xy.json"]}, tmp)
        for argv in (["fold", "--input", "{in}/m3.json", "--points",
                      "origin,axis", "--witness", "{out}/w_m3.json",
                      "--output", "{out}/m3_folded.json"],
                     ["reduce-amplitude", "--input", "{in}/fk_xy.json",
                      "--witness", "{out}/w_fk_xy.json"]):
            code, _, _ = run_case(argv, tmp, tmp)
            assert code == 0
        for name in ("w_m3.json", "m3_folded.json", "w_fk_xy.json"):
            with open(os.path.join(tmp, name)) as fh:
                inputs[name] = json.load(fh)

    w = inputs["w_m3.json"]
    tampered = copy.deepcopy(w)
    tampered["end"]["d"]["-1"][0][0] = "y"
    inputs["w_end_tampered.json"] = tampered
    tampered = copy.deepcopy(w)
    tampered["start"]["d"]["-1"][0][0] = "y"
    inputs["w_start_tampered.json"] = tampered
    tampered = copy.deepcopy(w)
    tampered["schema"] = "koszulmf.witness/0"
    inputs["w_schema.json"] = tampered
    tampered = copy.deepcopy(w)
    tampered["steps"][0]["kind"] = "magic"
    inputs["w_kind.json"] = tampered
    return inputs


def _cases():
    """(id, argv) in transcript order."""
    i = "{in}/"
    o = "{out}/"
    return [
        # validate
        ("validate_a1", ["validate", "--input", i + "a1.json"]),
        ("validate_m3", ["validate", "--input", i + "m3.json"]),
        ("validate_kuv", ["validate", "--input", i + "kuv.json"]),
        ("validate_kmor", ["validate", "--input", i + "kmor.json"]),
        ("validate_mfmor", ["validate", "--input", i + "mfmor.json"]),
        ("validate_complex", ["validate", "--input", i + "complex.json"]),
        ("validate_a1_bad", ["validate", "--input", i + "a1_bad.json"]),
        ("validate_m3_bad", ["validate", "--input", i + "m3_bad.json"]),
        ("validate_kuv_bad", ["validate", "--input", i + "kuv_bad.json"]),
        ("validate_kmor_bad", ["validate", "--input", i + "kmor_bad.json"]),
        ("validate_mfmor_bad", ["validate", "--input", i + "mfmor_bad.json"]),
        ("validate_two_mf_bad", ["validate", "--input",
                                 i + "two_mf_bad.json"]),
        ("validate_no_input", ["validate"]),
        ("validate_missing_file", ["validate", "--input", i + "absent.json"]),
        ("validate_bad_type", ["validate", "--input", i + "bad_type.json"]),
        ("validate_bad_rank_key", ["validate", "--input",
                                   i + "bad_rank_key.json"]),
        ("validate_bad_shape", ["validate", "--input", i + "bad_shape.json"]),
        ("validate_bad_entry", ["validate", "--input", i + "bad_entry.json"]),
        ("validate_bad_d", ["validate", "--input", i + "bad_d.json"]),
        ("validate_bad_target", ["validate", "--input",
                                 i + "bad_target.json"]),
        ("validate_witness_as_document", ["validate", "--input",
                                          i + "w_m3.json"]),
        # fold
        ("fold_m3_full", ["fold", "--input", i + "m3.json", "--points",
                          "origin,axis", "--witness", o + "w.json",
                          "--output", o + "out.json"]),
        ("fold_m3_default", ["fold", "--input", i + "m3.json", "--witness",
                             o + "w.json"]),
        ("fold_m3_inline_points", ["fold", "--input", i + "m3.json",
                                   "--point", "x=1,y=0", "--point",
                                   "x=0,y=3/2", "--output", o + "out.json"]),
        ("fold_m3_off_locus", ["fold", "--input", i + "m3.json", "--point",
                               "x=1,y=1"]),
        ("fold_m3_unknown_point", ["fold", "--input", i + "m3.json",
                                   "--points", "nowhere"]),
        ("fold_m3_unknown_var", ["fold", "--input", i + "m3.json",
                                 "--point", "z=0"]),
        ("fold_m3_bad_point_syntax", ["fold", "--input", i + "m3.json",
                                      "--point", "x"]),
        ("fold_m3_bad", ["fold", "--input", i + "m3_bad.json"]),
        ("fold_kuv_two_potentials", ["fold", "--input", i + "kuv.json"]),
        ("fold_a1_no_module", ["fold", "--input", i + "a1.json"]),
        ("fold_fk_xy", ["fold", "--input", i + "fk_xy.json", "--witness",
                        o + "w.json", "--output", o + "out.json"]),
        # unfold
        ("unfold_a1", ["unfold", "--input", i + "a1.json", "--output",
                       o + "out.json"]),
        ("unfold_m3_folded", ["unfold", "--input", i + "m3_folded.json",
                              "--output", o + "out.json"]),
        ("unfold_a1_bad", ["unfold", "--input", i + "a1_bad.json"]),
        ("unfold_two_mf", ["unfold", "--input", i + "two_mf.json"]),
        # cone
        ("cone_kmor", ["cone", "--input", i + "kmor.json", "--output",
                       o + "out.json"]),
        ("cone_mfmor", ["cone", "--input", i + "mfmor.json", "--output",
                        o + "out.json"]),
        ("cone_kmor_bad", ["cone", "--input", i + "kmor_bad.json"]),
        ("cone_mfmor_bad", ["cone", "--input", i + "mfmor_bad.json"]),
        ("cone_no_morphism", ["cone", "--input", i + "m3.json"]),
        # shift
        ("shift_a1", ["shift", "--input", i + "a1.json", "--output",
                      o + "out.json"]),
        ("shift_a1_bad", ["shift", "--input", i + "a1_bad.json"]),
        ("shift_m3_folded", ["shift", "--input", i + "m3_folded.json",
                             "--output", o + "out.json"]),
        # tensor
        ("tensor_two_mf", ["tensor", "--input", i + "two_mf.json",
                           "--output", o + "out.json"]),
        ("tensor_two_mf_bad", ["tensor", "--input", i + "two_mf_bad.json"]),
        ("tensor_one_mf", ["tensor", "--input", i + "a1.json"]),
        # reduce-amplitude
        ("reduce_amplitude_fk_xy", ["reduce-amplitude", "--input",
                                    i + "fk_xy.json", "--witness",
                                    o + "w.json", "--output",
                                    o + "out.json"]),
        ("reduce_amplitude_m3", ["reduce-amplitude", "--input",
                                 i + "m3.json", "--points", "origin,axis",
                                 "--witness", o + "w.json", "--output",
                                 o + "out.json"]),
        ("reduce_amplitude_m3_bad", ["reduce-amplitude", "--input",
                                     i + "m3_bad.json"]),
        ("reduce_amplitude_off_locus", ["reduce-amplitude", "--input",
                                        i + "m3.json", "--point",
                                        "x=2,y=2"]),
        ("reduce_amplitude_fk_xyz", ["reduce-amplitude", "--input",
                                     i + "fk_xyz.json", "--output",
                                     o + "out.json"]),
        # reduce-codim
        ("reduce_codim_kuv", ["reduce-codim", "--input", i + "kuv.json",
                              "--output", o + "out.json"]),
        ("reduce_codim_kuv_points", ["reduce-codim", "--input",
                                     i + "kuv.json", "--points", "origin",
                                     "--point", "u=0,v=0", "--output",
                                     o + "out.json"]),
        ("reduce_codim_kuv_then_fold", ["reduce-codim", "--input",
                                        i + "kuv.json", "--then", "fold",
                                        "--points", "origin", "--witness",
                                        o + "w.json", "--output",
                                        o + "out.json"]),
        ("reduce_codim_kuv_then_fold_default", ["reduce-codim", "--input",
                                                i + "kuv.json", "--then",
                                                "fold"]),
        ("reduce_codim_fk_xyz_then_fold", ["reduce-codim", "--input",
                                           i + "fk_xyz.json", "--then",
                                           "fold", "--witness",
                                           o + "w.json"]),
        ("reduce_codim_then_fold_off_locus", ["reduce-codim", "--input",
                                              i + "kuv.json", "--then",
                                              "fold", "--point",
                                              "u=0,v=1"]),
        ("reduce_codim_witness_without_fold", ["reduce-codim", "--input",
                                               i + "kuv.json", "--witness",
                                               o + "w.json"]),
        ("reduce_codim_kuv_bad", ["reduce-codim", "--input",
                                  i + "kuv_bad.json"]),
        # residue-homology
        ("residue_homology_folded", ["residue-homology", "--input",
                                     i + "m3_folded.json"]),
        ("residue_homology_folded_axis", ["residue-homology", "--input",
                                          i + "m3_folded.json", "--points",
                                          "axis,origin"]),
        ("residue_homology_a1_off_locus", ["residue-homology", "--input",
                                           i + "a1.json", "--point",
                                           "x=1"]),
        ("residue_homology_off_origin", ["residue-homology", "--input",
                                         i + "off_origin.json"]),
        ("residue_homology_off_origin_point", ["residue-homology",
                                               "--input",
                                               i + "off_origin.json",
                                               "--point", "x=-1"]),
        ("residue_homology_a1_bad", ["residue-homology", "--input",
                                     i + "a1_bad.json"]),
        # witness-check
        ("witness_check_m3", ["witness-check", "--witness",
                              i + "w_m3.json"]),
        ("witness_check_fk_xy", ["witness-check", "--witness",
                                 i + "w_fk_xy.json"]),
        ("witness_check_inline_point", ["witness-check", "--witness",
                                        i + "w_m3.json", "--point",
                                        "x=5,y=0"]),
        ("witness_check_named_points", ["witness-check", "--witness",
                                        i + "w_m3.json", "--input",
                                        i + "m3.json", "--points",
                                        "axis"]),
        ("witness_check_off_locus", ["witness-check", "--witness",
                                     i + "w_m3.json", "--point",
                                     "x=1,y=1"]),
        ("witness_check_end_tampered", ["witness-check", "--witness",
                                        i + "w_end_tampered.json"]),
        ("witness_check_start_tampered", ["witness-check", "--witness",
                                          i + "w_start_tampered.json"]),
        ("witness_check_schema", ["witness-check", "--witness",
                                  i + "w_schema.json"]),
        ("witness_check_kind", ["witness-check", "--witness",
                                i + "w_kind.json"]),
        ("witness_check_needs_witness", ["witness-check", "--input",
                                         i + "m3.json"]),
        ("witness_check_points_need_input", ["witness-check", "--witness",
                                             i + "w_m3.json", "--points",
                                             "origin"]),
        ("witness_check_ring_mismatch", ["witness-check", "--witness",
                                         i + "w_m3.json", "--input",
                                         i + "a1.json"]),
        ("witness_check_document_as_witness", ["witness-check", "--witness",
                                               i + "m3.json"]),
        # eisenbud
        ("eisenbud_kuv", ["eisenbud", "--input", i + "kuv.json", "--output",
                          o + "out.json"]),
        ("eisenbud_fk_xyz", ["eisenbud", "--input", i + "fk_xyz.json",
                             "--output", o + "out.json"]),
        ("eisenbud_kuv_bad", ["eisenbud", "--input", i + "kuv_bad.json"]),
        ("eisenbud_one_potential", ["eisenbud", "--input", i + "m3.json"]),
    ]


def record(path=GOLDEN):
    inputs = _build_inputs()
    cases = []
    with tempfile.TemporaryDirectory() as in_dir:
        write_inputs(inputs, in_dir)
        for case_id, argv in _cases():
            with tempfile.TemporaryDirectory() as out_dir:
                code, lines, files = run_case(argv, in_dir, out_dir)
            cases.append({"id": case_id, "argv": argv, "code": code,
                          "stdout": lines, "files": files})
    write_golden({"inputs": inputs, "cases": cases}, path)
    return len(cases)


def write_golden(golden, path):
    """One line per case, in transcript order, and per input document,
    sorted by file name, so that a re-record moves only what changed."""
    cases = ",\n  ".join(json.dumps(c, sort_keys=True)
                          for c in golden["cases"])
    inputs = ",\n  ".join(
        f"{json.dumps(name)}: {json.dumps(raw, sort_keys=True)}"
        for name, raw in sorted(golden["inputs"].items()))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{\n "cases": [\n  ' + cases + '\n ],\n "inputs": {\n  '
                 + inputs + "\n }\n}\n")


# ---------------------------------------------------------------------------
# the test
# ---------------------------------------------------------------------------

def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def in_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("transcript_inputs"))
    write_inputs(_golden()["inputs"], directory)
    return directory


# the recorder imports this module before the golden file exists
_CASES = _golden()["cases"] if __name__ != "__main__" else []


def test_transcript_covers_every_subcommand():
    from koszulmf import cli

    assert {c["argv"][0] for c in _CASES} == set(cli._HANDLERS)
    codes = {c["code"] for c in _CASES}
    assert codes == {0, 1, 2, 3}


@pytest.mark.parametrize("case", _CASES, ids=[c["id"] for c in _CASES])
def test_transcript(case, in_dir, tmp_path):
    out_dir = str(tmp_path / "out")
    os.mkdir(out_dir)
    code, lines, files = run_case(case["argv"], in_dir, out_dir)
    assert lines == case["stdout"]
    assert code == case["code"]
    assert files == case["files"]


def test_a_re_record_leaves_the_transcript_byte_identical(tmp_path):
    path = str(tmp_path / "golden" / "cli_transcript.json")
    assert record(path) == len(_CASES)
    with open(path, "rb") as fh, open(GOLDEN, "rb") as committed:
        assert fh.read() == committed.read()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    print(f"recorded {record()} cases to {GOLDEN}")
