"""Document and witness file formats: loading, round trips, rejections."""

import json
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from koszulmf import cli
from koszulmf import documents as docs
from koszulmf.complexes import FreeComplex, PolyMatrix
from koszulmf.koszul import KoszulMorphism, validate_koszul
from koszulmf.mf import MFObject
from koszulmf.reduce import fold_with_witness, validate_log
from koszulmf.ring import (Poly, parse_poly, polynomial_ring, prime_field,
                           rationals)

DATA = corpus.DATA


def _doc(path):
    import os
    return docs.load_document(os.path.join(DATA, path))


# ---------------------------------------------------------------------------
# loading the shipped files
# ---------------------------------------------------------------------------

def test_load_a1():
    doc = _doc("a1.json")
    assert doc.ring.varnames == ("x",)
    assert doc.potential == (parse_poly("x^2", doc.ring),)
    a1 = doc.objects["a1"]
    assert isinstance(a1, MFObject)
    assert (a1.r0, a1.r1) == (1, 1)
    assert a1.potential == parse_poly("x^2", doc.ring)
    assert doc.points == {"origin": {"x": Fraction(0)}}


def test_load_m3():
    doc = _doc("m3.json")
    m3 = doc.objects["m3"]
    assert m3 == corpus.by_name("m3").module
    assert set(doc.points) == {"origin", "axis"}
    assert doc.points["axis"] == {"x": Fraction(1), "y": Fraction(0)}


def test_load_koszul_uv():
    doc = _doc("koszul_uv.json")
    kuv = doc.objects["kuv"]
    assert kuv.n == 2
    assert kuv.potential == (parse_poly("u", doc.ring),
                             parse_poly("v", doc.ring))
    assert validate_koszul(kuv) == []


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_module_round_trip():
    m3 = corpus.by_name("m3").module
    payload = docs.document_payload(
        m3.ring, m3.potential,
        {"m3": {"type": "koszul_module", **docs.module_payload(m3)}},
        {"origin": {"x": 0, "y": 0}})
    doc = docs.parse_document(json.loads(docs.dumps(payload)))
    assert doc.objects["m3"] == m3
    assert doc.points["origin"] == {"x": Fraction(0), "y": Fraction(0)}


def test_mf_round_trip():
    doc = _doc("a1.json")
    a1 = doc.objects["a1"]
    payload = docs.document_payload(doc.ring, doc.potential,
                                    {"a1": docs.mf_payload(a1)})
    again = docs.parse_document(json.loads(docs.dumps(payload)))
    assert again.objects["a1"] == a1


def test_morphism_round_trip():
    m3 = corpus.by_name("m3").module
    ident = KoszulMorphism(
        m3, m3, {u: PolyMatrix.identity(m3.ring, m3.rank(u))
                 for u in range(m3.lo, m3.hi + 1)})
    payload = docs.document_payload(
        m3.ring, m3.potential,
        {"m3": {"type": "koszul_module", **docs.module_payload(m3)},
         "ident": {"type": "koszul_morphism", "source": "m3", "target": "m3",
                   "components": docs._degree_matrices_payload(
                       ident.component, ident.lo, ident.hi)}})
    doc = docs.parse_document(json.loads(docs.dumps(payload)))
    g = doc.objects["ident"]
    assert isinstance(g, KoszulMorphism)
    assert g.components == ident.components


def test_dumps_is_deterministic():
    m3 = corpus.by_name("m3").module
    payload = docs.document_payload(
        m3.ring, m3.potential,
        {"m3": {"type": "koszul_module", **docs.module_payload(m3)}})
    assert docs.dumps(payload) == docs.dumps(payload)
    assert docs.dumps(payload).endswith("\n")


def test_witness_round_trip_and_determinism(tmp_path):
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    points = {"origin": entry.points[0], "axis": entry.points[1]}
    payload = docs.witness_payload(log, points)
    text = docs.dumps(payload)
    # byte-for-byte stable across independent dumps
    assert text == docs.dumps(docs.witness_payload(log, points))
    path = tmp_path / "w.json"
    docs.write_json(path, payload)
    reparsed, stored = docs.load_witness(path)
    assert stored == points
    assert reparsed.start == log.start
    assert reparsed.end == log.end
    assert len(reparsed) == len(log)
    assert validate_log(reparsed, list(stored.values())) == []
    # re-serializing the reparsed log reproduces the bytes
    assert docs.dumps(docs.witness_payload(reparsed, stored)) == text


def _count_prints(monkeypatch):
    """Record every Poly printed from now on."""
    printed = []
    real = Poly.__str__

    def counting(p):
        printed.append(p)
        return real(p)

    monkeypatch.setattr(Poly, "__str__", counting)
    return printed


def test_witness_payload_prints_each_entry_once(monkeypatch):
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    want = docs.dumps(docs.witness_payload(log))
    printed = _count_prints(monkeypatch)
    assert docs.dumps(docs.witness_payload(log)) == want
    potential = {id(f) for f in log.start.potential}
    entries = [id(p) for p in printed if id(p) not in potential]
    assert entries and len(entries) == len(set(entries))


def test_document_payload_prints_shared_entries_once(monkeypatch):
    m3 = corpus.by_name("m3").module
    ready = {"type": "koszul_module", **docs.module_payload(m3)}
    want = docs.dumps(docs.document_payload(
        m3.ring, m3.potential, {"a": ready, "b": ready}))
    printed = _count_prints(monkeypatch)
    got = docs.dumps(docs.document_payload(m3.ring, m3.potential,
                                           {"a": m3, "b": m3}))
    assert got == want
    mats = [*m3.underlying.diffs.values(),
            *(mat for fam in m3.h for mat in fam.values())]
    distinct = {id(e) for mat in mats for row in mat.nz.values()
                for e in row.values()}
    # "b" repeats "a" and prints nothing new; the potential is printed once
    assert len(printed) == len(distinct) + len(m3.potential)


# ---------------------------------------------------------------------------
# rejections
# ---------------------------------------------------------------------------

def _m3_payload():
    import os
    with open(os.path.join(DATA, "m3.json")) as fh:
        return json.load(fh)


def test_bad_ring_kind():
    raw = _m3_payload()
    raw["ring"] = {"kind": "integers"}
    with pytest.raises(docs.DocumentError, match="ring kind"):
        docs.parse_document(raw)


def test_nonprime_characteristic():
    raw = _m3_payload()
    raw["ring"]["p"] = 6
    with pytest.raises(docs.DocumentError, match="prime"):
        docs.parse_document(raw)


def test_bad_degree_key():
    raw = _m3_payload()
    raw["objects"]["m3"]["ranks"]["middle"] = 1
    with pytest.raises(docs.DocumentError, match="degree"):
        docs.parse_document(raw)


def test_wrong_matrix_shape():
    raw = _m3_payload()
    raw["objects"]["m3"]["d"]["-1"] = [["x"], ["y"]]
    with pytest.raises(docs.DocumentError, match="1x2"):
        docs.parse_document(raw)


def test_bad_polynomial_entry():
    raw = _m3_payload()
    raw["objects"]["m3"]["d"]["-1"] = [["x +", "y"]]
    with pytest.raises(docs.DocumentError):
        docs.parse_document(raw)


def test_unknown_variable_in_entry():
    raw = _m3_payload()
    raw["objects"]["m3"]["d"]["-1"] = [["z", "y"]]
    with pytest.raises(docs.DocumentError):
        docs.parse_document(raw)


def test_point_with_unknown_variable():
    raw = _m3_payload()
    raw["points"]["origin"]["z"] = 0
    with pytest.raises(docs.DocumentError, match="unknown variable"):
        docs.parse_document(raw)


def test_point_with_missing_variable():
    raw = _m3_payload()
    del raw["points"]["origin"]["y"]
    with pytest.raises(docs.DocumentError, match="missing variable"):
        docs.parse_document(raw)


def test_point_with_bad_fraction():
    raw = _m3_payload()
    raw["points"]["origin"]["x"] = "one half"
    with pytest.raises(docs.DocumentError, match="bad scalar"):
        docs.parse_document(raw)


def test_fraction_point_values_parse():
    raw = _m3_payload()
    raw["points"]["origin"]["x"] = "1/2"
    doc = docs.parse_document(raw)
    assert doc.points["origin"]["x"] == Fraction(1, 2)


def test_unknown_object_type():
    raw = _m3_payload()
    raw["objects"]["m3"]["type"] = "widget"
    with pytest.raises(docs.DocumentError, match="unknown type"):
        docs.parse_document(raw)


def test_ring_with_unknown_key_is_refused():
    # a base field given under a key the reader does not know used to be
    # dropped, leaving a ring over Q
    raw = _m3_payload()
    raw["ring"] = {"kind": "polynomial", "vars": ["x", "y"],
                   "base": {"kind": "prime_field", "p": 32003}}
    with pytest.raises(docs.DocumentError,
                       match=r"^ring: unknown key 'base'$"):
        docs.parse_document(raw)


def test_object_and_top_level_unknown_keys_are_refused():
    raw = _m3_payload()
    raw["objects"]["m3"]["hh"] = []
    with pytest.raises(docs.DocumentError,
                       match=r"^objects\.m3: unknown key 'hh'$"):
        docs.parse_document(raw)
    raw = _m3_payload()
    raw["object"] = {}
    with pytest.raises(docs.DocumentError,
                       match=r"^document: unknown key 'object'$"):
        docs.parse_document(raw)


def test_witness_reads_as_a_document_without_objects():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    payload = json.loads(docs.dumps(docs.witness_payload(log)))
    assert docs.parse_document(payload).objects == {}
    payload["objects"] = {}
    with pytest.raises(docs.DocumentError,
                       match=r"^document: unknown key 'objects'$"):
        docs.parse_document(payload)


@pytest.mark.parametrize("path,where", [
    ((), "witness"),
    (("start",), "start"),
    (("end",), "end"),
    (("steps", 1), "steps[1]"),
    (("steps", 1, "generators"), "steps[1].generators"),
    (("steps", 1, "target"), "steps[1].target"),
    (("steps", 2, "source"), "steps[2].source"),
    (("steps", 5), "steps[5]"),
])
def test_witness_unknown_keys_are_refused(path, where):
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    payload = json.loads(docs.dumps(docs.witness_payload(log)))
    assert [s["kind"] for s in payload["steps"]][1:3] == [
        "cone_off_free", "explicit_quasi_iso"]
    obj = payload
    for key in path:
        obj = obj[key]
    obj["morphism"] = {}
    with pytest.raises(docs.DocumentError,
                       match=f"^{re.escape(where)}: unknown key "
                             "'morphism'$"):
        docs.parse_witness(payload)


def test_morphism_with_unknown_source():
    raw = _m3_payload()
    raw["objects"]["g"] = {"type": "koszul_morphism",
                           "source": "nope", "target": "m3",
                           "components": {}}
    with pytest.raises(docs.DocumentError, match="unknown object"):
        docs.parse_document(raw)


def test_morphism_may_precede_its_endpoints():
    # canonical dumps sort object names, so order must not matter
    raw = _m3_payload()
    objects = {"before": {"type": "koszul_morphism", "source": "m3",
                          "target": "m3", "components": {}}}
    objects.update(raw["objects"])
    raw["objects"] = objects
    doc = docs.parse_document(raw)
    assert isinstance(doc.objects["before"], KoszulMorphism)
    assert list(doc.objects) == ["before", "m3"]


def test_morphism_endpoint_of_wrong_type():
    raw = _m3_payload()
    raw["objects"]["g"] = {"type": "koszul_morphism", "source": "m3",
                           "target": "m3", "components": {}}
    raw["objects"]["h"] = {"type": "koszul_morphism", "source": "g",
                           "target": "m3", "components": {}}
    with pytest.raises(docs.DocumentError, match="wrong type"):
        docs.parse_document(raw)


def test_mf_payload_missing_f():
    raw = {"ring": {"kind": "polynomial", "vars": ["x"]},
           "potential": ["x^2"],
           "objects": {"a": {"type": "mf", "r0": 1, "r1": 1,
                             "phi0": [["x"]], "phi1": [["x"]]}}}
    with pytest.raises(docs.DocumentError):
        docs.parse_document(raw)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(docs.DocumentError, match="cannot read"):
        docs.load_document(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(docs.DocumentError, match="not valid JSON"):
        docs.load_document(bad)


def test_witness_schema_checked():
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    payload = json.loads(docs.dumps(docs.witness_payload(log)))
    payload["schema"] = "koszulmf.witness/99"
    with pytest.raises(docs.DocumentError, match="schema"):
        docs.parse_witness(payload)


def test_empty_matrix_payloads_are_fine():
    # a 0xN differential appears as an empty list; it must round-trip
    ring = corpus.by_name("m3").module.ring
    c = FreeComplex(ring, -1, 0, {-1: 2, 0: 0}, {})
    payload = docs.complex_payload(c)
    assert payload["d"]["-1"] == []
    again = docs.parse_complex_payload(ring, payload, "c")
    assert again == c


# ---------------------------------------------------------------------------
# zero entries of the entry parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [
    polynomial_ring(rationals(), ("x", "y")),
    polynomial_ring(prime_field(5), ("x", "y")),
])
@pytest.mark.parametrize("entry", ["0", " 0", "-0", "0*x", "0 ", "00", 0])
def test_zero_entries_parse_like_parse_poly(ring, entry):
    got = docs._parse_entry(ring, entry, "here")
    want = parse_poly(str(entry), ring)
    assert got == want
    assert got.ring is ring and got.is_zero


@pytest.mark.parametrize("entry", ["0x", "0 0", "0*", "", "z", None, 0.0,
                                   False, [0]])
def test_malformed_entries_are_document_errors(entry, tmp_path, capsys):
    raw = _m3_payload()
    raw["objects"]["m3"]["h"][0]["0"] = [["y"], [entry]]
    with pytest.raises(docs.DocumentError):
        docs.parse_document(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().out.startswith("error=parse")


def test_parsed_matrices_store_only_nonzeros():
    m3 = _doc("m3.json").objects["m3"]
    h0 = m3.hop(0, 0)
    assert h0.nz == {0: {0: parse_poly("y", m3.ring)}}
    assert h0.entries == [parse_poly("y", m3.ring), parse_poly("0", m3.ring)]


# ---------------------------------------------------------------------------
# the canonical writer matches json.dumps(indent=2, sort_keys=True)
# ---------------------------------------------------------------------------

def _reference_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_strings = st.text(alphabet=st.characters(blacklist_categories=())) | \
    st.sampled_from(["", "0", '"', "\\", "\\n", "\x00", "\x1f", "\x7f",
                     "\u2028", "\ud800", "\U0001f600", "é", "x*y"])
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10 ** 300, max_value=10 ** 300)
            | _strings)
_trees = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(_strings, children, max_size=6),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_dumps_matches_json_dumps(payload):
    assert docs.dumps(payload) == _reference_dumps(payload)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], [{}], {"a": [], "b": {}}, [[[]], [{}, []]], ["a", 1],
    [1, "a"], ["a", ["b"]], ["a", None, True, False], -(10 ** 40), "é\n",
])
def test_dumps_edge_cases(payload):
    assert docs.dumps(payload) == _reference_dumps(payload)


@pytest.mark.parametrize("name", sorted(os.listdir(DATA)))
def test_dumps_matches_json_dumps_on_shipped_files(name):
    with open(os.path.join(DATA, name)) as fh:
        payload = json.load(fh)
    assert docs.dumps(payload) == _reference_dumps(payload)


@pytest.mark.parametrize("argv", [
    ["fold", "--input", os.path.join(DATA, "m3.json")],
    ["reduce-codim", "--input", os.path.join(DATA, "koszul_uv.json"),
     "--then", "fold", "--points", "origin"],
])
def test_emitted_witness_files_match_json_dumps(argv, tmp_path, capsys):
    path = tmp_path / "w.json"
    assert cli.main(argv + ["--witness", str(path)]) == 0
    text = path.read_text()
    payload = json.loads(text)
    assert payload["steps"]
    assert text == _reference_dumps(payload) == docs.dumps(payload)


@pytest.mark.parametrize("payload", [
    1.5, [0.0], {"a": {"b": 2.0}}, ["a", 1e9],
    {1: "x"}, {None: 1}, {"a": {True: 1}}, (1, 2), [b"x"], {"x": {1, 2}},
])
def test_dumps_rejects_other_types(payload):
    with pytest.raises(TypeError):
        docs.dumps(payload)


# ---------------------------------------------------------------------------
# the per-document entry memo
# ---------------------------------------------------------------------------

def test_memo_keeps_true_apart_from_one(tmp_path, capsys):
    ring = polynomial_ring(rationals(), ("x", "y"))
    one = docs._parse_matrix(ring, [[1, "1"]], 1, 2, "m", {})
    assert one.at(0, 0) == one.at(0, 1) == Poly.one(ring)
    # the int 1 is parsed (and memoized) before JSON true is reached
    raw = _m3_payload()
    raw["objects"]["m3"]["h"][0]["0"] = [[1], [True]]
    with pytest.raises(docs.DocumentError, match="'True'"):
        docs.parse_document(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().out.startswith("error=parse")


def test_memo_int_and_string_entries_agree():
    ring = polynomial_ring(prime_field(5), ("x", "y"))
    memo = {}
    m = docs._parse_matrix(ring, [[5, "5", 7, "7", "x"]], 1, 5, "m", memo)
    assert m.at(0, 0) == m.at(0, 1) == parse_poly("5", ring)
    assert m.at(0, 2) == m.at(0, 3) == parse_poly("2", ring)
    assert set(memo) == {"5", "7", "x"}


def test_memo_reports_a_repeated_bad_entry_at_its_first_location():
    raw = _m3_payload()
    raw["objects"]["m3"]["d"]["-2"] = [["y"], ["z"]]
    raw["objects"]["m3"]["d"]["-1"] = [["z", "y"]]
    with pytest.raises(docs.DocumentError,
                       match=r"^objects\.m3\.d\[-2\]: unknown variable"):
        docs.parse_document(raw)


def test_parsing_a_document_twice_gives_equal_objects():
    raw = _m3_payload()
    first, second = docs.parse_document(raw), docs.parse_document(raw)
    assert first.objects == second.objects
    assert first.potential == second.potential
    assert first.points == second.points
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    payload = json.loads(docs.dumps(docs.witness_payload(log)))
    (log1, _), (log2, _) = docs.parse_witness(payload), \
        docs.parse_witness(payload)
    assert (log1.start, log1.end) == (log2.start, log2.end) == \
        (log.start, log.end)
    assert docs.dumps(docs.witness_payload(log1)) == \
        docs.dumps(docs.witness_payload(log2))


# ---------------------------------------------------------------------------
# input nested too deeply ends in a parse error, not a traceback
# ---------------------------------------------------------------------------

def _fold_m3_witness(path, capsys):
    assert cli.main(["fold", "--input", os.path.join(DATA, "m3.json"),
                     "--witness", str(path)]) == 0
    capsys.readouterr()
    with open(path) as fh:
        return json.load(fh)


def test_deeply_parenthesized_entry_is_a_parse_error(tmp_path, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    raw = _m3_payload()
    raw["objects"]["m3"]["h"][0]["0"] = [["y"], [deep]]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", "--input", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error=parse objects.m3.h[0][0]: parentheses")

    wpath = tmp_path / "w.json"
    payload = _fold_m3_witness(wpath, capsys)
    payload["end"]["d"] = {k: [[deep] * len(row) for row in mat]
                           for k, mat in payload["end"]["d"].items()}
    wpath.write_text(json.dumps(payload))
    assert cli.main(["witness-check", "--witness", str(wpath)]) == 2
    assert capsys.readouterr().out.startswith("error=parse end.d")


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(docs.DocumentError, match="nested too deeply"):
        docs.load_document(path)
    with pytest.raises(docs.DocumentError, match="nested too deeply"):
        docs.load_witness(path)
    for argv in (["validate", "--input", str(path)],
                 ["witness-check", "--witness", str(path)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().out.startswith("error=parse")
