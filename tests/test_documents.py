"""Document and witness file formats: loading, round trips, rejections."""

import json
import os
import random
import re
import stat
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import genmod
from koszulmf import cli
from koszulmf import documents as docs
from koszulmf.complexes import FreeComplex, PolyMatrix
from koszulmf.koszul import KoszulModule, KoszulMorphism, validate_koszul
from koszulmf.mf import MFObject
from koszulmf.reduce import (amplitude_reduce, fold_with_witness,
                             validate_log)
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
                   "components": {str(u): ident.component(u)
                                  for u in range(ident.lo, ident.hi + 1)}}})
    doc = docs.parse_document(json.loads(docs.dumps(payload)))
    g = doc.objects["ident"]
    assert isinstance(g, KoszulMorphism)
    assert g.components == ident.components


@pytest.mark.parametrize("ring, wire", [
    (rationals(), {"kind": "rationals"}),
    (prime_field(5), {"kind": "prime_field", "p": 5}),
    (polynomial_ring(rationals(), ("x",)),
     {"kind": "polynomial", "vars": ["x"]}),
    (polynomial_ring(prime_field(5), ("x",)),
     {"kind": "polynomial", "vars": ["x"], "p": 5}),
], ids=["Q", "F5", "Qx", "F5x"])
def test_document_round_trip_over_each_ring_kind(ring, wire):
    six = Poly.const(ring, 6)
    mf = MFObject(ring, six, 1, 1,
                  PolyMatrix(ring, 1, 1, [Poly.const(ring, 2)]),
                  PolyMatrix(ring, 1, 1, [Poly.const(ring, 3)]))
    point = dict.fromkeys(ring.varnames, 0)
    payload = docs.document_payload(ring, (six,), {"a": mf}, {"here": point})
    assert payload["ring"] == wire
    doc = docs.parse_document(json.loads(docs.dumps(payload)))
    assert doc.ring is ring
    assert doc.potential == (six,)
    assert doc.objects["a"] == mf
    assert doc.points == {"here": point}


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


def _written(path, payload):
    """The text that `write_files` puts in the file for `payload`."""
    docs.write_files([(path, payload)])
    return path.read_text()


def test_witness_payload_prints_each_entry_once(monkeypatch, tmp_path):
    entry = corpus.by_name("m3")
    _, log = fold_with_witness(entry.module, entry.points)
    want = docs.dumps(docs.witness_payload(log))
    printed = _count_prints(monkeypatch)
    path = tmp_path / "w.json"
    potential = {id(f) for f in log.start.potential}
    # a plain payload and a written file, each printed anew
    for text in (lambda: docs.dumps(docs.witness_payload(log)),
                 lambda: _written(path, docs.witness(log))):
        printed.clear()
        assert text() == want
        entries = [id(p) for p in printed if id(p) not in potential]
        assert entries and len(entries) == len(set(entries))


def test_document_payload_prints_shared_entries_once(monkeypatch, tmp_path):
    m3 = corpus.by_name("m3").module
    ready = {"type": "koszul_module", **docs.module_payload(m3)}
    want = docs.dumps(docs.document_payload(
        m3.ring, m3.potential, {"a": ready, "b": ready}))
    printed = _count_prints(monkeypatch)
    path = tmp_path / "d.json"
    objects = {"a": m3, "b": m3}
    mats = [*m3.underlying.diffs.values(),
            *(mat for fam in m3.h for mat in fam.values())]
    distinct = {id(e) for mat in mats for row in mat.nz.values()
                for e in row.values()}
    for text in (lambda: docs.dumps(docs.document_payload(
                     m3.ring, m3.potential, objects)),
                 lambda: _written(path, docs.document(m3.ring, m3.potential,
                                                      objects))):
        printed.clear()
        assert text() == want
        # "b" repeats "a" and prints nothing new; the potential is printed
        # once
        assert len(printed) == len(distinct) + len(m3.potential)


def _only_plain_json(value):
    """True when `value` holds nothing but dicts with string keys, lists,
    strings and ints."""
    if isinstance(value, dict):
        return all(type(k) is str and _only_plain_json(v)
                   for k, v in value.items())
    if isinstance(value, list):
        return all(map(_only_plain_json, value))
    return type(value) in (str, int)


def _witness_logs():
    """(name, log, points): a log of every corpus module, and of a few
    seeded random modules per emitting command."""
    for entry in corpus.CORPUS:
        m = entry.module
        log = (fold_with_witness(m, entry.points)[1] if m.n == 1
               else amplitude_reduce(m)[1])
        yield entry.name, log, {f"p{i}": pt
                                for i, pt in enumerate(entry.points)}
    for seed in range(3):
        m = genmod.random_fold_input(random.Random(seed))
        yield f"fold-{seed}", fold_with_witness(m)[1], None
        m = genmod.random_module(random.Random(seed), n=2)
        yield f"reduce-{seed}", amplitude_reduce(m)[1], None


def _documents():
    """(name, document payload): each corpus module with its points, and
    the factorization each one-potential module folds to."""
    for entry in corpus.CORPUS:
        m = entry.module
        points = {f"p{i}": pt for i, pt in enumerate(entry.points)}
        yield entry.name, docs.document(m.ring, m.potential, {"m": m}, points)
        if m.n == 1:
            mf = fold_with_witness(m, entry.points)[0]
            yield f"{entry.name}-folded", docs.document(
                m.ring, m.potential, {"mf": mf}, points)


def test_payload_functions_return_plain_json():
    payloads = [(name, docs.witness(log, points))
                for name, log, points in _witness_logs()]
    payloads += list(_documents())
    for name, payload in payloads:
        flat = docs.plain(payload)
        assert _only_plain_json(flat), name
        assert flat == json.loads(docs.dumps(payload)), name
    entry = corpus.by_name("m3")
    m3 = entry.module
    log = fold_with_witness(m3, entry.points)[1]
    assert docs.witness_payload(log) == docs.plain(docs.witness(log))
    assert docs.document_payload(m3.ring, m3.potential, {"m3": m3}) == \
        docs.plain(docs.document(m3.ring, m3.potential, {"m3": m3}))
    # the builders hold the matrices themselves
    payload = docs.module_payload(m3)
    assert payload["d"]["-1"] is m3.diff(-1)
    assert all(type(mat) is PolyMatrix
               for fam in [payload["d"], *payload["h"]]
               for mat in fam.values())


def test_written_witness_matches_the_plain_payload(tmp_path):
    kinds = set()
    path = tmp_path / "w.json"
    for name, log, points in _witness_logs():
        assert _written(path, docs.witness(log, points)) == \
            docs.dumps(docs.witness_payload(log, points)), name
        kinds.update(s.kind for s in log.steps)
    assert kinds == {"cone_off_free", "explicit_quasi_iso", "shift_by_two"}


def test_write_files_writes_every_file_or_none(tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    new = tmp_path / "new.json"
    missing = tmp_path / "missing" / "x.json"
    # a later payload that cannot be rendered, a later path that cannot be
    # written, and a later path that is a directory
    with pytest.raises(TypeError):
        docs.write_files([(new, {"a": 1}), (kept, {"b": 1.5})])
    with pytest.raises(ValueError) as err:
        docs.write_files([(kept, {"a": 1}), (new, []), (missing, {})])
    assert str(err.value) == \
        f"cannot write {missing}: No such file or directory"
    with pytest.raises(ValueError) as err:
        docs.write_files([(new, {"a": 1}), (tmp_path, {})])
    assert str(err.value) == f"cannot write {tmp_path}: Is a directory"
    assert os.listdir(tmp_path) == ["kept.json"]
    assert kept.read_text() == "kept\n"
    # every file written; a path given twice gets the last payload
    docs.write_files([(new, {"a": 1}), (kept, [2]), (new, [3])])
    assert sorted(os.listdir(tmp_path)) == ["kept.json", "new.json"]
    assert kept.read_text() == docs.dumps([2])
    assert new.read_text() == docs.dumps([3])
    docs.write_files([])
    assert sorted(os.listdir(tmp_path)) == ["kept.json", "new.json"]


def _reading(fifo):
    """A started thread that reads `fifo` once a writer opens it, and the
    list that gets the text it read."""
    got = []
    reader = threading.Thread(target=lambda: got.append(open(fifo).read()),
                              daemon=True)
    reader.start()
    return reader, got


def test_write_files_writes_in_place_what_it_must_not_replace(
        tmp_path, monkeypatch):
    new = tmp_path / "new.json"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    to_fifo = tmp_path / "to_fifo"
    to_fifo.symlink_to(fifo)
    # a FIFO, and a symlink to it, keep their kind and get the text
    for target in (fifo, to_fifo):
        reader, got = _reading(fifo)
        docs.write_files([(new, {"a": 1}), (target, [1])])
        reader.join(10)
        assert got == [docs.dumps([1])]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert to_fifo.is_symlink()
    assert new.read_text() == docs.dumps({"a": 1})
    # a symlink to a regular file, and a file with two links, are written
    # through, so the link and the linked file stay
    linked = tmp_path / "linked.json"
    linked.write_text("x\n")
    to_linked = tmp_path / "to_linked.json"
    to_linked.symlink_to(linked)
    twin = tmp_path / "twin.json"
    os.link(linked, twin)
    inode = os.stat(linked).st_ino
    docs.write_files([(to_linked, [2])])
    assert to_linked.is_symlink() and twin.read_text() == docs.dumps([2])
    docs.write_files([(twin, [3])])
    assert linked.read_text() == docs.dumps([3])
    assert os.stat(linked).st_ino == os.stat(twin).st_ino == inode
    # a file in a read-only directory, or one this process may not write,
    # is written in place (as root, both are pretended through os.access)
    inode = os.stat(new).st_ino
    access = os.access
    for denied in (str(tmp_path), str(new)):
        monkeypatch.setattr(os, "access", lambda path, mode:
                            str(path) != denied and access(path, mode))
        docs.write_files([(new, [4])])
        assert new.read_text() == docs.dumps([4])
        assert os.stat(new).st_ino == inode
    monkeypatch.undo()
    # an in-place path that cannot be written leaves every path as it was
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "missing" / "x.json")
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(ValueError) as err:
        docs.write_files([(new, [5]), (dangling, [5])])
    assert str(err.value) == \
        f"cannot write {dangling}: No such file or directory"
    assert sorted(os.listdir(tmp_path)) == before
    assert new.read_text() == docs.dumps([4])


def test_document_payload_refuses_objects_past_the_budget():
    # a document is not written with an object it would not read back
    ring = polynomial_ring(rationals(), ("x",))
    f = parse_poly("x", ring)
    limit = docs.MAX_TOTAL_RANK
    module = FreeComplex(ring, 0, 0, {0: limit + 1}, {})
    mf = MFObject(ring, f, limit, 1, PolyMatrix.zero(ring, 1, limit),
                  PolyMatrix.zero(ring, limit, 1))
    for obj in (KoszulModule(ring, (f,), module, [{}]), mf):
        with pytest.raises(ValueError, match=f"^objects.big: total rank "
                                             f"{limit + 1} is past {limit}$"):
            docs.document_payload(ring, (f,), {"big": obj})


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


@pytest.mark.parametrize("payload", [
    "x", {"0": ["x", "y"]}, None,      # not a list
    [["x"]],                           # a short row
    [["x", "y", "0"]],                 # a long row
    ["xy"], [{"x": 1, "y": 2}],        # rows that are not lists
    [5],                               # an int row
    [], [["x", "y"], ["x", "y"]],      # the wrong row count
], ids=["str", "dict", "null", "short-row", "long-row", "str-row",
        "dict-row", "int-row", "no-rows", "two-rows"])
def test_each_malformed_matrix_shape_is_named(payload, tmp_path, capsys):
    raw = _m3_payload()
    raw["objects"]["m3"]["d"]["-1"] = payload
    msg = "objects.m3.d[-1]: expected a 1x2 matrix"
    with pytest.raises(docs.DocumentError) as err:
        docs.parse_document(raw)
    assert str(err.value) == msg
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().out == f"error=parse {msg}\n"


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


def test_point_value_whose_denominator_vanishes_mod_p():
    raw = _m3_payload()
    raw["ring"]["p"] = 5
    raw["points"]["origin"]["x"] = "1/5"
    with pytest.raises(docs.DocumentError, match=r"^points\.origin\.x: "
                       r"denominator vanishes mod p$"):
        docs.parse_document(raw)


# int() reads each of these as a degree that str() spells otherwise, so
# two of them could name one degree and one matrix replace the other
@pytest.mark.parametrize("key", [" -2", "-2 ", "+1", "-0", "01", "0_0",
                                 "\u0660", "1" * 5000])
@pytest.mark.parametrize("field", ["ranks", "d"])
def test_degree_keys_spelled_otherwise_are_refused(key, field):
    raw = _m3_payload()
    raw["objects"]["m3"][field][key] = 0 if field == "ranks" else []
    where = "objects.m3" + (".d" if field == "d" else "")
    with pytest.raises(docs.DocumentError) as exc:
        docs.parse_document(raw)
    assert str(exc.value) == f"{where}: bad degree key {key!r}"


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
    payload = docs.plain(docs.complex_payload(c))
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


_LEAF_RINGS = (polynomial_ring(rationals(), ("x", "y")),
               polynomial_ring(prime_field(5), ("x", "y")))
# negative integers and fractions whose denominators are units mod 5
_COEFFS = st.integers(-7, 7) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def _leaf_polys(draw, ring):
    x, y = (Poly.var(ring, v) for v in ring.varnames)
    terms = draw(st.lists(st.tuples(_COEFFS, st.integers(0, 2),
                                    st.integers(0, 2)), min_size=1,
                          max_size=3))
    return sum((Poly.const(ring, c) * x ** a * y ** b for c, a, b in terms),
               Poly.zero(ring))


@st.composite
def _leaf_matrices(draw, ring):
    """A matrix of shape up to 4x4 (0x0, 0xn and nx0 included): all zero,
    one entry, one full row, or entries at random spots."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = [[Poly.zero(ring)] * cols for _ in range(rows)]
    if rows and cols:
        shape = draw(st.sampled_from(["zero", "single", "row", "sparse"]))
        i = draw(st.integers(0, rows - 1))
        spots = {"zero": [], "single": [(i, draw(st.integers(0, cols - 1)))],
                 "row": [(i, j) for j in range(cols)],
                 "sparse": [(r, c) for r in range(rows) for c in range(cols)
                            if draw(st.booleans())]}[shape]
        for r, c in spots:
            cells[r][c] = draw(_leaf_polys(ring))
    return PolyMatrix(ring, rows, cols, [e for row in cells for e in row])


def _plain(value):
    """`value` with each matrix leaf replaced by its rows of entries."""
    if isinstance(value, PolyMatrix):
        return [[str(e) for e in value.row(i)] for i in range(value.rows)]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_dumps_writes_matrix_leaves_as_their_rows(data):
    ring = data.draw(st.sampled_from(_LEAF_RINGS))
    mats = data.draw(st.lists(_leaf_matrices(ring), min_size=1, max_size=4))
    # leaves at several depths: a factorization's phi at the top, a
    # module's d inside a step, contraction families in a list, and one
    # matrix written twice at different indents
    payload = {
        "phi0": mats[0],
        "steps": [{"kind": "cone_off_free", "target": {
            "d": {str(k): m for k, m in enumerate(mats)},
            "h": [{"0": mats[-1]}, {}]}}],
        "r0": 1,
    }
    want = _reference_dumps(_plain(payload))
    assert docs.dumps(payload) == want
    assert docs.dumps(mats[0]) == _reference_dumps(_plain(mats[0]))
    assert docs.dumps([mats[-1], [mats[0]]]) == \
        _reference_dumps(_plain([mats[-1], [mats[0]]]))


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
    one = docs._parse_matrix(ring, [[1, "1"]], 1, 2, "m", ({}, {}))
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
    memo = {}, {}
    m = docs._parse_matrix(ring, [[5, "5", 7, "7", "x"]], 1, 5, "m", memo)
    assert m.at(0, 0) == m.at(0, 1) == parse_poly("5", ring)
    assert m.at(0, 2) == m.at(0, 3) == parse_poly("2", ring)
    assert set(memo[0]) == {"5", "7", "x"}


def test_memo_reports_a_repeated_bad_entry_at_its_first_location():
    raw = _m3_payload()
    raw["objects"]["m3"]["d"]["-2"] = [["y"], ["z"]]
    raw["objects"]["m3"]["d"]["-1"] = [["z", "y"]]
    with pytest.raises(docs.DocumentError,
                       match=r"^objects\.m3\.d\[-2\]: unknown variable"):
        docs.parse_document(raw)


def test_memo_reports_a_bad_entry_of_a_later_matrix_at_its_first_location(
        tmp_path, capsys):
    # "z" is first met in h[0] at degree 0, read after d; its repeats in
    # h[0] at -1 and in a later object are memo misses that fail again
    raw = _m3_payload()
    raw["objects"]["m3"]["h"][0]["0"] = [["y"], ["z"]]
    raw["objects"]["m3"]["h"][0]["-1"] = [["z", "-y"]]
    raw["objects"]["zz"] = dict(raw["objects"]["m3"])
    msg = "objects.m3.h[0][0]: unknown variable 'z'"
    with pytest.raises(docs.DocumentError) as err:
        docs.parse_document(raw)
    assert str(err.value).startswith(msg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().out.startswith(f"error=parse {msg}")


@pytest.mark.parametrize("zero", ["0*x", "-0", "x - x", 0])
def test_memo_hits_of_a_zero_entry_are_not_stored(zero):
    ring = polynomial_ring(rationals(), ("x", "y"))
    memo = {}, {}
    x = parse_poly("x", ring)
    first = docs._parse_matrix(ring, [[zero, "x"], [zero, zero]], 2, 2, "m",
                               memo)
    later = docs._parse_matrix(ring, [[zero], [zero]], 2, 1, "n", memo)
    assert first.nz == {0: {1: x}}
    assert later.nz == {}


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


def test_each_read_has_its_own_monomial_memo():
    # one process, two rings that order the same names differently
    for names, exps in ((["x", "y"], (1, 2)), (["y", "x"], (2, 1))):
        doc = docs.parse_document({
            "ring": {"kind": "polynomial", "vars": names},
            "potential": ["x*y^2"],
            "objects": {"a": {"type": "mf", "f": "x*y^2", "r0": 1, "r1": 1,
                              "phi0": [["x*y^2 - y"]], "phi1": [["1"]]}}})
        assert doc.potential[0].terms == {exps: 1}
        assert doc.objects["a"].phi0.at(0, 0).terms == {
            exps: 1, tuple(int(v == "y") for v in names): -1}
