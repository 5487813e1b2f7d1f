"""Fuzzing the input boundary: mutated documents and witness logs.

Every mutant of a `tests/data` document or of an emitted witness log is
run through the subcommands that read it.  A log may also have a step's
orientation flipped or its stored points dropped.  A few runs write to a path
that cannot be written.  Whatever the mutation, a run ends in one of the
documented exit codes (0, 1, 2 or 3), or in argparse's usage exit 2; no
other exception may escape `cli.main`.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus
from koszulmf import cli

# stands for a path under a missing directory, which cannot be written
UNWRITABLE = "<unwritable>"

# the commands run on each document, and on the witness log
COMMANDS = {
    "a1.json": (["validate"], ["unfold"], ["shift"], ["residue-homology"],
                ["residue-homology", "--points", "origin"],
                ["shift", "--output", UNWRITABLE]),
    "koszul_uv.json": (["validate"], ["reduce-codim"], ["eisenbud"],
                       ["reduce-codim", "--then", "fold", "--points",
                        "origin"]),
    "m3.json": (["validate"], ["fold", "--points", "origin,axis"],
                ["reduce-amplitude"],
                ["reduce-amplitude", "--witness", UNWRITABLE]),
}

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# replacement values: every JSON type, ints near the ranks and degrees the
# documents use and past the size budgets, polynomial-like strings
JSON_VALUES = (st.none() | st.booleans() | st.just(1.5)
               | st.integers(-3, 5) | st.sampled_from([1001, 10 ** 20])
               | st.text("xyuv0123^*+-/() ", max_size=8)
               | st.sampled_from([[], {}, [[]], [["x"]], {"0": [["1"]]}]))
# entries that parse in the documents' rings, so that a mutant gets past
# the parser more often
POLYS = st.sampled_from(["0", "1", "-1", "x", "y", "u", "v", "x*y", "-y",
                         "x^2", "1/2", "x^10000000"])
KEYS = st.sampled_from(["extra", "type", "kind", "degrees", "ranks", "d",
                        "h", "points", "0", "-1"])


def _paths(value, path=()):
    """Every path (tuple of keys and indices) into a JSON value."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _value(data, values=JSON_VALUES):
    # a fresh copy: a later mutation must not change the strategy's lists
    return copy.deepcopy(data.draw(values))


def _mutate_once(data, doc):
    """One mutation of `doc` in place, at a path drawn from `data`."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    node = _at(doc, path)
    kinds = ["replace", "drop", "add"]
    if type(node) is int:
        kinds.append("int")
    if isinstance(node, str):
        kinds += ["string", "poly"]
    kind = data.draw(st.sampled_from(kinds))
    if not path and kind in ("replace", "drop"):
        kind = "add"
    parent = _at(doc, path[:-1]) if path else None
    if kind == "replace":
        parent[path[-1]] = _value(data)
    elif kind == "drop":
        del parent[path[-1]]
    elif kind == "add":
        if isinstance(node, dict):
            node[data.draw(KEYS)] = _value(data)
        elif isinstance(node, list):
            node.append(_value(data, JSON_VALUES | st.sampled_from(
                node or [0])))
        else:
            parent[path[-1]] = [node]
    elif kind == "int":
        parent[path[-1]] = node + data.draw(st.integers(-2, 2))
    elif kind == "poly":
        parent[path[-1]] = data.draw(POLYS)
    else:
        i = data.draw(st.integers(0, len(node)))
        c = data.draw(st.text("xyuv01^*+-/() ", min_size=0, max_size=2))
        parent[path[-1]] = node[:i] + c + node[i + 1:]


def _mutant(data, doc, least=1):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(least, 3))):
        _mutate_once(data, doc)
    return doc


def _reorient_or_drop_points(data, log):
    """In place: flip one step's orientation to the other valid value, drop
    the stored points, both, or neither.  Either leaves a log that parses,
    so the replay, not the parser, has to refuse it."""
    if data.draw(st.booleans()):
        step = data.draw(st.sampled_from(log["steps"]))
        step["orientation"] = {"forward": "backward",
                               "backward": "forward"}[step["orientation"]]
    if data.draw(st.booleans()):
        del log["points"]


def _run(argv):
    """The exit code of one CLI run; nothing but SystemExit(2) may escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as e:
            assert e.code == 2, (argv, e.code)
            return 2


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    wpath = d / "w.json"
    assert _run(["fold", "--input", os.path.join(corpus.DATA, "m3.json"),
                 "--points", "origin,axis", "--witness", str(wpath)]) == 0
    return d


@SETTINGS
@given(data=st.data())
def test_mutated_documents_end_in_a_documented_exit(workdir, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    with open(os.path.join(corpus.DATA, name)) as fh:
        doc = _mutant(data, json.load(fh))
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    unwritable = str(workdir / "missing" / "out.json")
    for cmd in COMMANDS[name]:
        argv = [cmd[0], "--input", str(path),
                *(unwritable if a == UNWRITABLE else a for a in cmd[1:])]
        assert _run(argv) in (0, 1, 2, 3), argv


@SETTINGS
@given(data=st.data())
def test_mutated_witness_logs_end_in_a_documented_exit(workdir, data):
    log = json.loads((workdir / "w.json").read_text())
    _reorient_or_drop_points(data, log)
    log = _mutant(data, log, least=0)
    path = workdir / "mutant.json"
    path.write_text(json.dumps(log))
    m3 = os.path.join(corpus.DATA, "m3.json")
    for argv in (["witness-check", "--witness", str(path)],
                 ["witness-check", "--witness", str(path), "--input", m3,
                  "--points", "axis"]):
        assert _run(argv) in (0, 1, 2, 3), argv
