"""Smoke tests of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import random
import sys

import pytest

import run

run.import_program()

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from koszulmf import cli, documents  # noqa: E402

TINY = {"emit": 6, "check": 3, "mf_dense": 4}


def _run_pool(ops, tracer=None):
    loop = run.Loop(cli, ops, golden=None)
    loop.run(0, len(ops), tracer)
    return loop


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_has_no_failed_ops(workload, tmp_path):
    ops = workloads.setup(workload, 7, str(tmp_path), TINY[workload])
    loop = _run_pool(ops)
    assert len(loop.latencies) == len(ops)
    assert loop.failures == []


def test_checks_reject_wrong_output(tmp_path):
    ops = workloads.setup("mf_dense", 7, str(tmp_path), 2)
    for op in ops:
        _, rc, stdout = run.run_op(cli, op)
        assert op.check(rc, stdout) is None
        wrong = stdout.replace("even=", "even=9").replace("r0=", "r0=9")
        assert op.check(rc, wrong) is not None
        assert op.check(3, stdout) is not None


def test_tamper_kinds_change_the_payload():
    rng = random.Random(3)
    m = next(gen.build_module(rng, shape)
             for shape in gen.module_shapes("check", gen.CHECK_SLOTS)
             if shape["n"] == 1 and len(shape["ranks"]) >= 2)
    payload = gen._emit_log(m)
    log, _ = documents.parse_witness(payload)
    for kind in gen.TAMPER_KINDS:
        tampered = gen.tamper(payload, kind, random.Random(kind))
        if kind == "valid":
            assert tampered == payload
            continue
        assert tampered != payload
        assert {k for k in payload if tampered[k] != payload[k]} == {kind}
        changed, _ = documents.parse_witness(tampered)
        assert getattr(changed, kind) != getattr(log, kind)


def _attributes():
    """Every attribute the tracer may replace, by identity."""
    snap = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "koszulmf" or name.startswith("koszulmf."):
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    from koszulmf.complexes import PolyMatrix
    snap.update({("PolyMatrix", k): id(v)
                 for k, v in vars(PolyMatrix).items()})
    return snap


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    ops = workloads.setup("emit", 7, str(tmp_path), 3)
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _attributes() != before
        _run_pool(ops, tracer)
    finally:
        tracer.uninstall()
    assert _attributes() == before
    metrics = tracer.metrics()
    assert list(metrics) == tracing.metric_names()
    assert metrics["cli.main.calls"][0] == len(ops)
    assert metrics["documents.write_json.calls"][0] == len(ops)
    assert 0 < metrics["complexes.nnz_ratio"][0] < 1
    tracer.write(str(tmp_path / "spans"))
    index = json.loads((tmp_path / "spans.json").read_text())
    assert index["count"] == len(tracer.name) > 0


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == (
        tracing.metric_names() + list(run.TRACE_METRICS))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
