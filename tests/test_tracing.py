"""The benchmark's tracing layer against the package: every function it
wraps exists, its kernel layer sees every product of term dicts, and it
counts one free module per cone_off_free step."""

import importlib
import importlib.util
import os

import corpus
from koszulmf import cli
from koszulmf.documents import witness_payload, write_json
from koszulmf.reduce import (amplitude_reduce, fold_with_witness,
                             validate_log)
from koszulmf.ring import Poly, parse_poly, polynomial_ring, rationals

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")
QX = polynomial_ring(rationals(), ("x",))


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for _, modname, attr in _tracing().TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            # methods are looked up in the class's own dict
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in owner.__dict__, f"{modname}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{modname}.{attr}"


def test_kernel_layer_sees_poly_and_parser_products():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        # (x + 1)^2 is one product, and (x + 1)^2 * (x - 1) another
        p = parse_poly("(x + 1)^2*(x - 1)", QX)
        parsed = tracer.metrics()["kernel.terms_mul.calls"][0]
        q = p * Poly.var(QX, "x")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert parsed == 2
    assert metrics["kernel.terms_mul.calls"][0] == 3
    assert metrics["kernel.term_products"][0] == 2 * 2 + 3 * 2 + 4 * 1
    assert metrics["kernel.terms_add.calls"][0] >= 1
    assert q == parse_poly("x^4 + x^3 - x^2 - x", QX)


def _cone_steps(log, orientation=None):
    return sum(1 for step in log.steps if step.kind == "cone_off_free"
               and orientation in (None, step.orientation))


def _free_koszul_calls(run):
    """(free_koszul calls made while run() runs, its result)."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    return tracer.metrics()["koszul.free_koszul.calls"][0], result


def test_one_free_module_per_cone_step(tmp_path, capsys):
    # the free source of a cone_off_free step is built once, when the step
    # is first read, and nowhere else: not by the builder beside the step,
    # nor again by the replay
    m3 = corpus.by_name("m3")
    calls, (_, log) = _free_koszul_calls(
        lambda: fold_with_witness(m3.module, m3.points))
    assert calls == _cone_steps(log) == 2

    # the builder reads the forward steps, whose cone it goes on from; the
    # backward steps are built when the log is first read, here its replay
    fk_xy = corpus.by_name("fk_xy").module
    calls, (_, log) = _free_koszul_calls(lambda: amplitude_reduce(fk_xy))
    assert calls == _cone_steps(log, "forward") == 2
    calls, report = _free_koszul_calls(lambda: validate_log(log))
    assert report == []
    assert calls == _cone_steps(log, "backward") == 2
    calls, _ = _free_koszul_calls(lambda: validate_log(log))
    assert calls == 0

    wpath = str(tmp_path / "w.json")
    origin = {v: 0 for v in fk_xy.ring.varnames}
    write_json(wpath, witness_payload(log, {"origin": origin}))
    calls, code = _free_koszul_calls(
        lambda: cli.main(["witness-check", "--witness", wpath]))
    assert code == 0 and capsys.readouterr().out.endswith("status=ok\n")
    assert calls == _cone_steps(log) == 4


def test_start_tampered_log_builds_at_most_one_free_module(tmp_path, capsys):
    # a log refused at step 0 builds no free module for the steps after it
    fk_xy = corpus.by_name("fk_xy").module
    _, log = amplitude_reduce(fk_xy)
    payload = witness_payload(log, {"origin": {v: 0 for v in
                                               fk_xy.ring.varnames}})
    d = payload["start"]["d"]
    deg = min(d, key=int)
    d[deg][0][0] = f"{d[deg][0][0]} + 1"
    wpath = str(tmp_path / "w.json")
    write_json(wpath, payload)
    calls, code = _free_koszul_calls(
        lambda: cli.main(["witness-check", "--witness", wpath]))
    out = capsys.readouterr().out
    assert code == 1 and "check=step 0 " in out
    assert _cone_steps(log) == 4 and calls <= 1
