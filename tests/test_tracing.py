"""The benchmark's tracing layer against the package: every function it
wraps exists, and its kernel layer sees every product of term dicts."""

import importlib
import importlib.util
import os

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
