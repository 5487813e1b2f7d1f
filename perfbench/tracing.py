"""Span tracing from outside the program: wrap public functions of each
layer, record one span per call, and derive per-layer metrics.

A span is (name, start, end, parent span, op id), kept in flat arrays in
memory and written out when the run ends.  A function's self time is its
spans' time minus the part their child spans cover.  Nothing here is
installed unless the traced run asks for it, and `uninstall` puts every
original attribute back.
"""

import array
import importlib
import json
import os
import sys
import time

# (layer, module, attribute) of every wrapped function; a dotted attribute
# is a method.  Module-level functions are also replaced wherever another
# koszulmf module imported them by name.  The kernel's term functions are
# wrapped only where `ring` imports them, which is where Poly calls them.
TARGETS = (
    ("cli", "koszulmf.cli", "main"),
    ("documents", "koszulmf.documents", "load_document"),
    ("documents", "koszulmf.documents", "load_witness"),
    ("documents", "koszulmf.documents", "write_json"),
    ("reduce", "koszulmf.reduce", "amplitude_reduce"),
    ("reduce", "koszulmf.reduce", "fold_with_witness"),
    ("reduce", "koszulmf.reduce", "codim_reduce_chart"),
    ("reduce", "koszulmf.reduce", "validate_log"),
    ("reduce", "koszulmf.reduce", "apply_step"),
    ("koszul", "koszulmf.koszul", "free_koszul"),
    ("koszul", "koszulmf.koszul", "counit_map"),
    ("koszul", "koszulmf.koszul", "cone_koszul"),
    ("koszul", "koszulmf.koszul", "validate_koszul"),
    ("koszul", "koszulmf.koszul", "validate_koszul_morphism"),
    ("koszul", "koszulmf.koszul", "cone_acyclic_at"),
    ("mf", "koszulmf.mf", "orlov_fold"),
    ("mf", "koszulmf.mf", "mf_tensor"),
    ("mf", "koszulmf.mf", "validate_mf"),
    ("mf", "koszulmf.mf", "residue_homology"),
    ("complexes", "koszulmf.complexes", "PolyMatrix.__init__"),
    ("complexes", "koszulmf.complexes", "PolyMatrix.__mul__"),
    ("complexes", "koszulmf.complexes", "PolyMatrix.__eq__"),
    ("complexes", "koszulmf.complexes", "PolyMatrix.block"),
    ("complexes", "koszulmf.complexes", "PolyMatrix.evaluate"),
    ("complexes", "koszulmf.complexes", "homology_dims_at"),
    ("linalg", "koszulmf.linalg", "rank"),
    ("ring", "koszulmf.ring", "parse_poly"),
    ("ring", "koszulmf.ring", "evaluate"),
    ("kernel", "koszulmf.ring", "terms_mul"),
    ("kernel", "koszulmf.ring", "terms_add"),
)

STEP_KINDS = ("cone_off_free", "explicit_quasi_iso", "shift_by_two")

COUNTERS = ("documents.bytes_read", "documents.bytes_written",
            "reduce.steps_emitted", "complexes.matrices",
            "complexes.entries", "complexes.nnz", "linalg.cells",
            "kernel.term_products")


def span_names():
    """Every span name, in report order (apply_step split by step kind)."""
    out = []
    for layer, _, attr in TARGETS:
        if attr == "apply_step":
            out += [f"{layer}.apply_step.{k}" for k in STEP_KINDS]
        else:
            out.append(f"{layer}.{attr}")
    return out


def metric_names():
    """Every per-layer metric the traced run reports."""
    names = [f"{s}.{part}" for s in span_names()
             for part in ("calls", "total_s", "self_s")]
    names += [f"{layer}.self_s" for layer in dict.fromkeys(
        t[0] for t in TARGETS)]
    names += list(COUNTERS) + ["complexes.nnz_ratio"]
    return names


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        self._stack = [-1]
        self._saved = []

    # --- recording -----------------------------------------------------------

    def _span(self, fn, name_of, after=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(name_of(args))
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _bump(self, key, amount):
        self.counters[key] += amount

    def _after_hooks(self):
        bump = self._bump

        def read_file(args, _):
            bump("documents.bytes_read", os.path.getsize(args[0]))

        def log_steps(_, result):
            bump("reduce.steps_emitted", len(result[1].steps))

        def matrix(args, _):
            mat = args[0]
            bump("complexes.matrices", 1)
            bump("complexes.entries", len(mat.entries))
            bump("complexes.nnz", sum(1 for e in mat.entries if e.terms))

        def cells(args, _):
            rows = args[0]
            bump("linalg.cells", len(rows) * (len(rows[0]) if rows else 0))

        def products(args, _):
            bump("kernel.term_products", len(args[0]) * len(args[1]))

        return {
            "load_document": read_file,
            "load_witness": read_file,
            "write_json": lambda args, _: bump(
                "documents.bytes_written", os.path.getsize(args[0])),
            "amplitude_reduce": log_steps,
            "fold_with_witness": log_steps,
            "PolyMatrix.__init__": matrix,
            "rank": cells,
            "terms_mul": products,
        }

    # --- installing ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._after_hooks()
        packages = [m for n, m in sorted(sys.modules.items())
                    if n == "koszulmf" or n.startswith("koszulmf.")]
        for layer, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            if attr == "apply_step":
                ids = {k: self._ids[f"{layer}.apply_step.{k}"]
                       for k in STEP_KINDS}
                name_of = lambda args, ids=ids: ids[args[0].kind]
            else:
                nid = self._ids[f"{layer}.{attr}"]
                name_of = lambda args, nid=nid: nid
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._span(orig.__func__, name_of,
                                                     hooks.get(attr)))
                else:
                    wrapped = self._span(orig, name_of, hooks.get(attr))
                self._set(cls, meth, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self._span(orig, name_of, hooks.get(attr))
            owners = [mod] if layer == "kernel" else [
                m for m in packages if m.__dict__.get(attr) is orig]
            for owner in owners:
                self._set(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # --- results ---------------------------------------------------------------

    def metrics(self):
        """calls / total_s / self_s per span name, self_s per layer, and the
        counters."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        k = len(self.names)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            j = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[j] += 1
            total[j] += dur
            own[j] += dur - child[i]
        out = {}
        layers = {}
        for j, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[j], "count")
            out[f"{name}.total_s"] = (total[j], "s")
            out[f"{name}.self_s"] = (own[j], "s")
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own[j]
        for layer, value in layers.items():
            out[f"{layer}.self_s"] = (value, "s")
        for key, value in self.counters.items():
            out[key] = (value, "bytes" if "bytes" in key else "count")
        entries = self.counters["complexes.entries"]
        out["complexes.nnz_ratio"] = (
            self.counters["complexes.nnz"] / entries if entries else 0.0,
            "ratio")
        return out

    def write(self, path):
        """The spans as raw arrays (`path`.bin) plus a JSON index."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.op, self.start,
                        self.end):
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.name),
                       "arrays": [["name", "i"], ["parent", "i"],
                                  ["op", "i"], ["start", "d"], ["end", "d"]],
                       "clock": "time.perf_counter"}, fh, indent=1)
            fh.write("\n")
