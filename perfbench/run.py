#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the koszulmf CLI.

    python3 perfbench/run.py --workload emit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, in turn
    python3 perfbench/run.py --record-golden     # after an intended change
                                                 # of output bytes

Run from the root of a source tree (`src/koszulmf` must exist there; the
package is imported from it, never from an installed copy).  Each workload
is a closed loop: one client, one process, one thread, no think time.  An
op is one in-process `koszulmf.cli.main(argv)` call on documents generated
at set-up into `.bench_work/`, with stdout captured and checked.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json): set-up time,
throughput and latency percentiles as measured, and scaled by a reference
loop timed around every set-up and op (setup_s and the ref_* figures, which
the result line carries).  --trace 1
runs untraced for half the time, then runs the same ops again with every
layer wrapped (perfbench/tracing.py); it reports the per-layer metrics of
the traced pass, the tracing overhead (traced over untraced scaled busy time
on the same ops) and writes the spans under `.bench_work/traces/`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it repeat the metrics with units and sample
counts, plus a stamp (backend, Python, nproc, seed, commit).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import fractions  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
SETUP_REPEATS = 3       # set-up runs per process; setup_s uses their median
MIN_SAMPLES = 110       # keeps at least ten latency samples beyond p90

END_TO_END = ("setup_s", "ref_throughput_ops_s", "ref_latency_p50_ms",
              "ref_latency_p90_ms", "ok_ops_ratio", "peak_rss_mb")
REF_S = 1e-3            # ref_* figures: a machine on which reference_loop
                        # takes exactly this long
TRACE_METRICS = ("trace.untraced_throughput_ops_s", "trace.throughput_ops_s",
                 "trace.overhead_ratio")


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work of the kind the
    program does (dicts keyed by tuples, exact fractions, a sort), with the
    collector paused so that the program's garbage is not counted in it.

    A shared virtual machine runs the same work up to twice as slow for
    tens of seconds at a time, and the program and this loop slow down
    together; each op's latency, and each set-up, is therefore also
    reported scaled by the loop's time around it (the ref_* metrics and
    setup_s)."""
    gc.disable()
    t0 = time.perf_counter()
    table, acc = {}, fractions.Fraction(0)
    for i in range(1000):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * 7919 % 104729
        if i % 10 == 0:
            acc += fractions.Fraction(i, 7)
    sorted(table.items())
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def to_ref(seconds, ref_before, ref_after):
    """`seconds` measured between two reference loops, quoted at REF_S."""
    return seconds * 2 * REF_S / (ref_before + ref_after)


class SourceTreeMissing(RuntimeError):
    pass


def import_program():
    """Import koszulmf from ROOT/src; refuse to use any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "koszulmf", "__init__.py")):
        raise SourceTreeMissing(f"no koszulmf source tree under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import koszulmf.cli
    if not os.path.abspath(koszulmf.__file__).startswith(src + os.sep):
        raise SourceTreeMissing(f"koszulmf came from {koszulmf.__file__}")
    return koszulmf


def stamp(koszulmf, seed):
    commit = "unknown"      # a source tree without .git, as benchmarked
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"backend": koszulmf.BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "commit": commit}


def run_op(cli, op):
    """(seconds, exit code, stdout) of one in-process CLI call; an exception
    counts as exit code None."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
    except Exception as e:  # an op that raises is a failed op, not a crash
        rc = None
        buf.write(f"\nraised {type(e).__name__}: {e}\n")
    return time.perf_counter() - t0, rc, buf.getvalue()


def digest(op, stdout):
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    if op.witness:
        with open(op.witness, "rb") as fh:
            out["witness"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def verify(op, index, rc, stdout, golden):
    """None when the op's output is right, else what is wrong."""
    try:
        problem = op.check(rc, stdout)
        if problem is None and golden is not None:
            want = golden[index % len(golden)]
            if digest(op, stdout) != want:
                problem = "output bytes differ from the recorded digest"
    except Exception as e:  # a malformed report is a failed op
        problem = f"check raised {type(e).__name__}: {e}"
    return problem


class Loop:
    """Closed loop over the workload's ops, cycling through the pool."""

    def __init__(self, cli, ops, golden):
        self.cli, self.ops, self.golden = cli, ops, golden
        self.next = 0
        self.latencies = []
        self.ref_latencies = []     # scaled to REF_S per reference loop
        self.failures = []

    def run(self, seconds, min_ops=0, tracer=None):
        """Run whole passes over the pool, as many as come closest to
        `seconds` of wall time, but at least one and at least `min_ops`
        ops; returns (ops, busy seconds).  Whole passes keep the mix of
        every run the same."""
        done, busy = 0, 0.0
        t_start = time.perf_counter()
        ref_before = reference_loop()
        while True:
            for _ in self.ops:
                i = self.next
                op = self.ops[i % len(self.ops)]
                if tracer is not None:
                    tracer.op_id = i
                dt, rc, stdout = run_op(self.cli, op)
                ref_after = reference_loop()
                problem = verify(op, i, rc, stdout, self.golden)
                if problem:
                    self.failures.append(f"op {i} ({op.argv[0]}): {problem}")
                self.latencies.append(dt)
                self.ref_latencies.append(to_ref(dt, ref_before, ref_after))
                ref_before = ref_after
                self.next += 1
                done += 1
                busy += dt
            elapsed = time.perf_counter() - t_start
            per_pass = elapsed * len(self.ops) / done
            if done >= min_ops and elapsed + per_pass / 2 >= seconds:
                return done, busy


def build(workloads, workload, seed, workdir):
    """Set the workload up SETUP_REPEATS times; (ops, median seconds
    scaled like the op latencies, median seconds as measured)."""
    times, ref_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        ref_before = reference_loop()
        t0 = time.perf_counter()
        ops = workloads.setup(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
        ref_times.append(to_ref(times[-1], ref_before, reference_loop()))
    return ops, statistics.median(ref_times), statistics.median(times)


def load_golden(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload)


def _timings(prefix, lat):
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {f"{prefix}throughput_ops_s": (len(lat) / sum(lat), "1/s"),
            f"{prefix}latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            f"{prefix}latency_p90_ms": (q[8] * 1e3, "ms")}


def end_to_end(loop, setup_s, raw_setup_s):
    """(every end-to-end figure, the ones BENCHMARK.json names).
    Throughput and latency percentiles are taken over every timed op of
    the run, as measured and scaled by the reference loop; setup_s is
    scaled too, raw_setup_s is not."""
    shown = {"setup_s": (setup_s, "s"),
             "raw_setup_s": (raw_setup_s, "s"),
             **_timings("", loop.latencies),
             **_timings("ref_", loop.ref_latencies),
             "ok_ops_ratio": (1 - len(loop.failures) / len(loop.latencies),
                              "ratio"),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024, "MB")}
    return shown, {name: shown[name] for name in END_TO_END}


def run_workload(args, koszulmf, workloads):
    import tracing
    from koszulmf import cli

    import_s = time.perf_counter() - T_START
    ref_import_s = to_ref(import_s, reference_loop(), reference_loop())
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        ops, ref_build_s, build_s = build(workloads, args.workload,
                                          args.seed, workdir)
        loop = Loop(cli, ops, load_golden(args.workload, args.seed))
        if args.trace:
            # the same ops twice, untraced then traced, so that the
            # overhead compares like with like; it is taken on the scaled
            # latencies, since the two halves run at different times
            plain_ops, plain_busy = loop.run(args.seconds / 2)
            plain_ref = sum(loop.ref_latencies)
            loop.next = 0
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_ops, traced_busy = loop.run(0, plain_ops, tracer)
            finally:
                tracer.uninstall()
            traced_ref = sum(loop.ref_latencies) - plain_ref
            metrics = tracer.metrics()
            metrics.update(zip(TRACE_METRICS, [
                (plain_ops / plain_busy, "1/s"),
                (traced_ops / traced_busy, "1/s"),
                (traced_ref / plain_ref, "ratio")]))
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.write(os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}"))
            samples = plain_ops + traced_ops
            shown = metrics
        else:
            samples, _ = loop.run(args.seconds, MIN_SAMPLES)
            shown, metrics = end_to_end(loop, ref_import_s + ref_build_s,
                                        import_s + build_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload}")
    print("stamp=" + json.dumps(stamp(koszulmf, args.seed), sort_keys=True))
    print(f"samples={samples} pool={len(ops)}")
    if not args.trace:
        print(f"failed_ops_ratio={len(loop.failures) / samples:.6g}")
    for name, (value, unit) in shown.items():
        print(f"{name}={value:.6g} {unit}")
    for line in loop.failures[:20]:
        print(f"failure: {line}")
    return {"correct": not loop.failures, "attempted": samples,
            "failed": len(loop.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def record_golden(workloads, seed):
    """Run every op of every pool once for `seed`; write their digests."""
    from koszulmf import cli

    out = {"seed": seed}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(WORK, f"golden-{name}-{os.getpid()}")
        try:
            ops = workloads.setup(name, seed, workdir)
            out[name] = []
            for op in ops:
                _, rc, stdout = run_op(cli, op)
                problem = op.check(rc, stdout)
                if problem:
                    raise SystemExit(f"{name}: {op.argv[0]}: {problem}")
                out[name].append(digest(op, stdout))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args, workloads):
    """Each workload in its own process, so peak_rss_mb is its own."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None):
    try:
        koszulmf = import_program()
    except SourceTreeMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write perfbench/golden.json for the default seed")
    args = ap.parse_args(argv)
    if args.record_golden:
        record_golden(workloads, DEFAULT_SEED)
        return 0
    if args.workload == "all":
        return run_all(args, workloads)
    print(json.dumps(run_workload(args, koszulmf, workloads),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
