"""The three workloads: documents written at set-up, one CLI op per input,
and an output check per op that does not trust the code under test.

emit      fold --witness (n = 1), reduce-amplitude --witness (n = 2, 3), or
          reduce-codim --then fold --witness (every third n >= 2 module) on
          seeded Koszul modules: the write path, matrix overhead on mostly
          zero matrices plus JSON dumps.
check     witness-check on logs emitted at set-up from a disjoint seed
          stream; one third valid, one third with the start module tampered
          (rejected at step 0), one third with the end module tampered
          (rejected after the full replay): the read path.
mf_dense  residue-homology --points or tensor on small dense factorizations
          over Q and F_32003: the only workload where term arithmetic
          dominates.
"""

import json
import os

import gen

WORKLOADS = ("emit", "check", "mf_dense")

# pool sizes: enough distinct inputs that the mix repeats only a few times
# in a run, small enough that set-up stays a few seconds.  Op costs spread
# over a wide range, and with too few distinct ops the neighbours of the
# median or of p90 lay 20-40% apart, so those percentiles jumped between
# runs.  A run is about one pass of emit (20 turns of its six-slot
# template), three of check and two or three of mf_dense
POOL = {"emit": 120, "check": 48, "mf_dense": 96}
DENSE_MOVES = 4     # elementary basis changes per dense factorization


class Op:
    """One CLI call: its argv, the witness file it writes (if any) and a
    check of (exit code, stdout) that returns a problem or None."""

    __slots__ = ("argv", "witness", "check")

    def __init__(self, argv, check, witness=None):
        self.argv = argv
        self.check = check
        self.witness = witness


def report(stdout):
    """key=value lines of a CLI report; the first occurrence of a key wins."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key not in out:
            out[key] = value
    return out


def _expect(rep, **want):
    for key, value in want.items():
        if rep.get(key) != str(value):
            return f"{key}={rep.get(key)!r}, want {value!r}"
    return None


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------

def _emit_check(cmd, facts, witness):
    n, amp = facts["n"], facts["amplitude"]

    def check(rc, stdout):
        rep = report(stdout)
        bad = _expect(rep, status="ok") if rc == 0 else f"exit {rc}"
        if bad:
            return bad
        if cmd == "reduce-amplitude":
            bad = _expect(rep, reduction_steps=max(amp - (n + 1), 0))
            lo, _, hi = rep.get("degrees", "").partition("..")
            if not bad and int(hi) - int(lo) + 1 > n + 1:
                bad = f"degrees={rep['degrees']} spans more than {n + 1}"
        else:
            bad = _expect(rep, r0=facts["r0"], r1=facts["r1"])
            if not bad and cmd == "reduce-codim":
                bad = _expect(rep, potentials_in=n, potentials_out=1)
        if bad:
            return bad
        with open(witness) as fh:
            log = json.load(fh)
        if str(len(log["steps"])) != rep.get("witness_steps"):
            return "witness_steps does not match the witness file"
        return None

    return check


def _emit_ops(seed, workdir, count):
    ops = []
    for i, (text, cmd) in enumerate(gen.emit_inputs(seed, count)):
        doc = os.path.join(workdir, f"m{i}.json")
        witness = os.path.join(workdir, f"m{i}.witness.json")
        _write(doc, text)
        argv = [cmd, "--input", doc, "--witness", witness]
        if cmd == "reduce-codim":
            argv[1:1] = ["--then", "fold"]
        ops.append(Op(argv, _emit_check(cmd, gen.module_facts(text), witness),
                      witness))
    return ops


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

LATE_REJECT = "check=chain result does not equal the recorded end module"


def _check_check(kind, nsteps):
    def check(rc, stdout):
        rep = report(stdout)
        if kind == "valid":
            return (f"exit {rc}" if rc != 0
                    else _expect(rep, status="ok", steps=nsteps))
        if rc != 1:
            return f"exit {rc}, want 1"
        lines = [ln for ln in stdout.splitlines() if ln.startswith("check=")]
        if kind == "start" and not lines[0].startswith("check=step 0 "):
            return f"start tamper not caught at step 0: {lines[0]}"
        if kind == "end" and lines != [LATE_REJECT]:
            return f"end tamper not caught by the final comparison: {lines}"
        return _expect(rep, status="failed", steps=nsteps)

    return check


def _check_ops(seed, workdir, count):
    ops = []
    for i, (text, kind, nsteps) in enumerate(
            gen.check_inputs(seed, count)):
        path = os.path.join(workdir, f"w{i}.{kind}.json")
        _write(path, text)
        ops.append(Op(["witness-check", "--witness", path],
                      _check_check(kind, nsteps)))
    return ops


# ---------------------------------------------------------------------------
# mf_dense
# ---------------------------------------------------------------------------

def _dense_check(kind, want):
    def check(rc, stdout):
        rep = report(stdout)
        bad = _expect(rep, status="ok") if rc == 0 else f"exit {rc}"
        if bad or kind == "tensor":
            return bad or _expect(rep, r0=want[0], r1=want[1])
        return _expect(rep, **{f"residue_homology[{name}]":
                               f"even={even} odd={odd}"
                               for name, (even, odd) in want.items()})

    return check


def _dense_ops(seed, workdir, count):
    ops = []
    for i, (text, kind, want) in enumerate(
            gen.dense_inputs(seed, count, DENSE_MOVES)):
        path = os.path.join(workdir, f"d{i}.json")
        _write(path, text)
        if kind == "residue":
            argv = ["residue-homology", "--input", path,
                    "--points", ",".join(gen.DENSE_POINTS)]
        else:
            argv = ["tensor", "--input", path]
        ops.append(Op(argv, _dense_check(kind, want)))
    return ops


_SETUPS = {"emit": _emit_ops, "check": _check_ops, "mf_dense": _dense_ops}


def setup(workload, seed, workdir, count=None):
    """Generate the workload's inputs into `workdir`; returns its ops."""
    os.makedirs(workdir, exist_ok=True)
    return _SETUPS[workload](seed, workdir, count or POOL[workload])
