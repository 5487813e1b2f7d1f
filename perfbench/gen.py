"""Seeded inputs for the benchmark workloads.

Each workload is a fixed mix of input *shapes* (potential count, ring,
ranks, amplitude, wrapping, which entries are nonzero and which monomials
they hold, coefficient sizes, factor counts), drawn from a constant template
stream.  The run's `--seed` draws the instances: the signs of every entry,
potential term and rational coefficient, the coefficients over F_p and the
tamper positions.  Fixing the shapes keeps the cost of a run the same across
seeds; the seed still changes the bytes the program reads.

Modules for `emit` and `check` are built with the library's constructors
(free Koszul modules and cones on them), so they are valid by construction.
Dense factorizations for `mf_dense` are built with the benchmark's own term
arithmetic (`exact.py`), which also yields their expected residue
dimensions.  The program under test only ever sees the JSON files.
"""

import copy
import itertools
import json
import random

import exact
from koszulmf import documents as docs
from koszulmf.complexes import FreeComplex, PolyMatrix
from koszulmf.koszul import KoszulMorphism, cone_koszul, free_koszul
from koszulmf.reduce import amplitude_reduce, fold_with_witness
from koszulmf.ring import Poly, polynomial_ring, prime_field, rationals

# (characteristic, variables) of the small rings the module workloads use
MODULE_RINGS = ((0, ("x",)), (0, ("x", "y")), (5, ("x", "y")),
                (0, ("x", "y", "z")))

# criterion-5 caps (max base rank, max base amplitude) by potential count
CAPS = {1: (2, 3), 2: (1, 2), 3: (1, 1)}

# every CODIM_EVERY-th n >= 2 module goes through reduce-codim --then fold
CODIM_EVERY = 3

DENSE_P = 32003
DENSE_VARS = ("x", "y", "z")
# both lie on every dense locus: each `a` factor is in the ideal they cut out
DENSE_POINTS = {"origin": (0, 0, 0), "q": (1, 2, -1)}

TAMPER_KINDS = ("valid", "start", "end")


def _ring(char, names):
    base = prime_field(char) if char else rationals()
    return polynomial_ring(base, names)


# ---------------------------------------------------------------------------
# Koszul modules
# ---------------------------------------------------------------------------

# slot kinds (n, max base rank, base amplitudes, wrapped in a cone: yes,
# no, or None for either), cycled through by a workload's template
C5 = {n: (n, CAPS[n][0], tuple(range(1, CAPS[n][1] + 1)), None)
      for n in CAPS}
TAIL = (1, 2, (4,), None)       # the amplitude-5/6 tier
N3 = (3, 1, (1,), True)         # n = 3 at amplitude 5, the costliest shape
# emit: the criterion-5 mix, n cycling 1..3, one slot in six from the
# amplitude-5/6 tier.  n = 3 is always wrapped, so its amplitude-5
# reductions are a sixth of the ops and p90 falls inside them, not in the
# gap below them.
EMIT_SLOTS = (C5[1], C5[2], N3, C5[1], C5[2], TAIL)
# check: logs need amplitude > n + 1 to have steps, which for n >= 2 means
# a cone; n = 2 stays at amplitude 4 and n = 3 (amplitude 5) is the tail
CHECK_SLOTS = (C5[1], (2, 1, (2,), False), C5[1], C5[1], (2, 1, (1,), True),
               N3)


def module_shapes(name, slots):
    """Endless template stream cycling through `slots`.

    A shape fixes everything that sets the cost of an op: ring, degrees,
    ranks, which differential entries are nonzero and which monomial each
    one (and each potential term) is.  The seed only draws signs."""
    trng = random.Random(f"{name}-template")
    for i in itertools.count():
        n, max_rank, amps, wrap = slots[i % len(slots)]
        amp = trng.choice(amps)
        ring = trng.randrange(len(MODULE_RINGS))
        nvars = len(MODULE_RINGS[ring][1])
        ranks = [trng.randint(0, max_rank) for _ in range(amp)]
        if not any(ranks):
            ranks[0] = 1
        # differentials only in alternating slots, so d∘d = 0; an entry is
        # 0 (None), a constant (-1) or a variable (its index)
        entries = {k: [trng.randrange(-1, nvars) if trng.random() < 0.5
                       else None for _ in range(ranks[k] * ranks[k + 1])]
                   for k in range(trng.randint(0, 1), amp - 1, 2)}
        pairs = [(a, b) for a in range(nvars) for b in range(a, nvars)]
        potential = [trng.sample(pairs, min(len(pairs),
                                            1 + (trng.random() < 0.3)))
                     for _ in range(n)]
        if wrap is None:
            wrap = trng.random() < 0.5
        yield {"n": n, "ring": ring, "lo": trng.randint(-3, 1),
               "ranks": ranks, "entries": entries, "potential": potential,
               "wrap": trng.randrange(3) if wrap else None}


def build_module(rng, shape):
    """Free Koszul module on a complex of the given shape, with random
    signs, optionally wrapped in a cone on the zero map, the identity or
    f_1·id."""
    ring = _ring(*MODULE_RINGS[shape["ring"]])
    xs = [Poly.var(ring, v) for v in ring.varnames]
    one, z = Poly.one(ring), Poly.zero(ring)

    def signed(p):
        return p if rng.random() < 0.5 else -p

    lo, ranks = shape["lo"], shape["ranks"]
    hi = lo + len(ranks) - 1
    rank = dict(zip(range(lo, hi + 1), ranks))
    diffs = {lo + k: PolyMatrix(ring, ranks[k + 1], ranks[k], [
        z if e is None else signed(one if e < 0 else xs[e]) for e in row])
        for k, row in shape["entries"].items()}
    potential = tuple(sum((signed(xs[a] * xs[b]) for a, b in terms), z)
                      for terms in shape["potential"])
    m = free_koszul(FreeComplex(ring, lo, hi, rank, diffs), potential)
    if shape["wrap"] is not None:
        degs = range(m.lo, m.hi + 1)
        if shape["wrap"] == 0:
            comps = {}
        elif shape["wrap"] == 1:
            comps = {s: PolyMatrix.identity(ring, m.rank(s)) for s in degs}
        else:
            comps = {s: PolyMatrix.scalar(ring, m.rank(s), potential[0])
                     for s in degs}
        m = cone_koszul(KoszulMorphism(m, m, comps))
    return m.trim()


def module_document(m, name="m"):
    payload = docs.document_payload(
        m.ring, m.potential,
        {name: {"type": "koszul_module", **docs.module_payload(m)}})
    return docs.dumps(payload)


def module_facts(text):
    """What the benchmark expects of a module, read from its own JSON."""
    raw = json.loads(text)
    obj = next(iter(raw["objects"].values()))
    ranks = {int(k): v for k, v in obj["ranks"].items() if v}
    lo, hi = min(ranks), max(ranks)
    return {
        "n": len(raw["potential"]),
        "amplitude": hi - lo + 1,
        "r0": sum(r for d, r in ranks.items() if d % 2 == 0),
        "r1": sum(r for d, r in ranks.items() if d % 2 != 0),
    }


def emit_inputs(seed, count):
    """[(document text, subcommand)] for the `emit` workload."""
    rng = random.Random(f"emit:{seed}")
    out = []
    multi = 0
    for shape in itertools.islice(module_shapes("emit", EMIT_SLOTS), count):
        text = module_document(build_module(rng, shape))
        if shape["n"] == 1:
            cmd = "fold"
        else:
            multi += 1
            cmd = ("reduce-codim" if multi % CODIM_EVERY == 0
                   else "reduce-amplitude")
        out.append((text, cmd))
    return out


# ---------------------------------------------------------------------------
# witness logs for `check`
# ---------------------------------------------------------------------------

def _checkable(m):
    """True when the emitted log is nonempty and its step 0 compares the
    start module (a cone or a quasi-isomorphism, not a bare shift).  This
    depends only on the degree window, so only on the template shape."""
    if m.n > 1:
        return m.amplitude > m.n + 1
    return not (m.amplitude == 2 and m.hi % 2 == 0)


def _emit_log(m):
    """The log the CLI would write for this module, with its points."""
    origin = {v: 0 for v in m.ring.varnames}
    if m.n == 1:
        _, log = fold_with_witness(m, [origin])
    else:
        _, log = amplitude_reduce(m)
    return docs.witness_payload(log, {"origin": origin})


def tamper(payload, kind, rng):
    """A copy of a witness payload with one entry of its start or end module
    changed from f to f + 1; `valid` returns an unchanged copy.

    A changed start module no longer matches step 0, so the checker rejects
    it at once; a changed end module is only caught after the full replay.
    """
    out = copy.deepcopy(payload)
    if kind == "valid":
        return out
    module = out[kind]
    mats = [mat for fam in [module["d"]] + module["h"]
            for _, mat in sorted(fam.items()) if mat and mat[0]]
    mat = rng.choice(mats)
    i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
    mat[i][j] = f"{mat[i][j]} + 1"
    return out


def _tamper_schedule(ns):
    """A tamper kind per log, a third of each, for logs with potential
    counts `ns`.  The n = 3 logs, the largest, are only valid or
    end-tampered, so their full replays are the tail of the latencies."""
    left = dict.fromkeys(TAMPER_KINDS, len(ns) // 3)
    kinds = [None] * len(ns)
    for j, i in enumerate(i for i, n in enumerate(ns) if n == 3):
        kinds[i] = ("valid", "end")[j % 2]
        left[kinds[i]] -= 1
    for i, kind in enumerate(kinds):
        if kind is None:
            kinds[i] = max(TAMPER_KINDS, key=left.get)
            left[kinds[i]] -= 1
    return kinds


def check_inputs(seed, count):
    """[(witness text, tamper kind, step count)] for the `check` workload;
    `count` is a multiple of three.  Logs come from a seed stream disjoint
    from `emit`'s."""
    rng = random.Random(f"check:{seed}")
    logs = []
    for shape in module_shapes("check", CHECK_SLOTS):
        if len(logs) == count:
            break
        m = build_module(rng, shape)
        if _checkable(m):
            logs.append((m.n, _emit_log(m)))
    kinds = _tamper_schedule([n for n, _ in logs])
    return [(docs.dumps(tamper(payload, kind, rng)), kind,
             len(payload["steps"]))
            for (_, payload), kind in zip(logs, kinds)]


# ---------------------------------------------------------------------------
# dense factorizations for `mf_dense`
# ---------------------------------------------------------------------------

def _sign(rng):
    return rng.choice((-1, 1))


def _dense_poly(rng, trng, p, nterms, maxdeg):
    """`nterms` monomials from the template.  Over F_p the seed draws the
    coefficients; over Q the template fixes their size (n/d, n < 10, d < 4)
    and the seed draws their signs, since the cost of Fraction arithmetic
    depends on the size."""
    terms = {}
    while len(terms) < nterms:
        exps = tuple(trng.randint(0, maxdeg) for _ in DENSE_VARS)
        size = exact.norm(trng.randint(1, 9), 0) / trng.randint(1, 3)
        terms[exps] = rng.randrange(1, p) if p else _sign(rng) * size
    return terms


def _rank_one(rng, trng, p, singular):
    """(a, b) with a = (2x - y)*u + (x + z)*v, which vanishes at both
    DENSE_POINTS, so f = a*b does too.  b is shifted to vanish at the
    point `singular`, if one is given."""
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    lin1 = {x: exact.norm(2, p), y: exact.norm(-1, p)}
    lin2 = {x: exact.norm(1, p), z: exact.norm(1, p)}
    a = exact.add(exact.mul(lin1, _dense_poly(rng, trng, p, 2, 1), p),
                  exact.mul(lin2, _dense_poly(rng, trng, p, 2, 1), p), p)
    b = _dense_poly(rng, trng, p, trng.randint(5, 8), 2)
    if singular is not None:
        b = exact.add(b, {(0, 0, 0): -exact.evaluate(b, singular, p)}, p)
    return a, b


def _tensor_rank_ones(factors, p):
    """(f, rank, phi0, phi1) for the tensor product of the rank-one
    factorizations [a_i][b_i]: tensoring (P0, P1) with (a, b) gives
    [[a I, P1], [P0, -b I]] and [[b I, P1], [P0, -a I]]."""
    a, b = factors[0]
    f, phi0, phi1 = exact.mul(a, b, p), [[a]], [[b]]
    neg = exact.norm(-1, p)
    for a, b in factors[1:]:
        r = len(phi0)

        def stack(top, bottom):
            return ([[top if i == j else {} for j in range(r)] + phi1[i]
                     for i in range(r)]
                    + [phi0[i] + [bottom if i == j else {} for j in range(r)]
                       for i in range(r)])

        phi0, phi1 = (stack(a, exact.scale(b, neg, p)),
                      stack(b, exact.scale(a, neg, p)))
        f = exact.add(f, exact.mul(a, b, p), p)
    return f, len(phi0), phi0, phi1


def _mix(rng, trng, phi0, phi1, p, moves):
    """Constant changes of basis E1 phi0 E0^-1 and E0 phi1 E1^-1 made of
    elementary moves (row i += c row j of one map, column j -= c column i of
    the other), so the matrices fill in and stay a factorization.  The
    template fixes where the moves go and their size, the seed their
    signs."""
    r = len(phi0)
    for _ in range(moves if r > 1 else 0):
        i, j = trng.sample(range(r), 2)
        rows, cols = (phi0, phi1) if trng.randrange(2) else (phi1, phi0)
        c = exact.norm(_sign(rng) * trng.randint(1, 2), p)
        rows[i] = [exact.add(u, exact.scale(v, c, p), p)
                   for u, v in zip(rows[i], rows[j])]
        for row in cols:
            row[j] = exact.add(row[j], exact.scale(row[i], -c, p), p)


def dense_mf(rng, trng, p, k, moves):
    """A rank-2^(k-1) factorization of a sum of k dense products.  Half of
    them are singular at one of DENSE_POINTS (every b_i vanishes there, so
    the residue there is the full rank); elsewhere the residue is zero."""
    singular = trng.choice([None, None, *DENSE_POINTS.values()])
    f, r, phi0, phi1 = _tensor_rank_ones(
        [_rank_one(rng, trng, p, singular) for _ in range(k)], p)
    _mix(rng, trng, phi0, phi1, p, moves)
    return {"f": f, "r": r, "phi0": phi0, "phi1": phi1}


def _mf_payload(mf):
    def text(mat):
        return [[exact.fmt(e, DENSE_VARS) for e in row] for row in mat]
    return {"type": "mf", "f": exact.fmt(mf["f"], DENSE_VARS),
            "r0": mf["r"], "r1": mf["r"],
            "phi0": text(mf["phi0"]), "phi1": text(mf["phi1"])}


def dense_document(p, mfs):
    ring = {"kind": "polynomial", "vars": list(DENSE_VARS)}
    if p:
        ring["p"] = p
    return json.dumps({
        "ring": ring,
        "potential": [exact.fmt(mfs[0]["f"], DENSE_VARS)],
        "objects": {f"mf{i}": _mf_payload(mf) for i, mf in enumerate(mfs)},
        "points": {name: dict(zip(DENSE_VARS, pt))
                   for name, pt in DENSE_POINTS.items()},
    }, indent=1, sort_keys=True) + "\n"


def residue_dims(mf, point, p):
    """Expected (even, odd) residue dimensions, by exact.rank."""
    def at(mat):
        return [[exact.evaluate(e, point, p) for e in row] for row in mat]
    rk0, rk1 = exact.rank(at(mf["phi0"]), p), exact.rank(at(mf["phi1"]), p)
    return mf["r"] - rk0 - rk1, mf["r"] - rk1 - rk0


# (op kind, factor counts) cycled through by the dense mix; consecutive
# documents alternate between Q and F_32003
DENSE_MIX = (("residue", (3,)), ("tensor", (2, 2)), ("residue", (4,)),
             ("tensor", (2, 1)))


def dense_inputs(seed, count, moves):
    """[(document text, op kind, expected)] for the `mf_dense` workload:
    expected is {point: (even, odd)} for residue ops and (r0, r1) of the
    product, by the rank formula, for tensor ops."""
    rng = random.Random(f"mf_dense:{seed}")
    trng = random.Random("mf_dense-template")
    out = []
    for i in range(count):
        p = DENSE_P if i % 2 else 0
        kind, ks = DENSE_MIX[i // 2 % len(DENSE_MIX)]
        mfs = [dense_mf(rng, trng, p, k, moves) for k in ks]
        if kind == "residue":
            want = {name: residue_dims(mfs[0], pt, p)
                    for name, pt in DENSE_POINTS.items()}
        else:
            ra, rb = mfs[0]["r"], mfs[1]["r"]
            # both factors have r0 = r1, so r0 = ra*rb + ra*rb = r1
            want = (2 * ra * rb, 2 * ra * rb)
        out.append((dense_document(p, mfs), kind, want))
    return out
