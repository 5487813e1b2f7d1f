"""Witnessed reductions: amplitude, codimension, and folding with a log.

Every reduction is a chain of three primitive moves, each independently
re-checkable from its serialized payload:

  cone_off_free     endpoints differ by the cone on a morphism whose source
                    is the free module on a stored generating complex;
                    forward = cone on, backward = split the free summand off.
  explicit_quasi_iso  endpoints joined by an explicit morphism that is a
                    strict chain map and h-equivariant; quasi-isomorphism
                    evidence is pointwise (homology of the evaluated cone).
  shift_by_two      degree shift by an even offset; matrices unchanged;
                    backward = shift by minus the offset.

A log composes strictly: applying each step to its input must reproduce the
recorded chain, with exact matrix equality at every joint.  A step holds
what its payload stores; a cone_off_free step builds its free source from
its generators when it is made, and nothing builds it again.  Splitting a
free summand off a cone needs a basis permutation first (the free block
sits in mid coordinates); that permutation is its own iso step.

The steps come from one reduction move, `_reduce_top(x, lo, hi, top)`: the
cone on the counit of x, then splitting off the free module on degrees
lo..hi of x, then truncating onto the kernel graph at degree `top`.  It has
three uses: each round of amplitude reduction is `(m.lo, m.lo + n, m.hi)`,
the fold's two-degree round is `(lo, lo + 1, hi - 1)` followed by splitting
off each middle degree, and the fold's parity jump on [t-1, t] is
`(t - 1, t - 1, t)`.  Every module it builds from another by picking
coordinates (permuted, remainder, padded or trimmed) goes through
`_reindex`, and a permutation, a padded or a trimmed window is an iso step
made by `_reindex_step`.  The move refuses a module whose counit cone
passes MAX_TOTAL_RANK, the size a witness log is read with, so every
emitted log is one that is read back.

Builders construct their steps without re-checking them: `validate_log` is
the one checker, and every emitted log is replayed through it once before
it is returned or written, inside `fold_with_witness` for folds and in the
CLI's `cmd_reduce_amplitude` for amplitude reductions.  A builder keeps only
the checks the replay cannot make, those that guard the construction itself
(coordinate counts, the identity block a kernel graph is solved against)
and the fold transport against `orlov_fold`.
"""

from koszulmf.complexes import (MAX_TOTAL_RANK, FreeComplex, PolyMatrix,
                                as_evaluation, embed_matrix)
from koszulmf.koszul import (KoszulModule, KoszulMorphism, cone_acyclic_at,
                             cone_koszul, counit_components, fk_summands,
                             free_koszul, free_ranks, shift_koszul,
                             validate_koszul_morphism)
from koszulmf.mf import MFMorphism, _fold_layout, orlov_fold
from koszulmf.ring import Poly, embed, evaluate, polynomial_ring


class WitnessError(RuntimeError):
    """A witness step failed its check: the replay in `apply_step`, or a
    builder's guard on its own construction."""


class WitnessStep:
    """One move of a witness log, holding what its payload stores.

    A cone_off_free step is made from its `generators`, `target` and
    `components`; its `morphism` from the free module on the generators is
    built here and nowhere else, emitted or read, so that its source cannot
    disagree with the generators.  It is built on first read, so a replay
    that stops early builds no free module for the steps it never reaches.
    An explicit_quasi_iso step holds its `morphism`, a shift_by_two step
    its `offset`."""

    # `_pending` is (target, components) until a cone_off_free step's
    # morphism is built
    __slots__ = ("kind", "orientation", "generators", "offset", "_morphism",
                 "_pending")

    def __init__(self, kind, orientation, morphism=None, generators=None,
                 offset=None, target=None, components=None):
        if kind not in ("cone_off_free", "explicit_quasi_iso", "shift_by_two"):
            raise ValueError(f"unknown step kind {kind!r}")
        if orientation not in ("forward", "backward"):
            raise ValueError(f"unknown orientation {orientation!r}")
        if kind == "cone_off_free" and morphism is not None:
            raise ValueError("a cone_off_free step builds its morphism "
                             "from generators, target and components")
        self.kind = kind
        self.orientation = orientation
        self.generators = generators
        self.offset = offset
        self._morphism = morphism
        self._pending = ((target, components) if kind == "cone_off_free"
                         else None)

    @property
    def morphism(self):
        if self._pending is not None:
            target, components = self._pending
            self._morphism = KoszulMorphism(
                free_koszul(self.generators, target.potential), target,
                components)
            self._pending = None
        return self._morphism

    def __repr__(self):
        return f"WitnessStep({self.kind}, {self.orientation})"


class WitnessLog:
    __slots__ = ("start", "end", "steps")

    def __init__(self, start, end, steps):
        self.start = start
        self.end = end
        self.steps = list(steps)

    def __len__(self):
        return len(self.steps)


def apply_step(step, current):
    """Apply a step to a module, checking the strict part of its contract."""
    if step.kind == "cone_off_free":
        psi = step.morphism
        rep = validate_koszul_morphism(psi)
        if rep:
            raise WitnessError(f"cone-off morphism invalid: {rep[0]}")
        if step.orientation == "forward":
            if psi.target != current:
                raise WitnessError("cone-off target does not match the module")
            return cone_koszul(psi)
        if cone_koszul(psi) != current:
            raise WitnessError("module is not the cone on the stored morphism")
        return psi.target
    if step.kind == "explicit_quasi_iso":
        g = step.morphism
        rep = validate_koszul_morphism(g)
        if rep:
            raise WitnessError(f"quasi-isomorphism invalid: {rep[0]}")
        if step.orientation == "forward":
            if g.source != current:
                raise WitnessError("morphism source does not match the module")
            return g.target
        if g.target != current:
            raise WitnessError("morphism target does not match the module")
        return g.source
    # shift_by_two; backward undoes the offset
    if step.offset % 2 != 0:
        raise WitnessError("shift offset must be even")
    return shift_koszul(current, step.offset if step.orientation == "forward"
                        else -step.offset)


def validate_log(log, points=None):
    """Full re-validation of a log.  Returns a report; empty means valid.

    The pointwise evidence at each point shares one `Evaluation`, handed
    in as `points` by a caller that shares it further or made here, so an
    entry that several steps hold is evaluated once per point."""
    at = [as_evaluation(log.start.ring, pt) for pt in points or []]
    report = []
    current = log.start
    for i, step in enumerate(log.steps):
        try:
            nxt = apply_step(step, current)
        except WitnessError as e:
            report.append(f"step {i} ({step.kind}): {e}")
            return report
        if step.kind == "explicit_quasi_iso":
            for j, evaluation in enumerate(at):
                if not cone_acyclic_at(step.morphism, evaluation):
                    report.append(f"step {i} ({step.kind}): cone homology "
                                  f"does not vanish at point {j}")
        current = nxt
    if current != log.end:
        report.append("chain result does not equal the recorded end module")
    return report


# ---------------------------------------------------------------------------
# the one reduction move and its parts: reindexing, splitting, truncation
# ---------------------------------------------------------------------------
#
# A "slot table" maps each degree of a module under construction to an
# ordered list of (tag, size) coordinate blocks.  Tags name where a block
# came from: ("fk", k, S, edeg) for a wedge block of the counit cone,
# ("e", edeg) for a block of the original module.  Either way the block is
# a copy of degree tag[-1] of the move's input, which is where the fold's
# coordinate labels come from (`_relabel`).

def _positions(slotrow, want):
    """Column indices covered by the tags in `want` (a set), in order."""
    out = []
    pos = 0
    for tag, size in slotrow:
        if tag in want:
            out.extend(range(pos, pos + size))
        pos += size
    return out


def _module_from(ring, potential, lo, hi, ranks, diffs, hfams):
    underlying = FreeComplex(ring, lo, hi, ranks, diffs)
    return KoszulModule(ring, potential, underlying, hfams)


def _reindex(x, idx, lo, hi):
    """The module on the coordinates idx(s) of x at each degree s of
    [lo, hi]: every d and h_i is the submatrix taken in those orders."""
    ranks = {s: len(idx(s)) for s in range(lo, hi + 1)}
    diffs = {s: x.diff(s).submatrix(idx(s + 1), idx(s))
             for s in range(lo, hi)}
    hfams = [{s: x.hop(i, s).submatrix(idx(s - 1), idx(s))
              for s in range(lo, hi + 1)}
             for i in range(x.n)]
    return _module_from(x.ring, x.potential, lo, hi, ranks, diffs, hfams)


def _reindex_step(x, idx, lo, hi):
    """(step, module): x reindexed by `_reindex`, and the forward iso step
    whose component at s picks the coordinates idx(s) of x.  Serves a basis
    permutation (idx(s) lists x's coordinates in their new order) and a
    window that differs from x's own by zero-rank degrees only (idx None
    keeps every coordinate): the fold's pad and amplitude reduction's trim.
    """
    if idx is None:
        idx = lambda s: range(x.rank(s))
    moved = _reindex(x, idx, lo, hi)
    one = Poly.one(x.ring)
    comps = {s: PolyMatrix(x.ring, len(idx(s)), x.rank(s),
                           trusted={new: {old: one}
                                    for new, old in enumerate(idx(s))})
             for s in range(lo, hi + 1)}
    step = WitnessStep("explicit_quasi_iso", "forward",
                       morphism=KoszulMorphism(x, moved, comps))
    return step, moved


def _split_off_free(x, slots, e, lo, hi):
    """Split off the shifted free module on degrees lo..hi of the complex e,
    which sits in the coordinates of x tagged ("fk", k, S, edeg) with
    lo <= edeg <= hi.  Emits [permutation?, backward cone_off_free] and
    returns (steps, remainder, remainder_slots)."""
    p_tags = {tag for row in slots.values() for tag, _ in row
              if tag[0] == "fk" and lo <= tag[3] <= hi}
    np_ = {}
    orders = {}
    for s in range(x.lo, x.hi + 1):
        pc = _positions(slots[s], p_tags)
        in_p = set(pc)
        rest = [i for i in range(x.rank(s)) if i not in in_p]
        np_[s] = len(pc)
        orders[s] = pc + rest

    steps = []
    xp = x
    if any(order != list(range(x.rank(s))) for s, order in orders.items()):
        step, xp = _reindex_step(x, lambda s: orders.get(s, ()), x.lo, x.hi)
        steps.append(step)

    gens = e.window(lo, hi)
    free = free_ranks(gens, x.n)
    for s in range(x.lo, x.hi + 1):
        if np_[s] != free.get(s + 1, 0):
            raise WitnessError(f"free part at degree {s} has {np_[s]} "
                               f"coordinates, expected {free.get(s + 1, 0)}")

    v_degrees = [s for s in range(x.lo, x.hi + 1) if x.rank(s) > np_[s]]
    if not v_degrees:
        raise WitnessError("nothing remains after splitting off the free part")
    v_lo, v_hi = v_degrees[0], x.hi

    def vpart(s):
        return range(np_.get(s, 0), x.rank(s))

    remainder = _reindex(xp, vpart, v_lo, v_hi)
    comps = {u: xp.diff(u - 1).submatrix(vpart(u), range(np_[u - 1]))
             for u in range(max(gens.lo - x.n, xp.lo + 1), gens.hi + 1)}
    steps.append(WitnessStep("cone_off_free", "backward", generators=gens,
                             target=remainder, components=comps))

    new_slots = {s: [(tag, size) for (tag, size) in slots[s]
                     if tag not in p_tags]
                 for s in range(v_lo, v_hi + 1)}
    return steps, remainder, new_slots


def _graph_truncate(x, slots, mid_tag, det_tag):
    """Truncate above the degree holding `mid_tag`, replacing that degree by
    the kernel of the outgoing differential, realized as a graph over the
    non-mid coordinates.  The rows tagged `det_tag` one degree up must carry
    the identity on the mid columns; every other row must vanish on the
    graph, which the replayed chain-map square at that degree checks.
    Emits a backward explicit_quasi_iso (the inclusion)."""
    ring = x.ring
    tm = next(s for s in slots if any(tag == mid_tag for tag, _ in slots[s]))
    r_full = x.diff(tm)
    det_rows = _positions(slots[tm + 1], {det_tag})
    mid_cols = _positions(slots[tm], {mid_tag})
    is_mid = set(mid_cols)
    nonmid = [j for j in range(x.rank(tm)) if j not in is_mid]
    if len(det_rows) != len(mid_cols):
        raise WitnessError("determining rows and mid columns disagree in size")
    sub = r_full.submatrix(det_rows, mid_cols)
    if sub != PolyMatrix.identity(ring, len(mid_cols)):
        raise WitnessError("mid columns do not carry the identity")

    # graph matrix gamma: non-mid coordinates are free, mid ones determined
    rdet = r_full.submatrix(det_rows, nonmid)
    one = Poly.one(ring)
    graph = {j: {pos: one} for pos, j in enumerate(nonmid)}
    graph.update((mid_cols[q], row) for q, row in (-rdet).nz.items())
    gamma = PolyMatrix(ring, x.rank(tm), len(nonmid), trusted=graph)

    ranks = {s: x.rank(s) for s in range(x.lo, tm)}
    ranks[tm] = len(nonmid)
    diffs = {s: x.diff(s) for s in range(x.lo, tm - 1)}
    if tm - 1 >= x.lo:
        below = x.diff(tm - 1)
        diffs[tm - 1] = below.submatrix(nonmid, list(range(below.cols)))
    hfams = []
    for i in range(x.n):
        fam = {s: x.hop(i, s) for s in range(x.lo, tm)}
        fam[tm] = x.hop(i, tm) * gamma
        hfams.append(fam)
    truncated = _module_from(ring, x.potential, x.lo, tm, ranks, diffs, hfams)

    comps = {s: PolyMatrix.identity(ring, x.rank(s)) for s in range(x.lo, tm)}
    comps[tm] = gamma
    step = WitnessStep("explicit_quasi_iso", "backward",
                       morphism=KoszulMorphism(truncated, x, comps))

    new_slots = {s: list(slots[s]) for s in range(x.lo, tm)}
    new_slots[tm] = [(tag, size) for (tag, size) in slots[tm]
                     if tag != mid_tag]
    return step, truncated, new_slots


def _reduce_top(x, lo, hi, top):
    """The one reduction move, shared by amplitude reduction, the fold round
    and the parity jump.

    Cone on the counit of x (forward cone_off_free), split off the free
    module on degrees lo..hi of x, then truncate onto the kernel graph at
    cone degree top-1: the wedge-0 copy of x's degree `top` is solved for
    against x's own degree `top`.  Returns (steps, module, slots).  Refused
    first when the counit cone, its largest object, passes MAX_TOTAL_RANK.
    """
    size = (2 ** x.n + 1) * sum(x.underlying.ranks.values())
    if size > MAX_TOTAL_RANK:
        raise ValueError(f"reduction needs a cone of total rank {size}, "
                         f"past {MAX_TOTAL_RANK}")
    cone_step = WitnessStep("cone_off_free", "forward",
                            generators=x.underlying, target=x,
                            components=counit_components(x))
    slots = {}
    for s in range(x.lo - x.n - 1, x.hi + 1):
        row = [(("fk", k, S, s + 1 + k), r)
               for (k, S), r in fk_summands(x.underlying, x.n, s + 1)]
        row.append((("e", s), x.rank(s)))
        slots[s] = row
    split, rem, slots = _split_off_free(cone_koszul(cone_step.morphism),
                                        slots, x.underlying, lo, hi)
    graph_step, out, slots = _graph_truncate(rem, slots, ("fk", 0, (), top),
                                             ("e", top))
    return [cone_step, *split, graph_step], out, slots


# ---------------------------------------------------------------------------
# amplitude reduction (any number of potentials)
# ---------------------------------------------------------------------------

def amplitude_reduce(m):
    """Reduce until the amplitude is at most n+1, in one log.

    Each round is one reduction move: the free module generated by the
    bottom n+1 degrees is split off and the new top is the kernel graph,
    so the amplitude drops by one.  A move may leave zero ranks at an end
    of the window; the window is then trimmed by its own iso step, so each
    move starts from the trimmed module the log has reached and the loop
    tests the amplitude it reduces."""
    m = m.trim()
    steps = []
    current = m
    while current.amplitude > current.n + 1:
        moved, current, _ = _reduce_top(current, current.lo,
                                        current.lo + current.n, current.hi)
        steps.extend(moved)
        trimmed = current.trim()
        if trimmed is not current:
            step, current = _reindex_step(current, None, trimmed.lo,
                                          trimmed.hi)
            steps.append(step)
    return current, WitnessLog(m, current, steps)


# ---------------------------------------------------------------------------
# the two-degree reduction round used by the witnessed fold (one potential)
# ---------------------------------------------------------------------------

def _round(x):
    """One full reduction round: amplitude drops by two, and the folded
    matrix factorization is preserved up to a summand permutation.

    One reduction move splits off the bottom two degrees and truncates at
    hi-2; then the free module on each middle degree is split off, bottom
    up.  Returns (steps, module, slots)."""
    lo, hi = x.lo, x.hi
    steps, rem, slots = _reduce_top(x, lo, lo + 1, hi - 1)
    for c in range(lo + 2, hi - 1):
        split, rem, slots = _split_off_free(rem, slots, x.underlying, c, c)
        steps.extend(split)
    return steps, rem, slots


def _relabel(labels, slots):
    """Labels of the coordinates of a module built by reduction moves from
    one whose coordinates carry `labels` (degree -> list): a block of the
    slot table is a copy of degree tag[-1] of the moves' input, so it
    carries that degree's labels.  Empty blocks, which may copy a degree
    outside the input's window, carry none."""
    return {s: [lab for tag, size in row if size for lab in labels[tag[-1]]]
            for s, row in slots.items()}


def default_points(ring, potential):
    """{"origin": the all-zeros point of `ring`} when it lies on the locus
    of every entry of `potential`, else no points."""
    origin = {v: 0 for v in ring.varnames}
    if all(evaluate(f, origin) == 0 for f in potential):
        return {"origin": origin}
    return {}


def fold_with_witness(m, points=None):
    """Fold through an explicit chain of reductions, returning the
    factorization together with a machine-checkable log.

    The log carries the module from its trimmed input down to a two-term
    module in degrees [-1, 0]; the fold of that end module is checked,
    entry by entry, against orlov_fold of the input under the summand
    permutation accumulated along the way.  Each coordinate is labelled
    (degree, index) of the input; after a round or the parity jump the
    labels are read off the move's slot table (`_relabel`).  Any mismatch
    is an internal error — the witness must transport the fold exactly.
    The log is replayed at `points`, points or `Evaluation`s (default: the
    origin, if on the locus), before it is returned.
    """
    if m.n != 1:
        raise ValueError("witnessed folding needs a single potential entry")
    if points is None:
        points = list(default_points(m.ring, m.potential).values())
    m0 = m.trim()
    direct = orlov_fold(m0)

    current = m0
    labels = {s: [(s, i) for i in range(m0.rank(s))]
              for s in range(m0.lo, m0.hi + 1)}
    steps = []

    while current.amplitude != 2:
        if current.amplitude in (1, 3):
            # amplitude 1 or 3 gets a zero degree below: 2, or 4 for a round
            step, current = _reindex_step(current, None, current.lo - 1,
                                          current.hi)
            steps.append(step)
        if current.amplitude > 2:
            round_steps, current, slots = _round(current)
            steps.extend(round_steps)
            labels = _relabel(labels, slots)

    if current.hi % 2 != 0:
        # parity jump: [t-1, t] becomes [t-2, t-1], structure maps exchanged
        t = current.hi
        jump_steps, current, slots = _reduce_top(current, t - 1, t - 1, t)
        steps.extend(jump_steps)
        labels = _relabel(labels, slots)

    if current.hi != 0:
        offset = current.hi
        step = WitnessStep("shift_by_two", "forward", offset=offset)
        nxt = apply_step(step, current)
        steps.append(step)
        labels = {s - offset: labs for s, labs in labels.items()}
        current = nxt

    _check_fold_transport(m0, direct, current, labels)

    log = WitnessLog(m0, current, steps)
    report = validate_log(log, points)
    if report:
        raise WitnessError(f"emitted log fails validation: {report[0]}")
    return direct, log


def _check_fold_transport(m0, direct, end, labels):
    """The fold of the end module must be a permutation of the direct fold."""
    folded = orlov_fold(end)
    evens, odds = ([(s, i) for s in degs for i in range(m0.rank(s))]
                   for degs in _fold_layout(m0.lo, m0.hi))
    wit_evens = list(labels.get(0, []))
    wit_odds = list(labels.get(-1, []))
    if sorted(wit_evens) != sorted(evens) or sorted(wit_odds) != sorted(odds):
        raise WitnessError("transcription drift: summand labels do not "
                           "match the input module")
    index0 = {lab: j for j, lab in enumerate(evens)}
    index1 = {lab: j for j, lab in enumerate(odds)}
    pos0 = [index0[lab] for lab in wit_evens]
    pos1 = [index1[lab] for lab in wit_odds]
    if folded.phi0 != direct.phi0.submatrix(pos1, pos0):
        raise WitnessError("transcription drift in the even-to-odd map")
    if folded.phi1 != direct.phi1.submatrix(pos0, pos1):
        raise WitnessError("transcription drift in the odd-to-even map")


# ---------------------------------------------------------------------------
# codimension reduction on the standard chart
# ---------------------------------------------------------------------------

def codim_reduce_chart(m):
    """Trade n potentials for one on the chart where the last deformation
    coordinate is inverted: contractions combine as
    h_1 t_1 + ... + h_{n-1} t_{n-1} + h_n over the ring extended by the
    chart coordinates t_1..t_{n-1}.  With one potential this is the
    identity on the nose."""
    n = m.n
    if n == 1:
        return m
    base = m.ring.base_field
    old_vars = m.ring.varnames
    new_vars = tuple(f"t{i}" for i in range(1, n))
    clash = set(old_vars) & set(new_vars)
    if clash:
        raise ValueError(f"chart coordinates collide with ring variables: "
                         f"{sorted(clash)}")
    ring2 = polynomial_ring(base, old_vars + new_vars)

    ts = [Poly.var(ring2, v) for v in new_vars]
    potential = sum((embed(m.potential[i], ring2) * ts[i]
                     for i in range(n - 1)),
                    start=embed(m.potential[n - 1], ring2))

    lo, hi = m.lo, m.hi
    ranks = {s: m.rank(s) for s in range(lo, hi + 1)}
    diffs = {s: embed_matrix(m.diff(s), ring2) for s in range(lo, hi)}
    fam = {}
    for s in range(lo, hi + 1):
        acc = embed_matrix(m.hop(n - 1, s), ring2)
        for i in range(n - 1):
            acc = acc + embed_matrix(m.hop(i, s), ring2).scale(ts[i])
        fam[s] = acc
    return _module_from(ring2, (potential,), lo, hi, ranks, diffs, [fam])


def chart_operator(mf, k):
    """The chart coordinate t_k acting on a factorization over a chart ring
    (the fold of a `codim_reduce_chart` result)."""
    t = Poly.var(mf.ring, f"t{k}")
    return MFMorphism(mf, mf, PolyMatrix.scalar(mf.ring, mf.r0, t),
                      PolyMatrix.scalar(mf.ring, mf.r1, t))
