"""Batch front end: parse a document, run one pipeline, print a report.

Reports are line-oriented key=value text on stdout.  Exit codes: 0 when all
requested validations pass, 1 for a validation failure (the report names the
failing identity), 2 for parse errors, 3 for precondition violations.
Output is byte-identical across runs for fixed input and flags.

Subcommands validate what they read and build through `_require_valid`
and raise; `tensor` checks its product by its structure instead
(`mf.validate_mf_tensor`), after refusing its size and checking both
factors in full.  `main` alone turns an exception into its report lines
and exit code, and prints status=ok once a subcommand returns.  A
subcommand ends with its one write step (`_write`), so a failed run
writes no file.  Each subcommand accepts only the options it reads
(`_OPTIONS`); its own parser refuses any other, so the usage line names
the options it does read.
"""

import argparse
import functools

from koszulmf import documents as docs
from koszulmf.complexes import (MAX_TOTAL_RANK, Evaluation, FreeComplex,
                                validate_complex)
from koszulmf.documents import DocumentError
from koszulmf.koszul import (KoszulModule, KoszulMorphism, cone_koszul,
                             validate_koszul, validate_koszul_morphism)
from koszulmf.mf import (MFMorphism, MFObject, compose_mf_morphisms, mf_cone,
                         mf_shift, mf_tensor, orlov_fold, orlov_unfold,
                         residue_homology, validate_mf, validate_mf_morphism,
                         validate_mf_tensor)
from koszulmf.reduce import (WitnessError, amplitude_reduce, chart_operator,
                             codim_reduce_chart, default_points,
                             fold_with_witness, validate_log)
from koszulmf.ring import normalize_scalar, scalar_text


class Precondition(ValueError):
    """A subcommand was invoked on a document it cannot apply to."""


class Invalid(Exception):
    """A validation failed.  `main` prints the exception's arguments as
    report lines, then status=failed, and exits 1."""


# The commands that write a witness log and take the points it records.
_WITNESSED = ("fold", "reduce-amplitude", "reduce-codim")
_POINTED = (*_WITNESSED, "residue-homology", "witness-check")

# Each option: its argparse keywords and the commands that read it.  A
# command accepts no other option.
_OPTIONS = {
    "--input": (dict(metavar="PATH", help="input document (JSON)"),
                None),         # every command
    "--output": (dict(metavar="PATH",
                      help="write the resulting object as a document"),
                 (*_WITNESSED, "unfold", "cone", "shift", "tensor",
                  "eisenbud")),
    "--witness": (dict(metavar="PATH",
                       help="witness log file (write, or read for "
                            "witness-check)"),
                  (*_WITNESSED, "witness-check")),
    "--points": (dict(metavar="NAME[,NAME...]",
                      help="named points from the document"), _POINTED),
    "--point": (dict(action="append", default=[], metavar='"x=0,y=1"',
                     help="inline point (repeatable)"), _POINTED),
    "--then": (dict(choices=["fold"],
                    help="pipe the reduced module into fold"),
               ("reduce-codim",)),
}


@functools.cache
def _parser():
    """The argument parser, built on first use and reused by every later
    `main` call (each parse returns a fresh namespace)."""
    ap = argparse.ArgumentParser(
        prog="koszulmf",
        description="Exact homological algebra for Koszul modules and "
                    "matrix factorizations, with machine-checkable "
                    "witness logs.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag, (kwargs, readers) in _OPTIONS.items():
            if readers is None or name in readers:
                p.add_argument(flag, **kwargs)
    ap.commands = sub.choices       # name -> the command's own parser
    return ap


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

_VALIDATORS = {
    FreeComplex: validate_complex,
    KoszulModule: validate_koszul,
    MFObject: validate_mf,
    KoszulMorphism: validate_koszul_morphism,
    MFMorphism: validate_mf_morphism,
}


def _report(name, problems):
    return f"{name}=invalid {problems[0]}" if problems else f"{name}=valid"


def _require_valid(name, obj):
    problems = _VALIDATORS[type(obj)](obj)
    if problems:
        raise Invalid(_report(name, problems))
    return obj


def _load(args):
    if not args.input:
        raise Precondition("this command needs --input PATH")
    return docs.load_document(args.input)


def _read_one(args, want, typename):
    """(document, name, object): the --input document and its one `want`."""
    doc = _load(args)
    found = [(n, o) for n, o in doc.objects.items() if isinstance(o, want)]
    if len(found) != 1:
        raise Precondition(f"need exactly one {typename} object in the "
                           f"document, found {len(found)}")
    return (doc, *found[0])


def _inline_point(ring, spec):
    raw = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if "=" not in piece:
            raise DocumentError(f"--point: expected var=value, got {piece!r}")
        var, _, val = piece.partition("=")
        var = var.strip()
        if var in raw:
            raise DocumentError(f"--point: duplicate variable {var!r}")
        raw[var] = val.strip()
    return docs.parse_point_payload(ring, raw, "--point")


def _resolve_points(doc, ring, args, stored=None):
    """Named points first (document order of the flag), then inline ones,
    numbered point0, point1, ... past every name already taken.  `stored`,
    the points of a witness log, are taken names; a named point stored
    with another value is refused, an equal one adds nothing."""
    stored = stored or {}
    out = {}
    if args.points:
        if doc is None:
            raise Precondition("--points needs --input to resolve names")
        for name in args.points.split(","):
            name = name.strip()
            if name not in doc.points:
                raise Precondition(f"unknown point {name!r}")
            if stored.get(name, doc.points[name]) != doc.points[name]:
                raise Precondition(f"point {name!r} differs from the "
                                   f"witness log's point of that name")
            out[name] = doc.points[name]
    i = 0
    for spec in args.point:
        while f"point{i}" in out or f"point{i}" in stored:
            i += 1
        out[f"point{i}"] = _inline_point(ring, spec)
    return out


def _require_on_locus(ring, potential, points):
    """{name: `Evaluation`} of the points, refused off the locus: the one
    each point has for the command's checks and residue homology."""
    out = {}
    for pname, pt in points.items():
        at = out[pname] = Evaluation(ring, pt)
        for f in potential:
            val = at.value(f)
            if val != 0:
                raise Precondition(f"point {pname!r} is not on the zero "
                                   f"locus: a potential entry evaluates "
                                   f"to {scalar_text(val)}")
    return out


def _print_shape(obj):
    if isinstance(obj, MFObject):
        print(f"r0={obj.r0}")
        print(f"r1={obj.r1}")
    else:
        ranks = ",".join(str(obj.rank(m)) for m in range(obj.lo, obj.hi + 1))
        print(f"degrees={obj.lo}..{obj.hi}")
        print(f"ranks={ranks}")


def _print_steps(log):
    for i, step in enumerate(log.steps):
        print(f"step_{i}={step.kind}:{step.orientation}:ok")


def _print_residue_homology(mf, points):
    for pname, pt in points.items():
        even, odd = residue_homology(mf, pt)
        print(f"residue_homology[{pname}]=even={even} odd={odd}")


def _write(args, objects, points=None, log=None):
    """Write `log` to --witness and `objects` (name -> Koszul module,
    factorization, or morphism between two of its factorizations) to
    --output as one document over the first object's ring and potential,
    both with `points`: every file or none."""
    files = []
    if log is not None and args.witness:
        files.append((args.witness, docs.witness(log, points)))
    if args.output:
        first = next(iter(objects.values()))
        potential = ((first.potential,) if isinstance(first, MFObject)
                     else first.potential)
        files.append((args.output, docs.document(first.ring, potential,
                                                 objects, points)))
    docs.write_files(files)


def _require_evidence(args, log, points):
    """A --witness log whose quasi-isomorphism steps have no point to test
    their cones at is one `witness-check` refuses: do not write it."""
    if (args.witness and not points
            and any(s.kind == "explicit_quasi_iso" for s in log.steps)):
        raise Precondition("the witness log has an explicit_quasi_iso step "
                           "and no point to test its cone at; give --point "
                           "or --points")


def _transform(args, want, typename, build, suffix, size=None):
    """Check the document's one `typename` object, build from it, check the
    result and report its shape; --output gets it as `<name>_<suffix>`.
    `size(obj)`, when given, is the result's total rank: past
    MAX_TOTAL_RANK the result is refused before it is built."""
    doc, name, obj = _read_one(args, want, typename)
    _require_valid(name, obj)
    total = size(obj) if size else 0
    if total > MAX_TOTAL_RANK:
        raise Precondition(f"objects.{name}_{suffix}: total rank {total} "
                           f"is past {MAX_TOTAL_RANK}")
    out = _require_valid(f"{name}_{suffix}", build(obj))
    print(f"object={name}")
    _print_shape(out)
    _write(args, {f"{name}_{suffix}": out}, doc.points)


def _fold_and_report(args, name, m, points, header=(), list_steps=False):
    """Fold the valid one-potential module `m` with a witness at `points`
    (default: the origin, if on the locus) and report; `header` lines are
    printed once the fold has been built."""
    points = points or default_points(m.ring, m.potential)
    at = _require_on_locus(m.ring, m.potential, points)
    mf, log = fold_with_witness(m, list(at.values()))
    _require_evidence(args, log, points)
    for line in header:
        print(line)
    _print_shape(mf)
    print(f"witness_steps={len(log.steps)}")
    if list_steps:
        _print_steps(log)
    _print_residue_homology(mf, at)
    _write(args, {f"{name}_folded": mf}, points, log)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    """check every object in a document"""
    doc = _load(args)
    ok = True
    for name, obj in doc.objects.items():
        problems = _VALIDATORS[type(obj)](obj)
        print(_report(name, problems))
        ok = ok and not problems
    if not ok:
        raise Invalid()


def cmd_fold(args):
    """fold the document's Koszul module into a matrix factorization, with a
    witness log"""
    doc, name, m = _read_one(args, KoszulModule, "koszul_module")
    if m.n != 1:
        raise Precondition("fold needs exactly one potential entry")
    _require_valid(name, m)
    _fold_and_report(args, name, m, _resolve_points(doc, doc.ring, args),
                     header=[f"object={name}"], list_steps=True)


def cmd_unfold(args):
    """turn the document's matrix factorization into a two-term Koszul
    module"""
    _transform(args, MFObject, "mf", orlov_unfold, "unfolded")


def cmd_cone(args):
    """mapping cone of the document's morphism"""
    _transform(args, (KoszulMorphism, MFMorphism), "morphism",
               lambda g: (cone_koszul(g) if isinstance(g, KoszulMorphism)
                          else mf_cone(g)), "cone",
               size=lambda g: (docs.total_rank(g.source)
                               + docs.total_rank(g.target)))


def cmd_shift(args):
    """shift of the document's matrix factorization"""
    _transform(args, MFObject, "mf", mf_shift, "shifted")


def cmd_tensor(args):
    """tensor product of the document's two matrix factorizations"""
    doc = _load(args)
    found = [(n, o) for n, o in doc.objects.items() if isinstance(o, MFObject)]
    if len(found) != 2:
        raise Precondition(f"need exactly two mf objects, found {len(found)}")
    (name_a, a), (name_b, b) = found
    size = (a.r0 + a.r1) * (b.r0 + b.r1)
    if size > MAX_TOTAL_RANK:
        raise Precondition(f"tensor product would have total rank {size}, "
                           f"past {MAX_TOTAL_RANK}")
    for name, mf in found:
        _require_valid(name, mf)
    product = mf_tensor(a, b)
    problems = validate_mf_tensor(a, b, product)
    if problems:
        raise Invalid(_report("tensor", problems))
    print(f"object={name_a}*{name_b}")
    print(f"f={product.potential}")
    _print_shape(product)
    _write(args, {f"{name_a}_{name_b}_tensor": product}, doc.points)


def cmd_reduce_amplitude(args):
    """reduce the Koszul module to minimal amplitude"""
    doc, name, m = _read_one(args, KoszulModule, "koszul_module")
    _require_valid(name, m)
    points = (_resolve_points(doc, doc.ring, args)
              or default_points(m.ring, m.potential))
    at = _require_on_locus(m.ring, m.potential, points)
    reduced, log = amplitude_reduce(m)
    _require_evidence(args, log, points)
    problems = validate_log(log, list(at.values()))
    if problems:
        raise Invalid(_report("witness", problems))
    nred = sum(1 for s in log.steps
               if s.kind == "cone_off_free" and s.orientation == "forward")
    print(f"object={name}")
    print(f"reduction_steps={nred}")
    print(f"witness_steps={len(log.steps)}")
    _print_shape(reduced)
    _write(args, {f"{name}_reduced": reduced}, points, log)


def cmd_reduce_codim(args):
    """combine the potentials into one over the chart ring"""
    doc, name, m = _read_one(args, KoszulModule, "koszul_module")
    reduced = codim_reduce_chart(_require_valid(name, m))
    print(f"object={name}")
    print(f"potentials_in={m.n}")
    print(f"potentials_out={reduced.n}")
    print(f"vars={','.join(reduced.ring.varnames)}")
    print(f"potential={reduced.potential[0]}")

    # document points live over the input ring; the chart coordinates the
    # reduction introduces are set to zero
    points = _resolve_points(doc, doc.ring, args)
    chart_vars = [v for v in reduced.ring.varnames
                  if v not in doc.ring.varnames]
    zero = normalize_scalar(reduced.ring, 0)
    points = {pname: {**pt, **{v: zero for v in chart_vars}}
              for pname, pt in points.items()}

    if args.then == "fold":
        _fold_and_report(args, name, reduced, points)
    else:
        if args.witness:
            raise Precondition("reduce-codim emits a witness only with "
                               "--then fold")
        _write(args, {f"{name}_reduced": reduced}, points)


def cmd_residue_homology(args):
    """residue homology of the matrix factorization at the supplied
    points"""
    doc, name, mf = _read_one(args, MFObject, "mf")
    _require_valid(name, mf)
    points = (_resolve_points(doc, doc.ring, args)
              or default_points(mf.ring, (mf.potential,)))
    if not points:
        raise Precondition("no points supplied and the origin does not "
                           "lie on the hypersurface")
    print(f"object={name}")
    _print_residue_homology(mf, points)


def cmd_witness_check(args):
    """re-validate an emitted witness log"""
    if not args.witness:
        raise Precondition("witness-check needs --witness PATH")
    log, points = docs.load_witness(args.witness)
    doc = docs.load_document(args.input) if args.input else None
    starts = None   # with --input: the modules the log may start at
    if doc is not None:
        if doc.ring is not log.start.ring:
            raise Precondition("document ring differs from the witness ring")
        # the emitting commands trim a module before their first step
        starts = [o.trim() for o in doc.objects.values()
                  if isinstance(o, KoszulModule)]
        if not starts:
            raise Precondition("the document has no koszul_module to bind "
                               "the log to")
    points.update(_resolve_points(doc, log.start.ring, args, points))
    at = _require_on_locus(log.start.ring, log.start.potential, points)
    print(f"steps={len(log.steps)}")
    print(f"points={len(points)}")
    if starts is not None and log.start not in starts:
        problems = ["start module is not an object of the document"]
    else:
        problems = validate_log(log, list(at.values()))
    if not problems:  # the replay relates the endpoints; check each too
        problems = [f"{which} module: {line}" for which, m in
                    (("start", log.start), ("end", log.end))
                    for line in validate_koszul(m)]
    if not problems and not points:
        # a quasi-isomorphism step's only evidence is its cone at a point
        problems = [f"step {i} ({s.kind}): no point to test its cone at"
                    for i, s in enumerate(log.steps)
                    if s.kind == "explicit_quasi_iso"][:1]
    if problems:
        raise Invalid(*(f"check={line}" for line in problems))
    _print_steps(log)
    print(f"start_degrees={log.start.lo}..{log.start.hi}")
    print(f"end_degrees={log.end.lo}..{log.end.hi}")


def cmd_eisenbud(args):
    """degree-two operators of the reduced factorization"""
    _, name, m = _read_one(args, KoszulModule, "koszul_module")
    if m.n < 2:
        raise Precondition("operators need at least two potential entries")
    reduced = codim_reduce_chart(_require_valid(name, m))
    mf = orlov_fold(reduced)
    ops = {k: chart_operator(mf, k) for k in range(1, m.n)}
    print(f"object={name}")
    print(f"operators={len(ops)}")
    ok = True
    for k, op in ops.items():
        problems = validate_mf_morphism(op)
        print(_report(f"eisenbud_{k}", problems))
        ok = ok and not problems
    for i in range(1, m.n):
        for j in range(i + 1, m.n):
            commute = (compose_mf_morphisms(ops[i], ops[j])
                       == compose_mf_morphisms(ops[j], ops[i]))
            print(f"commute_{i}_{j}={'ok' if commute else 'failed'}")
            ok = ok and commute
    if not ok:
        raise Invalid()
    _write(args, {f"{name}_reduced": reduced, f"{name}_folded": mf,
                  **{f"t{k}": op for k, op in ops.items()}})


_HANDLERS = {
    "validate": cmd_validate,
    "fold": cmd_fold,
    "unfold": cmd_unfold,
    "cone": cmd_cone,
    "shift": cmd_shift,
    "tensor": cmd_tensor,
    "reduce-amplitude": cmd_reduce_amplitude,
    "reduce-codim": cmd_reduce_codim,
    "residue-homology": cmd_residue_homology,
    "witness-check": cmd_witness_check,
    "eisenbud": cmd_eisenbud,
}


def main(argv=None):
    args, unread = _parser().parse_known_args(argv)
    if unread:      # refused by the command's parser, whose usage it prints
        _parser().commands[args.command].error(
            f"unrecognized arguments: {' '.join(unread)}")
    try:
        _HANDLERS[args.command](args)
    except Invalid as e:
        for line in e.args:
            print(line)
        print("status=failed")
        return 1
    except DocumentError as e:
        print(f"error=parse {e}")
        return 2
    except WitnessError as e:
        print(f"error=validation {e}")
        return 1
    except ValueError as e:
        print(f"error=precondition {e}")
        return 3
    print("status=ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
