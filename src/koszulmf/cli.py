"""Batch front end: parse a document, run one pipeline, print a report.

Reports are line-oriented key=value text on stdout.  Exit codes: 0 when all
requested validations pass, 1 for a validation failure (the report names the
failing identity), 2 for parse errors, 3 for precondition violations.
Output is byte-identical across runs for fixed input and flags.

Subcommands validate what they read and build through `_require_valid`
and raise; `main` alone turns an exception into its report lines and exit
code, and prints status=ok once a subcommand returns.  Each subcommand
accepts only the options it reads (`_OPTIONS`).
"""

import argparse
import functools

from koszulmf import documents as docs
from koszulmf.complexes import (MAX_TOTAL_RANK, FreeComplex,
                                validate_complex)
from koszulmf.documents import DocumentError
from koszulmf.koszul import (KoszulModule, KoszulMorphism, cone_koszul,
                             validate_koszul, validate_koszul_morphism)
from koszulmf.mf import (MFMorphism, MFObject, compose_mf_morphisms, mf_cone,
                         mf_shift, mf_tensor, orlov_fold, orlov_unfold,
                         residue_homology, validate_mf, validate_mf_morphism)
from koszulmf.reduce import (WitnessError, amplitude_reduce, chart_operator,
                             codim_reduce_chart, default_points,
                             fold_with_witness, validate_log)
from koszulmf.ring import evaluate, normalize_scalar


class Precondition(Exception):
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


def _the_object(doc, want, typename):
    found = [(n, o) for n, o in doc.objects.items() if isinstance(o, want)]
    if len(found) != 1:
        raise Precondition(f"need exactly one {typename} object in the "
                           f"document, found {len(found)}")
    return found[0]


def _inline_point(ring, spec):
    raw = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if "=" not in piece:
            raise DocumentError(f"--point: expected var=value, got {piece!r}")
        var, _, val = piece.partition("=")
        raw[var.strip()] = val.strip()
    return docs.parse_point_payload(ring, raw, "--point")


def _resolve_points(doc, ring, args):
    """Named points first (document order of the flag), then inline ones."""
    out = {}
    if args.points:
        if doc is None:
            raise Precondition("--points needs --input to resolve names")
        for name in args.points.split(","):
            name = name.strip()
            if name not in doc.points:
                raise Precondition(f"unknown point {name!r}")
            out[name] = doc.points[name]
    for i, spec in enumerate(args.point):
        out[f"point{i}"] = _inline_point(ring, spec)
    return out


def _require_on_locus(potential, points):
    for pname, pt in points.items():
        for f in potential:
            val = evaluate(f, pt)
            if val != 0:
                raise Precondition(f"point {pname!r} is not on the zero "
                                   f"locus: a potential entry evaluates "
                                   f"to {val}")


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


def _write_output(args, objects, points=None):
    """Write `objects` (name -> Koszul module, factorization or ready
    payload) to --output as one document over the first object's ring and
    potential."""
    if not args.output:
        return
    first = next(iter(objects.values()))
    potential = first.potential
    if isinstance(first, MFObject):
        potential = (potential,)
    docs.write_json(args.output, docs.document_payload(
        first.ring, potential, objects, points))


def _write_witness(args, log, points):
    if args.witness:
        docs.write_json(args.witness, docs.witness_payload(log, points))


def _fold_and_report(args, name, m, points, header=(), list_steps=False):
    """Fold the valid one-potential module `m` with a witness at `points`
    (default: the origin, if on the locus) and report; `header` lines are
    printed once the fold has been built."""
    points = points or default_points(m.ring, m.potential)
    _require_on_locus(m.potential, points)
    mf, log = fold_with_witness(m, list(points.values()))
    for line in header:
        print(line)
    _print_shape(mf)
    print(f"witness_steps={len(log.steps)}")
    if list_steps:
        _print_steps(log)
    _print_residue_homology(mf, points)
    _write_witness(args, log, points)
    _write_output(args, {f"{name}_folded": mf}, points)


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
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
    if m.n != 1:
        raise Precondition("fold needs exactly one potential entry")
    _require_valid(name, m)
    _fold_and_report(args, name, m, _resolve_points(doc, doc.ring, args),
                     header=[f"object={name}"], list_steps=True)


def cmd_unfold(args):
    """turn the document's matrix factorization into a two-term Koszul
    module"""
    doc = _load(args)
    name, mf = _the_object(doc, MFObject, "mf")
    _require_valid(name, mf)
    m = _require_valid(f"{name}_unfolded", orlov_unfold(mf))
    print(f"object={name}")
    _print_shape(m)
    _write_output(args, {f"{name}_unfolded": m}, doc.points)


def cmd_cone(args):
    """mapping cone of the document's morphism"""
    doc = _load(args)
    name, g = _the_object(doc, (KoszulMorphism, MFMorphism), "morphism")
    _require_valid(name, g)
    build = cone_koszul if isinstance(g, KoszulMorphism) else mf_cone
    cone = _require_valid(f"{name}_cone", build(g))
    print(f"object={name}")
    _print_shape(cone)
    _write_output(args, {f"{name}_cone": cone}, doc.points)


def cmd_shift(args):
    """shift of the document's matrix factorization"""
    doc = _load(args)
    name, mf = _the_object(doc, MFObject, "mf")
    shifted = mf_shift(_require_valid(name, mf))
    print(f"object={name}")
    _print_shape(shifted)
    _write_output(args, {f"{name}_shifted": shifted}, doc.points)


def cmd_tensor(args):
    """tensor product of the document's two matrix factorizations"""
    doc = _load(args)
    found = [(n, o) for n, o in doc.objects.items() if isinstance(o, MFObject)]
    if len(found) != 2:
        raise Precondition(f"need exactly two mf objects, found {len(found)}")
    for name, mf in found:
        _require_valid(name, mf)
    (name_a, a), (name_b, b) = found
    size = (a.r0 + a.r1) * (b.r0 + b.r1)
    if size > MAX_TOTAL_RANK:
        raise Precondition(f"tensor product would have total rank {size}, "
                           f"past {MAX_TOTAL_RANK}")
    product = _require_valid("tensor", mf_tensor(a, b))
    print(f"object={name_a}*{name_b}")
    print(f"f={product.potential}")
    _print_shape(product)
    _write_output(args, {f"{name_a}_{name_b}_tensor": product}, doc.points)


def cmd_reduce_amplitude(args):
    """reduce the Koszul module to minimal amplitude"""
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
    _require_valid(name, m)
    points = (_resolve_points(doc, doc.ring, args)
              or default_points(m.ring, m.potential))
    _require_on_locus(m.potential, points)
    reduced, log = amplitude_reduce(m)
    problems = validate_log(log, list(points.values()))
    if problems:
        raise Invalid(_report("witness", problems))
    nred = sum(1 for s in log.steps
               if s.kind == "cone_off_free" and s.orientation == "forward")
    print(f"object={name}")
    print(f"reduction_steps={nred}")
    print(f"witness_steps={len(log.steps)}")
    _print_shape(reduced)
    _write_witness(args, log, points)
    _write_output(args, {f"{name}_reduced": reduced}, points)


def cmd_reduce_codim(args):
    """combine the potentials into one over the chart ring"""
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
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
        _write_output(args, {f"{name}_reduced": reduced}, points)


def cmd_residue_homology(args):
    """residue homology of the matrix factorization at the supplied
    points"""
    doc = _load(args)
    name, mf = _the_object(doc, MFObject, "mf")
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
    if doc is not None and doc.ring is not log.start.ring:
        raise Precondition("document ring differs from the witness ring")
    extra = _resolve_points(doc, log.start.ring, args)
    for pname, pt in extra.items():
        points.setdefault(pname, pt)
    _require_on_locus(log.start.potential, points)
    print(f"steps={len(log.steps)}")
    print(f"points={len(points)}")
    problems = validate_log(log, list(points.values()))
    if not problems:  # the replay relates the endpoints; check each too
        problems = [f"{which} module: {line}" for which, m in
                    (("start", log.start), ("end", log.end))
                    for line in validate_koszul(m)]
    if problems:
        raise Invalid(*(f"check={line}" for line in problems))
    _print_steps(log)
    print(f"start_degrees={log.start.lo}..{log.start.hi}")
    print(f"end_degrees={log.end.lo}..{log.end.hi}")


def cmd_eisenbud(args):
    """degree-two operators of the reduced factorization"""
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
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
    folded = f"{name}_folded"
    objects = {f"{name}_reduced": reduced, folded: mf}
    for k, op in ops.items():
        objects[f"t{k}"] = docs.mf_morphism_payload(op, folded, folded)
    _write_output(args, objects)
    if not ok:
        raise Invalid()


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
    args = _parser().parse_args(argv)
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
    except Precondition as e:
        print(f"error=precondition {e}")
        return 3
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
