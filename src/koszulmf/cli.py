"""Batch front end: parse a document, run one pipeline, print a report.

Reports are line-oriented key=value text on stdout.  Exit codes: 0 when all
requested validations pass, 1 for a validation failure (the report names the
failing identity), 2 for parse errors, 3 for precondition violations.
Output is byte-identical across runs for fixed input and flags.
"""

import argparse

from koszulmf import documents as docs
from koszulmf.complexes import FreeComplex, validate_complex
from koszulmf.documents import DocumentError
from koszulmf.koszul import (KoszulModule, KoszulMorphism, cone_koszul,
                             validate_koszul, validate_koszul_morphism)
from koszulmf.mf import (MFMorphism, MFObject, compose_mf_morphisms, mf_cone,
                         mf_shift, mf_tensor, orlov_fold, orlov_unfold,
                         residue_homology, validate_mf, validate_mf_morphism)
from koszulmf.reduce import (WitnessError, amplitude_reduce,
                             codim_reduce_chart, default_points,
                             eisenbud_operator, fold_with_witness,
                             validate_log)
from koszulmf.ring import evaluate, normalize_scalar


class Precondition(Exception):
    """A subcommand was invoked on a document it cannot apply to."""


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="koszulmf",
        description="Exact homological algebra for Koszul modules and "
                    "matrix factorizations, with machine-checkable "
                    "witness logs.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    names = {
        "validate": "check every object in a document",
        "fold": "fold the document's Koszul module into a matrix "
                "factorization, with a witness log",
        "unfold": "turn the document's matrix factorization into a "
                  "two-term Koszul module",
        "cone": "mapping cone of the document's morphism",
        "shift": "shift of the document's matrix factorization",
        "tensor": "tensor product of the document's two matrix "
                  "factorizations",
        "reduce-amplitude": "reduce the Koszul module to minimal amplitude",
        "reduce-codim": "combine the potentials into one over the chart ring",
        "residue-homology": "residue homology of the matrix factorization "
                            "at the supplied points",
        "witness-check": "re-validate an emitted witness log",
        "eisenbud": "degree-two operators of the reduced factorization",
    }
    for name, help_ in names.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", metavar="PATH",
                       help="input document (JSON)")
        p.add_argument("--output", metavar="PATH",
                       help="write the resulting object as a document")
        p.add_argument("--witness", metavar="PATH",
                       help="witness log file (write, or read for "
                            "witness-check)")
        p.add_argument("--points", metavar="NAME[,NAME...]",
                       help="named points from the document")
        p.add_argument("--point", action="append", default=[],
                       metavar='"x=0,y=1"', help="inline point (repeatable)")
        p.add_argument("--seed", type=int, default=0,
                       help="reserved for randomized batch commands; all "
                            "current subcommands are deterministic")
        if name == "reduce-codim":
            p.add_argument("--then", choices=["fold"],
                           help="pipe the reduced module into fold")
    return ap


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

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


def _default_point_map(module_like):
    pts = default_points(module_like)
    return {"origin": pts[0]} if pts else {}


def _require_on_locus(potential, points):
    for pname, pt in points.items():
        for f in potential:
            val = evaluate(f, pt)
            if val != 0:
                raise Precondition(f"point {pname!r} is not on the zero "
                                   f"locus: a potential entry evaluates "
                                   f"to {val}")


def _dims_text(dims):
    return f"even={dims[0]} odd={dims[1]}"


def _ranks_text(thing):
    return ",".join(str(thing.rank(m)) for m in range(thing.lo, thing.hi + 1))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    doc = _load(args)
    ok = True
    for name, obj in doc.objects.items():
        if isinstance(obj, FreeComplex):
            rep = validate_complex(obj)
        elif isinstance(obj, KoszulModule):
            rep = validate_koszul(obj)
        elif isinstance(obj, MFObject):
            rep = validate_mf(obj)
        elif isinstance(obj, KoszulMorphism):
            rep = validate_koszul_morphism(obj)
        else:
            rep = validate_mf_morphism(obj)
        if rep:
            ok = False
            print(f"{name}=invalid {rep[0]}")
        else:
            print(f"{name}=valid")
    print(f"status={'ok' if ok else 'failed'}")
    return 0 if ok else 1


def cmd_fold(args):
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
    if m.n != 1:
        raise Precondition("fold needs exactly one potential entry")
    rep = validate_koszul(m)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    points = _resolve_points(doc, doc.ring, args) or _default_point_map(m)
    _require_on_locus(m.potential, points)
    mf, log = fold_with_witness(m, list(points.values()))
    print(f"object={name}")
    print(f"r0={mf.r0}")
    print(f"r1={mf.r1}")
    print(f"witness_steps={len(log.steps)}")
    for i, step in enumerate(log.steps):
        print(f"step_{i}={step.kind}:{step.orientation}:ok")
    for pname, pt in points.items():
        print(f"residue_homology[{pname}]={_dims_text(residue_homology(mf, pt))}")
    if args.witness:
        docs.write_json(args.witness, docs.witness_payload(log, points))
    if args.output:
        payload = docs.document_payload(
            doc.ring, doc.potential,
            {f"{name}_folded": docs.mf_payload(mf)}, points)
        docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_unfold(args):
    doc = _load(args)
    name, mf = _the_object(doc, MFObject, "mf")
    rep = validate_mf(mf)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    m = orlov_unfold(mf)
    rep = validate_koszul(m)
    if rep:
        print(f"{name}_unfolded=invalid {rep[0]}")
        print("status=failed")
        return 1
    print(f"object={name}")
    print(f"degrees={m.lo}..{m.hi}")
    print(f"ranks={_ranks_text(m)}")
    if args.output:
        payload = docs.document_payload(
            m.ring, m.potential,
            {f"{name}_unfolded": {"type": "koszul_module",
                                  **docs.module_payload(m)}}, doc.points)
        docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_cone(args):
    doc = _load(args)
    name, g = _the_object(doc, (KoszulMorphism, MFMorphism), "morphism")
    if isinstance(g, KoszulMorphism):
        rep = validate_koszul_morphism(g)
        if rep:
            print(f"{name}=invalid {rep[0]}")
            print("status=failed")
            return 1
        cone = cone_koszul(g)
        rep = validate_koszul(cone)
        if rep:
            print(f"{name}_cone=invalid {rep[0]}")
            print("status=failed")
            return 1
        print(f"object={name}")
        print(f"degrees={cone.lo}..{cone.hi}")
        print(f"ranks={_ranks_text(cone)}")
        if args.output:
            payload = docs.document_payload(
                cone.ring, cone.potential,
                {f"{name}_cone": {"type": "koszul_module",
                                  **docs.module_payload(cone)}}, doc.points)
            docs.write_json(args.output, payload)
    else:
        rep = validate_mf_morphism(g)
        if rep:
            print(f"{name}=invalid {rep[0]}")
            print("status=failed")
            return 1
        cone = mf_cone(g)
        rep = validate_mf(cone)
        if rep:
            print(f"{name}_cone=invalid {rep[0]}")
            print("status=failed")
            return 1
        print(f"object={name}")
        print(f"r0={cone.r0}")
        print(f"r1={cone.r1}")
        if args.output:
            payload = docs.document_payload(
                cone.ring, (cone.potential,),
                {f"{name}_cone": docs.mf_payload(cone)}, doc.points)
            docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_shift(args):
    doc = _load(args)
    name, mf = _the_object(doc, MFObject, "mf")
    rep = validate_mf(mf)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    shifted = mf_shift(mf)
    print(f"object={name}")
    print(f"r0={shifted.r0}")
    print(f"r1={shifted.r1}")
    if args.output:
        payload = docs.document_payload(
            shifted.ring, (shifted.potential,),
            {f"{name}_shifted": docs.mf_payload(shifted)}, doc.points)
        docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_tensor(args):
    doc = _load(args)
    found = [(n, o) for n, o in doc.objects.items() if isinstance(o, MFObject)]
    if len(found) != 2:
        raise Precondition(f"need exactly two mf objects, found {len(found)}")
    (name_a, a), (name_b, b) = found
    for name, mf in found:
        rep = validate_mf(mf)
        if rep:
            print(f"{name}=invalid {rep[0]}")
            print("status=failed")
            return 1
    product = mf_tensor(a, b)
    rep = validate_mf(product)
    if rep:
        print(f"tensor=invalid {rep[0]}")
        print("status=failed")
        return 1
    print(f"object={name_a}*{name_b}")
    print(f"f={product.potential}")
    print(f"r0={product.r0}")
    print(f"r1={product.r1}")
    if args.output:
        payload = docs.document_payload(
            product.ring, (product.potential,),
            {f"{name_a}_{name_b}_tensor": docs.mf_payload(product)}, doc.points)
        docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_reduce_amplitude(args):
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
    rep = validate_koszul(m)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    points = _resolve_points(doc, doc.ring, args) or _default_point_map(m)
    _require_on_locus(m.potential, points)
    reduced, log = amplitude_reduce(m)
    rep = validate_log(log, list(points.values()))
    if rep:
        print(f"witness=invalid {rep[0]}")
        print("status=failed")
        return 1
    nred = sum(1 for s in log.steps
               if s.kind == "cone_off_free" and s.orientation == "forward")
    print(f"object={name}")
    print(f"reduction_steps={nred}")
    print(f"witness_steps={len(log.steps)}")
    print(f"degrees={reduced.lo}..{reduced.hi}")
    print(f"ranks={_ranks_text(reduced)}")
    if args.witness:
        docs.write_json(args.witness, docs.witness_payload(log, points))
    if args.output:
        payload = docs.document_payload(
            doc.ring, doc.potential,
            {f"{name}_reduced": {"type": "koszul_module",
                                 **docs.module_payload(reduced)}}, points)
        docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_reduce_codim(args):
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
    rep = validate_koszul(m)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    reduced = codim_reduce_chart(m)
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

    if getattr(args, "then", None) == "fold":
        points = points or _default_point_map(reduced)
        _require_on_locus(reduced.potential, points)
        mf, log = fold_with_witness(reduced, list(points.values()))
        print(f"r0={mf.r0}")
        print(f"r1={mf.r1}")
        print(f"witness_steps={len(log.steps)}")
        for pname, pt in points.items():
            print(f"residue_homology[{pname}]="
                  f"{_dims_text(residue_homology(mf, pt))}")
        if args.witness:
            docs.write_json(args.witness, docs.witness_payload(log, points))
        if args.output:
            payload = docs.document_payload(
                reduced.ring, reduced.potential,
                {f"{name}_folded": docs.mf_payload(mf)}, points)
            docs.write_json(args.output, payload)
    else:
        if args.witness:
            raise Precondition("reduce-codim emits a witness only with "
                               "--then fold")
        if args.output:
            payload = docs.document_payload(
                reduced.ring, reduced.potential,
                {f"{name}_reduced": {"type": "koszul_module",
                                     **docs.module_payload(reduced)}}, points)
            docs.write_json(args.output, payload)
    print("status=ok")
    return 0


def cmd_residue_homology(args):
    doc = _load(args)
    name, mf = _the_object(doc, MFObject, "mf")
    rep = validate_mf(mf)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    points = _resolve_points(doc, doc.ring, args)
    if not points:
        origin = {v: 0 for v in mf.ring.varnames}
        if evaluate(mf.potential, origin) == 0:
            points = {"origin": origin}
        else:
            raise Precondition("no points supplied and the origin does not "
                               "lie on the hypersurface")
    print(f"object={name}")
    for pname, pt in points.items():
        print(f"residue_homology[{pname}]="
              f"{_dims_text(residue_homology(mf, pt))}")
    print("status=ok")
    return 0


def cmd_witness_check(args):
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
    rep = validate_log(log, list(points.values()))
    if rep:
        for line in rep:
            print(f"check={line}")
        print("status=failed")
        return 1
    for i, step in enumerate(log.steps):
        print(f"step_{i}={step.kind}:{step.orientation}:ok")
    print(f"start_degrees={log.start.lo}..{log.start.hi}")
    print(f"end_degrees={log.end.lo}..{log.end.hi}")
    print("status=ok")
    return 0


def cmd_eisenbud(args):
    doc = _load(args)
    name, m = _the_object(doc, KoszulModule, "koszul_module")
    if m.n < 2:
        raise Precondition("operators need at least two potential entries")
    rep = validate_koszul(m)
    if rep:
        print(f"{name}=invalid {rep[0]}")
        print("status=failed")
        return 1
    reduced = codim_reduce_chart(m)
    mf = orlov_fold(reduced)
    ops = {k: eisenbud_operator(m, k) for k in range(1, m.n)}
    print(f"object={name}")
    print(f"operators={len(ops)}")
    ok = True
    for k, op in ops.items():
        rep = validate_mf_morphism(op)
        if rep:
            print(f"eisenbud_{k}=invalid {rep[0]}")
            ok = False
        else:
            print(f"eisenbud_{k}=valid")
    for i in range(1, m.n):
        for j in range(i + 1, m.n):
            left = compose_mf_morphisms(ops[i], ops[j])
            right = compose_mf_morphisms(ops[j], ops[i])
            if left == right:
                print(f"commute_{i}_{j}=ok")
            else:
                print(f"commute_{i}_{j}=failed")
                ok = False
    if args.output:
        objects = {f"{name}_reduced": {"type": "koszul_module",
                                       **docs.module_payload(reduced)},
                   f"{name}_folded": docs.mf_payload(mf)}
        for k, op in ops.items():
            objects[f"t{k}"] = docs.mf_morphism_payload(
                op, f"{name}_folded", f"{name}_folded")
        payload = docs.document_payload(reduced.ring, reduced.potential,
                                        objects)
        docs.write_json(args.output, payload)
    print(f"status={'ok' if ok else 'failed'}")
    return 0 if ok else 1


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
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
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


if __name__ == "__main__":
    raise SystemExit(main())
