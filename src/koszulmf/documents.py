"""Reading and writing the JSON document and witness-log formats.

A document is a single JSON object:

    {
      "ring": {"kind": "polynomial", "vars": ["x", "y"]},       # "p" for F_p
      "potential": ["x*y"],
      "objects": {
        "m3": {"type": "koszul_module", "degrees": [-2, 0],
               "ranks": {"-2": 1, "-1": 2, "0": 1},
               "d": {"-2": [["y"], ["-x"]], "-1": [["x", "y"]]},
               "h": [{"0": [["y"], ["0"]], "-1": [["0", "-y"]]}]}
      },
      "points": {"origin": {"x": 0, "y": 0}}
    }

Matrix entries are polynomial strings (bare integers also accepted).
Omitted matrices and ranks are zero inside the window; a degree outside
the window of its map (`_parse_degree_matrices`) is malformed.  A window
spans at most MAX_DEGREE_SPAN + 1 degrees: every degree of it is
materialized, so a wider one is refused as malformed.  Likewise one object
has a total rank (r0 + r1 for a factorization) of at most MAX_TOTAL_RANK
(koszulmf.complexes), and a document is not written with a larger one.
Object types: complex, koszul_module, mf, koszul_morphism, mf_morphism.
Morphisms name their endpoints, which may appear anywhere in the document.
MF payloads carry their own potential entry "f"; everything graded uses the
document potential.

Witness logs are a separate self-contained format (`witness_payload` /
`parse_witness`): ring, potential, the points used when the log was emitted,
start and end modules, and one payload per step with full matrices, enough
to re-run every check without the emitting document.

Every JSON object is read with the keys its kind defines and no others: an
unknown key is malformed, so a misspelt field is never silently dropped.

Reading a document or a log parses each distinct entry string once: one
memo per document maps entry text to its Poly, which every repeat shares
(polys are immutable), and a second reads each distinct monomial and
fraction once (`ring._flat_terms`).  Nesting deeper than the JSON decoder
or the polynomial parser allows is a DocumentError like any other
malformed input.

All dumps are deterministic: canonical polynomial strings, sorted keys,
two-space indent, trailing newline.  Every payload holds each matrix as a
PolyMatrix leaf.  `dumps` writes exactly the text of `json.dumps(v,
indent=2, sort_keys=True)` plus a newline, where v is the payload with each
leaf replaced by its rows of entry strings, each matrix from its nonzeros
and strings escaped by the C encoder.  `plain` reads that text back as
plain JSON values, and `document_payload` and `witness_payload` return
`plain` of `document` and `witness`.  `write_files` writes all of a command's
files or, when one cannot be staged or written, none, each through
`write_json`.
"""

import json
import os
import stat
from collections import namedtuple
from fractions import Fraction

from koszulmf.complexes import MAX_TOTAL_RANK, FreeComplex, PolyMatrix
from koszulmf.koszul import KoszulModule, KoszulMorphism, free_ranks
from koszulmf.mf import MFMorphism, MFObject
from koszulmf.reduce import WitnessLog, WitnessStep
from koszulmf.ring import (ParseError, normalize_scalar, parse_poly,
                           polynomial_ring, prime_field, rationals)

WITNESS_SCHEMA = "koszulmf.witness/1"

# largest hi - lo of a degree window [lo, hi] in a document or witness log;
# the constructions build a rank and a differential for every degree of it
MAX_DEGREE_SPAN = 1000


class DocumentError(ValueError):
    """Anything wrong with a document file: unreadable, bad JSON, bad schema,
    or an entry that fails to parse."""


# a parsed document: objects maps name -> library object in document order,
# points maps name -> {var: scalar}
Document = namedtuple("Document", "ring potential objects points")


def _expect(cond, msg):
    if not cond:
        raise DocumentError(msg)


def _construct(where, cls, *args):
    """cls(*args), with the constructor's ValueError reported at `where`."""
    try:
        return cls(*args)
    except ValueError as e:
        raise DocumentError(f"{where}: {e}")


# the keys each kind of JSON object may carry; any other key is refused
_DOCUMENT_KEYS = frozenset({"ring", "potential", "objects", "points"})
_WITNESS_KEYS = frozenset({"schema", "ring", "potential", "points", "start",
                           "end", "steps"})
_COMPLEX_KEYS = frozenset({"degrees", "ranks", "d"})
_MODULE_KEYS = _COMPLEX_KEYS | {"h"}
_RING_KEYS = {"rationals": {"kind"}, "prime_field": {"kind", "p"},
              "polynomial": {"kind", "vars", "p"}}
_OBJECT_KEYS = {
    "complex": _COMPLEX_KEYS | {"type"},
    "koszul_module": _MODULE_KEYS | {"type"},
    "mf": {"type", "f", "r0", "r1", "phi0", "phi1"},
    "koszul_morphism": {"type", "source", "target", "components"},
    "mf_morphism": {"type", "source", "target", "alpha0", "alpha1"},
}
_STEP_KEYS = {
    "cone_off_free": {"kind", "orientation", "generators", "target",
                      "components"},
    "explicit_quasi_iso": {"kind", "orientation", "source", "target",
                           "components"},
    "shift_by_two": {"kind", "orientation", "offset"},
}


def _fields(payload, where, allowed):
    """`payload` as a JSON object none of whose keys lies outside
    `allowed`."""
    _expect(isinstance(payload, dict), f"{where}: must be an object")
    for key in payload:
        _expect(key in allowed, f"{where}: unknown key {key!r}")
    return payload


def _mapping(payload, where, what):
    """An optional JSON object (absent reads as empty); `what` names what it
    maps, for the error."""
    if payload is None:
        return {}
    _expect(isinstance(payload, dict), f"{where}: must map {what}")
    return payload


def _degree(key, where):
    """The degree a key spells as `str` prints it: int() also reads " -2",
    "+1", "0_0" and "٠", and two spellings of one degree would replace each
    other."""
    try:
        deg = int(key)
    except ValueError:
        deg = None
    _expect(deg is not None and str(deg) == key,
            f"{where}: bad degree key {key!r}")
    return deg


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_ring_payload(payload):
    _expect(isinstance(payload, dict), "ring must be an object")
    kind = payload.get("kind")
    _expect(isinstance(kind, str) and kind in _RING_KEYS,
            f"unknown ring kind {kind!r}")
    _fields(payload, "ring", _RING_KEYS[kind])
    # the base field: F_p when p is given (prime_field needs it), else Q
    p = payload.get("p")
    base = rationals()
    if kind == "prime_field" or p is not None:
        _expect(type(p) is int, "ring: p must be an integer")
        base = _construct("ring", prime_field, p)
    if kind != "polynomial":
        return base
    vars_ = payload.get("vars")
    _expect(isinstance(vars_, list) and vars_
            and all(isinstance(v, str) for v in vars_),
            "polynomial ring needs a nonempty list of variable names")
    return _construct("ring", polynomial_ring, base, tuple(vars_))


def _parse_entry(ring, text, where, memo=None):
    """Parse one entry, a string or an integer (JSON `true` and `false` are
    not).  `memo` is the pair of one read's memos: entry text -> the Poly
    it parsed to, which every repeat shares (polys are immutable), and the
    `parse_poly` memo of monomials and fractions, kept apart since "x*y" is
    both kinds of text.  A malformed entry is not stored, so it is reported
    at its first location."""
    if type(text) is int:
        text = str(text)
    _expect(isinstance(text, str),
            f"{where}: matrix entry {str(text)!r} is not a string or an "
            "integer")
    entries, terms = ({}, {}) if memo is None else memo
    poly = entries.get(text)
    if poly is None:
        try:
            poly = entries[text] = parse_poly(text, ring, terms)
        except ParseError as e:
            raise DocumentError(f"{where}: {e}")
    return poly


def _parse_matrix(ring, payload, rows, cols, where, memo):
    """The rows x cols matrix of a payload of rows of entries.  The row
    types and lengths are checked in C-level passes; each cell other than
    "0" is looked up in the read's entry memo first and goes to
    `_parse_entry` only when it misses, so a malformed entry is still
    reported at its first location, and a zero entry is never stored."""
    _expect(type(payload) is list and len(payload) == rows
            and set(map(type, payload)) <= {list}
            and set(map(len, payload)) <= {cols},
            f"{where}: expected a {rows}x{cols} matrix")
    if memo is None:
        memo = {}, {}
    get = memo[0].get
    nz = {}
    for i, row in enumerate(payload):
        if row.count("0") == cols:
            continue
        parsed = {}
        for j, text in enumerate(row):
            if text != "0":
                try:
                    e = get(text)
                except TypeError:   # unhashable: _parse_entry refuses it
                    e = None
                if e is None:
                    e = _parse_entry(ring, text, where, memo)
                if e.terms:
                    parsed[j] = e
        if parsed:
            nz[i] = parsed
    return PolyMatrix(ring, rows, cols, trusted=nz)


def _check_size(total, where):
    _expect(total <= MAX_TOTAL_RANK,
            f"{where}: total rank {total} is past {MAX_TOTAL_RANK}")


def _parse_window(payload, where):
    _expect(isinstance(payload, dict), f"{where}: must be an object")
    degs = payload.get("degrees")
    _expect(isinstance(degs, list) and len(degs) == 2
            and all(type(d) is int for d in degs) and degs[0] <= degs[1],
            f"{where}: degrees must be [lo, hi] with lo <= hi")
    lo, hi = degs
    _expect(hi - lo <= MAX_DEGREE_SPAN,
            f"{where}: degree window [{lo}, {hi}] spans more than "
            f"{MAX_DEGREE_SPAN} degrees")
    ranks_raw = payload.get("ranks")
    _expect(isinstance(ranks_raw, dict), f"{where}: ranks must be an object")
    ranks = dict.fromkeys(range(lo, hi + 1), 0)
    for key, val in ranks_raw.items():
        deg = _degree(key, where)
        _expect(type(val) is int and val >= 0,
                f"{where}: rank at {deg} must be a nonnegative integer")
        _expect(lo <= deg <= hi, f"{where}: rank at {deg} outside window")
        ranks[deg] = val
    _check_size(sum(ranks.values()), where)
    return lo, hi, ranks


def _parse_degree_matrices(ring, payload, target_rank, source_rank, shift,
                           window, where, memo):
    """Degree-keyed matrix map (differentials, contractions, morphism
    components) on the degrees of `window` = (lo, hi); at degree m the shape
    is target_rank(m + shift) x source_rank(m)."""
    lo, hi = window
    out = {}
    for key, val in _mapping(payload, where, "degrees to matrices").items():
        deg = _degree(key, where)
        _expect(lo <= deg <= hi, f"{where}: degree {deg} outside window")
        out[deg] = _parse_matrix(ring, val, target_rank(deg + shift),
                                 source_rank(deg), f"{where}[{deg}]", memo)
    return out


def _parse_components(ring, payload, source_rank, source_window, target,
                      where, memo):
    """Morphism components, on the window spanning both ends."""
    window = (min(source_window[0], target.lo),
              max(source_window[1], target.hi))
    return _parse_degree_matrices(ring, payload, target.rank, source_rank, 0,
                                  window, f"{where}.components", memo)


def parse_complex_payload(ring, payload, where, memo=None):
    lo, hi, ranks = _parse_window(payload, where)
    rank = lambda m: ranks.get(m, 0)
    diffs = _parse_degree_matrices(ring, payload.get("d"), rank, rank, 1,
                                   (lo, hi - 1), f"{where}.d", memo)
    return _construct(where, FreeComplex, ring, lo, hi, ranks, diffs)


def parse_module_payload(ring, potential, payload, where, memo=None):
    underlying = parse_complex_payload(ring, payload, where, memo)
    hs = payload.get("h")
    _expect(isinstance(hs, list) and len(hs) == len(potential),
            f"{where}: need {len(potential)} h families")
    window = (underlying.lo, underlying.hi)
    fams = [_parse_degree_matrices(ring, fam, underlying.rank, underlying.rank,
                                   -1, window, f"{where}.h[{i}]", memo)
            for i, fam in enumerate(hs)]
    return _construct(where, KoszulModule, ring, potential, underlying, fams)


def parse_mf_payload(ring, payload, where, memo=None):
    f = _parse_entry(ring, payload.get("f", ""), f"{where}.f", memo)
    r0, r1 = payload.get("r0"), payload.get("r1")
    _expect(type(r0) is int and type(r1) is int and r0 >= 0 and r1 >= 0,
            f"{where}: r0 and r1 must be nonnegative integers")
    _check_size(r0 + r1, where)
    phi0 = _parse_matrix(ring, payload.get("phi0"), r1, r0, f"{where}.phi0",
                         memo)
    phi1 = _parse_matrix(ring, payload.get("phi1"), r0, r1, f"{where}.phi1",
                         memo)
    return _construct(where, MFObject, ring, f, r0, r1, phi0, phi1)


def _parse_scalar(ring, value, where):
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"{where}: bad scalar {value!r}")
    _expect(type(value) in (int, Fraction),
            f"{where}: point values must be integers or fractions")
    try:
        return normalize_scalar(ring, Fraction(value))
    except ZeroDivisionError:
        raise DocumentError(f"{where}: denominator vanishes mod p")


def _parse_points(ring, payload):
    return {name: parse_point_payload(ring, pt, f"points.{name}")
            for name, pt in _mapping(payload, "points",
                                     "names to points").items()}


def parse_point_payload(ring, payload, where):
    _expect(isinstance(payload, dict), f"{where}: a point maps vars to values")
    point = {}
    for var, value in payload.items():
        _expect(var in ring.varnames, f"{where}: unknown variable {var!r}")
        point[var] = _parse_scalar(ring, value, f"{where}.{var}")
    for var in ring.varnames:
        _expect(var in point, f"{where}: missing variable {var!r}")
    return point


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")
    except ValueError as e:
        # JSONDecodeError, UnicodeDecodeError, or an integer literal longer
        # than the interpreter converts
        raise DocumentError(f"{path}: not valid JSON: {e}")
    except RecursionError:
        # the C decoder refuses nesting deeper than the recursion limit
        raise DocumentError(f"{path}: not valid JSON: nested too deeply")


def load_document(path):
    return parse_document(_read_json(path))


def _parse_ring_and_potential(raw, memo):
    ring = parse_ring_payload(raw.get("ring"))
    pot_raw = raw.get("potential")
    _expect(isinstance(pot_raw, list) and pot_raw,
            "potential must be a nonempty list")
    return ring, tuple(_parse_entry(ring, f, f"potential[{i}]", memo)
                       for i, f in enumerate(pot_raw))


def parse_document(raw):
    _expect(isinstance(raw, dict), "document must be a JSON object")
    # a witness log reads as a document without objects
    _fields(raw, "document", _WITNESS_KEYS
            if raw.get("schema") == WITNESS_SCHEMA else _DOCUMENT_KEYS)
    memo = {}, {}
    ring, potential = _parse_ring_and_potential(raw, memo)

    # two passes: morphisms may name their endpoints anywhere in the file
    # (canonical dumps sort object names, so "earlier" is not reliable)
    objects = {}
    deferred = []
    objects_raw = _mapping(raw.get("objects"), "objects", "names to objects")
    for name, payload in objects_raw.items():
        where = f"objects.{name}"
        _expect(isinstance(payload, dict), f"{where}: must be an object")
        typ = payload.get("type")
        _expect(isinstance(typ, str) and typ in _OBJECT_KEYS,
                f"{where}: unknown type {typ!r}")
        _fields(payload, where, _OBJECT_KEYS[typ])
        if typ == "complex":
            objects[name] = parse_complex_payload(ring, payload, where, memo)
        elif typ == "koszul_module":
            objects[name] = parse_module_payload(ring, potential, payload,
                                                 where, memo)
        elif typ == "mf":
            objects[name] = parse_mf_payload(ring, payload, where, memo)
        else:
            objects[name] = None    # placeholder keeps document order
            deferred.append((name, payload, where, typ))
    for name, payload, where, typ in deferred:
        objects[name] = _parse_morphism(ring, payload, objects, where, typ,
                                        memo)
    return Document(ring, potential, objects,
                    _parse_points(ring, raw.get("points")))


def _resolve(objects, name, want, where):
    _expect(isinstance(name, str) and name in objects,
            f"{where}: unknown object {name!r}")
    obj = objects[name]
    _expect(isinstance(obj, want), f"{where}: {name!r} has the wrong type")
    return obj


def _parse_morphism(ring, payload, objects, where, typ, memo):
    if typ == "koszul_morphism":
        src = _resolve(objects, payload.get("source"), KoszulModule,
                       f"{where}.source")
        tgt = _resolve(objects, payload.get("target"), KoszulModule,
                       f"{where}.target")
        comps = _parse_components(ring, payload.get("components"), src.rank,
                                  (src.lo, src.hi), tgt, where, memo)
        return _construct(where, KoszulMorphism, src, tgt, comps)
    src = _resolve(objects, payload.get("source"), MFObject, f"{where}.source")
    tgt = _resolve(objects, payload.get("target"), MFObject, f"{where}.target")
    a0 = _parse_matrix(ring, payload.get("alpha0"), tgt.r0, src.r0,
                       f"{where}.alpha0", memo)
    a1 = _parse_matrix(ring, payload.get("alpha1"), tgt.r1, src.r1,
                       f"{where}.alpha1", memo)
    return _construct(where, MFMorphism, src, tgt, a0, a1)


# ---------------------------------------------------------------------------
# payload builders (library objects -> payloads with matrix leaves)
# ---------------------------------------------------------------------------

def ring_payload(ring):
    if ring.varnames:
        out = {"kind": "polynomial", "vars": list(ring.varnames)}
    else:
        out = {"kind": "prime_field" if ring.char else "rationals"}
    if ring.char:
        out["p"] = ring.char
    return out


def complex_payload(c):
    return {
        "degrees": [c.lo, c.hi],
        "ranks": {str(m): c.rank(m) for m in range(c.lo, c.hi + 1)},
        "d": {str(m): c.diff(m) for m in range(c.lo, c.hi)},
    }


def module_payload(m):
    out = complex_payload(m.underlying)
    out["h"] = [{str(d): m.hop(i, d) for d in range(m.lo, m.hi + 1)}
                for i in range(m.n)]
    return out


def mf_payload(mf):
    return {
        "type": "mf",
        "f": str(mf.potential),
        "r0": mf.r0,
        "r1": mf.r1,
        "phi0": mf.phi0,
        "phi1": mf.phi1,
    }


def point_payload(point):
    return {var: str(val) for var, val in point.items()}


def total_rank(obj):
    """The size MAX_TOTAL_RANK bounds: r0 + r1 of a factorization, a
    module's ranks summed over its window; 0 for anything else."""
    if isinstance(obj, MFObject):
        return obj.r0 + obj.r1
    if isinstance(obj, KoszulModule):
        return sum(obj.underlying.ranks.values())
    return 0


def document(ring, potential, objects, points=None):
    """The payload of a document.  objects: name -> Koszul module,
    factorization, factorization morphism (whose ends are objects of the
    same document) or ready payload dict (with its "type" key)."""
    names = {id(obj): name for name, obj in objects.items()}
    payloads = {}
    for name, obj in objects.items():
        size = total_rank(obj)
        if size > MAX_TOTAL_RANK:
            # refused when read back, so not written
            raise ValueError(f"objects.{name}: total rank {size} is past "
                             f"{MAX_TOTAL_RANK}")
        if isinstance(obj, KoszulModule):
            obj = {"type": "koszul_module", **module_payload(obj)}
        elif isinstance(obj, MFObject):
            obj = mf_payload(obj)
        elif isinstance(obj, MFMorphism):
            obj = {"type": "mf_morphism", "source": names[id(obj.source)],
                   "target": names[id(obj.target)],
                   "alpha0": obj.alpha0, "alpha1": obj.alpha1}
        payloads[name] = obj
    out = {
        "ring": ring_payload(ring),
        "potential": [str(f) for f in potential],
        "objects": payloads,
    }
    if points:
        out["points"] = {name: point_payload(pt) for name, pt in points.items()}
    return out


def document_payload(ring, potential, objects, points=None):
    """`plain(document(...))`: the document as plain JSON values."""
    return plain(document(ring, potential, objects, points))


def plain(payload):
    """`payload` as plain JSON values, each PolyMatrix leaf, at any depth,
    its rows of entry strings: the JSON text `dumps` writes, read back, so
    the matrix layout has one owner."""
    return json.loads(dumps(payload))


_encode_str = json.encoder.encode_basestring_ascii   # the C encoder
_ZERO = _encode_str("0")


def _write_matrix(mat, nl, out, memo):
    """Append the text of `mat` as rows of entry strings, from its nonzeros:
    an all-zero row is one string per (column count, indent), and a row
    with nonzeros is one join of a copied zero row.  `memo` holds the
    encoded text of each poly by id (the payload keeps every poly alive)
    and each zero row by (cols, nl)."""
    if not mat.rows:
        out.append("[]")
        return
    inner = nl + "  "
    cols = mat.cols
    zero = "[]"
    if cols:
        cell_sep = "," + inner + "  "
        head, tail = "[" + inner + "  ", inner + "]"
        zero = memo.get((cols, nl))
        if zero is None:
            zero = memo[cols, nl] = head + cell_sep.join([_ZERO] * cols) + tail
    rows = [zero] * mat.rows
    for i, row in mat.nz.items():
        cells = [_ZERO] * cols
        for j, e in row.items():
            text = memo.get(id(e))
            if text is None:
                text = memo[id(e)] = _encode_str(str(e))
            cells[j] = text
        rows[i] = head + cell_sep.join(cells) + tail
    out.append("[" + inner + ("," + inner).join(rows) + nl + "]")


def _write_value(obj, nl, out, memo):
    """Append the canonical text of `obj` to `out`; `nl` is a newline plus
    the indent of the line `obj` starts on, and `memo` is the one
    `_write_matrix` memo of the whole text."""
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if type(obj[0]) is str:
            # a matrix row: one join, unless a non-string follows
            try:
                out.append("[" + inner + sep.join(map(_encode_str, obj))
                           + nl + "]")
                return
            except TypeError:
                pass
        out.append("[" + inner)
        _write_value(obj[0], inner, out, memo)
        for item in obj[1:]:
            out.append(sep)
            _write_value(item, inner, out, memo)
        out.append(nl + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"object keys must be strings, not "
                                f"{type(key).__name__}")
        inner = nl + "  "
        out.append("{")
        sep = inner
        for key in sorted(obj):
            out.append(sep + _encode_str(key) + ": ")
            _write_value(obj[key], inner, out, memo)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is PolyMatrix:
        _write_matrix(obj, nl, out, memo)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif kind is int:
        out.append(repr(obj))
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def dumps(payload):
    """Canonical JSON text of a payload of dicts with string keys, lists,
    strings, ints, booleans, None and PolyMatrix leaves: the bytes of
    `json.dumps(v, indent=2, sort_keys=True)` plus a newline, v the payload
    with each leaf replaced by its rows of entry strings, written without
    the pure-Python encoder that `indent` selects and printing each
    distinct entry once.  Any other type is a TypeError."""
    out = []
    _write_value(payload, "\n", out, {})
    out.append("\n")
    return "".join(out)


def write_json(path, payload):
    """Write `dumps(payload)` to `path`, rendered before the file is
    opened: a payload that cannot be rendered leaves the file as it was."""
    text = dumps(payload)
    with open(path, "w") as fh:
        fh.write(text)


def write_files(files):
    """Write each (path, payload) pair of `files` through `write_json`: all
    of them or, when one cannot be staged or written, none.  A directory is
    refused first.  A path that is absent, or a regular file of one link
    this process may write, in a directory it may write, gets a staged file
    there.  Any other path (a device, FIFO or symlink, say) is written in
    place once every staged file is, so it keeps its kind and links.  The
    staged files replace their paths last; only a failure there leaves an
    earlier path replaced.  An unwritable path is a ValueError naming it."""
    staged, in_place = [], []   # (staged file, its path), (path, payload)
    try:
        for path, payload in files:
            if os.path.isdir(path):
                raise ValueError(f"cannot write {path}: Is a directory")
            folder = os.path.dirname(path) or "."
            st = os.lstat(path) if os.path.lexists(path) else None
            if (st and (not stat.S_ISREG(st.st_mode) or st.st_nlink > 1
                        or not os.access(path, os.W_OK))
                    or not os.access(folder, os.W_OK)):
                in_place.append((path, payload))
                continue
            tmp = os.path.join(folder,
                               f".koszulmf-{os.getpid()}-{len(staged)}.tmp")
            staged.append((tmp, path))
            write_json(tmp, payload)
        for path, payload in in_place:
            write_json(path, payload)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as e:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        if isinstance(e, OSError):
            raise ValueError(f"cannot write {path}: {e.strerror or e}")
        raise


# ---------------------------------------------------------------------------
# witness logs
# ---------------------------------------------------------------------------

def _step_payload(step):
    out = {"kind": step.kind, "orientation": step.orientation}
    if step.kind == "shift_by_two":
        out["offset"] = step.offset
        return out
    g = step.morphism
    if step.kind == "cone_off_free":
        out["generators"] = complex_payload(step.generators)
    else:
        out["source"] = module_payload(g.source)
    out["target"] = module_payload(g.target)
    out["components"] = {str(d): g.component(d)
                         for d in range(g.lo, g.hi + 1)}
    return out


def witness(log, points=None):
    """The payload of a witness log, with the points it records."""
    ring = log.start.ring
    return {
        "schema": WITNESS_SCHEMA,
        "ring": ring_payload(ring),
        "potential": [str(f) for f in log.start.potential],
        "points": {name: point_payload(pt)
                   for name, pt in (points or {}).items()},
        "start": module_payload(log.start),
        "end": module_payload(log.end),
        "steps": [_step_payload(s) for s in log.steps],
    }


def witness_payload(log, points=None):
    """`plain(witness(log, points))`: the log as plain JSON values."""
    return plain(witness(log, points))


def parse_witness(raw):
    """Rebuild a WitnessLog (plus its stored points) from a payload."""
    _expect(isinstance(raw, dict), "witness must be a JSON object")
    _expect(raw.get("schema") == WITNESS_SCHEMA,
            f"unknown witness schema {raw.get('schema')!r}")
    _fields(raw, "witness", _WITNESS_KEYS)
    memo = {}, {}
    ring, potential = _parse_ring_and_potential(raw, memo)

    def module_at(payload, where):
        return parse_module_payload(
            ring, potential, _fields(payload, where, _MODULE_KEYS), where,
            memo)

    start = module_at(raw.get("start"), "start")
    end = module_at(raw.get("end"), "end")

    steps = []
    steps_raw = raw.get("steps")
    _expect(isinstance(steps_raw, list), "steps must be a list")
    for i, sp in enumerate(steps_raw):
        where = f"steps[{i}]"
        _expect(isinstance(sp, dict), f"{where}: must be an object")
        kind = sp.get("kind")
        orientation = sp.get("orientation")
        _expect(orientation in ("forward", "backward"),
                f"{where}: bad orientation {orientation!r}")
        _expect(isinstance(kind, str) and kind in _STEP_KEYS,
                f"{where}: unknown kind {kind!r}")
        _fields(sp, where, _STEP_KEYS[kind])
        if kind == "cone_off_free":
            gwhere = f"{where}.generators"
            gens = parse_complex_payload(
                ring, _fields(sp.get("generators"), gwhere, _COMPLEX_KEYS),
                gwhere, memo)
            _check_size(sum(gens.ranks.values()) << len(potential),
                        f"{gwhere} (free module)")
            target = module_at(sp.get("target"), f"{where}.target")
            ranks = free_ranks(gens, len(potential))
            comps = _parse_components(
                ring, sp.get("components"), lambda u: ranks.get(u, 0),
                (gens.lo - len(potential), gens.hi), target, where, memo)
            steps.append(WitnessStep(kind, orientation, generators=gens,
                                     target=target, components=comps))
        elif kind == "explicit_quasi_iso":
            source = module_at(sp.get("source"), f"{where}.source")
            target = module_at(sp.get("target"), f"{where}.target")
            comps = _parse_components(ring, sp.get("components"), source.rank,
                                      (source.lo, source.hi), target, where,
                                      memo)
            g = _construct(where, KoszulMorphism, source, target, comps)
            steps.append(WitnessStep(kind, orientation, morphism=g))
        else:
            offset = sp.get("offset")
            _expect(type(offset) is int and offset % 2 == 0,
                    f"{where}: offset must be an even integer")
            steps.append(WitnessStep(kind, orientation, offset=offset))

    points = _parse_points(ring, raw.get("points"))
    return WitnessLog(start, end, steps), points


def load_witness(path):
    return parse_witness(_read_json(path))
