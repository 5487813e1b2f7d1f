"""Mutants of the trusted base, each with the tests that must kill it.

    python tests/mutants.py [NAME ...]

runs every mutant (or the named ones) strictly one after another.  For
each, the runner copies `src/` into a fresh temporary directory, replaces
the mutant's text (which must occur exactly once in its file) and runs its
pytest selection with `-x -q` against that copy, with a per-mutant
timeout.  The selection runs under the Hypothesis profile `mutants` of
tests/conftest.py (no shrink phase, no example database) and a fixed
Hypothesis seed: `-x` stops at the first failure, which shrinking would
only make smaller, and the same mutant meets the same examples on every
run.  It prints one line per mutant: killed (the selection failed),
survived (it passed) or timed out.  A mutant in EQUIVALENT cannot change
what the program computes, and the reason is printed beside its verdict; a
survivor that is not in EQUIVALENT is a hole in the tests.  The exit code
is 1 when such a survivor or a timeout is found, else 0.

The file is not collected by pytest (its name does not match `test_*.py`);
tests/test_mutants.py checks that every mutant's text still occurs exactly
once in `src/`, without running the mutants.  Background: DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# seconds one mutant's selection may run; a mutant can loop forever
TIMEOUT = 600

# the Hypothesis options of every selection (see the module docstring)
HYPOTHESIS = ["--hypothesis-profile", "mutants", "--hypothesis-seed", "0"]

# name -> (file under src/, exact text, replacement, pytest selection)
MUTANTS = {
    "morphism_d_square_never_fails": (
        "koszulmf/koszul.py",
        "at = _square(tgt.diff(m), g.component(m),\n"
        "                     g.component(m + 1), src.diff(m))",
        "at = _square(tgt.diff(m), g.component(m),\n"
        "                     tgt.diff(m), g.component(m))",
        ["tests/test_koszul.py"]),
    "zero_factor_side_compares_equal": (
        "koszulmf/koszul.py",
        "if lhs == rhs:",
        "if lhs == rhs or lhs.is_zero or rhs.is_zero:",
        ["tests/test_koszul.py"]),
    "zero_factor_side_skips_the_shape_check": (
        "koszulmf/koszul.py",
        "if a.nz and b.nz or a.cols != b.rows or a.ring is not b.ring:",
        "if a.nz and b.nz:",
        ["tests/test_koszul.py"]),
    "morphism_shape_check_never_fails": (
        "koszulmf/koszul.py",
        "if (c.rows, c.cols) != (tgt.rank(m), src.rank(m))]",
        "if (c.rows, c.cols) != (c.rows, c.cols)]",
        ["tests/test_koszul.py"]),
    "cone_without_morphism_block": (
        "koszulmf/koszul.py",
        "maps(src.diff, tgt.diff, 1, range(lo, hi), g.component)",
        "maps(src.diff, tgt.diff, 1, range(lo, hi))",
        ["tests/test_graded_map.py", "tests/test_koszul.py"]),
    "cone_h_moves_up": (
        "koszulmf/koszul.py",
        "rule = cone_rule(fs, ft, lambda k: k + step, block)",
        "rule = cone_rule(fs, ft, lambda k: k + 1, block)",
        ["tests/test_graded_map.py", "tests/test_koszul.py"]),
    "cone_window_lo": (
        "koszulmf/koszul.py",
        "lo, hi = min(src.lo - 1, tgt.lo), max(src.hi - 1, tgt.hi)",
        "lo, hi = min(src.lo, tgt.lo), max(src.hi - 1, tgt.hi)",
        ["tests/test_graded_map.py", "tests/test_evidence.py"]),
    "cone_window_hi": (
        "koszulmf/koszul.py",
        "lo, hi = min(src.lo - 1, tgt.lo), max(src.hi - 1, tgt.hi)",
        "lo, hi = min(src.lo - 1, tgt.lo), max(src.hi, tgt.hi)",
        ["tests/test_graded_map.py", "tests/test_evidence.py"]),
    "shift_without_sign": (
        "koszulmf/koszul.py",
        "return {u: shift_sign(f(u + k), k) for u in degrees}",
        "return {u: f(u + k) for u in degrees}",
        ["tests/test_koszul.py"]),
    "evidence_without_previous_rank": (
        "koszulmf/koszul.py",
        "== ranks.get(m, 0) + ranks.get(m - 1, 0)",
        "== ranks.get(m, 0)",
        ["tests/test_evidence.py"]),
    "cone_rule_source_block_not_negated": (
        "koszulmf/complexes.py",
        'yield ("s", move(k)), -fs(k)',
        'yield ("s", move(k)), fs(k)',
        ["tests/test_graded_map.py", "tests/test_koszul.py"]),
    "kron_shortcut_places_the_unit": (
        "koszulmf/complexes.py",
        "t = g if unit else e if g.terms == one else e * g",
        "t = e if unit else e if g.terms == one else e * g",
        ["tests/test_complexes.py"]),
    "monomial_memo_keeps_a_declined_monomial": (
        "koszulmf/ring.py",
        "            if exps is None:\n"
        "                return None\n"
        "            memo[mono] = exps\n",
        "            memo[mono] = exps or (0,) * len(ring.varnames)\n"
        "            if exps is None:\n"
        "                return None\n",
        ["tests/test_ring.py"]),
    "fraction_memo_keyed_without_the_sign": (
        "koszulmf/ring.py",
        "key = (sign, num, den)",
        "key = (num, den)",
        ["tests/test_ring.py"]),
    "packing_base_without_the_carry_digit": (
        "koszulmf/complexes.py",
        "b = 2 * top + 1",
        "b = 2 * top",
        ["tests/test_complexes.py"]),
    "list_sums_skip_slot_0": (
        "koszulmf/complexes.py",
        "for m, v in filter(itemgetter(1), enumerate(out)):",
        "for m, v in filter(itemgetter(1), enumerate(out[1:], 1)):",
        ["tests/test_complexes.py"]),
    "dense_sum_overwrites": (
        "koszulmf/complexes.py",
        "out[ka + kb] += va * vb",
        "out[ka + kb] = va * vb",
        ["tests/test_complexes.py"]),
    "dense_rule_boundary_excluded": (
        "koszulmf/complexes.py",
        "if size * slots > pairs:",
        "if size * slots >= pairs:",
        ["tests/test_complexes.py"]),
    "right_selection_not_injective": (
        "koszulmf/complexes.py",
        "if len(set(cols.values())) == len(cols):",
        "if True:",
        ["tests/test_selection.py", "tests/test_complexes.py"]),
    "signed_selection_drops_sign": (
        "koszulmf/complexes.py",
        "                elif c == minus:\n"
        "                    neg = e\n"
        "                    negated.add(i)\n",
        "                elif c == minus:\n"
        "                    plus = e\n",
        ["tests/test_selection.py", "tests/test_complexes.py"]),
    "normal_terms_floor_divide": (
        "koszulmf/complexes.py",
        "v = v // d if v % d == 0 else Fraction(v, d)",
        "v = v // d",
        ["tests/test_complexes.py"]),
    "flat_budget_unchecked_after_a_merge": (
        "koszulmf/ring.py",
        "if len(out) < len(items):",
        "if False:",
        ["tests/test_ring.py"]),
    "ring_interning_key_drops_the_characteristic": (
        "koszulmf/ring.py",
        "key = (char, varnames)",
        "key = varnames",
        ["tests/test_ring.py"]),
    "ring_payload_drops_p_of_a_polynomial_ring": (
        "koszulmf/documents.py",
        "    if ring.char:\n        out[\"p\"] = ring.char\n",
        "    if ring.char and not ring.varnames:\n"
        "        out[\"p\"] = ring.char\n",
        ["tests/test_documents.py"]),
    "memo_first_skips_zero_entry_check": (
        "koszulmf/documents.py",
        "                if e is None:\n"
        "                    e = _parse_entry(ring, text, where, memo)\n"
        "                if e.terms:\n"
        "                    parsed[j] = e\n",
        "                if e is None:\n"
        "                    e = _parse_entry(ring, text, where, memo)\n"
        "                    if e.terms:\n"
        "                        parsed[j] = e\n"
        "                else:\n"
        "                    parsed[j] = e\n",
        ["tests/test_documents.py"]),
    "degree_key_read_in_any_int_spelling": (
        "koszulmf/documents.py",
        "_expect(deg is not None and str(deg) == key,",
        "_expect(deg is not None,",
        ["tests/test_documents.py"]),
    "witness_check_skips_the_start_binding": (
        "koszulmf/cli.py",
        "if starts is not None and log.start not in starts:",
        "if False:",
        ["tests/test_cli.py"]),
    "replay_skips_the_forward_source_joint": (
        "koszulmf/reduce.py",
        "if g.source != current:",
        "if False:",
        ["tests/test_reduce.py"]),
    "replay_skips_the_backward_cone_joint": (
        "koszulmf/reduce.py",
        "if cone_koszul(psi) != current:",
        "if False:",
        ["tests/test_reduce.py"]),
    "replay_skips_the_backward_target_joint": (
        "koszulmf/reduce.py",
        "if g.target != current:",
        "if False:",
        ["tests/test_reduce.py"]),
    "free_koszul_contraction_unsigned": (
        "koszulmf/koszul.py",
        "f = potential[i_j] if j % 2 == 0 else neg_potential[i_j]",
        "f = potential[i_j]",
        ["tests/test_koszul.py"]),
    "mf_shortcut_without_equal_ranks": (
        "koszulmf/mf.py",
        "square = m.r0 == m.r1 and not f.is_zero",
        "square = not f.is_zero",
        ["tests/test_mf.py"]),
    "mf_shortcut_without_nonzero_potential": (
        "koszulmf/mf.py",
        "square = m.r0 == m.r1 and not f.is_zero",
        "square = m.r0 == m.r1",
        ["tests/test_mf.py"]),
    "slot_reader_skips_the_off_diagonal": (
        "koszulmf/complexes.py",
        "if j != i and any(out) and (not p or any(v % p for v in out)):",
        "if False:",
        ["tests/test_mf.py"]),
    "slot_reader_diagonal_without_mod_p": (
        "koszulmf/complexes.py",
        "diagonal = [v % p for v in diagonal]",
        "diagonal = list(diagonal)",
        ["tests/test_mf.py"]),
    "slot_reader_packs_f_without_d": (
        "koszulmf/complexes.py",
        "want[sum(map(mul, k, powers))] = c.numerator * (d // c.denominator)",
        "want[sum(map(mul, k, powers))] = c.numerator * (1 // c.denominator)",
        ["tests/test_mf.py"]),
    "slot_reader_packs_f_past_the_box": (
        "koszulmf/complexes.py",
        "if max(k) >= base or d % c.denominator:",
        "if d % c.denominator:",
        ["tests/test_mf.py"]),
    "slot_reader_floors_a_coefficient_of_f": (
        "koszulmf/complexes.py",
        "if max(k) >= base or d % c.denominator:",
        "if max(k) >= base:",
        ["tests/test_mf.py"]),
    "tensor_rule_without_sign": (
        "koszulmf/complexes.py",
        "yield (p, move(q)), blk if p % 2 == 0 else -blk",
        "yield (p, move(q)), blk",
        ["tests/test_graded_map.py", "tests/test_mf.py"]),
    "tensor_check_without_the_second_factor_sign": (
        "koszulmf/mf.py",
        "negate = tp == 1",
        "negate = False",
        ["tests/test_mf.py"]),
    "tensor_check_without_the_nnz_total": (
        "koszulmf/mf.py",
        "if _nnz(mat.nz) == want:",
        "if True:",
        ["tests/test_mf.py"]),
    "tensor_check_without_the_potential": (
        "koszulmf/mf.py",
        "if t.potential != embed(a.potential, ring) + embed(b.potential, "
        "ring, off):",
        "if False:",
        ["tests/test_mf.py"]),
    "tensor_check_off_the_identity_diagonal": (
        "koszulmf/mf.py",
        "x = arow.get(ja) if jb == ib else None",
        "x = arow.get(ja)",
        ["tests/test_mf.py"]),
    "tensor_check_off_the_first_factor_diagonal": (
        "koszulmf/mf.py",
        "x = brow.get(jb) if ja == ia else None",
        "x = brow.get(jb)",
        ["tests/test_mf.py"]),
    "first_difference_scan_starts_at_row_1": (
        "koszulmf/complexes.py",
        "for i in range(x.rows):",
        "for i in range(1, x.rows):",
        ["tests/test_mf.py"]),
    "first_difference_column_off_by_one": (
        "koszulmf/complexes.py",
        'return f" at ({i}, {j})"',
        'return f" at ({i}, {j + 1})"',
        ["tests/test_complexes.py", "tests/test_koszul.py"]),
}

EQUIVALENT = {}


def mutate(root, name):
    """Apply mutant `name` to the copy of src/ under `root`."""
    path, text, replacement, _ = MUTANTS[name]
    full = os.path.join(root, path)
    with open(full, encoding="utf-8") as fh:
        code = fh.read()
    if code.count(text) != 1:
        raise ValueError(f"{name}: text occurs {code.count(text)} times "
                         f"in {path}")
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(code.replace(text, replacement))


def run(name):
    """'killed', 'survived' or 'timed out' for one mutant."""
    selection = MUTANTS[name][3]
    with tempfile.TemporaryDirectory(prefix="koszulmf-mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, name)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *HYPOTHESIS, *selection],
                cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out"
    if done.returncode == 5:
        raise ValueError(f"{name}: the selection collected no test")
    return "survived" if done.returncode == 0 else "killed"


def main(names):
    names = names or list(MUTANTS)
    holes = 0
    for name in names:
        verdict = run(name)
        note = ""
        if name in EQUIVALENT:
            note = f" (equivalent: {EQUIVALENT[name]})"
        elif verdict != "killed":
            holes += 1
        print(f"{name}: {verdict}{note}", flush=True)
    print(f"mutants={len(names)} holes={holes}")
    return 1 if holes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
