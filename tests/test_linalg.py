"""Exact rank, cross-checked against the brute-force minor oracle."""

import random
from fractions import Fraction

from oracle_rank import rank_bruteforce

from koszulmf.linalg import rank, sparse_rank


def _random_fraction_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
             for _ in range(cols)] for _ in range(rows)]


def _random_mod_p_matrix(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_oracle_rationals():
    rng = random.Random(20260814)
    for _ in range(120):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = _random_fraction_matrix(rng, rows, cols)
        assert rank(m) == rank_bruteforce(m)


def test_rank_matches_oracle_mod_p():
    rng = random.Random(99)
    for _ in range(120):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = _random_mod_p_matrix(rng, rows, cols, 5)
        assert rank(m, 5) == rank_bruteforce(m, 5)


def test_rank_handles_rank_deficient_pivots():
    # first pivot column zero, needs a swap
    m = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)],
         [Fraction(3), Fraction(0)]]
    assert rank(m) == 2
    # mod 5: entries that vanish only modulo p
    m5 = [[5, 1], [10, 2]]
    assert rank([[v % 5 for v in row] for row in m5], 5) == 1


def test_rank_of_empty_and_small_matrices():
    m = [[Fraction(1), Fraction(2), Fraction(3)]]
    assert rank(m) == 1
    assert rank([]) == 0                   # no rows
    assert rank([[]]) == 0                 # one row of no columns
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        m = _random_fraction_matrix(rng, rows, cols)
        assert rank(m) == rank_bruteforce(m)


def test_sparse_rank_reads_rows_without_modifying_them():
    rng = random.Random(11)
    for p in (0, 5):
        for _ in range(60):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            m = (_random_mod_p_matrix(rng, rows, cols, p) if p
                 else _random_fraction_matrix(rng, rows, cols))
            sparse = [{c: v for c, v in enumerate(r) if v} for r in m]
            before = [dict(r) for r in sparse]
            assert sparse_rank(sparse, p) == rank_bruteforce(m, p or None)
            assert sparse == before
