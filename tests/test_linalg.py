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


# ---------------------------------------------------------------------------
# fraction-free elimination over Q against the oracle and planted ranks
# ---------------------------------------------------------------------------

def _sparse(m, p=0):
    return [{c: v for c, v in enumerate(r) if (v % p if p else v)}
            for r in m]


def _planted(rng, n, cols, k, p=0, entry=lambda rng: rng.randint(-9, 9)):
    """An n x cols matrix of rank exactly k (k <= n, cols): A·B with A
    n x k and B k x cols, each holding an identity block, the rows then
    shuffled."""
    a = [[int(i == j) for j in range(k)] for i in range(k)]
    a += [[entry(rng) for _ in range(k)] for _ in range(n - k)]
    b = [[int(i == j) for j in range(k)] + [entry(rng) for _ in range(cols - k)]
         for i in range(k)]
    m = [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*b)]
         for row in a]
    rng.shuffle(m)
    if p:
        m = [[v % p for v in row] for row in m]
    return m


def _check(sparse, p, want):
    before = [dict(r) for r in sparse]
    assert sparse_rank(sparse, p) == want
    assert sparse == before


def test_sparse_rank_finds_planted_ranks():
    rng = random.Random(2101)
    for p in (0, 5, 32003):
        for n, cols, k in ((1, 1, 0), (6, 6, 6), (8, 5, 3), (5, 9, 4),
                           (30, 30, 29), (40, 25, 12)):
            m = _planted(rng, n, cols, k, p)
            _check(_sparse(m, p), p, k)
            if n <= 6 and cols <= 6:
                assert rank_bruteforce(m, p or None) == k


def test_sparse_rank_skips_zero_rows_and_zero_columns():
    rng = random.Random(2102)
    for p in (0, 5):
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = (_random_mod_p_matrix(rng, rows, cols, p) if p
                 else _random_fraction_matrix(rng, rows, cols))
            # interleave zero rows, and spread the columns with gaps
            wide = []
            for row in m:
                wide.append([0] * (2 * cols + 1))
                wide.append([0] + [v for x in row for v in (x, 0)])
            sparse = _sparse(wide, p)
            assert any(not r for r in sparse)
            _check(sparse, p, rank_bruteforce(m, p or None))


def test_sparse_rank_takes_unnormalized_fractions():
    # Fraction(3) is integral but not an int, as dense callers may pass
    rng = random.Random(2103)
    for _ in range(80):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = [[rng.choice([Fraction(rng.randint(-4, 4)),
                          Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                          rng.randint(-4, 4)])
              for _ in range(cols)] for _ in range(rows)]
        _check(_sparse(m), 0, rank_bruteforce(m))
        assert rank(m) == rank_bruteforce(m)
    assert sparse_rank([{0: Fraction(3), 1: Fraction(6)},
                        {0: Fraction(1), 1: Fraction(2)}]) == 1
    assert sparse_rank([{0: Fraction(3)}, {1: Fraction(4, 1)}]) == 2


def test_sparse_rank_with_600_digit_coefficients():
    rng = random.Random(2104)
    big = 10 ** 600

    def huge(rng):
        return rng.choice([-1, 1]) * (big + rng.randint(0, 10 ** 6))

    for p in (0, 32003):
        for n, cols, k in ((4, 4, 3), (5, 5, 5), (12, 10, 7)):
            m = _planted(rng, n, cols, k, p, entry=huge)
            _check(_sparse(m, p), p, k)
            if n <= 5:
                assert rank_bruteforce(m, p or None) == k
    # over Q also as fractions with 600-digit denominators: a row and a
    # multiple of it by (big + 1)/big, and a row that differs in one place
    row = [Fraction(rng.randint(1, 9), big + rng.randint(1, 9))
           for _ in range(4)]
    m = [row, [v * Fraction(big + 1, big) for v in row],
         row[:3] + [row[3] + Fraction(1, big)]]
    _check(_sparse(m), 0, 2)
    assert rank_bruteforce(m) == 2


def test_sparse_rank_of_rows_whose_content_is_not_one():
    rng = random.Random(2105)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        # each row scaled by its own factor: ints with content 6, 10, ...,
        # or fractions sharing a numerator factor
        factors = [rng.choice([6, 10, -15, Fraction(4, 9)]) for _ in m]
        scaled = [[v * f for v in row] for f, row in zip(factors, m)]
        _check(_sparse(scaled), 0, rank_bruteforce(m))
    assert sparse_rank([{0: 6, 2: 4}, {0: 9, 2: 6}]) == 1
    assert sparse_rank([{0: 6, 2: 4}, {0: 9, 2: 7}]) == 2
    assert sparse_rank([{0: Fraction(2, 3), 1: Fraction(4, 3)},
                        {0: 10, 1: 20}]) == 1
