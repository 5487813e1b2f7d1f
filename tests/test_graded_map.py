"""The block assembler `graded_map` and the constructions built on it.

The factorization tensor and the Koszul complex are compared with
hand-written reference implementations: a 2x2 grid of Kronecker blocks,
and a Koszul differential filled entry by entry with `put` and `at`.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from koszulmf.complexes import FreeComplex, PolyMatrix, embed_matrix, \
    graded_map, kron
from koszulmf.koszul import koszul_complex
from koszulmf.mf import MFObject, mf_tensor
from koszulmf.ring import Poly, embed, merge_rings, polynomial_ring, \
    prime_field, rationals

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

QX = polynomial_ring(rationals(), ("x",))
QY = polynomial_ring(rationals(), ("y",))
QXY = polynomial_ring(rationals(), ("x", "y"))
F5X = polynomial_ring(prime_field(5), ("x",))
F5Y = polynomial_ring(prime_field(5), ("y",))
F5XY = polynomial_ring(prime_field(5), ("x", "y"))
QXYZW = polynomial_ring(rationals(), ("x", "y", "z", "w"))
F5XYZW = polynomial_ring(prime_field(5), ("x", "y", "z", "w"))

# (first ring, second ring): one ring, or disjoint variables
RING_PAIRS = [(QXY, QXY), (F5XY, F5XY), (QX, QY), (F5X, F5Y)]


@st.composite
def polys(draw, ring):
    """A random poly over `ring`, zero included: up to three terms with
    exponents below 3 and small fractions as coefficients."""
    nv = len(ring.varnames)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(nv))
        terms[exps] = Fraction(draw(st.integers(-4, 4)),
                               draw(st.sampled_from([1, 1, 2, 3])))
    return Poly(ring, terms)


@st.composite
def matrices(draw, ring, rows, cols):
    return PolyMatrix(ring, rows, cols,
                      [draw(polys(ring)) for _ in range(rows * cols)])


@st.composite
def factorizations(draw, ring):
    """An MFObject over `ring` with random maps, not a valid factorization:
    the tensor is linear algebra on the maps and never checks them."""
    r0, r1 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return MFObject(ring, draw(polys(ring)), r0, r1,
                    draw(matrices(ring, r1, r0)),
                    draw(matrices(ring, r0, r1)))


def mf_tensor_reference(a, b):
    """The factorization tensor as a hand-written grid of Kronecker
    blocks: even part (E0⊗F0, E1⊗F1), odd part (E0⊗F1, E1⊗F0)."""
    if a.ring is b.ring:
        merged, off = a.ring, 0
    else:
        merged, off = merge_rings(a.ring, b.ring), len(a.ring.varnames)
    f = embed(a.potential, merged) + embed(b.potential, merged, off)
    p0, p1 = embed_matrix(a.phi0, merged), embed_matrix(a.phi1, merged)
    q0 = embed_matrix(b.phi0, merged, off)
    q1 = embed_matrix(b.phi1, merged, off)
    i_r0 = PolyMatrix.identity(merged, a.r0)
    i_r1 = PolyMatrix.identity(merged, a.r1)
    i_s0 = PolyMatrix.identity(merged, b.r0)
    i_s1 = PolyMatrix.identity(merged, b.r1)
    t0 = PolyMatrix.block(
        merged,
        [[kron(i_r0, q0), kron(p1, i_s1)],
         [kron(p0, i_s0), -kron(i_r1, q1)]],
        [a.r0 * b.r1, a.r1 * b.r0], [a.r0 * b.r0, a.r1 * b.r1])
    t1 = PolyMatrix.block(
        merged,
        [[kron(i_r0, q1), kron(p1, i_s0)],
         [kron(p0, i_s1), -kron(i_r1, q0)]],
        [a.r0 * b.r0, a.r1 * b.r1], [a.r0 * b.r1, a.r1 * b.r0])
    return MFObject(merged, f, a.r0 * b.r0 + a.r1 * b.r1,
                    a.r0 * b.r1 + a.r1 * b.r0, t0, t1)


def koszul_complex_reference(ring, potential):
    """The Koszul complex of f_1..f_n in degrees [-n, 0], entry by entry:
    d(e_S) = sum_j (-1)^(j+1) f_{i_j} e_{S minus i_j}, subsets in lex
    order."""
    n = len(potential)
    subsets = {k: list(combinations(range(n), k)) for k in range(n + 1)}
    ranks = {-k: len(subsets[k]) for k in range(n + 1)}
    diffs = {}
    for k in range(1, n + 1):
        src, tgt = subsets[k], subsets[k - 1]
        index = {S: i for i, S in enumerate(tgt)}
        mat = PolyMatrix.zero(ring, len(tgt), len(src))
        for col, S in enumerate(src):
            for j, i_j in enumerate(S):
                rest = tuple(x for x in S if x != i_j)
                coeff = potential[i_j] if j % 2 == 0 else -potential[i_j]
                row = index[rest]
                mat.put(row, col, mat.at(row, col) + coeff)
        diffs[-k] = mat
    return FreeComplex(ring, -n, 0, ranks, diffs)


@SETTINGS
@given(st.data())
def test_mf_tensor_matches_the_hand_written_grid(data):
    ra, rb = data.draw(st.sampled_from(RING_PAIRS))
    a = data.draw(factorizations(ra))
    b = data.draw(factorizations(rb))
    assert mf_tensor(a, b) == mf_tensor_reference(a, b)


@SETTINGS
@given(st.data())
def test_koszul_complex_matches_the_entrywise_reference(data):
    ring = data.draw(st.sampled_from([QXYZW, F5XYZW]))
    n = data.draw(st.integers(1, 4))
    potential = tuple(data.draw(polys(ring)) for _ in range(n))
    assert koszul_complex(ring, potential) == \
        koszul_complex_reference(ring, potential)


def test_graded_map_places_blocks_by_key():
    one = Poly.one(QX)
    x = Poly(QX, {(1,): 1})
    calls = []

    def rule(key, r):
        calls.append((key, r))
        yield "out", PolyMatrix.scalar(QX, r, x)     # not a target summand
        yield key.upper(), PolyMatrix.scalar(QX, r, one)

    src = [("a", 1), ("b", 0), ("c", 2)]
    tgt = [("C", 2), ("B", 1), ("A", 1)]
    got = graded_map(QX, src, tgt, rule)
    # the zero-rank summand "b" is never handed to the rule
    assert calls == [("a", 1), ("c", 2)]
    # rows: C (2), B (1), A (1); columns: a (1), b (0), c (2)
    assert (got.rows, got.cols) == (4, 3)
    assert got.nz == {0: {1: one}, 1: {2: one}, 3: {0: one}}
