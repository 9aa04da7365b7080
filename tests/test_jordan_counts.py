"""Counted Jordan specs, the Gaussian-integer rank path and the exact inverse,
checked from outside.

The references here are written out in full: the pairwise closed form and
its expansion over every block pair, as lists of blocks, and Gaussian
elimination with ``GaussianRational`` (Fraction) arithmetic.  None of them
goes through ``JordanSpec.counts``, the integer power chain or the
fraction-free eliminations they check.
"""
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.errors import DimensionError
from stretchkit.jordan import (JordanSpec, jordan_nfold, jordan_oracle, jordan_pair,
                               jordan_product, nfold_eigenvalues, nfold_oracle,
                               nfold_product_matrix, spec_matrix)
from stretchkit.linalg import DenseMatrix, inverse, kron, nullity_sequence, rank
from stretchkit.scalars import GQ, GaussianRational, gq

BIG = 2 ** 70
DENOMINATORS = (1, 2, 3, 6, 7, 2 ** 61 - 1)
ZERO = GaussianRational()
EIGENVALUES = (gq(0), gq(1), gq(-2), gq(3), gq("1/2"), gq(0, 1), gq(1, -1),
               gq("-3/2", "2/3"))


# -- expanded references ----------------------------------------------------

def ref_pair_blocks(p, a, q, b):
    """Blocks of J_p(a) x J_q(b), one list entry per block."""
    lo = min(p, q)
    if a and b:
        return [(p + q - 2 * k + 1, a * b) for k in range(1, lo + 1)]
    if a:
        return [(q, gq(0))] * p
    if b:
        return [(p, gq(0))] * q
    blocks = []
    for k in range(1, lo):
        blocks += [(k, gq(0)), (k, gq(0))]
    return blocks + [(lo, gq(0))] * (abs(p - q) + 1)


def ref_canonical(blocks):
    return tuple(sorted(blocks, key=lambda b: (b[1].re, b[1].im, -b[0])))


def ref_product(blocks1, blocks2):
    out = []
    for p, a in blocks1:
        for q, b in blocks2:
            out += ref_pair_blocks(p, a, q, b)
    return ref_canonical(out)


def ref_rank(rows):
    """Gaussian elimination over Q(i) with GaussianRational arithmetic."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def ref_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_nullities(rows, lam, k_max):
    n = len(rows)
    shift = [[v - lam if i == j else v for j, v in enumerate(row)]
             for i, row in enumerate(rows)]
    power, out = shift, []
    for _ in range(k_max):
        out.append(n - ref_rank(power))
        power = ref_mul(power, shift)
    return out


# -- strategies ---------------------------------------------------------------

fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from(DENOMINATORS)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(DENOMINATORS)))
entries = st.one_of(st.just(ZERO), st.builds(GaussianRational, fractions, fractions),
                    st.builds(GaussianRational, st.just(Fraction(0)), fractions))
block_lists = st.lists(st.tuples(st.integers(1, 4), st.sampled_from(EIGENVALUES)),
                       min_size=1, max_size=5)


def matrix(draw, n, m):
    return DenseMatrix(GQ, n, m, draw(st.lists(entries, min_size=n * m, max_size=n * m)))


# -- counted specs --------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(block_lists)
def test_spec_expands_to_the_sorted_block_list(blocks):
    spec = JordanSpec(blocks)
    assert spec.blocks == ref_canonical(blocks)
    assert sum(count for _, count in spec.counts) == len(blocks)
    assert len(spec.counts) == len(set(blocks))
    assert spec.dimension == sum(size for size, _ in blocks)
    assert spec == JordanSpec(reversed(blocks))
    assert hash(spec) == hash(JordanSpec(reversed(blocks)))
    assert repr(spec) == "JordanSpec(" + " + ".join(
        f"J{size}({eig})" for size, eig in ref_canonical(blocks)) + ")"


@settings(max_examples=150, deadline=None)
@given(block_lists, block_lists)
def test_counted_product_matches_the_expanded_pairwise_loop(b1, b2):
    got = jordan_product(JordanSpec(b1), JordanSpec(b2))
    expected = ref_product(b1, b2)
    assert got.blocks == expected
    assert got == JordanSpec(expected)
    assert got.eigenvalues() == tuple(sorted({e for _, e in expected},
                                             key=lambda e: (e.re, e.im)))


def test_pair_matches_the_reference_on_the_full_grid():
    for p in range(1, 6):
        for q in range(1, 6):
            for a in EIGENVALUES:
                for b in EIGENVALUES:
                    expected = ref_canonical(ref_pair_blocks(p, a, q, b))
                    assert jordan_pair(p, a, q, b).blocks == expected, (p, a, q, b)


I = gq(0, 1)
# Factors as block lists.  Distinct eigenvalue pairs with one product:
# 1*(-2) and (-2)*1, i*i and (-1)*1, i*1 and 1*i, and 0 with anything.
COLLIDING = (
    [(2, gq(1)), (1, gq(-2)), (3, I), (1, gq(-1)), (2, gq(-2))],
    [(1, gq(-2)), (2, gq(1)), (2, I), (1, gq(1)), (3, gq(1))],
)
CLOSED_FORM_CASES = {
    "colliding": COLLIDING,
    # Twelve cell pairs, eight products: -2, -1, -2i and i each arise twice.
    "colliding-cells": ([(1, gq(1)), (1, gq(-2)), (1, I), (1, gq(-1))],
                        [(1, gq(-2)), (1, gq(1)), (1, I)]),
    "colliding-with-zeros": ([(2, gq(0))] + COLLIDING[0],
                             COLLIDING[1] + [(3, gq(0)), (1, gq(0))]),
    "zero-nonzero": ([(3, gq(0)), (1, gq(0))], [(2, gq(5)), (4, I), (2, gq(5))]),
    "nonzero-zero": ([(2, gq("1/2")), (1, gq(1, -1))], [(3, gq(0)), (3, gq(0))]),
    "zero-zero": ([(3, gq(0)), (2, gq(0)), (3, gq(0))], [(3, gq(0)), (1, gq(0)), (5, gq(0))]),
    "equal-sizes": ([(2, gq(3)), (2, gq(0)), (2, gq(-2))], [(2, gq(3)), (2, gq(0))]),
    "unequal-sizes": ([(5, gq(3)), (1, gq(0)), (4, gq("-3/2", "2/3"))],
                      [(2, gq("-3/2", "2/3")), (3, gq(0)), (1, gq(-1))]),
    "single-nonzero": ([(4, gq(2))], [(3, gq(-1))]),
    "single-one-zero": ([(4, gq(0))], [(3, I)]),
    "single-both-zero": ([(2, gq(0))], [(5, gq(0))]),
    "single-times-sum": ([(3, gq(-1))], [(2, gq(1)), (1, I), (3, gq(0)), (2, gq(-1))]),
}


@pytest.mark.parametrize("b1, b2", list(CLOSED_FORM_CASES.values()), ids=list(CLOSED_FORM_CASES))
def test_product_matches_the_reference_on_fixed_cases(b1, b2):
    for left, right in ((b1, b2), (b2, b1)):
        expected = ref_product(left, right)
        got = jordan_product(JordanSpec(left), JordanSpec(right))
        # Equal products share one count: the counts are those of the blocks.
        assert got.blocks == expected and got.counts == JordanSpec(expected).counts
    three = [b1, b2, b1]
    expected = reduce(ref_product, three[1:], ref_canonical(three[0]))
    assert jordan_nfold([JordanSpec(b) for b in three]).blocks == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(EIGENVALUES)),
                         min_size=1, max_size=3), min_size=1, max_size=4))
def test_counted_nfold_matches_the_expanded_fold(factors):
    expected = reduce(ref_product, factors[1:], ref_canonical(factors[0]))
    assert jordan_nfold([JordanSpec(b) for b in factors]).blocks == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 2), st.sampled_from(EIGENVALUES)),
                         min_size=1, max_size=2), min_size=1, max_size=3))
def test_nfold_oracle_is_the_oracle_of_the_product_matrix(factors):
    specs = [JordanSpec(b) for b in factors]
    expected = jordan_oracle(nfold_product_matrix(specs), nfold_eigenvalues(specs)).spec()
    assert nfold_oracle(specs) == expected == jordan_nfold(specs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from(EIGENVALUES), st.integers(1, 4),
       st.sampled_from(EIGENVALUES))
def test_nfold_oracle_of_two_cells_is_the_pair_oracle(p, a, q, b):
    product = kron(spec_matrix(JordanSpec.single(p, a)), spec_matrix(JordanSpec.single(q, b)))
    expected = jordan_oracle(product, [a * b]).spec()
    assert nfold_oracle([JordanSpec.single(p, a), JordanSpec.single(q, b)]) == expected
    assert expected == jordan_pair(p, a, q, b)


def test_eight_fold_stays_small_and_fast():
    base = JordanSpec([(3, 2), (2, 0), (1, 1)])
    start = time.perf_counter()
    spec = jordan_nfold([base] * 8)
    elapsed = time.perf_counter() - start
    assert sum(count for _, count in spec.counts) == 1_301_861
    assert len(spec.counts) == 46
    assert spec.dimension == 6 ** 8
    assert elapsed < 0.5, elapsed


# -- rank and the oracle ------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 6))
def test_rank_matches_fraction_elimination(data, n, m):
    a = matrix(data.draw, n, m)
    assert rank(a) == ref_rank(a.to_rows())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 6), st.integers(2, 6), st.integers(1, 3))
def test_rank_of_deficient_products(data, n, m, k):
    a = DenseMatrix(GQ, n, k, data.draw(st.lists(entries, min_size=n * k, max_size=n * k)))
    b = DenseMatrix(GQ, k, m, data.draw(st.lists(entries, min_size=k * m, max_size=k * m)))
    prod = DenseMatrix.from_rows(ref_mul(a.to_rows(), b.to_rows()), GQ)
    assert rank(prod) == ref_rank(prod.to_rows()) <= k


def test_dense_gaussian_ranks_stay_exact_and_bounded():
    # Row gcds over the Gaussian integers keep entries bounded: with integer
    # gcds alone, the full-rank 24x24 case does not finish in minutes.
    rng = random.Random(3)

    def rand(rows, cols):
        return [[gq(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(cols)] for _ in range(rows)]
    full = rand(24, 24)
    deficient = ref_mul(rand(24, 20), rand(20, 24))
    for rows, expected in ((full, 24), (deficient, 20)):
        assert rank(DenseMatrix.from_rows(rows, GQ)) == ref_rank(rows) == expected


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 7), st.integers(1, 7), st.integers(1, 4))
def test_rank_of_real_and_mixed_rows_matches_fraction_elimination(data, n, m, k):
    """Real rows take the two-product update; a row made real by dividing
    out a Gaussian gcd, and real rows meeting non-real pivots, take both."""
    ints = st.integers(-9, 9)
    real = [[gq(data.draw(ints)) for _ in range(m)] for _ in range(n)]
    low = ref_mul([[gq(data.draw(ints)) for _ in range(k)] for _ in range(n)],
                  [[gq(data.draw(ints)) for _ in range(m)] for _ in range(k)])
    unit = GaussianRational(1, 1)
    mixed = [[v * unit if i % 2 else v for v in row] for i, row in enumerate(low)]
    mixed.append([data.draw(entries) for _ in range(m)])
    for rows in (real, low, mixed):
        assert rank(DenseMatrix.from_rows(rows, GQ)) == ref_rank(rows)


def test_dense_integer_ranks_match_fraction_elimination():
    rng = random.Random(11)

    def rand(rows, cols):
        return [[gq(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    full = rand(32, 32)
    deficient = ref_mul(rand(32, 20), rand(20, 32))
    for rows, expected in ((full, 32), (deficient, 20)):
        assert rank(DenseMatrix.from_rows(rows, GQ)) == ref_rank(rows) == expected


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from(EIGENVALUES))
def test_nullity_sequence_matches_fraction_powers(data, n, lam):
    a = matrix(data.draw, n, n)
    assert nullity_sequence(a, lam, 3) == ref_nullities(a.to_rows(), lam, 3)


@settings(max_examples=40, deadline=None)
@given(st.data(), block_lists.filter(lambda b: sum(s for s, _ in b) <= 6))
def test_oracle_on_conjugated_specs(data, blocks):
    spec = JordanSpec(blocks)
    n = spec.dimension
    # Unit upper and lower triangular factors: invertible, dense, non-real.
    upper = [[gq(1) if i == j else data.draw(entries) if j > i else ZERO
              for j in range(n)] for i in range(n)]
    lower = [[gq(1) if i == j else data.draw(entries) if j < i else ZERO
              for j in range(n)] for i in range(n)]
    p = ref_mul(upper, lower)
    p_inv = ref_inverse(p)
    m = ref_mul(ref_mul(p, spec_matrix(spec).to_rows()), p_inv)
    result = jordan_oracle(DenseMatrix.from_rows(m, GQ), spec.eigenvalues())
    assert result.spec() == spec
    for eig in spec.eigenvalues():
        weyr = result.weyr(eig)
        assert list(weyr) == ref_nullities(m, eig, len(weyr))


def ref_inverse(rows):
    n = len(rows)
    aug = [list(r) + [gq(1) if i == j else ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 6), st.booleans(), st.booleans())
def test_exact_inverse_matches_fraction_gauss_jordan(data, n, leading_zero, dependent):
    """A zero leading entry forces a row swap, ``entries`` gives non-real pivots
    and denominators up to 2^61 - 1, and a dependent last row makes it singular."""
    values = data.draw(st.lists(entries, min_size=n * n, max_size=n * n))
    if leading_zero and n > 1:
        values[0] = ZERO
    if dependent and n > 1:
        c = data.draw(entries)
        values[-n:] = [c * v for v in values[:n]]
    a = DenseMatrix(GQ, n, n, values)
    rows = a.to_rows()
    if ref_rank(rows) < n:
        with pytest.raises(DimensionError):
            inverse(a)
    else:
        assert inverse(a).to_rows() == ref_inverse(rows)


def test_three_factor_folds_up_to_dimension_60_with_gaussian_eigenvalues():
    # Criterion 5 caps its random folds at dimension 24; these reach 60, with
    # non-real Gaussian-rational eigenvalues next to nilpotent blocks.
    rng = random.Random(2024)
    done = 0
    while done < 24:
        specs = []
        for _ in range(3):
            dim, blocks = rng.randint(2, 5), []
            while dim > 0:
                size = rng.randint(1, dim)
                eig = gq(0) if rng.random() < 0.25 else gq(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)))
                blocks.append((size, eig))
                dim -= size
            specs.append(JordanSpec(blocks))
        total = specs[0].dimension * specs[1].dimension * specs[2].dimension
        if not 24 < total <= 60:
            continue
        closed = jordan_nfold(specs)
        oracle = jordan_oracle(nfold_product_matrix(specs), nfold_eigenvalues(specs))
        assert closed == oracle.spec(), specs
        done += 1
