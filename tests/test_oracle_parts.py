"""The rank oracle one connected part at a time, checked against the whole.

``jordan_oracle`` computes each nullity on the connected parts of its
matrix's sparsity graph and sums them; ``nfold_oracle`` builds the sparse
Kronecker rows of the spec matrices.  The references here run on the
unsplit matrix: ``nullity_sequence`` (one power chain on all rows) and the
dense ``nfold_product_matrix``.
"""
import random
import time
from fractions import Fraction

import pytest

from stretchkit import jordan
from stretchkit.jordan import (JordanSpec, jordan_nfold, jordan_oracle, nfold_eigenvalues,
                               nfold_oracle, nfold_product_matrix, spec_matrix)
from stretchkit.linalg import (DenseMatrix, gauss_rows, inverse, mat_mul, nullity_sequence,
                               permutation_matrix)
from stretchkit.scalars import GQ, gq

EIGENVALUES = (gq(0), gq(1), gq(-2), gq("1/2"), gq(0, 1), gq(1, -1), gq("-3/2", "2/3"))


def rand_entry(rng):
    return gq(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
              Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else 0)


def rand_block(rng):
    """A small exact block with a known spectrum: a zero block, a 1 x 1 cell,
    a triangular block, or a Jordan sum conjugated by a dense unit-triangular
    product.  Returns (rows as scalars, eigenvalue of each diagonal slot)."""
    kind = rng.choice(("zero", "cell", "triangular", "conjugated"))
    n = 1 if kind == "cell" else rng.randint(1, 4)
    eigs = [gq(0)] * n if kind == "zero" else [rng.choice(EIGENVALUES) for _ in range(n)]
    if kind == "conjugated":
        eigs.sort(key=lambda e: (e.re, e.im))
        spec = JordanSpec([(1, e) for e in eigs])
        if n > 1 and eigs[0] == eigs[1] and rng.random() < 0.5:
            spec = JordanSpec([(2, eigs[0])] + [(1, e) for e in eigs[2:]])
        upper = DenseMatrix.from_rows([[gq(1) if i == j else rand_entry(rng) if j > i else 0
                                        for j in range(n)] for i in range(n)], GQ)
        lower = DenseMatrix.from_rows([[gq(1) if i == j else rand_entry(rng) if j < i else 0
                                        for j in range(n)] for i in range(n)], GQ)
        p = mat_mul(upper, lower)
        return mat_mul(mat_mul(p, spec_matrix(spec)), inverse(p)).to_rows(), eigs
    rows = [[eigs[i] if i == j else rand_entry(rng) if kind == "triangular" and j > i
             and rng.random() < 0.6 else gq(0) for j in range(n)] for i in range(n)]
    return rows, eigs


def block_diagonal(rng, shuffle):
    """A block-diagonal exact matrix of 1-5 random blocks, conjugated by a
    symmetric permutation: a random one, or a riffle that keeps each block's
    order (so triangular blocks stay triangular parts)."""
    blocks = [rand_block(rng) for _ in range(rng.randint(1, 5))]
    n = sum(len(rows) for rows, _ in blocks)
    dense = [[gq(0)] * n for _ in range(n)]
    start = 0
    for rows, _ in blocks:
        for i, row in enumerate(rows):
            dense[start + i][start:start + len(row)] = row
        start += len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    if not shuffle:
        # Deal the blocks' indices, each block in its order, into the slots of
        # a shuffled list of block labels.
        labels = [b for b, (rows, _) in enumerate(blocks) for _ in rows]
        rng.shuffle(labels)
        starts = [sum(len(rows) for rows, _ in blocks[:b]) for b in range(len(blocks))]
        for new, b in enumerate(labels):
            perm[starts[b]], starts[b] = new, starts[b] + 1
    p = permutation_matrix(perm)
    m = mat_mul(mat_mul(p, DenseMatrix.from_rows(dense, GQ)), p.transpose())
    return m, [e for _, eigs in blocks for e in eigs]


@pytest.mark.parametrize("shuffle", [True, False])
def test_weyr_of_split_matrix_is_the_nullity_sequence_of_the_whole(shuffle):
    rng = random.Random(5 + shuffle)
    for _ in range(60):
        m, eigs = block_diagonal(rng, shuffle)
        candidates = set(eigs) | {rng.choice(EIGENVALUES)}
        result = jordan_oracle(m, candidates)
        for eig in candidates:
            if eig not in eigs:
                assert nullity_sequence(m, eig, 1) == [0]
                continue
            weyr = result.weyr(eig)
            whole = nullity_sequence(m, eig, len(weyr) + 1)
            assert list(weyr) == whole[:-1]
            assert whole[-1] == weyr[-1] == eigs.count(eig)
            # It stops at the first nullity that repeats or reaches n.
            head = (0,) + weyr[:-1]
            assert all(a < b < m.n_rows for a, b in zip(head, head[1:]))
            assert weyr[-1] in (head[-1], m.n_rows)


def test_dense_conjugated_matrix_is_one_part():
    rng = random.Random(9)
    spec = JordanSpec([(3, gq(1, -1)), (2, gq(1, -1)), (2, gq("1/2")), (1, gq(0))])
    n = spec.dimension
    upper = DenseMatrix.from_rows([[gq(1) if i == j else rand_entry(rng) or gq(1) if j > i
                                    else 0 for j in range(n)] for i in range(n)], GQ)
    lower = DenseMatrix.from_rows([[gq(1) if i == j else rand_entry(rng) or gq(1) if j < i
                                    else 0 for j in range(n)] for i in range(n)], GQ)
    p = mat_mul(upper, lower)
    m = mat_mul(mat_mul(p, spec_matrix(spec)), inverse(p))
    assert len(jordan._parts(gauss_rows(m._k, n))) == 1
    result = jordan_oracle(m, spec.eigenvalues())
    assert result.spec() == spec
    for eig in spec.eigenvalues():
        weyr = result.weyr(eig)
        assert list(weyr) == nullity_sequence(m, eig, len(weyr))


def fraction_rows(rows, den):
    return [{j: (Fraction(x, den), Fraction(y, den)) for j, (x, y) in row.items()}
            for row in rows]


FOLDS = (
    [JordanSpec([(2, 1), (1, 0)]), JordanSpec([(2, gq(0, 1))])],
    [JordanSpec([(1, gq("1/2"))]), JordanSpec([(2, gq("-3/2", "2/3")), (1, 3)]),
     JordanSpec([(3, 0)])],
    [JordanSpec([(2, gq("3/2"))]), JordanSpec([(1, gq("2/3")), (2, 0)])],
    [JordanSpec([(2, 1), (2, 0)])] * 3,
)


@pytest.mark.parametrize("specs", FOLDS, ids=range(len(FOLDS)))
def test_sparse_kronecker_rows_are_the_rows_of_the_product_matrix(specs):
    dense = nfold_product_matrix(specs)
    rows, den = jordan._nfold_rows(specs)
    assert fraction_rows(rows, den) == fraction_rows(gauss_rows(dense._k, dense.n_cols),
                                                     dense._k[0])
    eigs = nfold_eigenvalues(specs)
    on_rows = jordan._weyr_oracle(rows, den, eigs)
    assert on_rows.eigen_data == jordan_oracle(dense, eigs).eigen_data
    assert nfold_oracle(specs) == on_rows.spec() == jordan_nfold(specs)


def test_five_fold_product_of_dimension_7776_is_certified():
    spec = JordanSpec([(3, 3), (2, 0), (1, -1)])
    start = time.perf_counter()
    certified = nfold_oracle([spec] * 5)
    elapsed = time.perf_counter() - start
    assert certified.dimension == 6 ** 5
    assert certified == jordan_nfold([spec] * 5)
    assert elapsed < 20, elapsed
