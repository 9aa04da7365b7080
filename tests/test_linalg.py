import random
from fractions import Fraction

import pytest

from stretchkit.errors import DimensionError, VariantError
from stretchkit.indexing import IndexSet
from stretchkit.jordan import jordan_block
from stretchkit.linalg import (DenseMatrix, DenseVector, det, inverse, kron,
                               mat_mul, mat_vec, matrices_close,
                               nullity_sequence, permutation_matrix, rank)
from stretchkit.scalars import CF64, GQ, gq
from stretchkit.tensors import Tensor, TensorVector, pure_tensor


def rand_gq_matrix(rng, n, m=None, span=5):
    m = n if m is None else m
    return DenseMatrix(GQ, n, m,
                       [gq(Fraction(rng.randint(-span, span), rng.choice((1, 2))))
                        for _ in range(n * m)])


def naive_mat_mul(a, b):
    """Independent triple-loop product used as the oracle for mat_mul."""
    rows = []
    for i in range(a.n_rows):
        row = []
        for j in range(b.n_cols):
            acc = gq(0)
            for t in range(a.n_cols):
                acc = acc + a.at(i, t) * b.at(t, j)
            row.append(acc)
        rows.append(row)
    return DenseMatrix.from_rows(rows, GQ)


def cofactor_det(a):
    """Recursive cofactor expansion; oracle for det, n <= 6."""
    n = a.n_rows
    if n == 1:
        return a.at(0, 0)
    total = gq(0)
    sign = gq(1)
    for j in range(n):
        minor = DenseMatrix.from_rows(
            [[a.at(i, c) for c in range(n) if c != j] for i in range(1, n)], GQ)
        total = total + sign * a.at(0, j) * cofactor_det(minor)
        sign = -sign
    return total


def test_identity_product_is_identity():
    m = DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], GQ)
    assert mat_mul(DenseMatrix.identity(3, GQ), m) == m
    assert mat_mul(m, DenseMatrix.identity(3, GQ)) == m


def test_involution_squares_to_identity():
    swap = DenseMatrix.from_rows([[0, 1], [1, 0]], GQ)
    assert mat_mul(swap, swap) == DenseMatrix.identity(2, GQ)


def test_product_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_gq_matrix(rng, 4)
        b = rand_gq_matrix(rng, 4)
        assert mat_mul(a, b) == naive_mat_mul(a, b)


def test_product_shape_and_kind_errors():
    a = DenseMatrix.from_rows([[1, 2]], GQ)
    b = DenseMatrix.from_rows([[1, 2]], GQ)
    with pytest.raises(DimensionError):
        mat_mul(a, b)
    c = DenseMatrix.from_rows([[1.0], [2.0]], CF64)
    with pytest.raises(VariantError):
        mat_mul(a, c)


def test_associativity_exact_and_float():
    rng = random.Random(5)
    a, b, c = (rand_gq_matrix(rng, 4) for _ in range(3))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
    fa, fb, fc = (DenseMatrix(CF64, 4, 4, [rng.uniform(-1, 1) for _ in range(16)])
                  for _ in range(3))
    assert matrices_close(mat_mul(mat_mul(fa, fb), fc), mat_mul(fa, mat_mul(fb, fc)))


def test_kron_block_diagonal_on_right_identity():
    b = DenseMatrix.from_rows([[1, 2], [3, 4]], GQ)
    expected = DenseMatrix.from_rows(
        [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]], GQ)
    # First argument varies fastest, so the identity slot must come second
    # for block-diagonal stacking.
    assert kron(b, DenseMatrix.identity(2, GQ)) == expected


def test_kron_interleaves_on_left_identity():
    b = DenseMatrix.from_rows([[1, 2], [3, 4]], GQ)
    expected = DenseMatrix.from_rows(
        [[1, 0, 2, 0], [0, 1, 0, 2], [3, 0, 4, 0], [0, 3, 0, 4]], GQ)
    assert kron(DenseMatrix.identity(2, GQ), b) == expected


def test_kron_mixed_product_property():
    rng = random.Random(17)
    a, c = rand_gq_matrix(rng, 2), rand_gq_matrix(rng, 2)
    b, d = rand_gq_matrix(rng, 3), rand_gq_matrix(rng, 3)
    assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))


def test_det_small_cases():
    assert det(DenseMatrix.identity(5, GQ)) == gq(1)
    assert det(DenseMatrix.from_rows([[1, 2], [3, 4]], GQ)) == gq(-2)
    with pytest.raises(DimensionError):
        det(DenseMatrix.from_rows([[1, 2]], GQ))


def test_det_matches_cofactor_oracle():
    rng = random.Random(23)
    for _ in range(6):
        a = rand_gq_matrix(rng, 5)
        assert det(a) == cofactor_det(a)


def test_det_is_multiplicative():
    rng = random.Random(29)
    for n in (2, 3, 4, 5, 6):
        a, b = rand_gq_matrix(rng, n), rand_gq_matrix(rng, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_float_agrees_with_exact():
    rng = random.Random(31)
    ints = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
    exact = det(DenseMatrix.from_rows(ints, GQ))
    approx = det(DenseMatrix.from_rows([[float(v) for v in r] for r in ints], CF64))
    assert abs(approx - complex(float(exact.re), float(exact.im))) < 1e-9


def test_rank_cases():
    assert rank(DenseMatrix(GQ, 3, 3, [0] * 9)) == 0
    assert rank(jordan_block(3, 0)) == 2
    assert rank(kron(jordan_block(2, 0), jordan_block(2, 0))) == 1
    with pytest.raises(VariantError):
        rank(DenseMatrix.from_rows([[1.0]], CF64))


def test_rank_exact_path_with_fractions():
    m = DenseMatrix.from_rows(
        [[gq("1/2"), gq(1)], [gq("1/4"), gq("1/2")]], GQ)
    assert rank(m) == 1
    m2 = DenseMatrix.from_rows([[gq("1/2"), gq(0, 1)], [gq(1), gq(2)]], GQ)
    assert rank(m2) == 2


def test_nullity_sequence_single_cells():
    assert nullity_sequence(jordan_block(3, 0), 0, 4) == [1, 2, 3, 3]
    assert nullity_sequence(jordan_block(2, 5), 5, 3) == [1, 2, 2]
    assert nullity_sequence(jordan_block(2, 5), 5, 1) == [1]
    with pytest.raises(DimensionError, match="k_max must be at least 1"):
        nullity_sequence(jordan_block(2, 5), 5, 0)


def test_nullity_sequence_kronecker_case():
    m = kron(jordan_block(2, 2), jordan_block(2, 3))
    seq = nullity_sequence(m, 6, 5)
    assert seq == [2, 3, 4, 4, 4]
    diffs = [seq[0]] + [seq[k] - seq[k - 1] for k in range(1, len(seq))]
    assert diffs == sorted(diffs, reverse=True)  # Weyr monotonicity


def test_nullity_differences_never_increase():
    rng = random.Random(37)
    for _ in range(10):
        m = rand_gq_matrix(rng, 4, span=1)
        seq = nullity_sequence(m, 0, 5)
        assert all(seq[k] <= seq[k + 1] for k in range(len(seq) - 1))
        diffs = [seq[0]] + [seq[k] - seq[k - 1] for k in range(1, len(seq))]
        assert all(diffs[k] >= diffs[k + 1] for k in range(len(diffs) - 1))


def test_inverse_round_trip():
    rng = random.Random(41)
    while True:
        a = rand_gq_matrix(rng, 4)
        if det(a):
            break
    assert mat_mul(a, inverse(a)) == DenseMatrix.identity(4, GQ)
    with pytest.raises(DimensionError):
        inverse(DenseMatrix(GQ, 2, 2, [0] * 4))
    f = DenseMatrix(CF64, 5, 5, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for _ in range(25)])
    assert matrices_close(mat_mul(f, inverse(f)), DenseMatrix.identity(5, CF64))
    swap = DenseMatrix.from_rows([[0.0, 2.0], [4.0, 0.0]], CF64)
    assert matrices_close(inverse(swap), DenseMatrix.from_rows([[0, 0.25], [0.5, 0]], CF64))
    with pytest.raises(DimensionError):
        inverse(DenseMatrix.from_rows([[1.0, 2.0], [2.0, 4.0]], CF64))


_DENSE = {
    "DenseMatrix": (lambda data: DenseMatrix(GQ, 2, 3, data), 6),
    "DenseVector": (lambda data: DenseVector(GQ, 4, data), 4),
    "Tensor": (lambda data: Tensor(IndexSet.rectangular((2,)), GQ, data), 4),
    "TensorVector": (lambda data: TensorVector(IndexSet.rectangular((3,)), GQ, data), 3),
}


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_dense_constructors_check_their_entry_count(name):
    build, count = _DENSE[name]
    assert build([1] * count).data == (gq(1),) * count
    for wrong in (count - 1, count + 1):
        with pytest.raises(DimensionError) as info:
            build([1] * wrong)
        assert str(info.value) == f"{name} needs {count} entries, got {wrong}"


@pytest.mark.parametrize("n", [1, 3])
def test_vector_operands_act_as_one_column_matrices(n):
    """A DenseVector operand gives what the equal n x 1 DenseMatrix gives, or
    a DimensionError; mat_mul's result takes the type of its right operand."""
    v = DenseVector(GQ, n, [gq(k + 1, k) for k in range(n)], labels=range(n))
    col = DenseMatrix(GQ, n, 1, v.data, row_labels=range(n))
    m, row = rand_gq_matrix(random.Random(n), 2, n), DenseMatrix(GQ, 1, 2, [5, 7])
    cases = {  # the call with the vector, and the same call with the matrix
        "mat_mul(m, v)": (lambda: mat_mul(m, v), lambda: mat_mul(m, col)),
        "mat_mul(v, row)": (lambda: mat_mul(v, row), lambda: mat_mul(col, row)),
        "mat_vec(m, v)": (lambda: mat_vec(m, v), lambda: mat_mul(m, col)),
        "kron(m, v)": (lambda: kron(m, v), lambda: kron(m, col)),
        "kron(v, m)": (lambda: kron(v, m), lambda: kron(col, m)),
        "det(v)": (lambda: det(v), lambda: det(col)),
        "pure_tensor([v])": (lambda: pure_tensor([v]), lambda: pure_tensor([col])),
        "v.transpose()": (lambda: v.transpose(), lambda: col.transpose()),
    }
    for name, (on_vector, on_matrix) in cases.items():
        try:
            want = on_matrix()
        except DimensionError:
            with pytest.raises(DimensionError):
                on_vector()
            continue
        got = on_vector()
        assert getattr(got, "_k", got) == getattr(want, "_k", want), name
    product = mat_mul(m, v)
    assert type(product) is DenseVector and (product.n, product.labels) == (2, None)
    assert type(mat_mul(v, row)) is DenseMatrix
    with pytest.raises(DimensionError) as info:
        mat_vec(m, col)
    assert str(info.value) == "DenseMatrix passed where a DenseVector belongs"
    for build in (lambda: DenseVector.from_rows([[1]] * n, GQ),
                  lambda: DenseVector.identity(n, GQ)):
        with pytest.raises(DimensionError):
            build()


def test_permutation_matrix_moves_basis_vectors():
    u = permutation_matrix((2, 0, 1))
    v = mat_vec(u, DenseVector(GQ, 3, [1, 0, 0]))
    assert v.data == (gq(0), gq(0), gq(1))


def test_labels_are_carried_not_interpreted():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]], GQ,
                              row_labels=(-1, 5), col_labels=(0, 7))
    assert a.transpose().row_labels == (0, 7)
    b = DenseMatrix.from_rows([[1, 0], [0, 1]], GQ, row_labels=(0, 7), col_labels=(3, 9))
    assert mat_mul(a, b).row_labels == (-1, 5)
    assert mat_mul(a, b).col_labels == (3, 9)
    for kind in (GQ, CF64):
        inv = inverse(DenseMatrix.from_rows([[1, 2], [3, 4]], kind,
                                            row_labels=(-1, 5), col_labels=(0, 7)))
        assert (inv.row_labels, inv.col_labels) == ((0, 7), (-1, 5))

