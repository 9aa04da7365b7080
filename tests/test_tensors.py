import random

import pytest

from stretchkit import scalars
from stretchkit.errors import DimensionError, DomainError, VariantError
from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.jordan import jordan_oracle
from stretchkit.linalg import (DenseMatrix, DenseVector, det, inverse, kron, mat_mul,
                               mat_vec, nullity_sequence, rank)
from stretchkit.scalars import CF64, GQ, coerce, gq
from stretchkit.stretching import kappa, stretch, stretch_vector
from stretchkit.tensors import (Tensor, TensorVector, act, average, convolve,
                                identity_tensor, pure_tensor, star)
from stretchkit.verify import (rand_map, rand_matrix, rand_rect_set,
                               rand_tensor, rand_tensor_vector)


def naive_convolve(t1, t2, fmap):
    """Definitional double loop over equivalent pairs; oracle for convolve."""
    n = t1.size
    points = t1.domain.points
    out = {}
    for i, pi in enumerate(points):
        for j, pj in enumerate(points):
            acc = gq(0)
            for m, pm in enumerate(points):
                for l, pl in enumerate(points):
                    if fmap.value(pm) == fmap.value(pl):
                        acc = acc + t1.data[i * n + m] * t2.data[l * n + j]
            out[(pi, pj)] = acc
    return Tensor.from_entries(t1.domain, GQ, out)


def square_domain():
    return IndexSet.rectangular((2, 2))


def test_pure_tensor_of_identities_is_identity_tensor():
    eye = DenseMatrix.identity(2, GQ)
    assert pure_tensor([eye, eye]) == identity_tensor(square_domain(), GQ)


def test_pure_tensor_entry_formula():
    rng = random.Random(1)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    t = pure_tensor([a, b])
    assert t.at((0, 0), (1, 1)) == a.at(0, 1) * b.at(0, 1)
    assert t.at((1, 0), (0, 1)) == a.at(1, 0) * b.at(0, 1)
    # Sizes (3, 2, 2): the running size multiplies, and 3 + 2 != 3 * 2.
    c = rand_matrix(rng, 3)
    t = pure_tensor([c, a, b])
    assert t.domain == IndexSet.rectangular((3, 2, 2))
    for pi in t.domain:
        for pj in t.domain:
            assert t.at(pi, pj) == \
                c.at(pi[0], pj[0]) * a.at(pi[1], pj[1]) * b.at(pi[2], pj[2])


def test_pure_tensor_rejects_mixed_kinds_and_rectangles():
    with pytest.raises(VariantError):
        pure_tensor([DenseMatrix.identity(2, GQ), DenseMatrix.identity(2, CF64)])
    with pytest.raises(Exception):
        pure_tensor([DenseMatrix.from_rows([[1, 2]], GQ)])


def test_convolve_with_injective_map_is_matrix_product():
    rng = random.Random(2)
    dom = square_domain()
    f = IndexMap.mixed_radix(dom)
    t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
    got = convolve(t1, t2, f)
    n = len(dom)
    for i in range(n):
        for j in range(n):
            expected = gq(0)
            for m in range(n):
                expected = expected + t1.data[i * n + m] * t2.data[m * n + j]
            assert got.at_pos(i, j) == expected


def test_convolve_matches_definitional_oracle():
    rng = random.Random(3)
    for _ in range(12):
        dom = rand_rect_set(rng, max_arity=2, max_dim=3)
        f = rand_map(rng, dom)
        t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
        assert convolve(t1, t2, f) == naive_convolve(t1, t2, f)


def test_convolve_cross_terms_for_diagonal_sum_map():
    # With k=(1,1) on the 2x2 grid the only nontrivial class is {(0,1),(1,0)},
    # adding exactly two cross terms to the composed-index product.
    rng = random.Random(4)
    dom = square_domain()
    f = IndexMap.linear(dom, (1, 1))
    t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
    got = convolve(t1, t2, f)
    tp = IndexMap.mixed_radix(dom)
    plain = convolve(t1, t2, tp)
    for pi in dom:
        for pj in dom:
            expected = (plain.at(pi, pj)
                        + t1.at(pi, (0, 1)) * t2.at((1, 0), pj)
                        + t1.at(pi, (1, 0)) * t2.at((0, 1), pj))
            assert got.at(pi, pj) == expected


def test_convolve_max_coord_factorizes_through_classes():
    rng = random.Random(5)
    dom = square_domain()
    f = IndexMap.max_coord(dom)
    t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
    got = convolve(t1, t2, f)
    big = [(0, 1), (1, 0), (1, 1)]
    for pi in dom:
        for pj in dom:
            left = sum((t1.at(pi, m) for m in big), gq(0))
            right = sum((t2.at(m, pj) for m in big), gq(0))
            expected = t1.at(pi, (0, 0)) * t2.at((0, 0), pj) + left * right
            assert got.at(pi, pj) == expected


def test_identity_tensor_formulas():
    rng = random.Random(6)
    dom = square_domain()
    ident = identity_tensor(dom, GQ)
    tp = IndexMap.mixed_radix(dom)
    t = rand_tensor(rng, dom)
    assert convolve(t, ident, tp) == t
    assert convolve(ident, t, tp) == t
    f = IndexMap.linear(dom, (1, 1))
    right = convolve(t, ident, f)
    for pi in dom:
        for pj in dom:
            expected = sum((t.at(pi, m) for m in dom if f.value(m) == f.value(pj)),
                           gq(0))
            assert right.at(pi, pj) == expected


def test_pure_tensor_turns_factor_products_into_convolution():
    # Slotwise matrix products correspond to convolving the pure tensors
    # through the injective mixed-radix map.
    rng = random.Random(16)
    a1, b1 = rand_matrix(rng, 2), rand_matrix(rng, 2)
    a2, b2 = rand_matrix(rng, 3), rand_matrix(rng, 3)
    left = pure_tensor([mat_mul(a1, b1), mat_mul(a2, b2)])
    t_a = pure_tensor([a1, a2])
    t_b = pure_tensor([b1, b2])
    assert left == convolve(t_a, t_b, IndexMap.mixed_radix(t_a.domain))


def test_identity_tensor_is_identity_array():
    dom = square_domain()
    ident = identity_tensor(dom, GQ)
    for i in range(4):
        for j in range(4):
            assert ident.at_pos(i, j) == (gq(1) if i == j else gq(0))


def test_matrix_and_tensor_cells_check_both_indices():
    m = DenseMatrix(GQ, 3, 3, range(9))
    assert m.at(1, 2) == gq(5) and m.at(2, 0) == gq(6)
    ident = identity_tensor(IndexSet.rectangular((2,)))
    assert ident.at_pos(1, 1) == gq(1) and ident.at_pos(1, 0) == gq(0)
    for i, j in ((0, 5), (-1, 0), (3, 0), (0, -1), (0, 3)):
        with pytest.raises(IndexError):
            m.at(i, j)
    for i, j in ((0, 3), (-1, 0), (2, 0), (0, -1), (0, 2)):
        with pytest.raises(IndexError):
            ident.at_pos(i, j)
    wide = DenseMatrix(CF64, 1, 4, [1, 2, 3, 4])
    assert wide.at(0, 3) == 4
    with pytest.raises(IndexError):
        wide.at(1, 0)


def test_star_involution_and_identity():
    rng = random.Random(7)
    dom = square_domain()
    t = rand_tensor(rng, dom)
    assert star(star(t)) == t
    assert star(identity_tensor(dom, GQ)) == identity_tensor(dom, GQ)


def test_star_of_pure_tensor_transposes_factors():
    rng = random.Random(8)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
    assert star(pure_tensor([a, b])) == pure_tensor([a.transpose(), b.transpose()])


def test_star_is_anti_automorphism_for_injective_maps():
    rng = random.Random(9)
    dom = rand_rect_set(rng, max_arity=2)
    f = IndexMap.mixed_radix(dom)
    t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
    assert star(convolve(t1, t2, f)) == convolve(star(t2), star(t1), f)


def test_act_with_injective_map_is_mat_vec():
    rng = random.Random(10)
    dom = square_domain()
    f = IndexMap.mixed_radix(dom)
    t = rand_tensor(rng, dom)
    x = rand_tensor_vector(rng, dom)
    got = act(t, x, f)
    n = len(dom)
    for i in range(n):
        expected = sum((t.data[i * n + j] * x.data[j] for j in range(n)), gq(0))
        assert got.data[i] == expected


def test_identity_acts_by_class_sums():
    rng = random.Random(11)
    dom = square_domain()
    f = IndexMap.linear(dom, (1, 1))
    x = rand_tensor_vector(rng, dom)
    got = act(identity_tensor(dom, GQ), x, f)
    for pi in dom:
        expected = sum((x.at(m) for m in dom if f.value(m) == f.value(pi)), gq(0))
        assert got.at(pi) == expected


def test_average_injective_map_is_identity_both_modes():
    rng = random.Random(12)
    dom = rand_rect_set(rng, max_arity=2)
    f = IndexMap.mixed_radix(dom)
    t = rand_tensor(rng, dom)
    assert average(t, f, normalized=True) == t
    assert average(t, f, normalized=False) == t


def test_average_normalized_entry_is_block_mean():
    rng = random.Random(13)
    dom = square_domain()
    f = IndexMap.linear(dom, (1, 1))
    t = rand_tensor(rng, dom)
    avg = average(t, f, normalized=True)
    expected = (t.at((0, 1), (0, 0)) + t.at((1, 0), (0, 0))) / gq(2)
    assert avg.at((0, 1), (0, 0)) == expected
    raw = average(t, f, normalized=False)
    assert raw.at((0, 1), (0, 0)) == expected * gq(2)


def test_average_raw_is_block_sums():
    rng = random.Random(14)
    dom = square_domain()
    f = IndexMap.max_coord(dom)
    t = rand_tensor(rng, dom)
    raw = average(t, f, normalized=False)
    for pi in dom:
        for pj in dom:
            block_i = [m for m in dom if f.value(m) == f.value(pi)]
            block_j = [m for m in dom if f.value(m) == f.value(pj)]
            expected = sum((t.at(a, b) for a in block_i for b in block_j), gq(0))
            assert raw.at(pi, pj) == expected


def test_average_raw_equals_double_convolution_with_id():
    rng = random.Random(15)
    for _ in range(6):
        dom = rand_rect_set(rng, max_arity=2, max_dim=3)
        f = rand_map(rng, dom)
        t = rand_tensor(rng, dom)
        ident = identity_tensor(dom, GQ)
        assert average(t, f, normalized=False) == \
            convolve(ident, convolve(t, ident, f), f)


def test_singleton_domain_degenerates_to_scalars():
    dom = IndexSet.rectangular((1,))
    f = IndexMap.mixed_radix(dom)
    t = Tensor(dom, GQ, [gq(5)])
    assert convolve(t, t, f).data == (gq(25),)
    assert average(t, f).data == (gq(5),)
    x = TensorVector(dom, GQ, [gq(3)])
    assert act(t, x, f).data == (gq(15),)


def test_domain_and_kind_mismatches_raise():
    dom = square_domain()
    other = IndexSet.rectangular((4,))
    f = IndexMap.mixed_radix(dom)
    t = identity_tensor(dom, GQ)
    with pytest.raises(DomainError):
        convolve(t, identity_tensor(other, GQ), f)
    with pytest.raises(VariantError):
        convolve(t, identity_tensor(dom, CF64), f)
    with pytest.raises(DomainError):
        act(identity_tensor(other, GQ), TensorVector(other, GQ, [0] * len(other)), f)


VECTOR_FOR_TENSOR = "TensorVector passed where a Tensor belongs"
TENSOR_FOR_VECTOR = "Tensor passed where a TensorVector belongs"
MATRIX_FOR_TENSOR = "DenseMatrix passed where a Tensor belongs"
DENSE_VECTOR_FOR_VECTOR = "DenseVector passed where a TensorVector belongs"
TENSOR_FOR_MATRIX = "Tensor passed where a DenseMatrix belongs"
VECTOR_FOR_MATRIX = "TensorVector passed where a DenseMatrix belongs"


def matrix_of(t):
    """The |A| x |A| DenseMatrix holding the entries of tensor ``t``."""
    return DenseMatrix(t.kind, t.size, t.size, t.data)


def dense_vector_of(x):
    return DenseVector(x.kind, x.size, x.data)


@pytest.mark.parametrize("call, message", [
    (lambda t, x, f: stretch(x, f), VECTOR_FOR_TENSOR),
    (lambda t, x, f: stretch_vector(t, f), TENSOR_FOR_VECTOR),
    (lambda t, x, f: convolve(t, x, f), VECTOR_FOR_TENSOR),
    (lambda t, x, f: act(t, t, f), TENSOR_FOR_VECTOR),
    (lambda t, x, f: average(x, f), VECTOR_FOR_TENSOR),
    (lambda t, x, f: star(x), VECTOR_FOR_TENSOR),
    # An operand from the other side of the stretch.
    (lambda t, x, f: stretch(matrix_of(t), f), MATRIX_FOR_TENSOR),
    (lambda t, x, f: stretch_vector(dense_vector_of(x), f), DENSE_VECTOR_FOR_VECTOR),
    (lambda t, x, f: convolve(matrix_of(t), t, f), MATRIX_FOR_TENSOR),
    (lambda t, x, f: convolve(t, matrix_of(t), f), MATRIX_FOR_TENSOR),
    (lambda t, x, f: act(matrix_of(t), x, f), MATRIX_FOR_TENSOR),
    (lambda t, x, f: act(t, dense_vector_of(x), f), DENSE_VECTOR_FOR_VECTOR),
    (lambda t, x, f: average(matrix_of(t), f), MATRIX_FOR_TENSOR),
    (lambda t, x, f: kappa(matrix_of(t), f), MATRIX_FOR_TENSOR),
    (lambda t, x, f: star(matrix_of(t)), MATRIX_FOR_TENSOR),
    (lambda t, x, f: mat_mul(matrix_of(t), t), TENSOR_FOR_MATRIX),
    (lambda t, x, f: mat_mul(t, matrix_of(t)), TENSOR_FOR_MATRIX),
    (lambda t, x, f: mat_vec(t, dense_vector_of(x)), TENSOR_FOR_MATRIX),
    (lambda t, x, f: kron(x, matrix_of(t)), VECTOR_FOR_MATRIX),
    (lambda t, x, f: det(t), TENSOR_FOR_MATRIX),
    (lambda t, x, f: inverse(t), TENSOR_FOR_MATRIX),
    (lambda t, x, f: rank(t), TENSOR_FOR_MATRIX),
    (lambda t, x, f: nullity_sequence(x, 0, 1), VECTOR_FOR_MATRIX),
    (lambda t, x, f: jordan_oracle(t, [0]), TENSOR_FOR_MATRIX),
    (lambda t, x, f: pure_tensor([matrix_of(t), t]), TENSOR_FOR_MATRIX),
], ids=["stretch", "stretch_vector", "convolve", "act", "average", "star",
        "stretch-matrix", "stretch_vector-dense-vector", "convolve-matrix-left",
        "convolve-matrix-right", "act-matrix", "act-dense-vector", "average-matrix",
        "kappa-matrix", "star-matrix", "mat_mul-tensor-right", "mat_mul-tensor-left",
        "mat_vec-tensor", "kron-vector", "det-tensor", "inverse-tensor", "rank-tensor",
        "nullity_sequence-vector", "jordan_oracle-tensor", "pure_tensor-tensor"])
def test_wrong_shape_operands_raise(call, message):
    # On the one-point domain a tensor and a vector both hold one entry, so
    # only the operand's type can tell them apart; a matrix kernel is given
    # the same operands as a tensor kernel would be, and refuses them by type.
    rng = random.Random(5)
    for dom in (IndexSet.rectangular((2, 2)), IndexSet.rectangular((1,))):
        t, x = rand_tensor(rng, dom), rand_tensor_vector(rng, dom)
        with pytest.raises(DimensionError) as info:
            call(t, x, IndexMap.max_coord(dom))
        assert str(info.value) == message


def test_from_entries_coerces_each_given_entry_once(monkeypatch):
    calls = []
    monkeypatch.setattr(scalars, "coerce", lambda v, kind: calls.append(v) or coerce(v, kind))
    dom = IndexSet.rectangular((4, 4))
    t = Tensor.from_entries(dom, GQ, {((0, 0), (1, 1)): 2, ((3, 3), (0, 2)): gq(1, -1)})
    assert len(calls) == 2
    assert t.at((0, 0), (1, 1)) == gq(2) and t.at((3, 3), (0, 2)) == gq(1, -1)
    assert sum(1 for v in t.data if v) == 2 and len(t.data) == 16 ** 2
    x = TensorVector.from_entries(dom, CF64, {(1, 2): 1.5})
    assert x.at((1, 2)) == 1.5 + 0j and x.at((0, 0)) == 0j
    # Validation is unchanged: a float in exact data and an unknown kind.
    with pytest.raises(VariantError):
        Tensor.from_entries(dom, GQ, {((0, 0), (1, 1)): 0.5})
    with pytest.raises(VariantError):
        TensorVector.from_entries(dom, GQ, {(1, 2): 0.5})
    with pytest.raises(VariantError):
        Tensor.from_entries(dom, "q64", {})


def test_tensors_close_and_matrices_close_share_one_comparison():
    from stretchkit.linalg import matrices_close
    from stretchkit.tensors import tensors_close
    dom = IndexSet.rectangular((2,))
    a = Tensor(dom, CF64, [1.0, 2j, 0j, 3.0])
    assert tensors_close(a, Tensor(dom, CF64, [1.0 + 1e-12, 2j, 0j, 3.0]))
    assert not tensors_close(a, Tensor(dom, CF64, [1.001, 2j, 0j, 3.0]))
    assert not tensors_close(a, Tensor(IndexSet.explicit([(0,), (2,)]), CF64, a.data))
    exact = Tensor(dom, GQ, [1, 0, 0, 1])
    assert tensors_close(exact, identity_tensor(dom)) and not tensors_close(exact, a)
    m = DenseMatrix.from_rows([[1.0, 2j], [0j, 3.0]], CF64)
    assert matrices_close(m, DenseMatrix.from_rows([[1.0, 2j + 1e-13], [0j, 3.0]], CF64))
    assert not matrices_close(m, DenseMatrix(CF64, 1, 4, m.data))
    assert not matrices_close(m, DenseMatrix.from_rows([[1, 0], [0, 3]], GQ))
