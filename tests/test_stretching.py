import random
import tracemalloc
from collections import Counter

import pytest

from stretchkit import stretching
from stretchkit.errors import DomainError, PermutationDomainError
from stretchkit.indexing import IndexMap, IndexSet, Permutation
from stretchkit.jordan import jordan_block
from stretchkit.linalg import (DenseMatrix, det, mat_mul, mat_vec,
                               permutation_matrix, rank)
from stretchkit.scalars import CF64, GQ, gq
from stretchkit.stretching import (SimilarityWitness, check_tp_witness, kappa,
                                   kernel_preservation_check, permute_stretch,
                                   stretch, stretch_vector,
                                   tp_similarity_witness,
                                   verify_averaging_decomposition)
from stretchkit.tensors import (Tensor, TensorVector, act, convolve,
                                identity_tensor, pure_tensor, star)
from stretchkit.verify import (rand_injective_table, rand_map, rand_matrix,
                               rand_rect_set, rand_tensor, rand_tensor_vector)


def diag_sum_grid(a, b):
    """Hand expansion of the 3x3 stretch of a 2x2 pure tensor under k=(1,1)."""
    return [
        [a.at(0, 0) * b.at(0, 0),
         a.at(0, 1) * b.at(0, 0) + a.at(0, 0) * b.at(0, 1),
         a.at(0, 1) * b.at(0, 1)],
        [a.at(0, 0) * b.at(1, 0) + a.at(1, 0) * b.at(0, 0),
         a.at(0, 0) * b.at(1, 1) + a.at(1, 1) * b.at(0, 0)
         + a.at(0, 1) * b.at(1, 0) + a.at(1, 0) * b.at(0, 1),
         a.at(0, 1) * b.at(1, 1) + a.at(1, 1) * b.at(0, 1)],
        [a.at(1, 0) * b.at(1, 0),
         a.at(1, 0) * b.at(1, 1) + a.at(1, 1) * b.at(1, 0),
         a.at(1, 1) * b.at(1, 1)],
    ]


def diag_difference_grid(a, b):
    """Hand expansion of the 3x3 stretch under k=(1,-1); labels -1, 0, 1."""
    return [
        [a.at(0, 0) * b.at(1, 1),
         a.at(0, 0) * b.at(1, 0) + a.at(0, 1) * b.at(1, 1),
         a.at(0, 1) * b.at(1, 0)],
        [a.at(0, 0) * b.at(0, 1) + a.at(1, 0) * b.at(1, 1),
         a.at(0, 0) * b.at(0, 0) + a.at(1, 1) * b.at(1, 1)
         + a.at(0, 1) * b.at(0, 1) + a.at(1, 0) * b.at(1, 0),
         a.at(0, 1) * b.at(0, 0) + a.at(1, 1) * b.at(1, 0)],
        [a.at(1, 0) * b.at(0, 1),
         a.at(1, 0) * b.at(0, 0) + a.at(1, 1) * b.at(0, 1),
         a.at(1, 1) * b.at(0, 0)],
    ]


def max_coord_grid(a, b):
    """Hand expansion of the 2x2 stretch under the max-coordinate map."""
    return [
        [a.at(0, 0) * b.at(0, 0),
         a.at(0, 0) * b.at(0, 1) + a.at(0, 1) * (b.at(0, 0) + b.at(0, 1))],
        [a.at(0, 0) * b.at(1, 0) + a.at(1, 0) * (b.at(0, 0) + b.at(1, 0)),
         a.at(0, 0) * b.at(1, 1)
         + a.at(0, 1) * (b.at(1, 0) + b.at(1, 1))
         + a.at(1, 0) * (b.at(0, 1) + b.at(1, 1))
         + a.at(1, 1) * (b.at(0, 0) + b.at(0, 1) + b.at(1, 0) + b.at(1, 1))],
    ]


def block_overlay_grid(a, b):
    """4x4 stretch of a 2x2 (x) 3x3 pure tensor under k=(1,1): shifted copies
    of the 3x3 factor weighted by the 2x2 factor's entries."""
    def cell(r, c):
        total = gq(0)
        for i1 in range(2):
            for j1 in range(2):
                r2, c2 = r - i1, c - j1
                if 0 <= r2 <= 2 and 0 <= c2 <= 2:
                    total = total + a.at(i1, j1) * b.at(r2, c2)
        return total
    return [[cell(r, c) for c in range(4)] for r in range(4)]


def test_stretch_diag_sum_matches_hand_formula():
    rng = random.Random(1)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    t = pure_tensor([a, b])
    m = stretch(t, IndexMap.linear(t.domain, (1, 1)))
    assert m.row_labels == (0, 1, 2)
    assert m.to_rows() == diag_sum_grid(a, b)


def test_stretch_diag_sum_jordan_instance():
    lam, mu = gq("3/2"), gq("-5/3")
    t = pure_tensor([jordan_block(2, lam), jordan_block(2, mu)])
    m = stretch(t, IndexMap.linear(t.domain, (1, 1)))
    z = gq(0)
    assert m.to_rows() == [
        [lam * mu, lam + mu, gq(1)],
        [z, 2 * lam * mu, lam + mu],
        [z, z, lam * mu],
    ]


def test_stretch_diag_difference_matches_hand_formula():
    rng = random.Random(2)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    t = pure_tensor([a, b])
    m = stretch(t, IndexMap.linear(t.domain, (1, -1)))
    assert m.row_labels == (-1, 0, 1)
    assert m.to_rows() == diag_difference_grid(a, b)


def test_stretch_diag_difference_jordan_center():
    lam, mu = gq(2), gq(3)
    t = pure_tensor([jordan_block(2, lam), jordan_block(2, mu)])
    m = stretch(t, IndexMap.linear(t.domain, (1, -1)))
    assert m.at(1, 1) == 2 * lam * mu + 1


def test_stretch_rect23_matches_block_overlay():
    rng = random.Random(3)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
    t = pure_tensor([a, b])
    m = stretch(t, IndexMap.linear(t.domain, (1, 1)))
    assert m.row_labels == (0, 1, 2, 3)
    assert m.to_rows() == block_overlay_grid(a, b)


def test_stretch_max_coord_matches_hand_formula():
    rng = random.Random(4)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    t = pure_tensor([a, b])
    m = stretch(t, IndexMap.max_coord(t.domain))
    assert m.to_rows() == max_coord_grid(a, b)
    # the max map is symmetric in the two slots
    assert stretch(pure_tensor([b, a]), IndexMap.max_coord(t.domain)) == m


def test_stretch_mixed_radix_identity():
    eyes = [DenseMatrix.identity(n, GQ) for n in (2, 3)]
    t = pure_tensor(eyes)
    m = stretch(t, IndexMap.mixed_radix(t.domain))
    assert m == DenseMatrix.identity(6, GQ)


def test_stretch_domain_mismatch_raises():
    t = identity_tensor(IndexSet.rectangular((2, 2)), GQ)
    with pytest.raises(DomainError):
        stretch(t, IndexMap.mixed_radix(IndexSet.rectangular((4,))))


def test_injective_stretch_sends_units_to_distinct_units():
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.from_table(dom, {p: v for p, v in zip(dom.points, (7, -1, 0, 3))})
    seen = set()
    for pi in dom:
        for pj in dom:
            m = stretch(Tensor.from_entries(dom, GQ, {(pi, pj): 1}), f)
            nonzero = [(i, j) for i in range(4) for j in range(4) if m.at(i, j)]
            assert len(nonzero) == 1 and m.at(*nonzero[0]) == gq(1)
            seen.add(nonzero[0])
    assert len(seen) == 16


def test_stretch_vector_class_sums_and_kernel():
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.linear(dom, (1, 1))
    x = TensorVector.from_entries(dom, GQ, {(0, 1): 1, (1, 0): 1})
    v = stretch_vector(x, f)
    assert v.labels == (0, 1, 2)
    assert v.data == (gq(0), gq(2), gq(0))
    y = TensorVector.from_entries(dom, GQ, {(0, 1): 1, (1, 0): -1})
    assert stretch_vector(y, f).data == (gq(0), gq(0), gq(0))


def test_stretch_vector_injective_preserves_values():
    rng = random.Random(5)
    dom = rand_rect_set(rng, max_arity=2)
    x = rand_tensor_vector(rng, dom)
    v = stretch_vector(x, IndexMap.mixed_radix(dom))
    assert sorted(v.data, key=lambda s: (s.re, s.im)) == \
        sorted(x.data, key=lambda s: (s.re, s.im))


def test_homomorphism_for_every_map_kind():
    rng = random.Random(6)
    dom = IndexSet.rectangular((2, 2))
    maps = [IndexMap.linear(dom, (1, 1)), IndexMap.linear(dom, (1, -1)),
            IndexMap.mixed_radix(dom), IndexMap.max_coord(dom),
            IndexMap.enumeration(dom),
            IndexMap.from_table(dom, {p: i % 2 for i, p in enumerate(dom.points)})]
    for f in maps:
        t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
        assert stretch(convolve(t1, t2, f), f) == \
            mat_mul(stretch(t1, f), stretch(t2, f))
        x = rand_tensor_vector(rng, dom)
        assert stretch_vector(act(t1, x, f), f) == \
            mat_vec(stretch(t1, f), stretch_vector(x, f))


def test_transpose_law():
    rng = random.Random(7)
    for _ in range(8):
        dom = rand_rect_set(rng, max_arity=2, max_dim=3)
        f = rand_map(rng, dom)
        t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
        assert stretch(convolve(t2, t1, f), f).transpose() == \
            stretch(convolve(star(t1), star(t2), f), f)


def test_kappa_identity_and_tensor_product():
    dom = IndexSet.rectangular((2, 2))
    assert kappa(identity_tensor(dom, GQ), IndexMap.mixed_radix(dom)) == gq(1)
    rng = random.Random(8)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    t = pure_tensor([a, b])
    expected = det(a) * det(a) * det(b) * det(b)
    assert kappa(t, IndexMap.mixed_radix(dom)) == expected


def test_kappa_multiplicative_under_diag_sum_map():
    rng = random.Random(9)
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.linear(dom, (1, 1))
    for _ in range(10):
        t1, t2 = rand_tensor(rng, dom), rand_tensor(rng, dom)
        assert kappa(convolve(t1, t2, f), f) == kappa(t1, f) * kappa(t2, f)


def test_permute_stretch_identity_and_swap():
    rng = random.Random(10)
    b1, b2 = rand_matrix(rng, 2), rand_matrix(rng, 2)
    t = pure_tensor([b1, b2])
    tp = IndexMap.mixed_radix(t.domain)
    assert permute_stretch(t, tp, Permutation.identity(2)) == stretch(t, tp)
    swapped = permute_stretch(t, tp, Permutation((2, 1)))
    assert swapped == stretch(pure_tensor([b2, b1]), tp)


def test_permute_stretch_reversal_three_factors():
    rng = random.Random(11)
    bs = [rand_matrix(rng, 2) for _ in range(3)]
    t = pure_tensor(bs)
    tp = IndexMap.mixed_radix(t.domain)
    reversed_t = pure_tensor(list(reversed(bs)))
    assert permute_stretch(t, tp, Permutation((3, 2, 1))) == \
        stretch(reversed_t, tp)


def test_permute_stretch_rejects_shape_changing_sigma():
    t = pure_tensor([DenseMatrix.identity(2, GQ), DenseMatrix.identity(3, GQ)])
    with pytest.raises(PermutationDomainError):
        permute_stretch(t, IndexMap.mixed_radix(t.domain), Permutation((2, 1)))


def test_permutation_isometry_in_reshape_setting():
    rng = random.Random(12)
    dom = IndexSet.rectangular((2, 2, 2))
    t = rand_tensor(rng, dom)
    tp = IndexMap.mixed_radix(dom)
    base = stretch(t, tp)
    for one_line in [(2, 1, 3), (3, 2, 1), (2, 3, 1)]:
        moved = permute_stretch(t, tp, Permutation(one_line))
        assert Counter(moved.data) == Counter(base.data)


def test_tp_witness_mixed_radix_is_identity():
    dom = IndexSet.rectangular((2, 3))
    w = tp_similarity_witness(IndexMap.mixed_radix(dom))
    assert w.perm == tuple(range(6))
    assert check_tp_witness(IndexMap.mixed_radix(dom), w)


def test_tp_witness_line_table():
    dom = IndexSet.rectangular((3,))
    f = IndexMap.from_table(dom, {(0,): 2, (1,): 0, (2,): 1})
    w = tp_similarity_witness(f)
    # ranks of the images: F(0)=2 -> rank 2, F(1)=0 -> rank 0, F(2)=1 -> rank 1
    assert w.perm == (2, 0, 1)
    assert check_tp_witness(f, w)


def test_tp_witness_linear_injective_grid():
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.linear(dom, (2, 1))  # values 0, 2, 1, 3 in canonical order
    w = tp_similarity_witness(f)
    assert w.perm == (0, 2, 1, 3)
    assert check_tp_witness(f, w)


def test_tp_witness_random_tables():
    rng = random.Random(13)
    for dims in [(4,), (2, 2), (2, 3)]:
        dom = IndexSet.rectangular(dims)
        f = rand_injective_table(rng, dom)
        assert check_tp_witness(f, tp_similarity_witness(f))


def test_tp_witness_guard_rejects_each_bad_input_alone():
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.linear(dom, (1, 2))
    good = tp_similarity_witness(f)
    assert check_tp_witness(f, good)
    # A non-injective map, a float matrix or a wrong shape fails on its own.
    assert check_tp_witness(IndexMap.linear(dom, (1, 1)), good) is False
    float_u = DenseMatrix(CF64, 4, 4, [complex(v.re) for v in good.matrix.data])
    assert check_tp_witness(f, SimilarityWitness(good.perm, float_u)) is False
    wide = DenseMatrix(GQ, 2, 8, good.matrix.data)
    assert check_tp_witness(f, SimilarityWitness(good.perm, wide)) is False
    # So does a witness "matrix" from the tensor side of the stretch.
    tensor_u = Tensor(IndexSet.rectangular((4,)), GQ, good.matrix.data)
    assert check_tp_witness(f, SimilarityWitness(good.perm, tensor_u)) is False


def test_similarity_witness_equality():
    dom = IndexSet.rectangular((3,))
    w = tp_similarity_witness(IndexMap.from_table(dom, {(0,): 5, (1,): -1, (2,): 0}))
    assert w.perm == (2, 0, 1)
    assert w == SimilarityWitness((2, 0, 1), permutation_matrix((2, 0, 1)))
    assert w != SimilarityWitness((2, 0, 1), permutation_matrix((0, 1, 2)))
    assert w != SimilarityWitness((0, 1, 2), w.matrix)
    assert w != w.perm and w != w.matrix
    # A named tuple: equal to the plain tuple of its fields.
    assert w == (w.perm, w.matrix) and tuple(w) == ((2, 0, 1), w.matrix)
    assert repr(w) == "SimilarityWitness(perm=(2, 0, 1), matrix=DenseMatrix(gq, 3x3))"


def test_tp_witness_with_two_swapped_entries_is_rejected():
    dom = IndexSet.rectangular((2, 3))
    f = rand_injective_table(random.Random(21), dom)
    perm = list(tp_similarity_witness(f).perm)
    perm[1], perm[4] = perm[4], perm[1]
    swapped = SimilarityWitness(tuple(perm), permutation_matrix(perm, GQ))
    assert not check_tp_witness(f, swapped)
    # -U conjugates like U, but it is not a permutation matrix.
    good = tp_similarity_witness(f)
    negated = DenseMatrix(GQ, 6, 6, [-v for v in good.matrix.data])
    assert not check_tp_witness(f, SimilarityWitness(good.perm, negated))


def test_tp_witness_whose_perm_and_matrix_disagree_is_rejected():
    # The check reads the permutation from U; a correct perm beside a wrong
    # U must not make it pass.
    dom = IndexSet.rectangular((2, 3))
    f = rand_injective_table(random.Random(5), dom)
    good = tp_similarity_witness(f)
    wrong = list(good.perm)
    wrong[0], wrong[5] = wrong[5], wrong[0]
    assert check_tp_witness(f, good)
    assert not check_tp_witness(f, SimilarityWitness(good.perm, permutation_matrix(wrong, GQ)))
    shifted = [(v + 1) % 6 for v in good.perm]
    assert not check_tp_witness(f, SimilarityWitness(good.perm,
                                                      permutation_matrix(shifted, GQ)))


def test_tp_witness_whose_perm_is_wrong_is_rejected():
    # The right matrix beside a wrong perm must not pass either: the CLI
    # prints the perm as part of the verified witness.
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.from_table(dom, {(0, 0): 5, (1, 0): -1, (0, 1): 7, (1, 1): 0})
    good = tp_similarity_witness(f)
    assert good.perm == (2, 0, 3, 1) and check_tp_witness(f, good)
    assert not check_tp_witness(f, SimilarityWitness((0, 1, 2, 3), good.matrix))
    assert not check_tp_witness(f, SimilarityWitness((1, 3, 0, 2), good.matrix))
    assert not check_tp_witness(f, SimilarityWitness((2, 0, 3), good.matrix))
    assert not check_tp_witness(f, SimilarityWitness(None, good.matrix))


def test_tp_witness_rejects_non_injective_and_non_rectangular():
    dom = IndexSet.rectangular((2, 2))
    with pytest.raises(DomainError):
        tp_similarity_witness(IndexMap.linear(dom, (1, 1)))
    explicit = IndexSet.explicit([(0,), (2,)])
    with pytest.raises(DomainError):
        tp_similarity_witness(IndexMap.enumeration(explicit))


def test_averaging_decomposition_injective_is_trivial():
    rng = random.Random(14)
    dom = IndexSet.rectangular((2, 2))
    t = rand_tensor(rng, dom)
    report = verify_averaging_decomposition(t, IndexMap.mixed_radix(dom))
    assert report["passed"]


def test_averaging_decomposition_nontrivial_maps():
    rng = random.Random(15)
    dom = IndexSet.rectangular((2, 2))
    for f in (IndexMap.linear(dom, (1, 1)), IndexMap.linear(dom, (1, -1)),
              IndexMap.max_coord(dom)):
        t = rand_tensor(rng, dom)
        report = verify_averaging_decomposition(t, f)
        assert report["passed"], report
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    pure = pure_tensor([a, b])
    assert verify_averaging_decomposition(pure, IndexMap.max_coord(dom))["passed"]


def test_averaging_rejects_a_stretch_that_misplaces_one_indicator(monkeypatch):
    dom = IndexSet.rectangular((2, 2))
    fmap = IndexMap.max_coord(dom)  # classes {(0, 0)} and the other three points
    cidx = fmap.partition().class_of_position
    indicators = [Tensor(dom, GQ, [int(cidx[i] == ci and cidx[j] == cj)
                                   for i in range(4) for j in range(4)])
                  for ci in range(2) for cj in range(2)]
    plain = stretching.stretch

    def misplacing(t, f):
        # The indicator of class pair (0, 0) also lands in cell (0, 1).
        m = plain(t, f)
        if t != indicators[0]:
            return m
        rows = m.to_rows()
        rows[0][1] = rows[0][0]
        return DenseMatrix.from_rows(rows, m.kind, m.row_labels, m.col_labels)

    # The four images stay linearly independent: a rank test would pass.
    assert rank(DenseMatrix.from_rows([misplacing(x, fmap).data for x in indicators],
                                      GQ)) == 4
    monkeypatch.setattr(stretching, "stretch", misplacing)
    report = verify_averaging_decomposition(rand_tensor(random.Random(16), dom), fmap)
    assert not report["passed"]
    assert report["details"]["indicator_rank"] == 3 < report["details"]["expected_rank"]


def test_averaging_on_27_points_stays_small():
    dom = IndexSet.rectangular((3, 3, 3))
    t = rand_tensor(random.Random(17), dom)
    tracemalloc.start()
    try:
        report = verify_averaging_decomposition(t, IndexMap.mixed_radix(dom))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"] and report["details"]["indicator_rank"] == 27 ** 2
    assert peak < 4 * 2 ** 20


def test_kernel_preservation_reports():
    dom = IndexSet.rectangular((2, 2))
    injective = kernel_preservation_check(IndexMap.mixed_radix(dom),
                                          Permutation((2, 1)), trials=5)
    assert injective["passed"] and injective["details"]["vacuous"]
    for f in (IndexMap.linear(dom, (1, 1)), IndexMap.max_coord(dom)):
        report = kernel_preservation_check(f, Permutation((2, 1)), trials=20, seed=3)
        assert report["passed"]
        assert report["details"]["trials"] == 20


def test_kernel_preservation_needs_a_trial():
    dom = IndexSet.rectangular((2, 2))
    for f in (IndexMap.mixed_radix(dom), IndexMap.linear(dom, (1, 1))):
        for trials in (0, -3):
            with pytest.raises(DomainError, match=f"at least 1, got {trials}"):
                kernel_preservation_check(f, Permutation((2, 1)), trials=trials)
    report = kernel_preservation_check(IndexMap.linear(dom, (1, 1)), Permutation((2, 1)), 1)
    assert report["details"] == {"trials": 1, "failures": 0, "vacuous": False}


def test_kernel_difference_unit_stays_in_kernel_under_swap():
    dom = IndexSet.rectangular((2, 2))
    f = IndexMap.linear(dom, (1, 1))
    diff = Tensor.from_entries(dom, GQ, {((0, 1), (0, 0)): 1, ((1, 0), (0, 0)): -1})
    zero_grid = tuple(gq(0) for _ in range(9))
    assert stretch(diff, f).data == zero_grid
    assert stretch(diff, f.compose(Permutation((2, 1)))).data == zero_grid
