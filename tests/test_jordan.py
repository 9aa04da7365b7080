import itertools
import random
from fractions import Fraction

import pytest

from stretchkit.errors import DimensionError, DomainError, VariantError
from stretchkit.indexing import IndexMap
from stretchkit.jordan import (JordanSpec, explicit_pair_matrix, jordan_block,
                               jordan_nfold, jordan_oracle, jordan_pair,
                               jordan_product, nfold_eigenvalues, nfold_oracle,
                               nfold_product_matrix, spec_matrix)
from stretchkit.linalg import DenseMatrix, det, inverse, kron, mat_mul
from stretchkit.scalars import GQ, gq
from stretchkit.stretching import stretch
from stretchkit.tensors import pure_tensor
from stretchkit.verify import rand_matrix


def blocks_of(spec):
    return [(size, eig) for size, eig in spec.blocks]


def test_spec_canonical_ordering():
    s = JordanSpec([(1, 2), (3, 2), (2, 0), (2, 2)])
    assert blocks_of(s) == [(2, gq(0)), (3, gq(2)), (2, gq(2)), (1, gq(2))]
    assert s.dimension == 8
    assert s == JordanSpec([(2, 2), (3, 2), (2, 0), (1, 2)])


def test_spec_rejects_bad_blocks():
    with pytest.raises(DimensionError):
        JordanSpec([(0, 1)])
    with pytest.raises(VariantError):
        JordanSpec([(2, 0.5)])
    with pytest.raises(DimensionError):
        JordanSpec([])


def test_jordan_block_and_spec_matrix():
    j = jordan_block(3, gq("1/2"))
    assert j.to_rows() == [
        [gq("1/2"), gq(1), gq(0)],
        [gq(0), gq("1/2"), gq(1)],
        [gq(0), gq(0), gq("1/2")],
    ]
    m = spec_matrix(JordanSpec([(1, 5), (2, 0)]))
    assert m.at(0, 0) == gq(0) and m.at(0, 1) == gq(1)
    assert m.at(2, 2) == gq(5)


def test_pair_scalar_case():
    assert jordan_pair(1, 2, 1, 3) == JordanSpec([(1, 6)])


def test_pair_nonzero_eigenvalues():
    assert jordan_pair(2, 2, 2, 3) == JordanSpec([(3, 6), (1, 6)])
    assert jordan_pair(2, gq("1/2"), 3, 4) == JordanSpec([(4, 2), (2, 2)])


def test_pair_single_nilpotent_factor_forces_eigenvalue_zero():
    # The spectrum of the product is the products of eigenvalues, so one
    # nilpotent factor nils the whole spectrum.
    got = jordan_pair(2, 1, 3, 0)
    assert got == JordanSpec([(3, 0), (3, 0)])
    assert all(eig == gq(0) for _, eig in got.blocks)
    got = jordan_pair(3, 0, 2, 3)
    assert got == JordanSpec([(3, 0), (3, 0)])
    assert all(eig == gq(0) for _, eig in got.blocks)


def test_pair_double_nilpotent():
    assert jordan_pair(3, 0, 2, 0) == JordanSpec([(1, 0), (1, 0), (2, 0), (2, 0)])
    assert jordan_pair(2, 0, 2, 0) == JordanSpec([(1, 0), (1, 0), (2, 0)])
    assert jordan_pair(1, 0, 5, 0) == JordanSpec([(1, 0)] * 5)


def test_oracle_single_cell():
    result = jordan_oracle(jordan_block(3, 0), [0])
    assert result.spec() == JordanSpec([(3, 0)])
    assert result.weyr(0) == (1, 2, 3)
    # The result is a named tuple of its two fields.
    assert result == (((gq(0), (1, 2, 3), (3,)),), 3) == (result.eigen_data, result.dimension)
    assert repr(result) == ("JordanOracleResult(eigen_data=((gq(0, 0), (1, 2, 3), (3,)),), "
                            "dimension=3)")


def test_oracle_certifies_pair_cases():
    m = kron(jordan_block(2, 2), jordan_block(2, 3))
    assert jordan_oracle(m, [6]).spec() == JordanSpec([(3, 6), (1, 6)])
    m2 = kron(jordan_block(2, 1), jordan_block(3, 0))
    assert jordan_oracle(m2, [0]).spec() == JordanSpec([(3, 0), (3, 0)])


def test_oracle_demands_exhaustive_eigenvalues():
    m = spec_matrix(JordanSpec([(1, 1), (1, 2)]))
    with pytest.raises(DomainError):
        jordan_oracle(m, [1])
    with pytest.raises(VariantError):
        jordan_oracle(DenseMatrix.identity(2, "cf64"), [1])


def test_oracle_mixed_spectrum():
    spec = JordanSpec([(2, 1), (3, 0), (1, 1)])
    result = jordan_oracle(spec_matrix(spec), [0, 1])
    assert result.spec() == spec


def test_explicit_pair_matrix_scalar_case():
    m = explicit_pair_matrix(JordanSpec.single(1, 2), JordanSpec.single(1, 3))
    assert m.to_rows() == [[gq(6)]]


def test_explicit_pair_matrix_single_pair_formula():
    # One pair of cells: eigenvalue product on the diagonal, b on the +1
    # offset inside first-factor rows, a on the +mu offset, ones at +mu+1.
    p, q = 3, 2
    a, b = gq(2), gq(5)
    m = explicit_pair_matrix(JordanSpec.single(p, a), JordanSpec.single(q, b))
    for i in range(p):
        for k in range(q):
            r = i + p * k
            assert m.at(r, r) == a * b
            if i < p - 1:
                assert m.at(r, r + 1) == b
            if k < q - 1:
                assert m.at(r, r + p) == a
            if i < p - 1 and k < q - 1:
                assert m.at(r, r + p + 1) == gq(1)


def test_kron_of_cells_matches_explicit_matrix():
    lam, mu = gq("4/3"), gq(-2)
    got = kron(jordan_block(2, lam), jordan_block(2, mu))
    assert got == explicit_pair_matrix(JordanSpec.single(2, lam),
                                       JordanSpec.single(2, mu))


def test_explicit_pair_matrix_equals_generic_stretch():
    rng = random.Random(7)
    for _ in range(10):
        c = JordanSpec([(rng.randint(1, 2), gq(rng.randint(-2, 2)))
                        for _ in range(rng.randint(1, 2))])
        d = JordanSpec([(rng.randint(1, 3), gq(rng.randint(-2, 2)))
                        for _ in range(rng.randint(1, 2))])
        t = pure_tensor([spec_matrix(c), spec_matrix(d)])
        generic = stretch(t, IndexMap.mixed_radix(t.domain))
        assert explicit_pair_matrix(c, d) == generic


def test_nfold_single_spec_is_itself():
    s = JordanSpec([(2, 1), (1, 3)])
    assert jordan_nfold([s]) == s


@pytest.mark.parametrize("fold", [jordan_nfold, nfold_oracle, nfold_product_matrix])
def test_nfold_of_no_specs_is_a_domain_error(fold):
    with pytest.raises(DomainError, match="^an n-fold product needs at least one spec$"):
        fold(iter([]))


def test_nfold_two_and_three_factors():
    assert jordan_nfold([JordanSpec.single(2, 1), JordanSpec.single(2, 1)]) == \
        JordanSpec([(3, 1), (1, 1)])
    got = jordan_nfold([JordanSpec.single(2, 2), JordanSpec.single(2, 3),
                        JordanSpec.single(1, 1)])
    assert got == JordanSpec([(3, 6), (1, 6)])


def test_nfold_order_invariance():
    rng = random.Random(9)
    specs = [JordanSpec([(2, 1), (1, 0)]), JordanSpec.single(2, 3),
             JordanSpec.single(1, -1)]
    base = jordan_nfold(specs)
    for perm in itertools.permutations(specs):
        assert jordan_nfold(list(perm)) == base
    assert base.dimension == 3 * 2 * 1


def test_nfold_dimension_conservation():
    rng = random.Random(11)
    for _ in range(10):
        specs = [JordanSpec([(rng.randint(1, 2), gq(rng.randint(0, 2)))
                             for _ in range(rng.randint(1, 2))])
                 for _ in range(3)]
        total = 1
        for s in specs:
            total *= s.dimension
        assert jordan_nfold(specs).dimension == total


def test_nfold_matches_oracle_on_product_matrix():
    specs = [JordanSpec([(2, 2), (1, 0)]), JordanSpec.single(2, 3)]
    closed = jordan_nfold(specs)
    product = nfold_product_matrix(specs)
    assert product.n_rows == 6
    oracle = jordan_oracle(product, nfold_eigenvalues(specs))
    assert closed == oracle.spec()


def test_similarity_preserves_oracle_type():
    rng = random.Random(13)

    def random_invertible(n):
        while True:
            m = DenseMatrix(GQ, n, n,
                            [gq(rng.randint(-3, 3)) for _ in range(n * n)])
            if det(m):
                return m

    def conjugated(m):
        p = random_invertible(m.n_rows)
        return mat_mul(mat_mul(p, m), inverse(p))

    cases = [
        (JordanSpec([(2, 2), (1, 1)]), JordanSpec.single(2, 3)),
        (JordanSpec([(2, 0), (2, 1)]), JordanSpec([(1, 2), (1, 0)])),
        (JordanSpec.single(3, -1), JordanSpec([(2, 2), (2, 0)])),
    ]
    for c_spec, d_spec in cases:
        c, d = spec_matrix(c_spec), spec_matrix(d_spec)
        eigs = nfold_eigenvalues([c_spec, d_spec])
        assert jordan_oracle(kron(c, d), eigs).spec() == \
            jordan_oracle(kron(conjugated(c), conjugated(d)), eigs).spec()


def test_pair_rejects_float_eigenvalues():
    with pytest.raises(VariantError):
        jordan_pair(2, 0.5, 2, 1)
    with pytest.raises(VariantError):
        jordan_nfold([JordanSpec.single(1, 1j)])


def test_product_distributes_over_blocks():
    s1 = JordanSpec([(2, 1), (1, 0)])
    s2 = JordanSpec.single(2, 3)
    expected_blocks = []
    for p, a in s1.blocks:
        for q, b in s2.blocks:
            expected_blocks.extend(jordan_pair(p, a, q, b).blocks)
    assert jordan_product(s1, s2) == JordanSpec(expected_blocks)


def sympy_spec(sympy, m: DenseMatrix) -> JordanSpec:
    """Jordan type of ``m`` from sympy's own Jordan form."""
    def exact(v):
        return sympy.Rational(v.numerator, v.denominator)
    entries = [exact(v.re) + sympy.I * exact(v.im) for v in m.data]
    j = sympy.Matrix(m.n_rows, m.n_cols, entries).jordan_form(calc_transform=False)
    blocks, start = [], 0
    for i in range(j.rows):
        if i == j.rows - 1 or j[i, i + 1] == 0:
            eig = j[i, i]
            re, im = sympy.re(eig), sympy.im(eig)
            blocks.append((i + 1 - start, gq(Fraction(int(re.p), int(re.q)),
                                             Fraction(int(im.p), int(im.q)))))
            start = i + 1
    return JordanSpec(blocks)


def test_oracle_agrees_with_sympy_on_conjugated_jordan_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    eigs = [gq(1), gq(-1), gq(0), gq(0, 1), gq(Fraction(1, 2), -1)]
    for _ in range(6):  # sympy takes seconds per 3x3 case with a non-real eigenvalue
        dim, blocks = rng.randint(2, 3), []
        while sum(size for size, _ in blocks) < dim:
            blocks.append((rng.randint(1, dim - sum(size for size, _ in blocks)),
                           rng.choice(eigs)))
        spec = JordanSpec(blocks)
        p = rand_matrix(rng, dim)
        while det(p) == 0:
            p = rand_matrix(rng, dim)
        m = mat_mul(mat_mul(p, spec_matrix(spec)), inverse(p))
        oracle = jordan_oracle(m, eigs).spec()  # candidates beyond the spectrum
        assert oracle == sympy_spec(sympy, m) == spec
