"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every numeric expectation is either hand-derived from the worked-example
formulas (frozen in the oracles below) or certified by an independent exact
computation (rank oracle, definitional expansions).  Runtime budgets are part
of the criteria and asserted.
"""
import random
import time
from contextlib import contextmanager

from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.jordan import (JordanSpec, explicit_pair_matrix, jordan_block,
                               jordan_nfold, jordan_oracle, jordan_pair,
                               nfold_eigenvalues, nfold_product_matrix,
                               spec_matrix)
from stretchkit.linalg import DenseMatrix, kron
from stretchkit.scalars import CF64, GQ, gq
from stretchkit.stretching import (check_tp_witness, stretch,
                                   tp_similarity_witness,
                                   verify_averaging_decomposition)
from stretchkit.tensors import average, pure_tensor
from stretchkit.verify import rand_injective_table, rand_tensor, run_suite

SEED = 20240816


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget_seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"[acceptance] criterion {number} ({label}): {verdict} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"


def diag_sum_oracle(a, b):
    """Nine-entry formula for the 3x3 stretch of a 2x2 pure tensor, k=(1,1)."""
    return [
        [a[0][0] * b[0][0],
         a[0][1] * b[0][0] + a[0][0] * b[0][1],
         a[0][1] * b[0][1]],
        [a[0][0] * b[1][0] + a[1][0] * b[0][0],
         a[0][0] * b[1][1] + a[1][1] * b[0][0] + a[0][1] * b[1][0] + a[1][0] * b[0][1],
         a[0][1] * b[1][1] + a[1][1] * b[0][1]],
        [a[1][0] * b[1][0],
         a[1][0] * b[1][1] + a[1][1] * b[1][0],
         a[1][1] * b[1][1]],
    ]


def diag_difference_oracle(a, b):
    """Nine-entry formula for the 3x3 stretch under k=(1,-1)."""
    return [
        [a[0][0] * b[1][1],
         a[0][0] * b[1][0] + a[0][1] * b[1][1],
         a[0][1] * b[1][0]],
        [a[0][0] * b[0][1] + a[1][0] * b[1][1],
         a[0][0] * b[0][0] + a[1][1] * b[1][1] + a[0][1] * b[0][1] + a[1][0] * b[1][0],
         a[0][1] * b[0][0] + a[1][1] * b[1][0]],
        [a[1][0] * b[0][1],
         a[1][0] * b[0][0] + a[1][1] * b[0][1],
         a[1][1] * b[0][0]],
    ]


def test_criterion_1_diag_sum_reproduction():
    with criterion(1, "diag-sum worked example", 1.0):
        rng = random.Random(SEED)
        for _ in range(100):
            a = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(2)] for _ in range(2)]
            b = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(2)] for _ in range(2)]
            t = pure_tensor([DenseMatrix.from_rows(a, CF64),
                             DenseMatrix.from_rows(b, CF64)])
            m = stretch(t, IndexMap.linear(t.domain, (1, 1)))
            expected = diag_sum_oracle(a, b)
            for i in range(3):
                for j in range(3):
                    assert abs(m.at(i, j) - expected[i][j]) < 1e-12

        for lam, mu in ((gq(2), gq(3)), (gq("3/2"), gq("-5/3"))):
            t = pure_tensor([jordan_block(2, lam), jordan_block(2, mu)])
            m = stretch(t, IndexMap.linear(t.domain, (1, 1)))
            z = gq(0)
            assert m.to_rows() == [
                [lam * mu, lam + mu, gq(1)],
                [z, 2 * lam * mu, lam + mu],
                [z, z, lam * mu],
            ]


def test_criterion_2_remaining_worked_examples():
    with criterion(2, "diag-difference, 2x3 overlay, max-coordinate", 1.0):
        rng = random.Random(SEED + 1)

        def rows(n):
            return [[gq(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]

        for _ in range(20):
            a, b = rows(2), rows(2)
            t = pure_tensor([DenseMatrix.from_rows(a, GQ),
                             DenseMatrix.from_rows(b, GQ)])
            m = stretch(t, IndexMap.linear(t.domain, (1, -1)))
            assert m.row_labels == (-1, 0, 1)
            assert m.to_rows() == diag_difference_oracle(a, b)

            mx = stretch(t, IndexMap.max_coord(t.domain))
            assert mx.to_rows() == [
                [a[0][0] * b[0][0],
                 a[0][0] * b[0][1] + a[0][1] * (b[0][0] + b[0][1])],
                [a[0][0] * b[1][0] + a[1][0] * (b[0][0] + b[1][0]),
                 a[0][0] * b[1][1]
                 + a[0][1] * (b[1][0] + b[1][1])
                 + a[1][0] * (b[0][1] + b[1][1])
                 + a[1][1] * (b[0][0] + b[0][1] + b[1][0] + b[1][1])],
            ]

            a2, b3 = rows(2), rows(3)
            t23 = pure_tensor([DenseMatrix.from_rows(a2, GQ),
                               DenseMatrix.from_rows(b3, GQ)])
            m23 = stretch(t23, IndexMap.linear(t23.domain, (1, 1)))
            for r in range(4):
                for c in range(4):
                    expected = gq(0)
                    for i1 in range(2):
                        for j1 in range(2):
                            if 0 <= r - i1 <= 2 and 0 <= c - j1 <= 2:
                                expected = expected + a2[i1][j1] * b3[r - i1][c - j1]
                    assert m23.at(r, c) == expected

        lam, mu = gq(2), gq(3)
        tj = pure_tensor([jordan_block(2, lam), jordan_block(2, mu)])
        mj = stretch(tj, IndexMap.linear(tj.domain, (1, -1)))
        assert mj.at(1, 1) == 2 * lam * mu + 1
        assert mj.to_rows() == [
            [lam * mu, mu, gq(0)],
            [lam, 2 * lam * mu + 1, mu],
            [gq(0), lam, lam * mu],
        ]


def test_criterion_3_homomorphism_suite():
    with criterion(3, "stretching homomorphism, 200 trials", 30.0):
        report = run_suite("homomorphism", 200, SEED)
        assert report["ok"], report
        for check in report["checks"]:
            assert check["details"]["trials"] == 200
            assert check["details"]["failures"] == 0


def test_criterion_4_convolution_algebra():
    with criterion(4, "associativity, identity, transpose, kappa", 30.0):
        for suite in ("associativity", "adjoint", "kappa"):
            report = run_suite(suite, 100, SEED)
            assert report["ok"], report
            for check in report["checks"]:
                assert check["details"]["failures"] == 0


def test_criterion_5_jordan_grid_and_nfold():
    with criterion(5, "Jordan pair grid and 3-factor folds vs oracle", 120.0):
        for p in range(1, 6):
            for q in range(1, 6):
                for a, b in ((2, 3), (2, 0), (0, 3), (0, 0)):
                    closed = jordan_pair(p, a, q, b)
                    product = kron(spec_matrix(JordanSpec.single(p, a)),
                                   spec_matrix(JordanSpec.single(q, b)))
                    oracle = jordan_oracle(product, [gq(a) * gq(b)])
                    assert closed == oracle.spec(), (p, a, q, b)
                    if (a == 0) != (b == 0):
                        # single nilpotent factor: eigenvalue is forced to 0
                        assert all(eig == gq(0) for _, eig in closed.blocks)

        rng = random.Random(SEED + 5)
        done = 0
        while done < 20:
            specs = []
            for _ in range(3):
                dim = rng.randint(1, 3)
                blocks = []
                while dim > 0:
                    size = rng.randint(1, dim)
                    blocks.append((size, gq(rng.choice((-2, -1, 0, 1, 2, 3)))))
                    dim -= size
                specs.append(JordanSpec(blocks))
            total = specs[0].dimension * specs[1].dimension * specs[2].dimension
            if total > 24:
                continue
            closed = jordan_nfold(specs)
            oracle = jordan_oracle(nfold_product_matrix(specs),
                                   nfold_eigenvalues(specs))
            assert closed == oracle.spec(), specs
            done += 1


def _partitions(n):
    """All multisets of positive integers summing to n (descending order)."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def test_criterion_6_explicit_classification_matrix():
    with criterion(6, "explicit block matrix vs generic stretch", 60.0):
        rng = random.Random(SEED + 6)
        specs_by_dim = []
        for dim in range(1, 7):
            specs_by_dim.extend(_partitions(dim))
        for sizes_c in specs_by_dim:
            for sizes_d in specs_by_dim:
                c = JordanSpec([(s, gq(rng.randint(-3, 3), rng.randint(0, 1)))
                                for s in sizes_c])
                d = JordanSpec([(s, gq(rng.randint(-3, 3))) for s in sizes_d])
                t = pure_tensor([spec_matrix(c), spec_matrix(d)])
                generic = stretch(t, IndexMap.mixed_radix(t.domain))
                assert explicit_pair_matrix(c, d) == generic, (sizes_c, sizes_d)


def test_criterion_7_similarity_witness():
    with criterion(7, "injective maps are conjugated reshapes", 30.0):
        rng = random.Random(SEED + 7)
        shapes = [(2, 2), (4,), (2, 3), (8,), (2, 2, 2), (3, 3),
                  (16,), (4, 2, 2), (2, 2, 2, 2), (15,)]
        for i in range(20):
            domain = IndexSet.rectangular(shapes[i % len(shapes)])
            fmap = rand_injective_table(rng, domain)
            witness = tp_similarity_witness(fmap)
            assert check_tp_witness(fmap, witness), (shapes[i % len(shapes)], i)


def test_criterion_8_averaging_decomposition():
    with criterion(8, "averaging decomposition on the 2x2 grid", 10.0):
        rng = random.Random(SEED + 8)
        dom = IndexSet.rectangular((2, 2))
        maps = (IndexMap.linear(dom, (1, 1)), IndexMap.linear(dom, (1, -1)),
                IndexMap.max_coord(dom))
        for fmap in maps:
            n_classes = len(fmap.partition())
            for _ in range(50):
                t = rand_tensor(rng, dom)
                report = verify_averaging_decomposition(t, fmap)
                assert report["passed"], report
                assert report["details"]["indicator_rank"] == n_classes ** 2
                smooth = average(t, fmap, normalized=True)
                assert average(smooth, fmap, normalized=True) == smooth


def test_criterion_9_permutation_operators():
    with criterion(9, "permutation composition, isometry, kernel", 10.0):
        checks = run_suite("permutation", 100, SEED + 9)["checks"]
        for check in checks:
            assert check["passed"], check
            assert check["details"]["trials"] == 100
            assert check["details"]["failures"] == 0
