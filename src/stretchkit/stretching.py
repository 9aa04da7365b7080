"""Stretching maps: from tensors on an index set to labelled square matrices.

The stretched matrix of a tensor T under an index map F accumulates T[i, j]
into the cell (F(i), F(j)); rows and columns are labelled by the sorted
distinct values of F.  Injective maps give a pure rearrangement
(matricization); non-injective maps fold whole classes together, and the
class-averaging map is exactly the lost information.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .errors import DomainError
from .indexing import IndexMap, Permutation
from .linalg import (DenseMatrix, DenseVector, det, mat_mul, matrices_close,
                     permutation_matrix, square_matrix)
from .scalars import GQ, stored, take
from .tensors import Tensor, TensorVector, average, fold, require_domain


def stretch(t: Tensor, fmap: IndexMap) -> DenseMatrix:
    """Stretched matrix of ``t`` under ``fmap``, labelled by sorted map values."""
    require_domain(fmap, t)
    part = fmap.partition()
    cidx, k = part.class_of_position, len(part)
    return stored(DenseMatrix, t.kind, fold(t, cidx, cidx)[0], n_rows=k, n_cols=k,
                  row_labels=part.values, col_labels=part.values)


def stretch_vector(x: TensorVector, fmap: IndexMap) -> DenseVector:
    """Stretched vector: the component at F(i) accumulates x over the class."""
    require_domain(fmap, x, TensorVector)
    part = fmap.partition()
    return stored(DenseVector, x.kind, fold(x, part.class_of_position, (0,))[0],
                  n_rows=len(part), n_cols=1, row_labels=part.values, col_labels=None)


def kappa(t: Tensor, fmap: IndexMap):
    """Determinant of the stretched matrix; multiplicative for the convolution."""
    return det(stretch(t, fmap))


def permute_stretch(t: Tensor, fmap: IndexMap, sigma: Permutation) -> DenseMatrix:
    """Stretch through the permuted map p -> F(sigma(p))."""
    return stretch(t, fmap.compose(sigma))


class SimilarityWitness(namedtuple("SimilarityWitness", "perm matrix")):
    """Permutation conjugating the mixed-radix stretch into a given injective one.

    ``perm[i]`` is the rank (among sorted map values) of the point whose
    mixed-radix position is i; ``matrix`` is the permutation matrix U with
    U e_i = e_{perm[i]}.
    """

    __slots__ = ()


def tp_similarity_witness(fmap: IndexMap) -> SimilarityWitness:
    """Witness that an injective map on a rectangular set is a relabelled reshape.

    After rank-relabelling the map values to 0..N-1, the stretched matrix of
    any tensor equals U * (mixed-radix stretch) * U^-1 for the returned U.
    """
    domain = fmap.domain
    if not domain.is_rectangular:
        raise DomainError("similarity witness requires a rectangular index set")
    if not fmap.is_injective():
        raise DomainError("similarity witness requires an injective index map")
    values = fmap.values()
    rank_of = {v: r for r, v in enumerate(sorted(values))}
    # Canonical domain order is mixed-radix order, so position(p) = F_TP(p).
    perm = tuple(rank_of[values[pos]] for pos in range(len(domain)))
    return SimilarityWitness(perm=perm, matrix=permutation_matrix(perm, GQ))


def check_tp_witness(fmap: IndexMap, witness: SimilarityWitness) -> bool:
    """Verify stretch(T, F) == U * stretch(T, F_TP) * U^T for every tensor T.

    F must be injective, U = ``witness.matrix`` a permutation matrix and
    ``witness.perm`` its permutation; all are checked directly.  Then one
    tensor D with pairwise-distinct entries suffices.  Proof: for injective F,
    stretch(., F) moves entry (i, j) of a tensor to cell (rank F(i), rank
    F(j)), so each cell of the left side reads T at the pair lambda(cell) for a
    fixed bijection lambda.  F_TP is injective too, and conjugation by a
    permutation matrix (U^T is U^-1) moves entries, so each cell of the right
    side reads T at rho(cell) for a fixed bijection rho.  If both sides agree
    on D, then D[lambda(c)] == D[rho(c)] for every cell c, and distinct entries
    force lambda(c) == rho(c); the two sides then agree on every T.

    The right side needs no product: with c(a) the column of the one in row
    a of U, (U S U^T)[a, b] = S[c(a), c(b)], a reindex of S.
    """
    domain = fmap.domain
    tp = IndexMap.mixed_radix(domain)
    u = witness.matrix
    n = len(domain)
    if not (isinstance(u, DenseMatrix) and fmap.is_injective() and u.kind == GQ
            and (u.n_rows, u.n_cols) == (n, n)):
        return False
    den, re, im = u._k
    ones = [p for p, (x, y) in enumerate(zip(re, im)) if x or y]  # row-major
    col = [p % n for p in ones]
    if not ([p // n for p in ones] == sorted(col) == list(range(n))
            and all(re[p] == den and not im[p] for p in ones)
            and tuple(sorted(range(n), key=col.__getitem__)) == witness.perm):
        return False
    distinct = stored(Tensor, GQ, (1, range(1, n * n + 1), [0] * (n * n)), domain=domain)
    rhs = take(stretch(distinct, tp)._k, [ca * n + cb for ca in col for cb in col])
    return stretch(distinct, fmap)._k == rhs


def verify_averaging_decomposition(t: Tensor, fmap: IndexMap) -> dict:
    """Check the decomposition of stretching through class averaging.

    Three clauses: (i) the normalized average stretches to the same matrix as
    the original tensor; (ii) stretching is injective on the span of
    class-pair indicator tensors: the indicator of each class pair (c_i, c_j)
    stretches to a matrix nonzero in the cell (c_i, c_j) alone, so the k^2
    images have full rank.  ``indicator_rank`` counts the indicators that do;
    a stretch sending one to a wrong cell fails (ii) even if the images stay
    independent.  (iii) the raw average stretches to D * stretch(T) * D with
    D the diagonal of class sizes.
    """
    part = fmap.partition()
    base = stretch(t, fmap)

    averaged = stretch(average(t, fmap, normalized=True), fmap)
    projection_preserved = matrices_close(averaged, base)

    n_cls, cidx = len(part), part.class_of_position
    zeros = [0] * len(cidx) ** 2
    indicator_rank = 0
    for cell in range(n_cls ** 2):
        ci, cj = divmod(cell, n_cls)
        indicator = stored(Tensor, GQ, (1, [int(a == ci and b == cj) for a in cidx
                                            for b in cidx], zeros), domain=t.domain)
        _, re, im = stretch(indicator, fmap)._k
        indicator_rank += [p for p, (x, y) in enumerate(zip(re, im)) if x or y] == [cell]

    d = square_matrix(t.kind, n_cls, [(i * (n_cls + 1), c) for i, c in enumerate(part.sizes)])
    raw_expected = mat_mul(mat_mul(d, base), d)
    raw_stretched = stretch(average(t, fmap, normalized=False), fmap)
    raw_conjugation = matrices_close(raw_stretched, raw_expected)

    passed = projection_preserved and indicator_rank == n_cls ** 2 and raw_conjugation
    return {
        "check": "averaging-decomposition",
        "passed": passed,
        "details": {
            "projection_preserved": projection_preserved,
            "indicator_rank": indicator_rank,
            "expected_rank": n_cls ** 2,
            "raw_conjugation": raw_conjugation,
        },
    }


def _is_zero(m: DenseMatrix) -> bool:
    _, re, im = m._k
    return not (any(re) or any(im))


def kernel_preservation_check(fmap: IndexMap, sigma: Permutation,
                              trials: int, seed: int = 0) -> dict:
    """Evidence that permuting slots preserves the kernel of the stretch.

    Samples random tensors built from within-class difference units (these
    span the kernel), then checks they still stretch to zero through the
    permuted map.  Injective maps have trivial kernel and pass vacuously.
    ``trials`` must be at least 1.
    """
    if trials < 1:
        raise DomainError(f"kernel_preservation_check needs a trial count of at least 1, "
                          f"got {trials}")
    composed = fmap.compose(sigma)  # validates sigma(A) inside A
    part = fmap.partition()
    pairs = [(ci, cj) for ci in range(len(part)) for cj in range(len(part))
             if part.sizes[ci] * part.sizes[cj] > 1]
    if not pairs:
        return {"check": "kernel-preservation", "passed": True,
                "details": {"trials": 0, "vacuous": True}}
    n = len(fmap.domain)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        re = [0] * (n * n)
        for _ in range(rng.randint(1, 3)):
            ci, cj = pairs[rng.randrange(len(pairs))]
            block = [i * n + j for i in part.members[ci] for j in part.members[cj]]
            p, q = rng.sample(block, 2)
            coeff = rng.randint(-3, 3) or 1
            re[p] += coeff
            re[q] -= coeff
        t = stored(Tensor, GQ, (1, re, [0] * (n * n)), domain=fmap.domain)
        # A tensor outside the kernel of the plain stretch is a broken
        # construction, and counts as a failure rather than a skipped trial.
        if not (_is_zero(stretch(t, fmap)) and _is_zero(stretch(t, composed))):
            failures += 1
    return {"check": "kernel-preservation", "passed": failures == 0,
            "details": {"trials": trials, "failures": failures,
                        "vacuous": False}}
