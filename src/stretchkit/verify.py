"""Seeded verification suites behind the ``verify`` CLI command.

Each suite draws deterministic random instances and checks an algebraic
identity two-sided: both sides are computed along independent code paths
(e.g. a convolution followed by one stretch versus two stretches followed by
a matrix product).  Exact scalars make every check an equality, not a
tolerance.
"""
from __future__ import annotations

import random

from .errors import DomainError
from .indexing import IndexMap, IndexSet, Permutation
from .jordan import JordanSpec, jordan_nfold, jordan_pair, nfold_oracle
from .linalg import DenseMatrix, mat_mul, mat_vec
from .scalars import GQ, gq, stored
from .stretching import (check_tp_witness, kappa, kernel_preservation_check,
                         permute_stretch, stretch, stretch_vector,
                         tp_similarity_witness, verify_averaging_decomposition)
from .tensors import (Tensor, TensorVector, act, average, convolve,
                      identity_tensor, pure_tensor, star)

SUITE_NAMES = ("homomorphism", "associativity", "adjoint", "kappa",
               "averaging", "permutation", "jordan", "tp-witness")


# A part's denominator q is drawn from (1, 1, 1, 2); choosing from this tuple
# takes the same index and gives 2 // q, which puts the part over 2.
_TWICE_OVER = (2, 2, 2, 1)


def _rand_k(rng: random.Random, count: int) -> tuple:
    """``count`` random Gaussian rationals in kernel form ``(2, re, im)``.

    Each part is an integer in [-2, 2] over 1 (three times in four) or 2;
    about 30 % of the entries are non-real.  Per entry the draws are
    ``random()``, then ``randint`` and ``choice`` for the imaginary part when
    there is one, then ``randint`` and ``choice`` for the real part.
    """
    unit, randint, choice = rng.random, rng.randint, rng.choice
    re, im = [0] * count, [0] * count
    for k in range(count):
        if unit() < 0.3:
            im[k] = randint(-2, 2) * choice(_TWICE_OVER)
        re[k] = randint(-2, 2) * choice(_TWICE_OVER)
    return 2, re, im


def rand_matrix(rng: random.Random, n: int, m: int | None = None) -> DenseMatrix:
    m = n if m is None else m
    return stored(DenseMatrix, GQ, _rand_k(rng, n * m), n_rows=n, n_cols=m,
                  row_labels=None, col_labels=None)


def rand_rect_set(rng: random.Random, max_arity: int = 3, max_dim: int = 3) -> IndexSet:
    arity = rng.randint(1, max_arity)
    return IndexSet.rectangular([rng.randint(1, max_dim) for _ in range(arity)])


def rand_map(rng: random.Random, domain: IndexSet) -> IndexMap:
    choice = rng.randrange(4)
    if choice == 0:
        return IndexMap.linear(domain, [rng.randint(-2, 2) for _ in range(domain.arity)])
    if choice == 1:
        return IndexMap.mixed_radix(domain)
    if choice == 2:
        return IndexMap.max_coord(domain)
    hi = max(1, len(domain) // 2)
    return IndexMap.from_table(domain, {p: rng.randint(-1, hi) for p in domain})


def rand_tensor(rng: random.Random, domain: IndexSet) -> Tensor:
    return stored(Tensor, GQ, _rand_k(rng, len(domain) ** 2), domain=domain)


def rand_tensor_vector(rng: random.Random, domain: IndexSet) -> TensorVector:
    return stored(TensorVector, GQ, _rand_k(rng, len(domain)), domain=domain)


def rand_injective_table(rng: random.Random, domain: IndexSet) -> IndexMap:
    values = rng.sample(range(-3 * len(domain), 3 * len(domain)), len(domain))
    return IndexMap.from_table(domain, dict(zip(domain.points, values)))


def rand_dims_preserving_perm(rng: random.Random, dims) -> Permutation:
    """Random slot permutation that keeps the dimension tuple fixed."""
    slots = list(range(1, len(dims) + 1))
    for _ in range(8):
        rng.shuffle(slots)
        if all(dims[s - 1] == dims[i] for i, s in enumerate(slots)):
            return Permutation(slots)
    return Permutation.identity(len(dims))


def _check(name: str, trials: int, failures: int, **extra) -> dict:
    details = {"trials": trials, "failures": failures}
    details.update(extra)
    return {"check": name, "passed": failures == 0, "details": details}


def suite_homomorphism(trials: int, seed: int):
    """Stretching turns convolution into matrix product, action into mat-vec."""
    rng = random.Random(seed)
    mat_fail = vec_fail = 0
    for _ in range(trials):
        domain = rand_rect_set(rng)
        fmap = rand_map(rng, domain)
        t1, t2 = rand_tensor(rng, domain), rand_tensor(rng, domain)
        lhs = stretch(convolve(t1, t2, fmap), fmap)
        rhs = mat_mul(stretch(t1, fmap), stretch(t2, fmap))
        if lhs != rhs:
            mat_fail += 1
        x = rand_tensor_vector(rng, domain)
        vl = stretch_vector(act(t1, x, fmap), fmap)
        vr = mat_vec(stretch(t1, fmap), stretch_vector(x, fmap))
        if vl != vr:
            vec_fail += 1
    return [_check("matrix-homomorphism", trials, mat_fail),
            _check("vector-homomorphism", trials, vec_fail)]


def _is_sum(out, p, k, positions) -> bool:
    """Whether entry ``p`` of the kernel form ``out`` equals the sum of the
    entries of ``k`` at ``positions``, cross-multiplying the denominators."""
    out_den, out_re, out_im = out
    den, re, im = k
    return (out_re[p] * den == sum(re[q] for q in positions) * out_den and
            out_im[p] * den == sum(im[q] for q in positions) * out_den)


def suite_associativity(trials: int, seed: int):
    """Convolution is associative and interacts with Id by class sums."""
    rng = random.Random(seed)
    assoc_fail = id_fail = 0
    for _ in range(trials):
        domain = rand_rect_set(rng)
        fmap = rand_map(rng, domain)
        t1, t2, t3 = (rand_tensor(rng, domain) for _ in range(3))
        if convolve(convolve(t1, t2, fmap), t3, fmap) != \
                convolve(t1, convolve(t2, t3, fmap), fmap):
            assoc_fail += 1
        ident = identity_tensor(domain, GQ)
        part = fmap.partition()
        n = len(domain)
        right = convolve(t1, ident, fmap)
        left = convolve(ident, t1, fmap)
        # Class sums straight from t1's stored ints, one loop per class; the
        # classes come from members, not from the fold's class_of_position.
        cls_of = {m: cls for cls in part.members for m in cls}
        if not all(_is_sum(right._k, i * n + j, t1._k, [i * n + m for m in cls_of[j]]) and
                   _is_sum(left._k, i * n + j, t1._k, [m * n + j for m in cls_of[i]])
                   for i in range(n) for j in range(n)):
            id_fail += 1
    return [_check("associativity", trials, assoc_fail),
            _check("identity-formulas", trials, id_fail)]


def suite_adjoint(trials: int, seed: int):
    """Transpose law, involution, and anti-automorphism on injective maps."""
    rng = random.Random(seed)
    transpose_fail = involution_fail = anti_fail = 0
    for _ in range(trials):
        domain = rand_rect_set(rng)
        fmap = rand_map(rng, domain)
        t1, t2 = rand_tensor(rng, domain), rand_tensor(rng, domain)
        lhs = stretch(convolve(t2, t1, fmap), fmap).transpose()
        rhs = stretch(convolve(star(t1), star(t2), fmap), fmap)
        if lhs != rhs:
            transpose_fail += 1
        if star(star(t1)) != t1:
            involution_fail += 1
        injective = IndexMap.mixed_radix(domain)
        if star(convolve(t1, t2, injective)) != \
                convolve(star(t2), star(t1), injective):
            anti_fail += 1
    return [_check("transpose-law", trials, transpose_fail),
            _check("star-involution", trials, involution_fail),
            _check("star-anti-automorphism", trials, anti_fail)]


def suite_kappa(trials: int, seed: int):
    """Multiplicativity of the stretched determinant."""
    rng = random.Random(seed)
    mult_fail = tp_fail = 0
    for _ in range(trials):
        domain = rand_rect_set(rng, max_arity=2, max_dim=3)
        fmap = rand_map(rng, domain)
        t1, t2 = rand_tensor(rng, domain), rand_tensor(rng, domain)
        if kappa(convolve(t1, t2, fmap), fmap) != kappa(t1, fmap) * kappa(t2, fmap):
            mult_fail += 1
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        t = pure_tensor([a, b])
        tp = IndexMap.mixed_radix(t.domain)
        if kappa(convolve(pure_tensor([a, b]), pure_tensor([b, a]), tp), tp) != \
                kappa(pure_tensor([a, b]), tp) * kappa(pure_tensor([b, a]), tp):
            tp_fail += 1
    return [_check("kappa-multiplicativity", trials, mult_fail),
            _check("kappa-tensor-product", trials, tp_fail)]


def suite_averaging(trials: int, seed: int):
    """Averaging decomposition clauses plus idempotence and block constancy."""
    rng = random.Random(seed)
    decomposition_fail = idem_fail = block_fail = 0
    domain = IndexSet.rectangular((2, 2))
    maps = [IndexMap.linear(domain, (1, 1)), IndexMap.linear(domain, (1, -1)),
            IndexMap.max_coord(domain)]
    for i in range(trials):
        fmap = maps[i % len(maps)]
        extra_domain = rand_rect_set(rng)
        extra_map = rand_map(rng, extra_domain)
        for f, dom in ((fmap, domain), (extra_map, extra_domain)):
            t = rand_tensor(rng, dom)
            if not verify_averaging_decomposition(t, f)["passed"]:
                decomposition_fail += 1
            avg = average(t, f, normalized=True)
            if average(avg, f, normalized=True) != avg:
                idem_fail += 1
            # One stored denominator: equal values have equal (re, im) pairs.
            _, re, im = avg._k
            n = len(dom)
            cls = f.partition().members
            for rows in cls:
                for cols in cls:
                    if len({(re[r * n + c], im[r * n + c]) for r in rows for c in cols}) != 1:
                        block_fail += 1
    return [_check("decomposition-clauses", trials, decomposition_fail),
            _check("idempotence", trials, idem_fail),
            _check("block-constant", trials, block_fail)]


def suite_permutation(trials: int, seed: int):
    """Composition law, isometry in the reshape setting, kernel preservation."""
    rng = random.Random(seed)
    comp_fail = iso_fail = kernel_fail = 0
    for i in range(trials):
        domain = rand_rect_set(rng)
        dims = domain.dims
        s1 = rand_dims_preserving_perm(rng, dims)
        s2 = rand_dims_preserving_perm(rng, dims)
        fmap = rand_map(rng, domain)
        twice = fmap.compose(s1).compose(s2)
        once = fmap.compose(s2.compose(s1))
        if not twice.pointwise_equal(once):
            comp_fail += 1
        t = rand_tensor(rng, domain)
        tp = IndexMap.mixed_radix(domain)
        plain = stretch(t, tp)
        permuted = permute_stretch(t, tp, s1)
        # Canonical forms: equal entry multisets have equal denominators.
        (den, re, im), (p_den, p_re, p_im) = plain._k, permuted._k
        if den != p_den or sorted(zip(re, im)) != sorted(zip(p_re, p_im)):
            iso_fail += 1
        sq_domain = IndexSet.rectangular((2, 2))
        sq_map = (IndexMap.linear(sq_domain, (1, 1)) if i % 2 == 0
                  else IndexMap.max_coord(sq_domain))
        report = kernel_preservation_check(sq_map, Permutation((2, 1)),
                                           trials=4, seed=rng.randrange(10 ** 6))
        if not report["passed"]:
            kernel_fail += 1
    return [_check("permutation-composition", trials, comp_fail),
            _check("permutation-isometry", trials, iso_fail),
            _check("kernel-preservation", trials, kernel_fail)]


def _jordan_case_agrees(p, a, q, b) -> bool:
    return jordan_pair(p, a, q, b) == nfold_oracle([JordanSpec.single(p, a),
                                                   JordanSpec.single(q, b)])


def rand_jordan_spec(rng: random.Random, max_dim: int = 4) -> JordanSpec:
    dim = rng.randint(1, max_dim)
    blocks = []
    while dim > 0:
        size = rng.randint(1, dim)
        blocks.append((size, gq(rng.randint(-2, 2))))
        dim -= size
    return JordanSpec(blocks)


def suite_jordan(trials: int, seed: int):
    """Closed forms versus the rank oracle; trials=0 runs the full 5x5 grid."""
    rng = random.Random(seed)
    pair_fail = nfold_fail = 0
    if trials == 0:
        cases = [(p, a, q, b)
                 for p in range(1, 6) for q in range(1, 6)
                 for a, b in ((2, 3), (2, 0), (0, 3), (0, 0))]
        for p, a, q, b in cases:
            if not _jordan_case_agrees(p, a, q, b):
                pair_fail += 1
        return [_check("pair-grid", len(cases), pair_fail, exhaustive=True)]
    for _ in range(trials):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rng.choice((0, 1, 2, -1)), rng.choice((0, 1, 3))
        if not _jordan_case_agrees(p, a, q, b):
            pair_fail += 1
    n_nfold = max(trials // 10, 1)
    for _ in range(n_nfold):
        specs = [rand_jordan_spec(rng, 2), rand_jordan_spec(rng, 2),
                 rand_jordan_spec(rng, 3)]
        if jordan_nfold(specs) != nfold_oracle(specs):
            nfold_fail += 1
    return [_check("pair-random", trials, pair_fail),
            _check("nfold-random", n_nfold, nfold_fail)]


def suite_tp_witness(trials: int, seed: int):
    """Random injective tables on rectangular sets are conjugated reshapes."""
    rng = random.Random(seed)
    failures = 0
    shapes = [(2, 2), (4,), (2, 3), (8,), (2, 2, 2), (3, 3), (16,), (4, 2, 2)]
    for i in range(trials):
        domain = IndexSet.rectangular(shapes[i % len(shapes)])
        fmap = rand_injective_table(rng, domain)
        witness = tp_similarity_witness(fmap)
        if not check_tp_witness(fmap, witness):
            failures += 1
    return [_check("tp-witness", trials, failures)]


_SUITES = {
    "homomorphism": suite_homomorphism,
    "associativity": suite_associativity,
    "adjoint": suite_adjoint,
    "kappa": suite_kappa,
    "averaging": suite_averaging,
    "permutation": suite_permutation,
    "jordan": suite_jordan,
    "tp-witness": suite_tp_witness,
}


def min_trials(name: str) -> int:
    """Smallest trial count a suite takes; 0 runs jordan's exhaustive cell grid."""
    return 0 if name == "jordan" else 1


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Run one suite; report pass/fail counts, deterministic in the seed."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials < min_trials(name):
        raise DomainError(f"suite {name!r} needs a trial count of at least "
                          f"{min_trials(name)}, got {trials}")
    checks = _SUITES[name](trials, seed)
    passed = sum(1 for c in checks if c["passed"])
    return {
        "suite": name,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "passed": passed,
        "failed": len(checks) - passed,
        "ok": passed == len(checks),
    }
