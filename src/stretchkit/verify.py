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
    return {"check": name, "passed": failures == 0,
            "details": {"trials": trials, "failures": failures, **extra}}


def _tally(trials: int, rng: random.Random, trial) -> list:
    """Run ``trial(rng, i)`` for each i < trials and count, per check name, the
    yielded ``(name, holds)`` pairs whose ``holds`` is false, in first-yield order."""
    failures = {}
    for i in range(trials):
        for name, holds in trial(rng, i):
            failures[name] = failures.get(name, 0) + (not holds)
    return [_check(name, trials, count) for name, count in failures.items()]


def _homomorphism(rng, i):
    """Stretching turns convolution into matrix product, action into mat-vec."""
    domain = rand_rect_set(rng)
    fmap = rand_map(rng, domain)
    t1, t2 = rand_tensor(rng, domain), rand_tensor(rng, domain)
    yield "matrix-homomorphism", (stretch(convolve(t1, t2, fmap), fmap) ==
                                  mat_mul(stretch(t1, fmap), stretch(t2, fmap)))
    x = rand_tensor_vector(rng, domain)
    yield "vector-homomorphism", (stretch_vector(act(t1, x, fmap), fmap) ==
                                  mat_vec(stretch(t1, fmap), stretch_vector(x, fmap)))


def _is_sum(out, p, k, positions) -> bool:
    """Whether entry ``p`` of the kernel form ``out`` equals the sum of the
    entries of ``k`` at ``positions``, cross-multiplying the denominators."""
    out_den, out_re, out_im = out
    den, re, im = k
    return (out_re[p] * den == sum(re[q] for q in positions) * out_den and
            out_im[p] * den == sum(im[q] for q in positions) * out_den)


def _associativity(rng, i):
    """Convolution is associative and interacts with Id by class sums."""
    domain = rand_rect_set(rng)
    fmap = rand_map(rng, domain)
    t1, t2, t3 = (rand_tensor(rng, domain) for _ in range(3))
    yield "associativity", (convolve(convolve(t1, t2, fmap), t3, fmap) ==
                            convolve(t1, convolve(t2, t3, fmap), fmap))
    ident = identity_tensor(domain, GQ)
    part = fmap.partition()
    n = len(domain)
    right = convolve(t1, ident, fmap)
    left = convolve(ident, t1, fmap)
    # Class sums straight from t1's stored ints, one loop per class; the
    # classes come from members, not from the fold's class_of_position.
    cls_of = {m: cls for cls in part.members for m in cls}
    yield "identity-formulas", all(
        _is_sum(right._k, r * n + c, t1._k, [r * n + m for m in cls_of[c]]) and
        _is_sum(left._k, r * n + c, t1._k, [m * n + c for m in cls_of[r]])
        for r in range(n) for c in range(n))


def _adjoint(rng, i):
    """Transpose law, involution, and anti-automorphism on injective maps."""
    domain = rand_rect_set(rng)
    fmap = rand_map(rng, domain)
    t1, t2 = rand_tensor(rng, domain), rand_tensor(rng, domain)
    yield "transpose-law", (stretch(convolve(t2, t1, fmap), fmap).transpose() ==
                            stretch(convolve(star(t1), star(t2), fmap), fmap))
    yield "star-involution", star(star(t1)) == t1
    injective = IndexMap.mixed_radix(domain)
    yield "star-anti-automorphism", (star(convolve(t1, t2, injective)) ==
                                     convolve(star(t2), star(t1), injective))


def _kappa(rng, i):
    """Multiplicativity of the stretched determinant."""
    domain = rand_rect_set(rng, max_arity=2, max_dim=3)
    fmap = rand_map(rng, domain)
    t1, t2 = rand_tensor(rng, domain), rand_tensor(rng, domain)
    yield "kappa-multiplicativity", (kappa(convolve(t1, t2, fmap), fmap) ==
                                     kappa(t1, fmap) * kappa(t2, fmap))
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    ab, ba = pure_tensor([a, b]), pure_tensor([b, a])
    tp = IndexMap.mixed_radix(ab.domain)
    yield "kappa-tensor-product", kappa(convolve(ab, ba, tp), tp) == kappa(ab, tp) * kappa(ba, tp)


_SQUARE = IndexSet.rectangular((2, 2))
_SQUARE_MAPS = (IndexMap.linear(_SQUARE, (1, 1)), IndexMap.linear(_SQUARE, (1, -1)),
                IndexMap.max_coord(_SQUARE))


def _averaging(rng, i):
    """Averaging decomposition clauses plus idempotence and block constancy,
    counted for each of two tensors, and for each of their blocks."""
    for f in (_SQUARE_MAPS[i % 3], rand_map(rng, rand_rect_set(rng))):
        t = rand_tensor(rng, f.domain)
        yield "decomposition-clauses", verify_averaging_decomposition(t, f)["passed"]
        avg = average(t, f, normalized=True)
        yield "idempotence", average(avg, f, normalized=True) == avg
        # One stored denominator: equal values have equal (re, im) pairs.
        _, re, im = avg._k
        n = len(f.domain)
        cls = f.partition().members
        for rows in cls:
            for cols in cls:
                yield "block-constant", len({(re[r * n + c], im[r * n + c])
                                             for r in rows for c in cols}) == 1


def _permutation(rng, i):
    """Composition law, isometry in the reshape setting, kernel preservation."""
    domain = rand_rect_set(rng)
    s1 = rand_dims_preserving_perm(rng, domain.dims)
    s2 = rand_dims_preserving_perm(rng, domain.dims)
    fmap = rand_map(rng, domain)
    yield "permutation-composition", fmap.compose(s1).compose(s2).pointwise_equal(
        fmap.compose(s2.compose(s1)))
    t = rand_tensor(rng, domain)
    tp = IndexMap.mixed_radix(domain)
    # Canonical forms: equal entry multisets have equal denominators.
    (den, re, im), (p_den, p_re, p_im) = stretch(t, tp)._k, permute_stretch(t, tp, s1)._k
    yield "permutation-isometry", den == p_den and sorted(zip(re, im)) == sorted(zip(p_re, p_im))
    sq_map = _SQUARE_MAPS[0 if i % 2 == 0 else 2]  # linear (1, 1), then max_coord
    yield "kernel-preservation", kernel_preservation_check(
        sq_map, Permutation((2, 1)), trials=4, seed=rng.randrange(10 ** 6))["passed"]


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


def _jordan_pair(rng, i):
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    a, b = rng.choice((0, 1, 2, -1)), rng.choice((0, 1, 3))
    yield "pair-random", _jordan_case_agrees(p, a, q, b)


def _jordan_nfold(rng, i):
    specs = [rand_jordan_spec(rng, 2), rand_jordan_spec(rng, 2), rand_jordan_spec(rng, 3)]
    yield "nfold-random", jordan_nfold(specs) == nfold_oracle(specs)


def _jordan(trials: int, rng: random.Random) -> list:
    """Closed forms versus the rank oracle; trials=0 runs the full 5x5 grid."""
    if trials == 0:
        cases = [(p, a, q, b)
                 for p in range(1, 6) for q in range(1, 6)
                 for a, b in ((2, 3), (2, 0), (0, 3), (0, 0))]
        failures = sum(not _jordan_case_agrees(*case) for case in cases)
        return [_check("pair-grid", len(cases), failures, exhaustive=True)]
    return (_tally(trials, rng, _jordan_pair) +
            _tally(max(trials // 10, 1), rng, _jordan_nfold))


def _tp_witness(rng, i):
    """Random injective tables on rectangular sets are conjugated reshapes."""
    shapes = ((2, 2), (4,), (2, 3), (8,), (2, 2, 2), (3, 3), (16,), (4, 2, 2))
    fmap = rand_injective_table(rng, IndexSet.rectangular(shapes[i % len(shapes)]))
    yield "tp-witness", check_tp_witness(fmap, tp_similarity_witness(fmap))


_SUITES = {
    "homomorphism": _homomorphism,
    "associativity": _associativity,
    "adjoint": _adjoint,
    "kappa": _kappa,
    "averaging": _averaging,
    "permutation": _permutation,
    "tp-witness": _tp_witness,
}


def min_trials(name: str) -> int:
    """Smallest trial count a suite takes; 0 runs jordan's exhaustive cell grid."""
    return 0 if name == "jordan" else 1


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Run one suite; report pass/fail counts, deterministic in the seed."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials < min_trials(name):
        raise DomainError(f"suite {name!r} needs a trial count of at least "
                          f"{min_trials(name)}, got {trials}")
    rng = random.Random(seed)
    checks = (_jordan(trials, rng) if name == "jordan"
              else _tally(trials, rng, _SUITES[name]))
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
