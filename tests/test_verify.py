"""The verify suites' instance draws and the independence of their checks."""
import hashlib
import random
from fractions import Fraction

import pytest

from stretchkit import stretching, verify
from stretchkit.jordan import JordanSpec
from stretchkit.linalg import DenseMatrix
from stretchkit.scalars import GQ, GaussianRational, stored
from stretchkit.tensors import Tensor, TensorVector


def reference_gq(rng):
    """One random entry drawn through Fraction, as the suites once drew it."""
    def part():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 1, 2)))
    im = part() if rng.random() < 0.3 else Fraction(0)
    return GaussianRational(part(), im)


def test_draws_match_the_fraction_reference_and_leave_the_same_rng_state():
    for seed in range(240):
        new, ref = random.Random(seed), random.Random(seed)
        domain = verify.rand_rect_set(new)
        assert verify.rand_rect_set(ref) == domain
        n = len(domain)
        t = verify.rand_tensor(new, domain)
        assert t == Tensor(domain, GQ, [reference_gq(ref) for _ in range(n * n)])
        x = verify.rand_tensor_vector(new, domain)
        assert x == TensorVector(domain, GQ, [reference_gq(ref) for _ in range(n)])
        rows, cols = seed % 3 + 1, seed % 2 + 2
        m = verify.rand_matrix(new, rows, cols)
        assert m == DenseMatrix(GQ, rows, cols, [reference_gq(ref) for _ in range(rows * cols)])
        assert (m.row_labels, m.col_labels) == (None, None)
        assert verify.rand_matrix(new, 2)._k == \
            DenseMatrix(GQ, 2, 2, [reference_gq(ref) for _ in range(4)])._k
        assert new.getstate() == ref.getstate()


def check(report, name):
    return next(c for c in report["checks"] if c["check"] == name)


def perturbed(t, position):
    """``t`` with one added to the entry at ``position``."""
    den, re, im = t._k
    re = list(re)
    re[position] += den
    return stored(Tensor, t.kind, (den, re, im), domain=t.domain)


def test_identity_formulas_catch_a_wrong_convolution(monkeypatch):
    assert check(verify.run_suite("associativity", 6, 3), "identity-formulas")["passed"]
    convolve = verify.convolve

    def wrong(t1, t2, fmap):
        out = convolve(t1, t2, fmap)
        return out if fmap.is_injective() else perturbed(out, 0)

    monkeypatch.setattr(verify, "convolve", wrong)
    assert not check(verify.run_suite("associativity", 6, 3), "identity-formulas")["passed"]


def test_block_constant_catches_a_wrong_average(monkeypatch):
    assert check(verify.run_suite("averaging", 3, 0), "block-constant")["passed"]
    average = verify.average

    def wrong(t, fmap, normalized=True):
        out = average(t, fmap, normalized)
        part = fmap.partition()
        shared = [c for c in part.members if len(c) > 1]
        if not shared:
            return out
        p = shared[0][0]
        return perturbed(out, p * len(t.domain) + p)

    monkeypatch.setattr(verify, "average", wrong)
    assert not check(verify.run_suite("averaging", 3, 0), "block-constant")["passed"]


def test_kernel_preservation_catches_a_wrong_sign(monkeypatch):
    report = verify.run_suite("permutation", 2, 4)
    assert check(report, "kernel-preservation")["passed"]
    make = stretching.stored

    def wrong_sign(cls, kind, k, **slots):
        if cls is Tensor:  # the difference-unit tensor: both units added
            den, re, im = k
            k = den, [abs(v) for v in re], im
        return make(cls, kind, k, **slots)

    monkeypatch.setattr(stretching, "stored", wrong_sign)
    report = verify.run_suite("permutation", 2, 4)
    assert not check(report, "kernel-preservation")["passed"]
    assert check(report, "permutation-isometry")["passed"]


def test_permutation_isometry_catches_a_changed_entry(monkeypatch):
    assert check(verify.run_suite("permutation", 3, 5), "permutation-isometry")["passed"]
    permute_stretch = verify.permute_stretch

    def wrong(t, fmap, sigma):
        out = permute_stretch(t, fmap, sigma)
        den, re, im = out._k
        return stored(DenseMatrix, out.kind, (den, [re[0] + den] + list(re[1:]), im),
                      n_rows=out.n_rows, n_cols=out.n_cols,
                      row_labels=out.row_labels, col_labels=out.col_labels)

    monkeypatch.setattr(verify, "permute_stretch", wrong)
    report = verify.run_suite("permutation", 3, 5)
    assert check(report, "permutation-isometry")["details"]["failures"] == 3
    assert check(report, "permutation-composition")["passed"]


@pytest.mark.parametrize("suite, name, wrong, check_name", [
    ("tp-witness", "check_tp_witness", lambda ok: False, "tp-witness"),
    ("averaging", "verify_averaging_decomposition", lambda r: {**r, "passed": False},
     "decomposition-clauses"),
    ("permutation", "kernel_preservation_check", lambda r: {**r, "passed": False},
     "kernel-preservation"),
    ("jordan", "jordan_pair", lambda spec: JordanSpec.single(9, 9), "pair-random"),
])
def test_one_failed_trial_counts_once(monkeypatch, suite, name, wrong, check_name):
    real, calls = getattr(verify, name), []

    def fail_first(*args, **kwargs):
        calls.append(name)
        out = real(*args, **kwargs)
        return wrong(out) if len(calls) == 1 else out

    monkeypatch.setattr(verify, name, fail_first)
    report = verify.run_suite(suite, 3, 2)
    assert check(report, check_name)["details"]["failures"] == 1
    assert report["failed"] == 1 and not report["ok"]


# Digest of the end states of every random.Random that run_suite(name,
# trials, seed) creates, in creation order, with the number created; taken
# before the suites became trial generators counted by one runner.
DRAW_DIGESTS = {
    ("homomorphism", 1, 0): ("8d04430b6accfb20", 1),
    ("homomorphism", 7, 3): ("96ea4a4189f4a024", 1),
    ("associativity", 1, 0): ("558516b793f82dad", 1),
    ("associativity", 7, 3): ("637acc861e065694", 1),
    ("adjoint", 1, 0): ("55b455a76b19d328", 1),
    ("adjoint", 7, 3): ("d807c52970cc9452", 1),
    ("kappa", 1, 0): ("5703753b1eab29e0", 1),
    ("kappa", 7, 3): ("d7e232e2b191c30a", 1),
    ("averaging", 1, 0): ("e436793050212302", 1),
    ("averaging", 7, 3): ("531c76be7047a55b", 1),
    ("permutation", 1, 0): ("5f7620e262dbbcfd", 2),
    ("permutation", 7, 3): ("e65254d071fd9081", 8),
    ("jordan", 0, 2): ("b6f50de01877f339", 1),
    ("jordan", 1, 0): ("31bfb3820bc56613", 1),
    ("jordan", 7, 3): ("0b466188c2593a2d", 1),
    ("tp-witness", 1, 0): ("d4962eeb3d68b4f2", 1),
    ("tp-witness", 7, 3): ("ac2866dc4dafbf37", 1),
}


def test_draw_digests_cover_every_suite():
    assert {name for name, _, _ in DRAW_DIGESTS} == set(verify.SUITE_NAMES)


@pytest.mark.parametrize("name, trials, seed", sorted(DRAW_DIGESTS))
def test_suites_make_the_pinned_draws(monkeypatch, name, trials, seed):
    made = []

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    # kernel_preservation_check seeds its own instance through the same module.
    monkeypatch.setattr(random, "Random", Recording)
    assert verify.run_suite(name, trials, seed)["ok"]
    states = repr([r.getstate() for r in made]).encode()
    assert (hashlib.sha256(states).hexdigest()[:16], len(made)) == DRAW_DIGESTS[name, trials, seed]


def test_tally_counts_failures_per_check_in_first_yield_order():
    def trial(rng, i):
        yield "always-holds", True
        rng.random()
        yield "one-in-three", i % 3 != 1
        yield "always-holds", True

    rng = random.Random(0)
    checks = verify._tally(10, rng, trial)
    assert [c["check"] for c in checks] == ["always-holds", "one-in-three"]
    assert checks[0] == {"check": "always-holds", "passed": True,
                         "details": {"trials": 10, "failures": 0}}
    assert checks[1] == {"check": "one-in-three", "passed": False,
                         "details": {"trials": 10, "failures": 3}}
    reference = random.Random(0)
    for _ in range(10):
        reference.random()
    assert rng.getstate() == reference.getstate()
