"""Float (cf64) kernels certified against their exact replay.

Every double is a dyadic rational, so ``Fraction`` holds each real and
imaginary part of a cf64 input exactly, and so does the int ``x * 2^1074``
(every finite double is a multiple of 2^-1074), which the replay sums
without a gcd per step.  The tests below replay ``stretch``,
``stretch_vector``, ``convolve``, ``act`` and both modes of ``average`` from
those parts in exact arithmetic, straight from the definitions (sums over a
class or a class-pair block, or over the pairs of equivalent indices), and
check each part of each computed entry against the forward error bound

    |computed - exact| <= gamma_m * sum(|term|),  gamma_m = m*u / (1 - m*u),

with u = 2^-53 and the terms the exact elementary products (or quotients)
whose sum is the part (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., Lemma 3.1 and sections 3.1 and 3.6).  The bound holds
when every term passes through at most m roundings, each a factor
(1 + delta) with |delta| <= u, and no value under- or overflows.

The float path, and m for each kernel, with s the largest class size of the
map and k the number of classes:

- ``convolve(t1, t2, f)`` and ``act(t, x, f)`` fold t1's columns and t2's (or
  x's) rows by class, starting from 0j and skipping zeros: one cell is a
  recursive sum of at most s parts, so at most s - 1 roundings on each of
  the two factors.  The product of two complex cells rounds each of its two
  real products once and their sum or difference once: 2 more.  The entry
  is then ``sum`` of k such products from 0, a recursive sum (CPython through
  3.13 compensates only float sums), so k - 1 more.  m = 2s + k - 1.
- ``stretch(t, f)`` folds a class-pair block of at most s * s entries, a
  recursive sum from 0j that skips zeros: m = s^2 - 1.  ``stretch_vector``
  folds one class: m = s - 1.
- ``average(t, f, normalized=False)`` folds the same blocks: m = s^2 - 1.
  Normalized mode then divides each part by the block size c (exact as a
  double), one rounding more: m = s^2, and the terms are the entries
  divided by c.

Random data draws each part from [-1, 1], where little cancels, so a kernel
perturbed by a relative 1e-12 fails these bounds while every ``close``
comparison (relative 1e-9) of the other tests still passes.  Wide data draws
parts with mixed signs and magnitudes from 1e-100 to 1e100, half of them
from a small pool so that equal terms of opposite sign cancel; every product
lies between 1e-200 and 1e200, far from under- and overflow.
"""
import random
from fractions import Fraction

import pytest

from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.scalars import CF64
from stretchkit.stretching import stretch, stretch_vector
from stretchkit.tensors import Tensor, TensorVector, act, average, convolve
from stretchkit.verify import rand_injective_table, rand_map

SCALE = 2 ** 1074
POOL = (1e100, 3.0, 7e50, 1e-100, 2.5e-50)


def draw_part(rng, wide):
    if not wide:
        return rng.uniform(-1, 1)
    sign = rng.choice((-1.0, 1.0))
    if rng.random() < 0.5:
        return sign * rng.choice(POOL)
    return sign * rng.uniform(1, 10) * 10.0 ** rng.randint(-100, 99)


def draw(rng, count, wide):
    return [complex(draw_part(rng, wide), draw_part(rng, wide)) for _ in range(count)]


def exact(x):
    """The double ``x`` as the int ``x * 2^1074``."""
    q = Fraction(x) * SCALE
    assert q.denominator == 1
    return q.numerator


def parts(z):
    return exact(z.real), exact(z.imag)


def classes(fmap):
    """Positions of each class in the order of the map's values, from those
    values (not from the map's partition)."""
    by_value = {}
    for pos, p in enumerate(fmap.domain.points):
        by_value.setdefault(fmap.value(p), []).append(pos)
    return [c for _, c in sorted(by_value.items())]


def replay_times(t, x, cols, fmap):
    """Exact terms of each entry of (t * x)[i, j] = sum over a ~ b of
    t[i, a] * x[b, j]: real parts ar*br and -ai*bi, imaginary ar*bi and ai*br,
    each scaled by 2^2148; the divisor is 1."""
    n, tp, xp, cls = t.size, list(map(parts, t.data)), list(map(parts, x.data)), classes(fmap)
    out = []
    for i in range(n):
        for j in range(cols):
            re, im = [], []
            for c in cls:
                for a in c:
                    ar, ai = tp[i * n + a]
                    for b in c:
                        br, bi = xp[b * cols + j]
                        re += [ar * br, -ai * bi]
                        im += [ar * bi, ai * br]
            out.append((re, im, 1))
    return out


def replay_stretch(t, fmap, cols):
    """Exact terms of each stretched entry: the block of a pair of classes,
    or of one class for a vector (``cols`` 1), in sorted value order."""
    tp, rows = list(map(parts, t.data)), classes(fmap)
    out = []
    for a in rows:
        for b in rows if cols > 1 else [[0]]:
            block = [tp[i * cols + j] for i in a for j in b]
            out.append(([r for r, _ in block], [y for _, y in block], 1))
    return out


def replay_average(t, fmap, normalized):
    """Exact terms of each averaged entry, its class-pair block, and the
    block size c it is divided by (1 in raw mode)."""
    n, tp = t.size, list(map(parts, t.data))
    of = {pos: c for c in classes(fmap) for pos in c}
    out = []
    for i in range(n):
        for j in range(n):
            block = [tp[a * n + b] for a in of[i] for b in of[j]]
            c = len(block) if normalized else 1
            out.append(([r for r, _ in block], [y for _, y in block], c))
    return out


def certify(result, replay, m, scale=1):
    """Each part within gamma_m * sum(|term|) of its exact value.  A replayed
    entry is (real terms, imaginary terms, divisor c), its terms ints scaled
    by 2^1074 times ``scale``; with gamma_m = m / (2^53 - m), the bound for a
    part is |c * got - sum| * (2^53 - m) <= m * sum(|term|), all in ints."""
    assert result.kind == CF64 and len(result.data) == len(replay)
    for z, (re, im, c) in zip(result.data, replay):
        for got, terms in ((z.real, re), (z.imag, im)):
            error = abs(c * exact(got) * scale - sum(terms))
            assert error * (2 ** 53 - m) <= m * sum(map(abs, terms)), (got, m)


def instances(wide):
    """(tensor, tensor, vector, map): injective, random and few-class maps."""
    rng = random.Random(11 if wide else 7)
    for dims in ((2, 3), (3, 3), (7,), (2, 2, 2)):
        domain = IndexSet.rectangular(dims)
        n = len(domain)
        for fmap in (rand_injective_table(rng, domain), rand_map(rng, domain),
                     IndexMap.max_coord(domain), IndexMap.linear(domain, [0] * len(dims))):
            yield (Tensor(domain, CF64, draw(rng, n * n, wide)),
                   Tensor(domain, CF64, draw(rng, n * n, wide)),
                   TensorVector(domain, CF64, draw(rng, n, wide)), fmap)


def class_counts(fmap):
    sizes = [len(c) for c in classes(fmap)]
    return max(sizes), len(sizes)


@pytest.mark.parametrize("wide", [False, True], ids=["random", "wide"])
def test_convolve_and_act_are_within_the_forward_bound(wide):
    for t1, t2, x, fmap in instances(wide):
        s, k = class_counts(fmap)
        m = 2 * s + k - 1
        certify(convolve(t1, t2, fmap), replay_times(t1, t2, t1.size, fmap), m, SCALE)
        certify(act(t1, x, fmap), replay_times(t1, x, 1, fmap), m, SCALE)


@pytest.mark.parametrize("wide", [False, True], ids=["random", "wide"])
def test_stretch_and_average_are_within_the_forward_bound(wide):
    for t, _, x, fmap in instances(wide):
        s, _ = class_counts(fmap)
        certify(stretch(t, fmap), replay_stretch(t, fmap, t.size), s * s - 1)
        certify(stretch_vector(x, fmap), replay_stretch(x, fmap, 1), s - 1)
        certify(average(t, fmap), replay_average(t, fmap, True), s * s)
        certify(average(t, fmap, normalized=False), replay_average(t, fmap, False), s * s - 1)


def test_wide_data_cancels():
    """The wide instances do reach cancellation: some exact part is far
    below the sum of its terms' sizes, so the bound is not relative."""
    worst = Fraction(1)
    for t1, t2, _, fmap in instances(True):
        for re, im, _ in replay_times(t1, t2, t1.size, fmap):
            for terms in (re, im):
                worst = min(worst, Fraction(abs(sum(terms)), sum(map(abs, terms))))
    assert worst < Fraction(1, 10 ** 20)
