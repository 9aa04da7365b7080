"""Every index map on small domains, checked against the paper's sums.

Each set partition of a small domain becomes a table map whose class values
are shuffled, so label order and class order differ.  The references below
are the definitions written as loops over points: they share no code with
the class fold the library runs (no cell grid, no scatter-add, no gather).
"""
import random
from fractions import Fraction

import pytest

from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.scalars import CF64, GQ, gq
from stretchkit.stretching import kappa, stretch, stretch_vector
from stretchkit.tensors import Tensor, TensorVector, act, average, convolve

DOMAINS = {
    "grid-2x2": IndexSet.rectangular((2, 2)),
    "line-5": IndexSet.rectangular((5,)),
    "explicit-5": IndexSet.explicit([(0, 3), (-2, 1), (7, 7), (1, -4), (3, 0)]),
    "grid-2x3": IndexSet.rectangular((2, 3)),
}
# Denominators past 2^64 from a small pool, so sums keep a bounded lcm.
DENOMINATORS = (1, 2 ** 64 + 13, 3 ** 41, 7)


def set_partitions(n):
    """Every partition of range(n), as the block of each element in order
    (restricted growth strings): 15, 52 and 203 for n = 4, 5 and 6."""
    def grow(blocks, used):
        if len(blocks) == n:
            yield blocks
            return
        for b in range(used + 1):
            yield from grow(blocks + [b], max(used, b + 1))
    return grow([], 0)


def partition_maps(domain, rng):
    """One table map per set partition of ``domain``; its values, one per
    block, are distinct and in random order.  Yields (map, {point: value})."""
    points = list(domain)
    for blocks in set_partitions(len(points)):
        values = rng.sample(range(-40, 40), max(blocks) + 1)
        table = {p: values[b] for p, b in zip(points, blocks)}
        yield IndexMap.from_table(domain, table), table


def big_value(rng):
    def part():
        return Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.choice(DENOMINATORS))
    return gq(part(), part() if rng.random() < 0.5 else 0)


def entries(rng, keys, density):
    """Exact values past 2^64 at a ``density`` share of ``keys``, zero elsewhere."""
    return {key: big_value(rng) if rng.random() < density else gq(0) for key in keys}


def total(values, zero):
    out = zero
    for v in values:
        out = out + v
    return out


def ref_stretch(t, fv, points, zero):
    labels = sorted(set(fv.values()))
    return labels, [[total((t[p, q] for p in points for q in points
                            if fv[p] == a and fv[q] == b), zero) for b in labels]
                    for a in labels]


def ref_stretch_vector(x, fv, points, zero):
    labels = sorted(set(fv.values()))
    return labels, [total((x[p] for p in points if fv[p] == a), zero) for a in labels]


def ref_convolve(t1, t2, fv, points, zero):
    """out[i, j] = sum over m ~ n of t1[i, m] * t2[n, j]; zero terms are skipped."""
    return {(i, j): total((t1[i, m] * t2[n, j] for m in points for n in points
                           if fv[m] == fv[n] and t2[n, j]), zero)
            for i in points for j in points}


def ref_act(t, x, fv, points, zero):
    """(T * x)[i] = sum over j ~ l of T[i, j] * x[l]."""
    return {i: total((t[i, j] * x[l] for j in points for l in points if fv[j] == fv[l]), zero)
            for i in points}


def ref_average(t, fv, points, normalized, zero):
    """Each entry becomes the sum, or the mean, of its class-pair block."""
    blocks = {}
    for i in points:
        for j in points:
            if (fv[i], fv[j]) not in blocks:
                block = [t[p, q] for p in points for q in points
                         if fv[p] == fv[i] and fv[q] == fv[j]]
                blocks[fv[i], fv[j]] = (total(block, zero) / len(block) if normalized
                                        else total(block, zero))
    return {(i, j): blocks[fv[i], fv[j]] for i in points for j in points}


def ref_mat_mul(a, b):
    return [[total((a[i][m] * b[m][j] for m in range(len(b))), 0 * a[0][0])
             for j in range(len(b[0]))] for i in range(len(a))]


def tensor_at(t, points):
    return {(p, q): t.at(p, q) for p in points for q in points}


@pytest.mark.parametrize("name", list(DOMAINS))
def test_every_partition_map_matches_the_definitions(name):
    domain, rng = DOMAINS[name], random.Random(name)
    points, zero = list(domain), gq(0)
    pairs = [(p, q) for p in points for q in points]
    dense, sparse = entries(rng, pairs, 1.0), entries(rng, pairs, 0.3)
    x_vals = entries(rng, points, 0.6)
    t1, t2 = Tensor.from_entries(domain, GQ, dense), Tensor.from_entries(domain, GQ, sparse)
    x = TensorVector.from_entries(domain, GQ, x_vals)
    count = 0
    for fmap, fv in partition_maps(domain, rng):
        count += 1
        labels, rows = ref_stretch(dense, fv, points, zero)
        m1 = stretch(t1, fmap)
        assert m1.row_labels == m1.col_labels == tuple(labels)
        assert m1.to_rows() == rows
        m2 = stretch(t2, fmap)
        assert m2.to_rows() == ref_stretch(sparse, fv, points, zero)[1]

        labels, column = ref_stretch_vector(x_vals, fv, points, zero)
        v = stretch_vector(x, fmap)
        assert (v.labels, list(v.data)) == (tuple(labels), column)

        conv = convolve(t1, t2, fmap)
        assert tensor_at(conv, points) == ref_convolve(dense, sparse, fv, points, zero)
        y = act(t2, x, fmap)
        assert {p: y.at(p) for p in points} == ref_act(sparse, x_vals, fv, points, zero)

        for normalized in (True, False):
            avg = average(t1, fmap, normalized)
            assert tensor_at(avg, points) == ref_average(dense, fv, points, normalized, zero)
            # Block constancy: every entry equals the one at its class pair's
            # first points.
            first = {}
            for p in points:
                first.setdefault(fv[p], p)
            assert all(avg.at(p, q) == avg.at(first[fv[p]], first[fv[q]]) for p, q in pairs)
        mean = average(t1, fmap)
        assert average(mean, fmap) == mean  # a projection

        # The stretch is a homomorphism from the convolution to the matrix
        # product, so kappa is multiplicative.
        assert stretch(conv, fmap).to_rows() == ref_mat_mul(m1.to_rows(), m2.to_rows())
        assert kappa(conv, fmap) == kappa(t1, fmap) * kappa(t2, fmap)
    assert count == {4: 15, 5: 52, 6: 203}[len(points)]


def test_float_partition_maps_match_the_definitions():
    # Small integer parts keep every float sum exact, whatever its order.
    domain, rng = DOMAINS["grid-2x2"], random.Random(7)
    points, zero = list(domain), 0j
    pairs = [(p, q) for p in points for q in points]
    left = {key: complex(rng.randint(-9, 9), rng.randint(-9, 9)) for key in pairs}
    right = {key: complex(rng.choice((0, 0, 3, -5)), 0) for key in pairs}
    t1, t2 = Tensor.from_entries(domain, CF64, left), Tensor.from_entries(domain, CF64, right)
    x_vals = {p: complex(rng.randint(-9, 9), 1) for p in points}
    x = TensorVector.from_entries(domain, CF64, x_vals)
    for fmap, fv in partition_maps(domain, rng):
        assert stretch(t1, fmap).to_rows() == ref_stretch(left, fv, points, zero)[1]
        v = stretch_vector(x, fmap)
        assert list(v.data) == ref_stretch_vector(x_vals, fv, points, zero)[1]
        assert tensor_at(convolve(t1, t2, fmap), points) == ref_convolve(left, right, fv, points,
                                                                         zero)
        y = act(t1, x, fmap)
        assert {p: y.at(p) for p in points} == ref_act(left, x_vals, fv, points, zero)
        assert tensor_at(average(t2, fmap, False), points) == ref_average(right, fv, points,
                                                                          False, zero)
