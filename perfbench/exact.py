"""Reference arithmetic that shares no code with stretchkit.

Gaussian rationals are ``(re, im)`` pairs of :class:`fractions.Fraction`.
Tensors are dicts ``{(row_point, col_point): value}`` and vectors dicts
``{point: value}``; an index map is a dict ``{point: int}``.  Omitted
entries are zero.  Every reference follows the definition in the paper
directly, so a shared bug in the library's kernels cannot hide here.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from itertools import product

F0 = Fraction(0)
ZERO = (F0, F0)
ONE = (Fraction(1), F0)


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def scale(a, q: Fraction):
    return (a[0] * q, a[1] * q)


def is_zero(a) -> bool:
    return not a[0] and not a[1]


# The scalar operations the references need: exact pairs, or Python complex
# for cf64 data (compared within a tolerance by the caller).
Arith = namedtuple("Arith", "zero add mul shrink")
EXACT = Arith(ZERO, add, mul, lambda a, n: scale(a, Fraction(1, n)))
FLOAT = Arith(0j, operator.add, operator.mul, operator.truediv)


def canonical_points(dims):
    """Points of the rectangular set, first coordinate varying fastest."""
    return [tuple(reversed(p)) for p in product(*(range(n) for n in reversed(dims)))]


def map_values(kind, points, dims=None, k=None, table=None):
    """Own evaluation of the index map F on every point."""
    if kind == "linear":
        return {p: sum(c * x for c, x in zip(k, p)) for p in points}
    if kind == "max":
        return {p: max(p) for p in points}
    if kind == "mixed-radix":
        out = {}
        for p in points:
            value, stride = 0, 1
            for x, n in zip(p, dims):
                value += x * stride
                stride *= n
            out[p] = value
        return out
    if kind == "table":
        return dict(table)
    raise ValueError(f"no reference for map kind {kind!r}")


def classes(fvals):
    """{value: [points]} for the map's equivalence classes."""
    out = {}
    for p, v in fvals.items():
        out.setdefault(v, []).append(p)
    return out


def stretch(t, fvals, ar=EXACT):
    """S[F(i), F(j)] accumulates T[i, j]; labels are the sorted map values."""
    labels = sorted(set(fvals.values()))
    out = {(a, b): ar.zero for a in labels for b in labels}
    for (pi, pj), v in t.items():
        key = (fvals[pi], fvals[pj])
        out[key] = ar.add(out[key], v)
    return labels, out


def stretch_vector(x, fvals, ar=EXACT):
    labels = sorted(set(fvals.values()))
    out = {a: ar.zero for a in labels}
    for p, v in x.items():
        out[fvals[p]] = ar.add(out[fvals[p]], v)
    return labels, out


def tensor_vec(t, v, points, ar=EXACT):
    """(T v)[i] = sum_j T[i, j] v[j]."""
    out = {p: ar.zero for p in points}
    for (pi, pj), x in t.items():
        out[pi] = ar.add(out[pi], ar.mul(x, v[pj]))
    return out


def act(t, x, fvals, points):
    """(T * x)[i] = sum_j T[i, j] * (sum of x over the class of j)."""
    _, class_sum = stretch_vector(x, fvals)
    return tensor_vec(t, {p: class_sum[fvals[p]] for p in points}, points)


def average(t, fvals, points, normalized: bool, ar=EXACT):
    """Block sums (raw) or block means (normalized) over class pairs."""
    _, sums = stretch(t, fvals, ar)
    sizes = {a: len(c) for a, c in classes(fvals).items()}
    out = {}
    for pi in points:
        for pj in points:
            a, b = fvals[pi], fvals[pj]
            v = sums[(a, b)]
            out[(pi, pj)] = ar.shrink(v, sizes[a] * sizes[b]) if normalized else v
    return out


def convolution_probe(out, t1, t2, fvals, points, probe, ar=EXACT):
    """(out.v, t1.u) for one probe vector v; the two agree for a convolution.

    out[i, j] = sum over m ~ n of t1[i, m] t2[n, j], so out.v equals t1
    applied to u, where u[m] is the sum of (t2 v)[n] over the class of m.
    """
    _, class_sum = stretch_vector(tensor_vec(t2, probe, points, ar), fvals, ar)
    u = {m: class_sum[fvals[m]] for m in points}
    return tensor_vec(out, probe, points, ar), tensor_vec(t1, u, points, ar)


def mat_mul(labels, a, b):
    out = {}
    for r in labels:
        for c in labels:
            acc = ZERO
            for m in labels:
                x, y = a[(r, m)], b[(m, c)]
                if not is_zero(x) and not is_zero(y):
                    acc = add(acc, mul(x, y))
            out[(r, c)] = acc
    return out


def det(labels, m):
    """Determinant by Gaussian elimination with exact division."""
    rows = [[m[(r, c)] for c in labels] for r in labels]
    n = len(rows)
    result = ONE
    for k in range(n):
        piv = next((r for r in range(k, n) if not is_zero(rows[r][k])), None)
        if piv is None:
            return ZERO
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            result = (-result[0], -result[1])
        pk = rows[k][k]
        result = mul(result, pk)
        for i in range(k + 1, n):
            if is_zero(rows[i][k]):
                continue
            f = div(rows[i][k], pk)
            ri, rk = rows[i], rows[k]
            for j in range(k + 1, n):
                ri[j] = add(ri[j], mul((-f[0], -f[1]), rk[j]))
    return result


def eigen_multiplicities(factor_specs):
    """Algebraic multiplicity of each eigenvalue of the Kronecker product.

    Each factor spec is a list of ``(size, eigenvalue)``; a choice of one
    block per factor contributes the product of the sizes to the product of
    the eigenvalues.  Blocks of one factor are first merged by eigenvalue.
    """
    total = {ONE: 1}
    for spec in factor_specs:
        dims = {}
        for size, eig in spec:
            dims[eig] = dims.get(eig, 0) + size
        nxt = {}
        for e1, m1 in total.items():
            for e2, m2 in dims.items():
                e = mul(e1, e2)
                nxt[e] = nxt.get(e, 0) + m1 * m2
        total = nxt
    return total


def spec_multiplicities(blocks):
    """{eigenvalue: total size} of a list of ``(size, eigenvalue)`` blocks."""
    out = {}
    for size, eig in blocks:
        out[eig] = out.get(eig, 0) + size
    return out
