"""The integer-scaled kernels against definitional loops written here.

Each reference below sums over index pairs straight from the definitions in
the paper, with ``GaussianRational`` (or ``complex``) arithmetic and no class
fold, common denominator or Bareiss step, so the kernels get a second,
independent code path on every input.
"""
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.errors import DimensionError, VariantError
from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.jordan import JordanSpec, explicit_pair_matrix, jordan_block, spec_matrix
from stretchkit.linalg import (DenseMatrix, DenseVector, det, kron, mat_mul, mat_vec,
                               matrices_close, permutation_matrix)
from stretchkit.scalars import CF64, GQ, REL_TOL, GaussianRational, close, data_close
from stretchkit.stretching import kappa, stretch, stretch_vector
from stretchkit.tensors import (Tensor, TensorVector, act, average, convolve, pure_tensor,
                               star)

BIG = 2 ** 70
# Coprime and shared denominators, up to a 61-bit prime.
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 11, 2 ** 61 - 1)
ZERO = GaussianRational()

fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(DENOMINATORS)))
floats = st.floats(-10, 10, allow_nan=False)


@st.composite
def maps(draw, max_points=12):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                .filter(lambda d: prod(d) <= max_points))
    domain = IndexSet.rectangular(dims)
    kind = draw(st.sampled_from(("linear", "max", "table", "mixed-radix")))
    if kind == "linear":
        k = draw(st.lists(st.integers(-2, 2), min_size=len(dims), max_size=len(dims)))
        return IndexMap.linear(domain, k)
    if kind == "table":
        values = draw(st.lists(st.integers(-2, 3), min_size=len(domain),
                               max_size=len(domain)))
        return IndexMap.from_table(domain, dict(zip(domain.points, values)))
    return IndexMap.max_coord(domain) if kind == "max" else IndexMap.mixed_radix(domain)


@st.composite
def values(draw, count, kind=GQ):
    """Entries in one of four styles: general, purely imaginary, all zero, one unit."""
    if kind == CF64:
        return draw(st.lists(st.builds(complex, floats, floats),
                             min_size=count, max_size=count))
    style = draw(st.sampled_from(("general", "imaginary", "zero", "unit")))
    if style == "zero":
        return [ZERO] * count
    if style == "unit":
        out = [ZERO] * count
        out[draw(st.integers(0, count - 1))] = GaussianRational(1)
        return out
    re = st.just(Fraction(0)) if style == "imaginary" else fractions
    return draw(st.lists(st.builds(GaussianRational, re, fractions),
                         min_size=count, max_size=count))


def tensor(draw, fmap, kind):
    n = len(fmap.domain)
    return Tensor(fmap.domain, kind, draw(values(n * n, kind)))


def zero_of(kind):
    return ZERO if kind == GQ else 0j


def ref_stretch(t, fmap):
    f, n = fmap.values(), t.size
    labels = sorted(set(f))
    grid = {(a, b): zero_of(t.kind) for a in labels for b in labels}
    for i in range(n):
        for j in range(n):
            grid[f[i], f[j]] = grid[f[i], f[j]] + t.data[i * n + j]
    return labels, [grid[a, b] for a in labels for b in labels]


def ref_act(t, x, fmap):
    f, n = fmap.values(), t.size
    out = []
    for i in range(n):
        acc = zero_of(t.kind)
        for j in range(n):
            for l in range(n):
                if f[j] == f[l]:
                    acc = acc + t.data[i * n + j] * x.data[l]
        out.append(acc)
    return out


def ref_average(t, fmap, normalized):
    f, n = fmap.values(), t.size
    out = []
    for i in range(n):
        for j in range(n):
            block = [t.data[a * n + b] for a in range(n) for b in range(n)
                     if f[a] == f[i] and f[b] == f[j]]
            total = sum(block, zero_of(t.kind))
            if normalized and t.kind == GQ:
                total = total * Fraction(1, len(block))
            elif normalized:
                total = total / len(block)
            out.append(total)
    return out


def ref_convolve(t1, t2, fmap):
    f, n = fmap.values(), t1.size
    out = []
    for i in range(n):
        for j in range(n):
            acc = zero_of(t1.kind)
            for m in range(n):
                for l in range(n):
                    if f[m] == f[l]:
                        acc = acc + t1.data[i * n + m] * t2.data[l * n + j]
            out.append(acc)
    return out


def ref_mat_mul(a, b):
    """Row-major entries of a times b, summed term by term."""
    return [sum((a.at(i, t) * b.at(t, j) for t in range(a.n_cols)), zero_of(a.kind))
            for i in range(a.n_rows) for j in range(b.n_cols)]


def ref_det(rows):
    """Gaussian elimination with GaussianRational division."""
    rows = [list(r) for r in rows]
    n, acc = len(rows), GaussianRational(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            acc = -acc
        acc = acc * rows[c][c]
        for r in range(c + 1, n):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return acc


def same(kind, got, want):
    """Exact data must match exactly; float data may differ by the rounding
    of another summation order (parts up to 10, at most 144 products)."""
    if kind == GQ:
        return tuple(got) == tuple(want)
    return len(got) == len(want) and all(close(a, b, 1e-9, 1e-9) for a, b in zip(got, want))


kinds = st.sampled_from((GQ, GQ, CF64))


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(), kinds)
def test_stretch_and_stretch_vector(data, fmap, kind):
    t = tensor(data.draw, fmap, kind)
    x = TensorVector(fmap.domain, kind, data.draw(values(len(fmap.domain), kind)))
    labels, want = ref_stretch(t, fmap)
    got = stretch(t, fmap)
    assert list(got.row_labels) == labels == list(got.col_labels)
    assert same(kind, got.data, want)
    f = fmap.values()
    want_x = [sum((x.data[p] for p in range(len(f)) if f[p] == v), zero_of(kind))
              for v in labels]
    gx = stretch_vector(x, fmap)
    assert list(gx.labels) == labels and same(kind, gx.data, want_x)


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(), kinds)
def test_act_and_average(data, fmap, kind):
    t = tensor(data.draw, fmap, kind)
    x = TensorVector(fmap.domain, kind, data.draw(values(len(fmap.domain), kind)))
    assert same(kind, act(t, x, fmap).data, ref_act(t, x, fmap))
    for normalized in (True, False):
        assert same(kind, average(t, fmap, normalized).data,
                    ref_average(t, fmap, normalized))


@settings(max_examples=40, deadline=None)
@given(st.data(), maps(max_points=8), kinds)
def test_convolve(data, fmap, kind):
    t1, t2 = tensor(data.draw, fmap, kind), tensor(data.draw, fmap, kind)
    assert same(kind, convolve(t1, t2, fmap).data, ref_convolve(t1, t2, fmap))


@settings(max_examples=40, deadline=None)
@given(st.data(), maps(max_points=8))
def test_kappa_is_the_determinant_of_the_reference_stretch(data, fmap):
    t = tensor(data.draw, fmap, GQ)
    labels, grid = ref_stretch(t, fmap)
    k = len(labels)
    assert kappa(t, fmap) == ref_det([grid[i * k:(i + 1) * k] for i in range(k)])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 5), st.booleans())
def test_det_with_row_swaps_and_complex_pivots(data, n, leading_zero):
    """A zero leading entry forces a row swap; non-real entries give complex pivots."""
    nonreal = st.builds(GaussianRational, fractions, fractions.map(lambda f: f or Fraction(1)))
    entries = data.draw(st.lists(st.one_of(nonreal, st.builds(GaussianRational, fractions)),
                                 min_size=n * n, max_size=n * n))
    if leading_zero and n > 1:
        entries[0] = ZERO
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    assert det(DenseMatrix.from_rows(rows, GQ)) == ref_det(rows)


def test_det_fixed_swap_and_complex_pivot_chain():
    i = GaussianRational(0, 1)
    rows = [[ZERO, 1 + i, GaussianRational(2)],
            [i, GaussianRational(3), ZERO],
            [GaussianRational(1), ZERO, 2 - i]]
    m = DenseMatrix.from_rows(rows, GQ)
    assert det(m) == ref_det(rows) == GaussianRational(-5, -3)


def labels(n):
    return st.none() | st.lists(st.integers(-5, 5), min_size=n, max_size=n)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), kinds)
def test_mat_mul_and_mat_vec(data, n, k, m, kind):
    """Rectangular shapes (often with a dimension of 1), non-real entries and
    denominators up to 2^61 - 1; exact data must match exactly, float data
    within REL_TOL.  Row labels come from the left factor, column labels
    from the right one."""
    def matrix(rows, cols):
        return DenseMatrix(kind, rows, cols, data.draw(values(rows * cols, kind)),
                           data.draw(labels(rows)), data.draw(labels(cols)))
    a, b = matrix(n, k), matrix(k, m)
    v = DenseVector(kind, k, data.draw(values(k, kind)), data.draw(labels(k)))
    got = mat_mul(a, b)
    want = DenseMatrix(kind, n, m, ref_mat_mul(a, b))
    assert (got.row_labels, got.col_labels) == (a.row_labels, b.col_labels)
    assert got == want if kind == GQ else matrices_close(got, want, REL_TOL)
    column = DenseMatrix(kind, k, 1, v.data)
    gv, want_v = mat_vec(a, v), DenseVector(kind, n, ref_mat_mul(a, column))
    assert gv.labels == a.row_labels
    assert gv == want_v if kind == GQ else data_close(gv, want_v, REL_TOL)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), kinds)
def test_mat_mul_and_mat_vec_reject_shapes_and_mixed_kinds(data, n, k, kind):
    other = CF64 if kind == GQ else GQ
    a = DenseMatrix(kind, n, k, data.draw(values(n * k, kind)))
    with pytest.raises(DimensionError):
        mat_mul(a, DenseMatrix(kind, k + 1, n, data.draw(values((k + 1) * n, kind))))
    with pytest.raises(DimensionError):
        mat_vec(a, DenseVector(kind, k + 1, data.draw(values(k + 1, kind))))
    with pytest.raises(VariantError):
        mat_mul(a, DenseMatrix(other, k, n, data.draw(values(k * n, other))))
    with pytest.raises(VariantError):
        mat_vec(a, DenseVector(other, k, data.draw(values(k, other))))


# -- the stored form ------------------------------------------------------------

def canonical(obj) -> bool:
    """Exact entries are ``(den, re, im)`` int tuples, den > 0, in lowest
    terms over one denominator; float entries ``(1, complex tuple, None)``."""
    den, re, im = obj._k
    if obj.kind == CF64:
        return (den, im) == (1, None) and type(re) is tuple and \
            all(type(v) is complex for v in re)
    return (type(re) is tuple and type(im) is tuple and len(re) == len(im)
            and all(type(x) is int for x in (den, *re, *im))
            and den > 0 and gcd(den, *re, *im) == 1)


def kernel_outputs(data, fmap, kind):
    """Every constructor and every kernel, each on fresh inputs; returns the
    inputs (to check they are left as they were) and the outputs."""
    n = len(fmap.domain)
    t1, t2 = tensor(data.draw, fmap, kind), tensor(data.draw, fmap, kind)
    x = TensorVector(fmap.domain, kind, data.draw(values(n, kind)))
    points = fmap.domain.points
    picked = data.draw(st.lists(st.integers(0, n * n - 1), max_size=4, unique=True))
    t3 = Tensor.from_entries(fmap.domain, kind, {(points[p // n], points[p % n]): t1.data[p]
                                                 for p in picked})
    x3 = TensorVector.from_entries(fmap.domain, kind, {points[0]: x.data[0]})
    m = stretch(t1, fmap)
    k = m.n_rows
    a = DenseMatrix.from_rows([list(m.data[i * k:(i + 1) * k]) for i in range(k)], kind)
    v = DenseVector(kind, k, data.draw(values(k, kind)))
    inputs = [t1, t2, x, t3, x3, a, v]
    outputs = [stretch(t2, fmap), stretch_vector(x, fmap), act(t1, x, fmap),
               average(t1, fmap), average(t1, fmap, normalized=False),
               convolve(t1, t2, fmap), star(t1), mat_mul(a, m), mat_vec(a, v), kron(a, m),
               m.transpose(), pure_tensor([a, m]), m]
    return inputs, outputs


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(max_points=8), kinds)
def test_constructors_and_kernels_store_the_canonical_form(data, fmap, kind):
    inputs, outputs = kernel_outputs(data, fmap, kind)
    assert all(canonical(obj) for obj in inputs + outputs)


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(max_points=8), kinds)
def test_kernels_leave_their_inputs_unchanged(data, fmap, kind):
    t1, t2 = tensor(data.draw, fmap, kind), tensor(data.draw, fmap, kind)
    x = TensorVector(fmap.domain, kind, data.draw(values(len(fmap.domain), kind)))
    before = [(obj._k, obj.data) for obj in (t1, t2, x)]
    m = stretch(t1, fmap)
    m_before = (m._k, m.data)
    for run in (lambda: act(t1, x, fmap), lambda: average(t1, fmap),
                lambda: average(t1, fmap, normalized=False), lambda: convolve(t1, t2, fmap),
                lambda: star(t1), lambda: stretch_vector(x, fmap), lambda: mat_mul(m, m),
                lambda: kron(m, m), lambda: m.transpose(), lambda: det(m)):
        run()
    assert [(obj._k, obj.data) for obj in (t1, t2, x)] == before
    assert (m._k, m.data) == m_before


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(max_points=8), kinds)
def test_equality_of_scalar_built_and_kernel_built_objects(data, fmap, kind):
    """``==`` compares stored forms; it must agree with comparing ``.data``,
    whichever way each side was built."""
    t1, t2 = tensor(data.draw, fmap, kind), tensor(data.draw, fmap, kind)
    built = [convolve(t1, t2, fmap), average(t1, fmap), star(t1), t1, t2]
    rebuilt = [Tensor(t.domain, kind, t.data) for t in built]
    for a, b in zip(built, rebuilt):
        assert a == b and b == a and a._k == b._k
    for a in built:
        for b in rebuilt:
            assert (a == b) == (a.data == b.data)
    m = stretch(t1, fmap)
    k = m.n_rows
    assert m == DenseMatrix(kind, k, k, m.data) == \
        DenseMatrix.from_rows([list(m.data[i * k:(i + 1) * k]) for i in range(k)], kind)
    mt = m.transpose()
    assert (m == mt) == (m.data == mt.data)


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(), st.booleans())
def test_average_view_shares_one_scalar_per_block(data, fmap, normalized):
    """The memory guard: an averaged tensor's ``.data`` holds at most one
    object per class-pair block, k^2 for k classes."""
    t = tensor(data.draw, fmap, GQ)
    out = average(t, fmap, normalized)
    k = len(fmap.partition())
    assert len({id(v) for v in out.data}) <= k * k
    assert out.data == tuple(ref_average(t, fmap, normalized))


def test_zero_inputs_store_den_one_and_zero_is_shared():
    domain = IndexSet.rectangular((2, 2))
    t = Tensor(domain, GQ, [Fraction(0)] * 16)
    fmap = IndexMap.linear(domain, (1, 1))
    assert t._k == (1, (0,) * 16, (0,) * 16)
    for obj in (stretch(t, fmap), average(t, fmap), convolve(t, t, fmap)):
        assert obj._k[0] == 1 and not any(obj._k[1]) and not any(obj._k[2])
        assert len({id(v) for v in obj.data}) == 1
    assert kappa(t, fmap) == ZERO


def ref_k(kind, entries) -> tuple:
    """Stored form of scalars from their Fraction parts: every part over the
    least common denominator, then divided by the gcd of all the ints."""
    if kind == CF64:
        return 1, tuple(complex(v) for v in entries), None
    parts = [(Fraction(v.re), Fraction(v.im)) for v in entries]
    den = 1
    for part in parts:
        for q in part:
            den = den * q.denominator // gcd(den, q.denominator)
    re = [int(x * den) for x, _ in parts]
    im = [int(y * den) for _, y in parts]
    g = gcd(den, *re, *im)
    return den // g, tuple(r // g for r in re), tuple(i // g for i in im)


def ref_jordan(n, cells) -> list:
    """Row-major n x n entries of a direct sum of Jordan cells (start, size, eig)."""
    out = [ZERO] * (n * n)
    for start, size, eig in cells:
        for i in range(start, start + size):
            out[i * n + i] = eig
            if i + 1 < start + size:
                out[i * n + i + 1] = GaussianRational(1)
    return out


def ref_kron(a, p, b, q) -> list:
    """Entries of the Kronecker product of square p x p ``a`` and q x q ``b``,
    first factor fastest: (i1 + p*i2, j1 + p*j2) holds a[i1, j1] * b[i2, j2]."""
    n = p * q
    out = [ZERO] * (n * n)
    for i1, j1, i2, j2 in product(range(p), range(p), range(q), range(q)):
        out[(i1 + p * i2) * n + j1 + p * j2] = a[i1 * p + j1] * b[i2 * q + j2]
    return out


@settings(max_examples=60, deadline=None)
@given(st.data(), maps(max_points=6), kinds)
def test_every_constructor_stores_the_reference_form(data, fmap, kind):
    """Dense, sparse and row constructors of all four types: ``_k`` against
    :func:`ref_k`, and the dense and sparse builds of one input are equal."""
    domain, points = fmap.domain, fmap.domain.points
    n = len(domain)
    grid, vec = data.draw(values(n * n, kind)), data.draw(values(n, kind))
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cells = data.draw(values(r * c, kind))
    rows = [cells[i * c:(i + 1) * c] for i in range(r)]
    nonzero = {(points[p // n], points[p % n]): v for p, v in enumerate(grid) if v}
    built = [
        (Tensor(domain, kind, grid), grid),
        (Tensor.from_entries(domain, kind, nonzero), grid),
        (TensorVector(domain, kind, vec), vec),
        (TensorVector.from_entries(domain, kind,
                                   {p: v for p, v in zip(points, vec) if v}), vec),
        (DenseMatrix(kind, r, c, cells), cells),
        (DenseMatrix.from_rows(rows, kind), cells),
        (DenseVector(kind, r * c, cells), cells),
    ]
    for obj, entries in built:
        assert obj.kind == kind and obj._k == ref_k(kind, entries)
        assert obj.data == tuple(entries)
    t, t_sparse, x, x_sparse, m, m_rows, v = (obj for obj, _ in built)
    assert t.domain == t_sparse.domain == x.domain == x_sparse.domain == domain
    assert (m.n_rows, m.n_cols, m_rows.n_rows, m_rows.n_cols, v.n) == (r, c, r, c, r * c)
    assert t == t_sparse and x == x_sparse and m == m_rows


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from((GQ, CF64)))
def test_identity_and_permutation_matrices_store_the_reference_form(data, n, kind):
    unit = GaussianRational(1) if kind == GQ else 1 + 0j
    zero = ZERO if kind == GQ else 0j
    assert DenseMatrix.identity(n, kind)._k == ref_k(
        kind, [unit if i == j else zero for i in range(n) for j in range(n)])
    perm = data.draw(st.permutations(range(n)))
    m = permutation_matrix(perm, kind)
    assert (m.kind, m.n_rows, m.n_cols) == (kind, n, n)
    assert m._k == ref_k(kind, [unit if perm[j] == i else zero
                                for i in range(n) for j in range(n)])


jordan_eigs = st.builds(GaussianRational, fractions, fractions)
specs = st.lists(st.tuples(st.integers(1, 3), jordan_eigs), min_size=1, max_size=3)


def cells_of(blocks):
    out, start = [], 0
    for size, eig in blocks:
        out.append((start, size, eig))
        start += size
    return out, start


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), jordan_eigs, specs, specs)
def test_jordan_matrices_store_the_reference_form(size, eig, c_blocks, d_blocks):
    """Non-real eigenvalues with denominators up to 2^61 - 1, zero ones too."""
    block = jordan_block(size, eig)
    assert block.kind == GQ and block._k == ref_k(GQ, ref_jordan(size, [(0, size, eig)]))
    c, d = JordanSpec(c_blocks), JordanSpec(d_blocks)
    (c_cells, p), (d_cells, q) = cells_of(c.blocks), cells_of(d.blocks)
    a, b = ref_jordan(p, c_cells), ref_jordan(q, d_cells)
    assert spec_matrix(c)._k == ref_k(GQ, a) and spec_matrix(d)._k == ref_k(GQ, b)
    explicit = explicit_pair_matrix(c, d)
    assert (explicit.n_rows, explicit.row_labels) == (p * q, tuple(range(p * q)))
    assert explicit._k == ref_k(GQ, ref_kron(a, p, b, q))


def test_equality_needs_the_same_type_kind_and_shape():
    domain = IndexSet.rectangular((2,))
    t = Tensor(domain, GQ, [1, 2, 3, 4])
    m = DenseMatrix(GQ, 2, 2, [1, 2, 3, 4])
    x, v = TensorVector(domain, GQ, [1, 2]), DenseVector(GQ, 2, [1, 2])
    assert t._k == m._k and x._k == v._k
    assert t != m and m != t and x != v and v != x and x != t
    assert m != DenseMatrix(GQ, 1, 4, [1, 2, 3, 4]) and m != m.data
    assert t != Tensor(IndexSet.explicit([(0,), (5,)]), GQ, [1, 2, 3, 4])
    assert m != DenseMatrix(CF64, 2, 2, [1, 2, 3, 4])
    assert m == DenseMatrix(GQ, 2, 2, [1, 2, 3, 4], row_labels=[7, 8])
    for a, b in ((t, m), (x, v), (m, DenseMatrix(GQ, 1, 4, [1, 2, 3, 4]))):
        assert not data_close(a, b) and not matrices_close(b, a)
    f = DenseMatrix(CF64, 2, 2, [1, 2, 3, 4])
    assert not data_close(f, DenseVector(CF64, 4, [1, 2, 3, 4]))
    assert data_close(f, DenseMatrix(CF64, 2, 2, [1, 2, 3, 4 + 1e-13]))
