"""Dense matrices and vectors over a single scalar kind.

The kernel is deliberately small: product, Kronecker product, determinant,
inverse, rank and nullity sequences.  Exact ("gq") data runs on the stored
integer form of :class:`~stretchkit.scalars.Entries` (one dot product shared
with the tensor kernels, one Bareiss elimination for determinant and inverse,
fraction-free row reduction for ranks); float ("cf64") data on the same dot
product and one pivoted LU elimination.
Row and column labels are carried verbatim and never interpreted here.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter, index, mul

from .errors import DimensionError, VariantError
from .scalars import GQ, Entries, coerce, data_close, scaled, stored, take, trusted


def _labels(labels, n, what):
    if labels is None:
        return None
    labels = tuple(map(index, labels))
    if len(labels) != n:
        raise DimensionError(f"{what} has {len(labels)} labels for {n} entries")
    return labels


class DenseMatrix(Entries):
    """Immutable row-major matrix whose entries all share one scalar kind."""

    __slots__ = ("n_rows", "n_cols", "row_labels", "col_labels")
    _shape = attrgetter("n_rows", "n_cols")

    def __init__(self, kind, n_rows, n_cols, data, row_labels=None, col_labels=None):
        if n_rows < 1 or n_cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        self._fill_dense(kind, n_rows * n_cols, data)
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.row_labels = _labels(row_labels, n_rows, "row_labels")
        self.col_labels = _labels(col_labels, n_cols, "col_labels")

    @classmethod
    def from_rows(cls, rows, kind, row_labels=None, col_labels=None):
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        if n_rows == 0:
            raise DimensionError("matrix needs at least one row")
        n_cols = len(rows[0])
        if any(len(r) != n_cols for r in rows):
            raise DimensionError("ragged rows")
        flat = [v for r in rows for v in r]
        return cls(kind, n_rows, n_cols, flat, row_labels, col_labels)

    @classmethod
    def identity(cls, n, kind):
        return permutation_matrix(range(n), kind)

    def at(self, i, j):
        return self._cell(i, j, self.n_rows, self.n_cols)

    def to_rows(self):
        n, data = self.n_cols, self.data
        return [list(data[i * n:(i + 1) * n]) for i in range(self.n_rows)]

    def transpose(self):
        n, m = self.n_rows, self.n_cols
        order = [i * m + j for j in range(m) for i in range(n)]
        return stored(DenseMatrix, self.kind, take(self._k, order), n_rows=m, n_cols=n,
                      row_labels=self.col_labels, col_labels=self.row_labels)

    def __repr__(self):
        return f"DenseMatrix({self.kind}, {self.n_rows}x{self.n_cols})"


def square_matrix(kind, n, pairs, labels=None) -> DenseMatrix:
    """n x n matrix of ``kind`` holding the value of each ``(position, value)``
    pair, admitted as ``Entries._fill`` admits it, and zero elsewhere."""
    if n < 1:
        raise DimensionError("matrix dimensions must be positive")
    return trusted(DenseMatrix, n_rows=n, n_cols=n, row_labels=labels,
                   col_labels=labels)._fill(kind, n * n, pairs)


class DenseVector(DenseMatrix):
    """Immutable vector: the one-column matrix, labelled by its rows."""

    __slots__ = ()
    n = property(attrgetter("n_rows"))
    labels = property(attrgetter("row_labels"))

    def __init__(self, kind, n, data, labels=None):
        if n < 1:
            raise DimensionError("vector length must be positive")
        super().__init__(kind, n, 1, data)
        self.row_labels = _labels(labels, n, "labels")

    @classmethod
    def from_rows(cls, *args, **kwargs):
        raise DimensionError("a DenseVector is built as DenseVector(kind, n, data)")

    identity = from_rows

    def __repr__(self):
        return f"DenseVector({self.kind}, n={self.n})"


def require_same_kind(a, b):
    if a.kind != b.kind:
        raise VariantError(f"mixed scalar kinds: {a.kind} vs {b.kind}")


def require_type(obj, cls):
    """Refuse an operand that is not exactly a ``cls``: a vector has the shape
    of a 1 x 1 matrix or tensor, so only its type tells the two apart."""
    if type(obj) is not cls:
        raise DimensionError(f"{type(obj).__name__} passed where a {cls.__name__} belongs")


def require_matrices(*ms, what=None, exact=False, square=False):
    """The operand rule of the matrix kernels, checked before any is read: each
    of ``ms`` is a DenseMatrix (a DenseVector is its one-column case), all share
    one kind and, if asked, are exact and square; ``what`` names the kernel."""
    for m in ms:
        if not isinstance(m, DenseMatrix):
            require_type(m, DenseMatrix)
    for m in ms[1:]:
        require_same_kind(ms[0], m)
    if exact and ms[0].kind != GQ:
        raise VariantError(f"{what} requires exact ('gq') entries")
    if square and any(m.n_rows != m.n_cols for m in ms):
        raise DimensionError(f"{what} requires a square matrix")


def product(a, b, n, k, m):
    """Kernel-form product of an n x k and a k x m row-major array (Gaussian
    for exact data), not reduced to canonical form."""
    (da, ar, ai), (db, br, bi) = a, b

    def dot(x, y):
        cols = [y[j::m] for j in range(m)]
        return [sum(map(mul, x[i * k:i * k + k], col)) for i in range(n) for col in cols]
    if ai is None:
        return 1, dot(ar, br), None
    re = [x - y for x, y in zip(dot(ar, br), dot(ai, bi))]
    im = [x + y for x, y in zip(dot(ar, bi), dot(ai, br))]
    return da * db, re, im


def mat_mul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Standard matrix product, of the type of ``b``: a vector when ``b`` is
    one; exact whenever both operands are exact."""
    require_matrices(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionError(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    n, m = a.n_rows, b.n_cols
    return stored(type(b), a.kind, product(a._k, b._k, n, a.n_cols, m), n_rows=n,
                  n_cols=m, row_labels=a.row_labels, col_labels=b.col_labels)


def mat_vec(a: DenseMatrix, v: DenseVector) -> DenseVector:
    """:func:`mat_mul` of a matrix and a vector."""
    require_type(v, DenseVector)
    return mat_mul(a, v)


def kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Kronecker product in first-factor-varies-fastest layout.

    Row index I = i1 + n1*i2 and column index J = j1 + m1*j2, so the entry at
    (I, J) is a[i1,j1] * b[i2,j2].  Under this layout ``kron`` agrees
    entrywise with stretching the pure tensor of its factors through the
    mixed-radix map; in particular kron(B, I_k) is block-diagonal
    diag(B, ..., B) while kron(I_k, B) interleaves B at stride k.
    """
    require_matrices(a, b)
    p, r, q, s = a.n_rows, a.n_cols, b.n_rows, b.n_cols
    (da, ar, ai), (db, br, bi) = a._k, b._k
    if ai is None or not (any(ai) or any(bi)):
        rows_a = [ar[i:i + r] for i in range(0, p * r, r)]
        re = [x * y for rb in (br[i:i + s] for i in range(0, q * s, s))
              for ra in rows_a for y in rb for x in ra]
        k = (1, re, None) if ai is None else (da * db, re, [0] * len(re))
    else:
        rows_a = [list(zip(ar[i:i + r], ai[i:i + r])) for i in range(0, p * r, r)]
        rows_b = [list(zip(br[i:i + s], bi[i:i + s])) for i in range(0, q * s, s)]
        k = (da * db, [xr * yr - xi * yi for rb in rows_b for ra in rows_a
                       for yr, yi in rb for xr, xi in ra],
             [xr * yi + xi * yr for rb in rows_b for ra in rows_a
              for yr, yi in rb for xr, xi in ra])
    return stored(DenseMatrix, a.kind, k, n_rows=p * q, n_cols=r * s,
                  row_labels=None, col_labels=None)


def _bareiss(m: DenseMatrix, above):
    """Bareiss elimination on den * m, or Gauss-Jordan on [den * m | I] with
    ``above``: ``(sign, pr, pi, rows)`` over Z[i], the last pivot p = sign *
    det(den * m) (0 if a column has none).  Gauss-Jordan leaves p * (den*m)^-1
    on the right.  Each step divides exactly by the previous pivot q (Bareiss,
    Math. Comp. 22 (1968)), as conj(q) // |q|^2; only later columns change."""
    n, (_, re, im) = m.n_rows, m._k
    rows = [(list(re[i:i + n]), list(im[i:i + n])) for i in range(0, n * n, n)]
    for i, (xs, ys) in enumerate(rows if above else ()):
        xs[n:], ys[n:] = [int(i == j) for j in range(n)], [0] * n
    sign, qr, qi = 1, 1, 0
    for k in range(n if above else n - 1):
        piv = next((r for r in range(k, n) if rows[r][0][k] or rows[r][1][k]), None)
        if piv is None:
            return 0, 0, 0, rows
        if piv != k:
            rows[k], rows[piv], sign = rows[piv], rows[k], -sign
        kr, ki = rows[k]
        pr, pi, norm = kr[k], ki[k], qr * qr + qi * qi
        for i in [*range(k), *range(k + 1, n)] if above else range(k + 1, n):
            ar, ai = rows[i]
            mr, mi = ar[k], ai[k]
            cols = list(zip(ar, ai, kr, ki))[k + 1:]
            xr = [a * pr - b * pi - mr * c + mi * d for a, b, c, d in cols]
            xi = [a * pi + b * pr - mr * d - mi * c for a, b, c, d in cols]
            if qi:
                xr, xi = ([(a * qr + b * qi) // norm for a, b in zip(xr, xi)],
                          [(b * qr - a * qi) // norm for a, b in zip(xr, xi)])
            else:
                xr, xi = [a // qr for a in xr], [b // qr for b in xi]
            rows[i] = (ar[:k + 1] + xr, ai[:k + 1] + xi)
        qr, qi = pr, pi
    return sign, rows[-1][0][n - 1], rows[-1][1][n - 1], rows


def _lu(m: DenseMatrix, above):
    """Partially pivoted elimination on float ``m``, or with ``above`` on [m | I]
    clearing above the pivots too: ``(det(m), rows)``; stops at a zero pivot."""
    n, rows = m.n_rows, m.to_rows()
    for i, row in enumerate(rows if above else ()):
        row += [complex(i == j) for j in range(n)]
    det = complex(1.0)
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[piv][k] == 0:
            return 0j, rows
        if piv != k:
            rows[k], rows[piv], det = rows[piv], rows[k], -det
        pk = rows[k][k]
        det *= pk
        for i in [*range(k), *range(k + 1, n)] if above else range(k + 1, n):
            f = rows[i][k] / pk
            if f:
                ri, rk = rows[i], rows[k]
                for j in range(k + 1, len(ri)):
                    ri[j] -= f * rk[j]
    return det, rows


def det(a: DenseMatrix):
    """Determinant; exact for 'gq' matrices."""
    require_matrices(a, what="determinant", square=True)
    if a.kind != GQ:
        return _lu(a, False)[0]
    sign, pr, pi, _ = _bareiss(a, False)
    return scaled(sign * pr, sign * pi, a._k[0] ** a.n_rows)


def gauss_rows(entries, n_cols):
    """Gaussian-integer rows ``{col: (re, im)}`` of den * entries, given in
    exact kernel form ``(den, re, im)``, zeros left out."""
    _, re, im = entries
    cols = range(n_cols)
    return [{j: (x, y) for j, x, y in zip(cols, re[k:k + n_cols], im[k:k + n_cols]) if x or y}
            for k in range(0, len(re), n_cols)]


def _gcd_gauss(ar, ai, br, bi):
    """A gcd of ar + ai*i and br + bi*i in Z[i] (Euclid, rounded quotients)."""
    while br or bi:
        n = br * br + bi * bi
        xr, xi = ar * br + ai * bi, ai * br - ar * bi
        qr, qi = (2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _primitive(cols, re, im) -> dict:
    """Row ``{col: (re, im)}`` divided by the gcd of its entries in Z[i].

    The integer gcd goes first.  The Gaussian part of the content divides
    the gcd of the entry norms, so Euclid starts from that integer; it skips
    entries the running gcd already divides and stops at a unit.
    """
    g = gcd(*re, *im)
    if g > 1:
        re, im = [x // g for x in re], [y // g for y in im]
    if any(im):
        gr, gi = gcd(*[x * x + y * y for x, y in zip(re, im)]), 0
        n = gr * gr
        for x, y in zip(re, im):
            if n == 1:
                break
            if (x * gr + y * gi) % n or (y * gr - x * gi) % n:
                gr, gi = _gcd_gauss(gr, gi, x, y)
                n = gr * gr + gi * gi
        else:
            re, im = ([(x * gr + y * gi) // n for x, y in zip(re, im)],
                      [(y * gr - x * gi) // n for x, y in zip(re, im)])
    return {j: (x, y) for j, x, y in zip(cols, re, im) if x or y}


def _rank_gauss(rows) -> int:
    """Rank of Gaussian-integer rows (``{col: (re, im)}`` dicts, left intact).

    Fraction-free elimination, one row at a time: a row whose leading column
    already has a pivot row is replaced by p*row - q*pivot_row (p the pivot
    entry, q the row's leading entry), divided by the gcd of its entries;
    otherwise it becomes that column's pivot row.  Each kept row is the
    primitive part of a row of minors of the matrix, so entries stay bounded.
    When both rows are real, the update takes two products per entry.
    """
    pivots = {}
    absent = (0, 0)
    for row in rows:
        real = not any(y for _, y in row.values())
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row, real
                break
            piv, piv_real = pivots[c]
            (pr, pi), (qr, qi) = piv[c], row[c]
            cols = (row.keys() | piv.keys()) - {c}
            if real and piv_real:
                re = [pr * row.get(j, absent)[0] - qr * piv.get(j, absent)[0] for j in cols]
                g = gcd(*re)
                row = {j: (x // g, 0) for j, x in zip(cols, re) if x}
                continue
            re, im = [], []
            for j in cols:
                a, b = row.get(j, absent)
                e, f = piv.get(j, absent)
                re.append(pr * a - pi * b - qr * e + qi * f)
                im.append(pr * b + pi * a - qr * f - qi * e)
            row = _primitive(cols, re, im)
            real = not any(y for _, y in row.values())
    return len(pivots)


def rank(a: DenseMatrix) -> int:
    """Exact rank; only defined for 'gq' matrices."""
    require_matrices(a, what="rank", exact=True)
    return _rank_gauss(gauss_rows(a._k, a.n_cols))


def power_nullities(rows, den, lam):
    """Yield nullity((A - lam*I)^k) for k = 1, 2, ... of an exact square A,
    given as the Gaussian-integer rows of den * A (see :func:`gauss_rows`).

    S = d * (A - lam*I), d the common denominator of A and ``lam``, is built
    from the rows' nonzeros; scaling changes no rank, so the k-th nullity is
    that of S^k.  Each power is S times the previous one, summed over the
    nonzeros only: the matrices of Jordan products and their powers are
    sparse.  The Jordan oracle runs one chain per connected part of its
    matrix, on that part's rows with their columns renumbered.
    """
    n = len(rows)
    d = lcm(den, lam.re.denominator, lam.im.denominator)
    s = d // den
    lr = lam.re.numerator * (d // lam.re.denominator)
    li = lam.im.numerator * (d // lam.im.denominator)
    shift = [{j: (x * s, y * s) for j, (x, y) in row.items()} for row in rows]
    for i, row in enumerate(shift):
        x, y = row.pop(i, (0, 0))
        if (x, y) != (lr, li):
            row[i] = (x - lr, y - li)
    power = shift
    while True:
        yield n - _rank_gauss(power)
        nxt = []
        for row in shift:
            acc = {}
            for t, (sr, si) in row.items():
                for j, (u, v) in power[t].items():
                    x, y = acc.get(j, (0, 0))
                    acc[j] = (x + sr * u - si * v, y + sr * v + si * u)
            nxt.append({j: xy for j, xy in acc.items() if xy != (0, 0)})
        power = nxt


def nullity_sequence(a: DenseMatrix, lam, k_max: int):
    """[nullity((a - lam*I)^k)] for k = 1..k_max; exact, 'gq' only."""
    require_matrices(a, what="nullity_sequence", exact=True, square=True)
    if k_max < 1:
        raise DimensionError("k_max must be at least 1")
    nullities = power_nullities(gauss_rows(a._k, a.n_cols), a._k[0], coerce(lam, GQ))
    return [v for _, v in zip(range(k_max), nullities)]


def inverse(a: DenseMatrix) -> DenseMatrix:
    """Gauss-Jordan inverse, exact for 'gq' matrices; the labels swap sides."""
    require_matrices(a, what="inverse", square=True)
    n = a.n_rows
    if a.kind != GQ:
        _, rows = _lu(a, True)
        if not all(rows[i][i] for i in range(n)):
            raise DimensionError("matrix is singular")
        k = (1, [v / row[i] for i, row in enumerate(rows) for v in row[n:]], None)
    else:
        # R = p * (den*a)^-1, so a^-1 = den * R / p = den * R * conj(p) / |p|^2.
        _, pr, pi, rows = _bareiss(a, True)
        if not (pr or pi):
            raise DimensionError("matrix is singular")
        den = a._k[0]
        right = [(x * den, y * den) for xs, ys in rows for x, y in zip(xs[n:], ys[n:])]
        k = (pr * pr + pi * pi, [x * pr + y * pi for x, y in right],
             [y * pr - x * pi for x, y in right])
    return stored(DenseMatrix, a.kind, k, n_rows=n, n_cols=n,
                  row_labels=a.col_labels, col_labels=a.row_labels)


def permutation_matrix(perm, kind=GQ) -> DenseMatrix:
    """Matrix U with U e_i = e_{perm[i]}."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise DimensionError("perm must be a permutation of 0..n-1")
    return square_matrix(kind, n, [(p * n + i, 1) for i, p in enumerate(perm)])


matrices_close = data_close
