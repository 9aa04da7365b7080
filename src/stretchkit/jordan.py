"""Closed-form Jordan types for stretched products of Jordan blocks.

The closed forms cover a product of two cells in four cases depending on
which eigenvalues vanish, extend to arbitrary direct sums by distributing
over block pairs, and to n factors by folding pairwise.  Every closed form
is independently certifiable through an exact rank oracle (Weyr sequences of
nullities), which never trusts the formulas it checks.

When exactly one factor is nilpotent, the product's spectrum is forced to
{0}: the closed form emits nilpotent blocks even though the naive reading of
the two-cell case would suggest carrying the nonzero eigenvalue over.  The
oracle certifies this choice on every run.
"""
from __future__ import annotations

from functools import reduce
from operator import index

from .errors import DimensionError, DomainError
from .linalg import (DenseMatrix, gauss_rows, kron, power_nullities, require_matrices,
                     square_matrix)
from .scalars import GQ, GaussianRational, coerce, gq, trusted


def _eig_key(e: GaussianRational):
    return (e.re, e.im)


class JordanSpec:
    """Multiset of Jordan blocks (size, eigenvalue) in canonical order.

    Stored as ``counts``: distinct blocks with their multiplicities, sorted by
    eigenvalue (real part, then imaginary part) and by descending size within
    one eigenvalue, so multiset equality is plain sequence equality.  The
    cost of a spec follows its distinct blocks, not its block total.
    """

    __slots__ = ("counts",)

    def __init__(self, blocks):
        tally = {}
        for size, eig in blocks:
            size = index(size)
            if size < 1:
                raise DimensionError("Jordan block sizes must be positive")
            sizes = tally.setdefault(coerce(eig, GQ), {})
            sizes[size] = sizes.get(size, 0) + 1
        if not tally:
            raise DimensionError("a Jordan spec needs at least one block")
        self.counts = _canonical(tally)

    @classmethod
    def single(cls, size, eig) -> "JordanSpec":
        return cls([(size, eig)])

    @property
    def blocks(self):
        """Every block, repeated by its count, in canonical order."""
        return tuple(block for block, count in self.counts for _ in range(count))

    @property
    def dimension(self) -> int:
        return sum(size * count for (size, _), count in self.counts)

    def eigenvalues(self):
        return tuple(sorted({eig for (_, eig), _ in self.counts}, key=_eig_key))

    def __eq__(self, other):
        if not isinstance(other, JordanSpec):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __repr__(self):
        inner = " + ".join(f"J{size}({eig})" for size, eig in self.blocks)
        return f"JordanSpec({inner})"


def _canonical(tally) -> tuple:
    """Canonical ``counts`` of a {eigenvalue: {size: count}} tally."""
    return tuple(((size, eig), sizes[size]) for eig, sizes in
                 sorted(tally.items(), key=lambda es: _eig_key(es[0]))
                 for size in sorted(sizes, reverse=True))


def jordan_block(size: int, eig) -> DenseMatrix:
    """Upper bidiagonal exact cell: eigenvalue on the diagonal, ones above it."""
    return spec_matrix(JordanSpec.single(size, eig))


def _cells(spec: JordanSpec):
    """(start, size, eigenvalue) of each block, in canonical order."""
    start = 0
    for size, eig in spec.blocks:
        yield start, size, eig
        start += size


def spec_matrix(spec: JordanSpec) -> DenseMatrix:
    """Exact direct sum of the spec's blocks, in canonical order."""
    n, entries = spec.dimension, []
    for start, size, eig in _cells(spec):
        diagonal = range(start * (n + 1), (start + size) * (n + 1), n + 1)
        entries += [(p, eig) for p in diagonal] + [(p + 1, gq(1)) for p in diagonal[:-1]]
    return square_matrix(GQ, n, entries)


def jordan_pair(p: int, a, q: int, b) -> JordanSpec:
    """Jordan type of the stretched product of the cells J_p(a) and J_q(b)."""
    if p < 1 or q < 1:
        raise DimensionError("Jordan cell sizes must be positive")
    a = coerce(a, GQ)
    b = coerce(b, GQ)
    lo = min(p, q)
    if a and b:
        eig, sizes = a * b, {p + q - 2 * k + 1: 1 for k in range(1, lo + 1)}
    elif a:
        eig, sizes = gq(0), {q: p}
    elif b:
        eig, sizes = gq(0), {p: q}
    else:
        eig, sizes = gq(0), {k: 2 for k in range(1, lo)}
        sizes[lo] = abs(p - q) + 1
    return trusted(JordanSpec, counts=_canonical({eig: sizes}))


def jordan_product(s1: JordanSpec, s2: JordanSpec) -> JordanSpec:
    """Distribute over direct sums: resolve each distinct block pair once and
    add its blocks with the product of the two counts."""
    tally = {}
    for (p, a), m in s1.counts:
        for (q, b), n in s2.counts:
            pair = jordan_pair(p, a, q, b).counts
            sizes = tally.setdefault(pair[0][0][1], {})
            for (size, _), k in pair:
                sizes[size] = sizes.get(size, 0) + m * n * k
    return trusted(JordanSpec, counts=_canonical(tally))


def _factors(specs) -> list:
    """``specs`` as a list; an n-fold product needs at least one factor."""
    specs = list(specs)
    if not specs:
        raise DomainError("an n-fold product needs at least one spec")
    return specs


def jordan_nfold(specs) -> JordanSpec:
    """Left fold of :func:`jordan_product`; the result is order-independent."""
    return reduce(jordan_product, _factors(specs))


def explicit_pair_matrix(c: JordanSpec, d: JordanSpec) -> DenseMatrix:
    """Explicit stretched matrix of the product of two Jordan direct sums.

    Four sums of matrix units: eigenvalue products on the diagonal, the
    first factor's superdiagonals at offset +1, the second factor's at
    offset +M (M = dimension of the first sum), and their overlap at +M+1.
    """
    m_dim = c.dimension
    dim = m_dim * d.dimension
    entries = {}
    for u, p, a in _cells(c):
        for v, q, b in _cells(d):
            for i in range(u, u + p):
                for j in range(v, v + q):
                    # Row i + M*j meets its four units at distinct columns.
                    at = (i + m_dim * j) * (dim + 1)
                    entries[at] = a * b
                    if i + 1 < u + p:
                        entries[at + 1] = b
                    if j + 1 < v + q:
                        entries[at + m_dim] = a
                        if i + 1 < u + p:
                            entries[at + m_dim + 1] = gq(1)
    return square_matrix(GQ, dim, entries.items(), tuple(range(dim)))


class JordanOracleResult:
    """Per-eigenvalue Weyr sequences and the block multisets they force."""

    __slots__ = ("eigen_data", "dimension")

    def __init__(self, eigen_data, dimension):
        # eigen_data: tuple of (eigenvalue, weyr tuple, block-size tuple desc)
        self.eigen_data = tuple(eigen_data)
        self.dimension = dimension

    def spec(self) -> JordanSpec:
        return JordanSpec((size, eig) for eig, _, sizes in self.eigen_data for size in sizes)

    def weyr(self, eig):
        eig = coerce(eig, GQ)
        for e, w, _ in self.eigen_data:
            if e == eig:
                return w
        raise DomainError(f"oracle was not run for eigenvalue {eig}")

    def __repr__(self):
        return f"JordanOracleResult(dim={self.dimension}, eigs={len(self.eigen_data)})"


def jordan_oracle(m: DenseMatrix, eigenvalues) -> JordanOracleResult:
    """Certify a Jordan structure from exact rank computations.

    For each candidate eigenvalue the Weyr sequence w_k = nullity((M - eig)^k)
    is computed to stabilization; its first differences count blocks of size
    at least k.  The supplied eigenvalue set must exhaust the spectrum, which
    is checked by dimension accounting.
    """
    require_matrices(m, what="the Jordan oracle", exact=True, square=True)
    n, rows = m.n_rows, gauss_rows(m._k, m.n_cols)
    eigs = sorted({coerce(e, GQ) for e in eigenvalues}, key=_eig_key)
    eigen_data = []
    covered = 0
    for eig in eigs:
        weyr = [0]
        for nullity in power_nullities(rows, m._k[0], eig):
            stop = nullity in (weyr[-1], n) or len(weyr) > n
            weyr.append(nullity)
            if stop:
                break
        # geq[k - 1] counts the blocks of size at least k.
        geq = [b - a for a, b in zip(weyr, weyr[1:])] + [0]
        if any(x < y for x, y in zip(geq, geq[1:])):
            raise DomainError("Weyr differences increased; not a nullity sequence")
        sizes = tuple(k for k in range(len(geq) - 1, 0, -1)
                      for _ in range(geq[k - 1] - geq[k]))
        covered += weyr[-1]
        if sizes:
            eigen_data.append((eig, tuple(weyr[1:]), sizes))
    if covered != n:
        raise DomainError(
            f"eigenvalue set covers dimension {covered} of {n}; an eigenvalue is missing")
    return JordanOracleResult(eigen_data, n)


def nfold_product_matrix(specs) -> DenseMatrix:
    """Kronecker product (first factor fastest) of the specs' matrices."""
    return reduce(kron, [spec_matrix(s) for s in _factors(specs)])


def nfold_eigenvalues(specs):
    """Every product of one eigenvalue per factor; exhausts the spectrum."""
    products = {gq(1)}
    for spec in specs:
        products = {p * e for p in products for e in spec.eigenvalues()}
    return sorted(products, key=_eig_key)


def nfold_oracle(specs) -> JordanSpec:
    """Jordan type of the n-fold stretched product of ``specs``, certified by
    :func:`jordan_oracle` on the Kronecker product of the spec matrices; it
    never reads the closed forms.  A pair of cells is the 2-fold case."""
    specs = _factors(specs)
    return jordan_oracle(nfold_product_matrix(specs), nfold_eigenvalues(specs)).spec()
