"""Closed-form Jordan types for stretched products of Jordan blocks.

The closed forms cover a product of two cells in four cases depending on
which eigenvalues vanish, extend to arbitrary direct sums by distributing
over pairs of distinct eigenvalues and their cells, and to n factors by
folding pairwise.  Every closed form is independently certifiable through an
exact rank oracle (Weyr sequences of nullities), which never trusts the
formulas it checks.

When exactly one factor is nilpotent, the product's spectrum is forced to
{0}: the closed form emits nilpotent blocks even though the naive reading of
the two-cell case would suggest carrying the nonzero eigenvalue over.  The
oracle certifies this choice on every run.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
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
        entries += [(p, eig) for p in diagonal] + [(p + 1, 1) for p in diagonal[:-1]]
    return square_matrix(GQ, n, entries)


def _add_cell_products(tallies, a, cells1, b, cells2):
    """Add to ``tallies`` ({eigenvalue: {size: count}}) the blocks of
    J_p(a) x J_q(b), times m * n, for each (p, m) of ``cells1`` and (q, n) of
    ``cells2``.  The eigenvalue is a * b, or 0 (the vanishing factor itself)
    when a or b is 0; it is computed and looked up once for all the cells."""
    nonzero_a, nonzero_b = bool(a), bool(b)
    eig = a * b if nonzero_a and nonzero_b else b if nonzero_a else a
    sizes = tallies.setdefault(eig, defaultdict(int))
    for p, m in cells1:
        for q, n in cells2:
            mn = m * n
            if nonzero_a and nonzero_b:
                for size in range(p + q - 1, abs(p - q), -2):
                    sizes[size] += mn
            elif nonzero_a:
                sizes[q] += p * mn
            elif nonzero_b:
                sizes[p] += q * mn
            else:
                lo = min(p, q)
                for size in range(1, lo):
                    sizes[size] += 2 * mn
                sizes[lo] += (abs(p - q) + 1) * mn


def jordan_pair(p: int, a, q: int, b) -> JordanSpec:
    """Jordan type of the stretched product of the cells J_p(a) and J_q(b)."""
    if p < 1 or q < 1:
        raise DimensionError("Jordan cell sizes must be positive")
    tallies = {}
    _add_cell_products(tallies, coerce(a, GQ), ((p, 1),), coerce(b, GQ), ((q, 1),))
    return trusted(JordanSpec, counts=_canonical(tallies))


def _by_eigenvalue(spec: JordanSpec):
    """``(eigenvalue, [(size, count), ...])`` per distinct eigenvalue of
    ``spec``, whose counts keep one eigenvalue's blocks together under one
    object (a key of :func:`_canonical`'s tally); a group split in two would
    still add to the same product tallies."""
    groups = []
    for (size, eig), count in spec.counts:
        if not groups or groups[-1][0] is not eig:
            groups.append((eig, []))
        groups[-1][1].append((size, count))
    return groups


def jordan_product(s1: JordanSpec, s2: JordanSpec) -> JordanSpec:
    """Distribute over direct sums, one pair (a, b) of distinct eigenvalues
    at a time: its product is computed once, and the blocks of each pair of
    its cells, times both counts, go into that product's integer size tally,
    shared by every pair with an equal product.  The counts are built once,
    at the end, so no scalar is touched per block pair."""
    tallies, groups2 = {}, _by_eigenvalue(s2)
    for a, cells1 in _by_eigenvalue(s1):
        for b, cells2 in groups2:
            _add_cell_products(tallies, a, cells1, b, cells2)
    return trusted(JordanSpec, counts=_canonical(tallies))


def _factors(specs) -> list:
    """``specs`` as a list; an n-fold product needs at least one factor."""
    specs = list(specs)
    if not specs:
        raise DomainError("an n-fold product needs at least one spec")
    return specs


def jordan_nfold(specs) -> JordanSpec:
    """Left fold of :func:`jordan_product` over counts, so its cost follows
    the distinct blocks, not the block total; the result is order-independent."""
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
                            entries[at + m_dim + 1] = 1
    return square_matrix(GQ, dim, entries.items(), tuple(range(dim)))


class JordanOracleResult(namedtuple("JordanOracleResult", "eigen_data dimension")):
    """Per-eigenvalue Weyr sequences and the block multisets they force:
    ``eigen_data`` holds (eigenvalue, Weyr tuple, descending block sizes)."""

    __slots__ = ()

    def spec(self) -> JordanSpec:
        return JordanSpec((size, eig) for eig, _, sizes in self.eigen_data for size in sizes)

    def weyr(self, eig):
        eig = coerce(eig, GQ)
        for e, w, _ in self.eigen_data:
            if e == eig:
                return w
        raise DomainError(f"oracle was not run for eigenvalue {eig}")


def _parts(rows):
    """The connected parts of the graph with an edge i-j for each nonzero
    (i, j) of the square ``rows`` (union-find): each part's rows, in order,
    with their columns renumbered within it."""
    root = list(range(len(rows)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i
    for i, row in enumerate(rows):
        for j in row:
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
    parts = {}
    for i in range(len(rows)):
        parts.setdefault(find(i), []).append(i)
    renumbered = []
    for part in parts.values():
        at = {i: k for k, i in enumerate(part)}
        renumbered.append([{at[j]: x for j, x in rows[i].items()} for i in part])
    return renumbered


def _triangular_diagonal(rows):
    """The set of diagonal entries of ``rows`` when they are upper triangular,
    which is then their spectrum; None otherwise."""
    if any(j < i for i, row in enumerate(rows) for j in row):
        return None
    return {row.get(i, (0, 0)) for i, row in enumerate(rows)}


def _stable(nullities, n):
    """``[0, w_1, w_2, ...]`` of a nullity sequence of an n x n matrix, up to
    the first w_k that repeats w_(k-1) or reaches n, and at most k = n + 1."""
    weyr = [0]
    for _, nullity in zip(range(n + 1), nullities):
        weyr.append(nullity)
        if nullity in (weyr[-2], n):
            break
    return weyr


def _weyr_oracle(rows, den, eigenvalues) -> JordanOracleResult:
    """:func:`jordan_oracle` of the exact square matrix M whose Gaussian-integer
    rows of den * M are ``rows`` (see :func:`~stretchkit.linalg.gauss_rows`).

    M is permutation-similar to the direct sum of its connected parts, so
    each nullity of a power of (M - eig) is the sum of the parts' nullities.
    Each part runs :func:`~stretchkit.linalg.power_nullities` until its own
    nullity stops changing, except that an upper triangular part without
    ``eig`` on its diagonal (its spectrum) has nullity 0 and is skipped.  The
    sum, padded with each part's last value, is cut by the same stop rule as
    one sequence of M.
    """
    n = len(rows)
    parts = [(part, _triangular_diagonal(part)) for part in _parts(rows)]
    eigs = sorted({coerce(e, GQ) for e in eigenvalues}, key=_eig_key)
    eigen_data = []
    covered = 0
    for eig in eigs:
        seqs, re, im = [], eig.re * den, eig.im * den
        at = (int(re), int(im)) if re.denominator == im.denominator == 1 else None
        for part, diagonal in parts:
            if diagonal is None or at in diagonal:
                seqs.append(_stable(power_nullities(part, den, eig), len(part)))
        weyr = _stable((sum(seq[min(k, len(seq) - 1)] for seq in seqs)
                        for k in range(1, n + 2)), n)
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
    return JordanOracleResult(tuple(eigen_data), n)


def jordan_oracle(m: DenseMatrix, eigenvalues) -> JordanOracleResult:
    """Certify a Jordan structure from exact rank computations.

    For each candidate eigenvalue the Weyr sequence w_k = nullity((M - eig)^k)
    is computed to stabilization; its first differences count blocks of size
    at least k.  The supplied eigenvalue set must exhaust the spectrum, which
    is checked by dimension accounting.  The nullities are computed on each
    connected part of M's sparsity graph alone and summed (see
    :func:`_weyr_oracle`); a dense M is one part.
    """
    require_matrices(m, what="the Jordan oracle", exact=True, square=True)
    return _weyr_oracle(gauss_rows(m._k, m.n_cols), m._k[0], eigenvalues)


def nfold_product_matrix(specs) -> DenseMatrix:
    """Kronecker product (first factor fastest) of the specs' matrices."""
    return reduce(kron, [spec_matrix(s) for s in _factors(specs)])


def nfold_eigenvalues(specs):
    """Every product of one eigenvalue per factor; exhausts the spectrum."""
    products = {gq(1)}
    for spec in specs:
        products = {p * e for p in products for e in spec.eigenvalues()}
    return sorted(products, key=_eig_key)


def _kron_rows(a, b):
    """Gaussian-integer rows of the Kronecker product of the square rows ``a``
    and ``b``, in the layout of :func:`~stretchkit.linalg.kron` (first factor
    fastest); only nonzeros are multiplied."""
    n_a = len(a)
    return [{ja + n_a * jb: (xr * yr - xi * yi, xr * yi + xi * yr)
             for jb, (yr, yi) in row_b.items() for ja, (xr, xi) in row_a.items()}
            for row_b in b for row_a in a]


def _nfold_rows(specs):
    """``(rows, den)``: the Gaussian-integer rows of den * M, M the Kronecker
    product of the specs' matrices (:func:`nfold_product_matrix`), and den
    the product of their denominators; built as sparse rows, never as the
    dense N x N matrix."""
    rows, den = [{0: (1, 0)}], 1
    for spec in _factors(specs):
        m = spec_matrix(spec)
        rows, den = _kron_rows(rows, gauss_rows(m._k, m.n_cols)), den * m._k[0]
    return rows, den


def nfold_oracle(specs) -> JordanSpec:
    """Jordan type of the n-fold stretched product of ``specs``, certified by
    the rank oracle on the sparse Kronecker rows of the spec matrices
    (:func:`_nfold_rows`), one connected part at a time; it never reads the
    closed forms.  A pair of cells is the 2-fold case."""
    specs = _factors(specs)
    return _weyr_oracle(*_nfold_rows(specs), nfold_eigenvalues(specs)).spec()
