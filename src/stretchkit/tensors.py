"""Even-order square tensors over a finite index set and their convolution.

A tensor is a dense |A| x |A| array whose rows and columns are labelled by
the points of an index set A in canonical order.  The convolution product of
two tensors sums over all pairs of equivalent column/row indices of an index
map; when the map is injective it degenerates to the ordinary composed-index
matrix product.
"""
from __future__ import annotations

from math import lcm
from operator import attrgetter, mul

from .errors import DimensionError, DomainError, VariantError
from .indexing import IndexMap, IndexSet, class_fold, class_grid
from .linalg import kron_k, product, require_same_kind
from .scalars import GQ, Entries, coerce, data_close, stored, take, trusted


class Tensor(Entries):
    """Element of Mat(A): dense entries T[i, j] for points i, j of A."""

    __slots__ = ("domain",)
    _shape = attrgetter("domain")

    def __init__(self, domain: IndexSet, kind, data):
        self._fill_dense(kind, len(domain) ** 2, data)
        self.domain = domain

    @classmethod
    def from_entries(cls, domain, kind, entries) -> "Tensor":
        """Build from {(row_point, col_point): value}; missing entries are zero."""
        n, position = len(domain), domain.position
        # Coerce, then place: a wrong kind is reported before an outside point.
        pairs = [(position(pi) * n + position(pj), v)
                 for (pi, pj), v in dict(entries).items() for v in (coerce(v, kind),)]
        return trusted(cls, domain=domain)._fill(kind, n * n, pairs)

    @property
    def size(self) -> int:
        return len(self.domain)

    def at(self, pi, pj):
        position = self.domain.position
        return self.data[position(pi) * len(self.domain) + position(pj)]

    def at_pos(self, i: int, j: int):
        return self._cell(i, j, len(self.domain), len(self.domain))

    def __repr__(self):
        return f"Tensor({self.kind}, |A|={len(self.domain)})"


class TensorVector(Entries):
    """Element of C^A: one entry per point of A, in canonical order."""

    __slots__ = ("domain",)
    _shape = attrgetter("domain")

    def __init__(self, domain: IndexSet, kind, data):
        self._fill_dense(kind, len(domain), data)
        self.domain = domain

    @classmethod
    def from_entries(cls, domain, kind, entries) -> "TensorVector":
        pairs = [(domain.position(p), v)
                 for p, v in dict(entries).items() for v in (coerce(v, kind),)]
        return trusted(cls, domain=domain)._fill(kind, len(domain), pairs)

    def at(self, point):
        return self.data[self.domain.position(point)]

    def __repr__(self):
        return f"TensorVector({self.kind}, |A|={len(self.domain)})"


def require_domain(fmap: IndexMap, obj):
    if fmap.domain != obj.domain:
        raise DomainError(f"index map and {type(obj).__name__} live on different index sets")


def _require_compatible(a, b):
    if a.domain != b.domain:
        raise DomainError("operands live on different index sets")
    require_same_kind(a, b)


def pure_tensor(factors) -> Tensor:
    """Tensor of a list of square matrices on the rectangular set of their sizes.

    The entry at (i, j) is the product over slots s of factors[s][i_s, j_s].
    Canonical order is mixed-radix order, first slot fastest, which is the
    Kronecker layout of :func:`~stretchkit.linalg.kron`.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("pure_tensor needs at least one factor")
    kind = factors[0].kind
    for f in factors:
        if f.kind != kind:
            raise VariantError("pure_tensor factors must share one scalar kind")
        if not f.is_square:
            raise DimensionError("pure_tensor factors must be square")
    dims = tuple(f.n_rows for f in factors)
    k, n = factors[0]._k, dims[0]
    for f in factors[1:]:
        k, n = kron_k(k, f._k, n, n, f.n_rows, f.n_rows), n * f.n_rows
    return stored(Tensor, kind, k, domain=IndexSet.rectangular(dims))


def identity_tensor(domain: IndexSet, kind=GQ) -> Tensor:
    """Id[i, j] = 1 when i = j, else 0."""
    return Tensor.from_entries(domain, kind, {(p, p): 1 for p in domain})


def fold(obj, rows, cols):
    """:func:`class_fold` of a tensor's or vector's stored entries on the
    ``class_grid(rows, cols)``, in the same kernel form; they must fill it."""
    grid = class_grid(rows, cols)
    den, re, im = obj._k
    if len(re) != len(grid[0]):  # a vector passed for a tensor, or the reverse
        raise DimensionError(f"{type(obj).__name__} has {len(re)} entries, needs {len(grid[0])}")
    if im is None:
        return 1, class_fold(re, grid, 0j), None
    return den, class_fold(re, grid), class_fold(im, grid)


def convolve(t1: Tensor, t2: Tensor, fmap: IndexMap) -> Tensor:
    """Convolution product: out[i, j] = sum over m ~ n of t1[i, m] * t2[n, j].

    The sum over equivalent pairs factorizes through classes: fold the
    columns of t1 and the rows of t2 by class, then multiply (T1 P^T)(P T2).
    """
    _require_compatible(t1, t2)
    require_domain(fmap, t1)
    part = fmap.partition()
    n, k, cidx = t1.size, len(part), part.class_of_position
    out = product(fold(t1, range(n), cidx), fold(t2, cidx, range(n)), n, k, n)
    return stored(Tensor, t1.kind, out, domain=t1.domain)


def star(t: Tensor) -> Tensor:
    """Adjoint: (star T)[i, j] = T[j, i]."""
    n = t.size
    order = [j * n + i for i in range(n) for j in range(n)]
    return stored(Tensor, t.kind, take(t._k, order), domain=t.domain)


def act(t: Tensor, x: TensorVector, fmap: IndexMap) -> TensorVector:
    """Action on vectors: (T * x)[i] = sum over j ~ l of T[i, j] * x[l]."""
    _require_compatible(t, x)
    require_domain(fmap, t)
    part = fmap.partition()
    n, k, cidx = t.size, len(part), part.class_of_position
    out = product(fold(t, range(n), cidx), fold(x, cidx, (0,)), n, k, 1)
    return stored(TensorVector, t.kind, out, domain=t.domain)


def average(t: Tensor, fmap: IndexMap, normalized: bool = True) -> Tensor:
    """Class averaging Id * (T * Id).

    Raw mode replaces each class-pair block of T by the block sum, exactly as
    the double convolution with Id produces.  Normalized mode uses the
    reweighted identity with 1/|class| on the diagonal, so each block becomes
    its mean; only this variant is a projection.  Exact means share the
    denominator ``den * lcm(block sizes)``.
    """
    require_domain(fmap, t)
    part = fmap.partition()
    cidx, sizes, k = part.class_of_position, part.sizes, len(part)
    den, re, im = fold(t, cidx, cidx)
    counts = [a * b if normalized else 1 for a in sizes for b in sizes]
    if im is None:
        re = [v / c if v and c > 1 else v for v, c in zip(re, counts)]
    else:
        m = lcm(*counts)
        scale = [m // c for c in counts]
        den, re, im = den * m, list(map(mul, re, scale)), list(map(mul, im, scale))
    order = [ci * k + cj for ci in cidx for cj in cidx]
    return stored(Tensor, t.kind, take((den, re, im), order), domain=t.domain)


tensors_close = data_close
