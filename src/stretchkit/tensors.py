"""Even-order square tensors over a finite index set and their convolution.

A tensor is a dense |A| x |A| array whose rows and columns are labelled by
the points of an index set A in canonical order.  The convolution product of
two tensors sums over all pairs of equivalent column/row indices of an index
map; when the map is injective it degenerates to the ordinary composed-index
matrix product.
"""
from __future__ import annotations

from .errors import DimensionError, DomainError, VariantError
from .indexing import IndexMap, IndexSet, class_fold, class_grid
from .linalg import product, require_same_kind, unfold
from .scalars import (ABS_TOL, GQ, REL_TOL, coerce, data_close, one, scaled, to_scaled,
                      trusted, zero)


class Tensor:
    """Element of Mat(A): dense entries T[i, j] for points i, j of A."""

    __slots__ = ("domain", "kind", "data")

    def __init__(self, domain: IndexSet, kind, data):
        data = tuple(coerce(v, kind) for v in data)
        n = len(domain)
        if len(data) != n * n:
            raise DimensionError(f"tensor needs {n * n} entries, got {len(data)}")
        self.domain = domain
        self.kind = kind
        self.data = data

    @classmethod
    def from_entries(cls, domain, kind, entries) -> "Tensor":
        """Build from {(row_point, col_point): value}; missing entries are zero."""
        n = len(domain)
        data = [zero(kind)] * (n * n)
        for (pi, pj), v in dict(entries).items():
            data[domain.position(pi) * n + domain.position(pj)] = coerce(v, kind)
        return trusted(cls, domain=domain, kind=kind, data=tuple(data))

    @property
    def size(self) -> int:
        return len(self.domain)

    def at(self, pi, pj):
        n = len(self.domain)
        return self.data[self.domain.position(pi) * n + self.domain.position(pj)]

    def at_pos(self, i: int, j: int):
        return self.data[i * len(self.domain) + j]

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.kind == other.kind and self.domain == other.domain
                and self.data == other.data)

    def __repr__(self):
        return f"Tensor({self.kind}, |A|={len(self.domain)})"


class TensorVector:
    """Element of C^A: one entry per point of A, in canonical order."""

    __slots__ = ("domain", "kind", "data")

    def __init__(self, domain: IndexSet, kind, data):
        data = tuple(coerce(v, kind) for v in data)
        if len(data) != len(domain):
            raise DimensionError(f"vector needs {len(domain)} entries, got {len(data)}")
        self.domain = domain
        self.kind = kind
        self.data = data

    @classmethod
    def from_entries(cls, domain, kind, entries) -> "TensorVector":
        data = [zero(kind)] * len(domain)
        for p, v in dict(entries).items():
            data[domain.position(p)] = coerce(v, kind)
        return trusted(cls, domain=domain, kind=kind, data=tuple(data))

    def at(self, point):
        return self.data[self.domain.position(point)]

    def __eq__(self, other):
        if not isinstance(other, TensorVector):
            return NotImplemented
        return (self.kind == other.kind and self.domain == other.domain
                and self.data == other.data)

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
    domain = IndexSet.rectangular(dims)
    n = len(domain)
    data = [zero(kind)] * (n * n)
    points = domain.points
    for i, pi in enumerate(points):
        base = i * n
        for j, pj in enumerate(points):
            v = one(kind)
            for f, ci, cj in zip(factors, pi, pj):
                v = v * f.at(ci, cj)
                if not v:
                    break
            data[base + j] = v
    return Tensor(domain, kind, data)


def identity_tensor(domain: IndexSet, kind=GQ) -> Tensor:
    """Id[i, j] = 1 when i = j, else 0."""
    return Tensor.from_entries(domain, kind, {(p, p): 1 for p in domain})


def fold(obj, rows, cols):
    """:func:`class_fold` of a tensor's or vector's entries on the
    ``class_grid(rows, cols)``, in the kernel form of
    :func:`~stretchkit.linalg.unfold`."""
    grid = class_grid(rows, cols)
    if obj.kind == GQ:
        den, re, im = to_scaled(obj.data)
        return den, class_fold(re, grid), class_fold(im, grid)
    return 1, class_fold(obj.data, grid, 0j), None


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
    return trusted(Tensor, domain=t1.domain, kind=t1.kind, data=unfold(t1.kind, *out))


def star(t: Tensor) -> Tensor:
    """Adjoint: (star T)[i, j] = T[j, i]."""
    n = t.size
    data = tuple(t.data[j * n + i] for i in range(n) for j in range(n))
    return trusted(Tensor, domain=t.domain, kind=t.kind, data=data)


def act(t: Tensor, x: TensorVector, fmap: IndexMap) -> TensorVector:
    """Action on vectors: (T * x)[i] = sum over j ~ l of T[i, j] * x[l]."""
    _require_compatible(t, x)
    require_domain(fmap, t)
    part = fmap.partition()
    n, k, cidx = t.size, len(part), part.class_of_position
    out = product(fold(t, range(n), cidx), fold(x, cidx, (0,)), n, k, 1)
    return trusted(TensorVector, domain=t.domain, kind=t.kind, data=unfold(t.kind, *out))


def average(t: Tensor, fmap: IndexMap, normalized: bool = True) -> Tensor:
    """Class averaging Id * (T * Id).

    Raw mode replaces each class-pair block of T by the block sum, exactly as
    the double convolution with Id produces.  Normalized mode uses the
    reweighted identity with 1/|class| on the diagonal, so each block becomes
    its mean; only this variant is a projection.
    """
    require_domain(fmap, t)
    part = fmap.partition()
    cidx, sizes, k = part.class_of_position, part.sizes, len(part)
    den, re, im = fold(t, cidx, cidx)
    counts = [a * b if normalized else 1 for a in sizes for b in sizes]
    if t.kind == GQ:
        blocks = [scaled(x, y, den * c) for x, y, c in zip(re, im, counts)]
    else:
        blocks = [v / c if v and c > 1 else v for v, c in zip(re, counts)]
    data = tuple(blocks[ci * k + cj] for ci in cidx for cj in cidx)
    return trusted(Tensor, domain=t.domain, kind=t.kind, data=data)


def tensors_close(a: Tensor, b: Tensor, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> bool:
    return a.domain == b.domain and data_close(a, b, rel_tol, abs_tol)
