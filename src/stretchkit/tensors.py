"""Even-order square tensors over a finite index set and their convolution.

A tensor is a dense |A| x |A| array whose rows and columns are labelled by
the points of an index set A in canonical order.  The convolution product of
two tensors sums over all pairs of equivalent column/row indices of an index
map; when the map is injective it degenerates to the ordinary composed-index
matrix product.
"""
from __future__ import annotations

from functools import reduce
from math import lcm
from operator import attrgetter, mul

from .errors import DomainError
from .indexing import IndexMap, IndexSet
from .linalg import kron, product, require_matrices, require_same_kind, require_type
from .scalars import GQ, Entries, data_close, stored, take, trusted


class Tensor(Entries):
    """Element of Mat(A): dense entries T[i, j] for points i, j of A."""

    __slots__ = ("domain",)
    _shape = attrgetter("domain")

    def __init__(self, domain: IndexSet, kind, data):
        self.domain = domain
        self._fill_dense(kind, len(domain) * self._cols, data)

    @classmethod
    def from_entries(cls, domain, kind, entries) -> "Tensor":
        """Build from {(row_point, col_point): value}; missing entries are zero."""
        n, pos = len(domain), domain._pos
        # A generator: _fill admits each entry before the next one is placed.
        pairs = ((pos[pi] * n + pos[pj], v) for (pi, pj), v in dict(entries).items())
        return _placed(cls, domain, kind, n * n, pairs)

    @property
    def size(self) -> int:
        return len(self.domain)

    _cols = size  # columns of the dense layout: |A|, or 1 for a vector

    def at(self, pi, pj):
        position = self.domain.position
        return self.data[position(pi) * len(self.domain) + position(pj)]

    def at_pos(self, i: int, j: int):
        return self._cell(i, j, len(self.domain), self._cols)

    def __repr__(self):
        return f"{type(self).__name__}({self.kind}, |A|={len(self.domain)})"


class TensorVector(Tensor):
    """Element of C^A, the one-column tensor: one entry per point, in canonical order."""

    __slots__ = ()
    _cols = 1

    @classmethod
    def from_entries(cls, domain, kind, entries) -> "TensorVector":
        pairs = ((domain._pos[p], v) for p, v in dict(entries).items())
        return _placed(cls, domain, kind, len(domain), pairs)

    def at(self, point):
        return self.data[self.domain.position(point)]


def _placed(cls, domain, kind, count, pairs):
    """A ``cls`` on ``domain`` holding ``pairs`` (see ``Entries._fill``), whose
    positions were looked up in ``domain._pos`` by point tuple."""
    try:
        return trusted(cls, domain=domain)._fill(kind, count, pairs)
    except KeyError as exc:  # a point outside the domain: position() raises its DomainError
        domain.position(exc.args[0])
        raise


def require_domain(fmap: IndexMap, obj, cls=Tensor):
    """The operand rule of the tensor kernels: ``obj`` is exactly a ``cls`` (see
    :func:`require_type`), and only then on the index set of ``fmap``."""
    require_type(obj, cls)
    if fmap.domain != obj.domain:
        raise DomainError(f"index map and {type(obj).__name__} live on different index sets")


def pure_tensor(factors) -> Tensor:
    """Tensor of a list of square matrices on the rectangular set of their
    sizes: their :func:`~stretchkit.linalg.kron`, whose layout is that set's
    canonical order, so entry (i, j) is the product of factors[s][i_s, j_s]."""
    factors = list(factors)
    if not factors:
        raise DomainError("pure_tensor needs at least one factor")
    require_matrices(*factors, what="pure_tensor", square=True)
    m = reduce(kron, factors)
    return stored(Tensor, m.kind, m._k, domain=IndexSet.rectangular(f.n_rows for f in factors))


def identity_tensor(domain: IndexSet, kind=GQ) -> Tensor:
    """Id[i, j] = 1 when i = j, else 0."""
    return Tensor.from_entries(domain, kind, {(p, p): 1 for p in domain})


def fold(obj, rows, cols):
    """``(k, cells)``: the stored entries of ``obj``, checked by the caller,
    each added into its cell of a row-major class grid, in the same kernel
    form ``k``.  Entry (i, j) of the row-major ``len(rows) x len(cols)``
    layout goes to cell ``cells[i * len(cols) + j]``, which is (rows[i], cols[j]).

    A partition's ``class_of_position`` folds an axis by class, ``range(n)``
    keeps it and ``(0,)`` stands for a vector's single column.
    """
    width = max(cols) + 1
    cells = [r * width + c for r in rows for c in cols]
    size = (max(rows) + 1) * width

    def add(values, zero=0):
        out = [zero] * size
        for cell, v in zip(cells, values):
            if v:
                out[cell] += v
        return out
    den, re, im = obj._k
    k = (1, add(re, 0j), None) if im is None else (den, add(re), add(im))
    return k, cells


def _times(t: Tensor, x, cls, fmap: IndexMap):
    """(T P^T)(P X) for X a ``cls``: a tensor's |A| columns or a vector's one."""
    require_type(x, cls)
    require_domain(fmap, t)  # passes in the CLI, which reads the map on t's domain
    if t.domain != x.domain:
        raise DomainError("operands live on different index sets")
    require_same_kind(t, x)
    part = fmap.partition()
    n, k, cidx, m = t.size, len(part), part.class_of_position, x._cols
    out = product(fold(t, range(n), cidx)[0], fold(x, cidx, range(m))[0], n, k, m)
    return stored(cls, t.kind, out, domain=t.domain)


def convolve(t1: Tensor, t2: Tensor, fmap: IndexMap) -> Tensor:
    """Convolution product: out[i, j] = sum over m ~ n of t1[i, m] * t2[n, j].

    The sum over equivalent pairs factorizes through classes: fold the
    columns of t1 and the rows of t2 by class, then multiply (T1 P^T)(P T2).
    """
    return _times(t1, t2, Tensor, fmap)


def star(t: Tensor) -> Tensor:
    """Adjoint: (star T)[i, j] = T[j, i]."""
    require_type(t, Tensor)
    n = t.size
    order = [j * n + i for i in range(n) for j in range(n)]
    return stored(Tensor, t.kind, take(t._k, order), domain=t.domain)


def act(t: Tensor, x: TensorVector, fmap: IndexMap) -> TensorVector:
    """Action on vectors: (T * x)[i] = sum over j ~ l of T[i, j] * x[l]."""
    return _times(t, x, TensorVector, fmap)


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
    cidx, sizes = part.class_of_position, part.sizes
    (den, re, im), cells = fold(t, cidx, cidx)
    counts = [a * b if normalized else 1 for a in sizes for b in sizes]
    if im is None:
        re = [v / c if v and c > 1 else v for v, c in zip(re, counts)]
    else:
        m = lcm(*counts)
        scale = [m // c for c in counts]
        den, re, im = den * m, list(map(mul, re, scale)), list(map(mul, im, scale))
    # Each entry reads back the cell it was added into.
    return stored(Tensor, t.kind, take((den, re, im), cells), domain=t.domain)


tensors_close = data_close
