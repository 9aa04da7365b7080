"""Multi-indices, finite index sets, index maps and slot permutations.

An index set is a finite subset of Z^l held in a canonical order: first
coordinate varies fastest (equivalently, sort by reversed coordinate tuple).
For rectangular sets this order coincides with the mixed-radix linearization
I = i1 + n1*i2 + n1*n2*i3 + ..., which makes the mixed-radix map a plain
reshape under the canonical order.
"""
from __future__ import annotations

from math import isqrt
from operator import index

from .errors import DomainError, ParseError, PermutationDomainError

Point = tuple


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class IndexSet:
    """Finite subset of Z^l, either rectangular or an explicit point list."""

    __slots__ = ("arity", "dims", "points", "_pos")

    def __init__(self, points):
        points = tuple(sorted((tuple(map(index, p)) for p in points),
                              key=lambda p: p[::-1]))  # first coordinate fastest
        if not points:
            raise DomainError("index set must be nonempty")
        arity = len(points[0])
        if arity < 1:
            raise DomainError("index arity must be at least 1")
        if any(len(p) != arity for p in points):
            raise DomainError("all points must share one arity")
        if len(set(points)) != len(points):
            raise DomainError("index set points must be distinct")
        self.arity = arity
        self.dims = None
        self.points = points
        self._pos = {p: i for i, p in enumerate(points)}

    @classmethod
    def rectangular(cls, dims) -> "IndexSet":
        dims = tuple(map(index, dims))
        if not dims or any(n < 1 for n in dims):
            raise DomainError(f"rectangular dims must be positive, got {dims}")
        points = [()]
        for n in dims:  # first coordinate fastest
            points = [p + (c,) for c in range(n) for p in points]
        s = cls(points)
        s.dims = dims
        return s

    @classmethod
    def explicit(cls, points) -> "IndexSet":
        return cls(points)

    @property
    def is_rectangular(self) -> bool:
        return self.dims is not None

    def position(self, point) -> int:
        try:
            return self._pos[tuple(point)]
        except KeyError:
            raise DomainError(f"point {tuple(point)} is not in the index set") from None

    def __contains__(self, point):
        return tuple(point) in self._pos

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.points == other.points

    def __repr__(self):
        if self.is_rectangular:
            return f"IndexSet.rectangular({self.dims})"
        return f"IndexSet.explicit({len(self.points)} points, arity {self.arity})"


class Permutation:
    """Slot permutation in one-line notation over {1, ..., l}.

    ``apply`` realizes the action on multi-indices: the s-th output
    coordinate is the sigma(s)-th input coordinate.
    """

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        one_line = tuple(map(index, one_line))
        if sorted(one_line) != list(range(1, len(one_line) + 1)):
            raise ParseError(f"{one_line} is not a permutation of 1..{len(one_line)}")
        self.one_line = one_line

    @classmethod
    def identity(cls, degree) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_string(cls, text) -> "Permutation":
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ParseError(f"cannot parse permutation {text!r}: {exc}") from None

    @property
    def degree(self) -> int:
        return len(self.one_line)

    def __call__(self, s: int) -> int:
        return self.one_line[s - 1]

    def apply(self, point) -> Point:
        point = tuple(point)
        if len(point) != self.degree:
            raise DomainError(
                f"permutation of degree {self.degree} applied to arity {len(point)}")
        return tuple(point[s - 1] for s in self.one_line)

    def compose(self, other: "Permutation") -> "Permutation":
        """Plain composition on slots: result(s) = self(other(s))."""
        if self.degree != other.degree:
            raise DomainError("cannot compose permutations of different degrees")
        return Permutation(self.one_line[t - 1] for t in other.one_line)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for s, t in enumerate(self.one_line, start=1):
            inv[t - 1] = s
        return Permutation(inv)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return f"Permutation({list(self.one_line)})"


class ClassPartition:
    """Equivalence classes of an index map, ordered by ascending map value.

    ``members[c]`` lists the domain positions of class c in canonical order.
    """

    __slots__ = ("values", "members", "sizes", "class_of_position")

    def __init__(self, values, members, class_of_position):
        self.values = tuple(values)
        self.members = tuple(tuple(c) for c in members)
        self.sizes = tuple(len(c) for c in self.members)
        self.class_of_position = tuple(class_of_position)

    def __len__(self):
        return len(self.values)


def class_grid(rows, cols) -> tuple:
    """``(cells, size)`` of a fold: entry (i, j) of a row-major
    ``len(rows) x len(cols)`` array goes to cell ``cells[i * len(cols) + j]``,
    which is (rows[i], cols[j]) of a row-major class grid of ``size`` cells.

    A partition's ``class_of_position`` folds an axis by class, ``range(n)``
    keeps it and ``(0,)`` stands for a vector's single column.
    """
    width = max(cols) + 1
    return [r * width + c for r in rows for c in cols], (max(rows) + 1) * width


def class_fold(values, grid, zero=0) -> list:
    """Add each of ``values`` into its cell of a :func:`class_grid`."""
    cells, size = grid
    out = [zero] * size
    for cell, v in zip(cells, values):
        if v:
            out[cell] += v
    return out


class IndexMap:
    """Integer-valued function on a finite index set, held as its values in
    the set's canonical order, with its class structure."""

    __slots__ = ("domain", "_values", "_part")

    def __init__(self, domain, values):
        values = tuple(values)
        if len(values) != len(domain):
            raise DomainError(
                f"index map has {len(values)} values for {len(domain)} points")
        self.domain = domain
        self._values = values
        self._part = None

    @classmethod
    def linear(cls, domain, k) -> "IndexMap":
        k = tuple(map(index, k))
        if len(k) != domain.arity:
            raise DomainError(
                f"linear coefficient arity {len(k)} does not match index arity {domain.arity}")
        return cls(domain, [dot(k, p) for p in domain])

    @classmethod
    def mixed_radix(cls, domain) -> "IndexMap":
        if not domain.is_rectangular:
            raise DomainError("mixed-radix map requires a rectangular index set")
        return cls(domain, range(len(domain)))  # canonical order is mixed-radix order

    @classmethod
    def max_coord(cls, domain) -> "IndexMap":
        return cls(domain, [max(p) for p in domain])

    @classmethod
    def from_table(cls, domain, mapping) -> "IndexMap":
        table = {tuple(p): index(v) for p, v in dict(mapping).items()}
        for p in domain:
            if p not in table:
                raise DomainError(f"table map is missing point {p}")
        if len(table) > len(domain):
            outside = next(p for p in table if p not in domain)
            raise DomainError(f"table map point {outside} is not in the index set")
        return cls(domain, [table[p] for p in domain])

    @classmethod
    def enumeration(cls, domain) -> "IndexMap":
        return cls(domain, [enumerate_z(p) for p in domain])

    def value(self, point) -> int:
        return self._values[self.domain.position(point)]

    def values(self):
        """Map values over the domain in canonical order."""
        return self._values

    def partition(self) -> ClassPartition:
        if self._part is None:
            by_value = {}
            for pos, v in enumerate(self._values):
                by_value.setdefault(v, []).append(pos)
            distinct = sorted(by_value)
            cls_index = {v: i for i, v in enumerate(distinct)}
            self._part = ClassPartition(distinct, [by_value[v] for v in distinct],
                                        [cls_index[v] for v in self._values])
        return self._part

    def is_injective(self) -> bool:
        return len(self.partition()) == len(self.domain)

    def compose(self, sigma: Permutation) -> "IndexMap":
        """The map p -> F(sigma(p)); requires sigma(A) inside A."""
        domain = self.domain
        if sigma.degree != domain.arity:
            raise PermutationDomainError(
                f"permutation degree {sigma.degree} does not match index arity {domain.arity}")
        values = []
        for p in domain:
            image = sigma.apply(p)
            if image not in domain:
                raise PermutationDomainError(
                    f"permutation sends {p} to {image}, outside the index set")
            values.append(self._values[domain.position(image)])
        return IndexMap(domain, values)

    def pointwise_equal(self, other: "IndexMap") -> bool:
        return self.domain == other.domain and self.values() == other.values()

    def __repr__(self):
        return f"IndexMap({self.domain!r})"


# Fixed enumeration bijection Z^l -> Z: zigzag each coordinate into N,
# left-fold the coordinates through the Cantor pairing, then map the final
# natural number back into Z with the inverse zigzag.

def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _zigzag_inv(m: int) -> int:
    return m // 2 if m % 2 == 0 else -(m + 1) // 2


def _cantor(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def _cantor_inv(z: int):
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def enumerate_z(point) -> int:
    """Value of the pinned enumeration bijection at a point of Z^l."""
    acc = _zigzag(index(point[0]))
    for coord in point[1:]:
        acc = _cantor(acc, _zigzag(index(coord)))
    return _zigzag_inv(acc)


def enumerate_z_inverse(value: int, arity: int) -> Point:
    """Inverse of :func:`enumerate_z` for the given arity."""
    if arity < 1:
        raise DomainError("arity must be at least 1")
    acc = _zigzag(index(value))
    naturals = []
    for _ in range(arity - 1):
        acc, y = _cantor_inv(acc)
        naturals.append(y)
    naturals.append(acc)
    naturals.reverse()
    return tuple(_zigzag_inv(m) for m in naturals)
