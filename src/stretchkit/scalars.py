"""Scalar kinds: exact Gaussian rationals ("gq") and complex doubles ("cf64").

Every matrix, vector and tensor in this package carries exactly one scalar
kind.  The two kinds never mix inside a computation; crossing them raises
:class:`~stretchkit.errors.VariantError` instead of silently degrading exact
values to floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, VariantError

GQ = "gq"
CF64 = "cf64"
KINDS = (GQ, CF64)

# Default float comparison thresholds: plenty of double-precision headroom
# for products up to a few hundred rows.
REL_TOL = 1e-9
ABS_TOL = 1e-12

_EXACT_TYPES = (int, Fraction)
_F0 = Fraction(0)


def _exact(value):
    """``value`` as a GaussianRational if it is exact (a GaussianRational, an
    int or a Fraction), else None: the one rule of what may enter exact data,
    which :func:`coerce` and every operator of GaussianRational apply."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _EXACT_TYPES):
        return _raw(Fraction(value), _F0)
    return None


def _admitted(op):
    """The operator ``op(self, o)`` with its other operand given through
    :func:`_exact`; an operand that is not exact gets ``NotImplemented``."""
    def method(self, other):
        o = _exact(other)
        return NotImplemented if o is None else op(self, o)
    return method


class GaussianRational:
    """Complex number with exact :class:`fractions.Fraction` components.

    Instances are immutable by convention.  Arithmetic accepts ints,
    Fractions and other GaussianRationals; floats and complex operands are
    rejected so approximate values cannot leak into an exact computation.
    Components are always kept in lowest terms with positive denominator
    (guaranteed by ``Fraction``).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not isinstance(re, _EXACT_TYPES) or not isinstance(im, _EXACT_TYPES):
            raise VariantError(
                "exact scalar components must be int or Fraction, got "
                f"{type(re).__name__}/{type(im).__name__}"
            )
        self.re = Fraction(re)
        self.im = Fraction(im)

    __add__ = __radd__ = _admitted(lambda a, b: _raw(a.re + b.re, a.im + b.im))
    __sub__ = _admitted(lambda a, b: _raw(a.re - b.re, a.im - b.im))
    __rsub__ = _admitted(lambda a, b: _raw(b.re - a.re, b.im - a.im))
    __rtruediv__ = _admitted(lambda a, b: b / a)
    # Assigning __eq__ keeps instances hashable: __hash__ is defined below.
    __eq__ = _admitted(lambda a, b: a.re == b.re and a.im == b.im)

    @_admitted
    def __mul__(self, o):
        if not self.im and not o.im:
            return _raw(self.re * o.re, _F0)
        return _raw(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    @_admitted
    def __truediv__(self, o):
        if not o.im:
            return _raw(self.re / o.re, self.im / o.re)
        d = o.re * o.re + o.im * o.im
        return _raw((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return _raw(-self.re, -self.im)

    def __pos__(self):
        return self

    def __hash__(self):
        # A real value equals its Fraction, so it hashes like one.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"gq({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def _raw(re: Fraction, im: Fraction) -> GaussianRational:
    """The GaussianRational ``re + i*im`` of two Fractions, unchecked."""
    v = object.__new__(GaussianRational)
    v.re, v.im = re, im
    return v


_ZERO = _raw(_F0, _F0)


def gq(re=0, im=0) -> GaussianRational:
    """Convenience constructor; accepts ints, Fractions and strings like "3/2"."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(re, im)


def coerce(value, kind: str):
    """Coerce ``value`` into the given kind, refusing cross-kind conversions."""
    if kind == GQ:
        v = _exact(value)
        if v is None:
            raise VariantError(f"cannot place {type(value).__name__} into exact ('gq') data")
        return v
    if kind == CF64:
        if isinstance(value, GaussianRational):
            raise VariantError("cannot place exact scalar into float ('cf64') data")
        if isinstance(value, (complex, float, int)):
            return complex(value)
        raise VariantError(f"cannot place {type(value).__name__} into 'cf64' data")
    raise VariantError(f"unknown scalar kind {kind!r}")


def from_scaled(den, re, im) -> tuple:
    """The tuple of ``(re[k] + i*im[k]) / den``, with one shared scalar per
    distinct value."""
    memo = {}
    get = memo.get
    out = []
    for key in zip(re, im):
        v = get(key)
        if v is None:
            v = memo[key] = scaled(*key, den)
        out.append(v)
    return tuple(out)


def scaled(re: int, im: int, den: int) -> GaussianRational:
    """``(re + i*im) / den`` for ints with ``den > 0``; zero is one shared value."""
    if not (re or im):
        return _ZERO
    if den == 1:
        return _raw(Fraction(re), Fraction(im) if im else _F0)
    return _raw(Fraction(re, den), Fraction(im, den) if im else _F0)


def canonical(den, re, im) -> tuple:
    """Kernel-form ``(den, re, im)`` in the stored form: int tuples over the
    least ``den`` for exact data (one ``gcd``), ``(1, values, None)`` for float."""
    if im is None:
        return 1, tuple(re), None
    g = gcd(den, *re, *im)
    if g == 1:
        return den, tuple(re), tuple(im)
    return den // g, tuple([x // g for x in re]), tuple([y // g for y in im])


def take(k, order) -> tuple:
    """Kernel form ``k`` with its entries picked in ``order`` (positions may repeat)."""
    den, re, im = k
    return (den, tuple(map(re.__getitem__, order)),
            None if im is None else tuple(map(im.__getitem__, order)))


def trusted(cls, **slots):
    """``cls`` instance with the given slots and no per-entry :func:`coerce`."""
    obj = object.__new__(cls)
    for name, value in slots.items():
        setattr(obj, name, value)
    return obj


class Entries:
    """Base of matrices, vectors and tensors: entries of one scalar ``kind``.

    ``_k`` is the stored form, which the kernels read and write directly.
    Exact entries are ``(den, re, im)``: ``den > 0``, int tuples ``re`` and
    ``im`` and ``gcd(den, *re, *im) == 1``, so equal values have equal
    triples; entry k is ``(re[k] + i*im[k]) / den``.  Float entries are
    ``(1, values, None)`` with a tuple of ``complex``.  Neither is mutated
    after construction.  A subclass's ``_shape`` getter reads what ``==``
    compares besides ``kind`` and ``_k``.
    """

    __slots__ = ("kind", "_k", "_data")

    def _fill(self, kind, count, pairs):
        """Store ``count`` entries of ``kind``: the value of each ``(position,
        value)`` pair, admitted through :func:`coerce` before the next pair is
        read, and zero elsewhere; a position given twice keeps its last value.
        Exact entries go over the lcm of the kept values' denominators, which
        is the canonical form since each admitted scalar is in lowest terms."""
        if kind == GQ:
            kept = {p: coerce(v, kind) for p, v in pairs}
            values = kept.values()
            den = lcm(*{v.re.denominator for v in values}, *{v.im.denominator for v in values})
            re, im = [0] * count, [0] * count
            for p, v in kept.items():
                re[p] = v.re.numerator * (den // v.re.denominator)
                im[p] = v.im.numerator * (den // v.im.denominator)
            self.kind, self._k, self._data = kind, (den, tuple(re), tuple(im)), None
            return self
        if kind != CF64:
            raise VariantError(f"unknown scalar kind {kind!r}")
        values = [0j] * count
        for p, v in pairs:
            values[p] = coerce(v, kind)
        self.kind, self._data = kind, tuple(values)
        self._k = 1, self._data, None
        return self

    def _fill_dense(self, kind, count, data):
        """Store ``data``, all ``count`` entries in position order; returns
        ``self``.  Every value is admitted before the count is checked, so a
        wrong kind is reported before a wrong count."""
        data = list(data)
        self._fill(kind, len(data), enumerate(data))
        if len(data) != count:
            raise DimensionError(
                f"{type(self).__name__} needs {count} entries, got {len(data)}")
        return self

    @property
    def data(self) -> tuple:
        """The entries as scalars, built from ``_k`` on first read; equal exact
        values share one :class:`GaussianRational`."""
        if self._data is None:
            self._data = from_scaled(*self._k)
        return self._data

    def _cell(self, i, j, n_rows, n_cols):
        """Entry (i, j) of the row-major ``n_rows`` x ``n_cols`` layout."""
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise IndexError(f"entry ({i}, {j}) is outside {n_rows}x{n_cols}")
        return self.data[i * n_cols + j]

    def _like(self, other) -> bool:
        """Same type, kind and shape; labels are not compared."""
        return (type(other) is type(self) and self.kind == other.kind
                and self._shape(self) == other._shape(other))

    def __eq__(self, other):
        if not isinstance(other, Entries):
            return NotImplemented
        return self._like(other) and self._k == other._k


def stored(cls, kind, k, **slots):
    """``cls`` instance holding kernel-form entries ``k`` (see
    :func:`canonical`) and the given other slots."""
    k = canonical(*k)
    return trusted(cls, kind=kind, _k=k, _data=k[1] if k[2] is None else None, **slots)


def close(x: complex, y: complex, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Float comparison with relative tolerance and an absolute floor."""
    return abs(x - y) <= max(abs_tol, rel_tol * max(abs(x), abs(y)))


def data_close(a, b, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Whether two matrices, vectors or tensors have the same type, shape, kind
    and entries: equal if exact, :func:`close` ones if float."""
    if a.kind == GQ:
        return a == b
    return a._like(b) and all(close(x, y, rel_tol, abs_tol) for x, y in zip(a._k[1], b._k[1]))
