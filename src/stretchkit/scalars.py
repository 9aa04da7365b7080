"""Scalar kinds: exact Gaussian rationals ("gq") and complex doubles ("cf64").

Every matrix, vector and tensor in this package carries exactly one scalar
kind.  The two kinds never mix inside a computation; crossing them raises
:class:`~stretchkit.errors.VariantError` instead of silently degrading exact
values to floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import VariantError

GQ = "gq"
CF64 = "cf64"
KINDS = (GQ, CF64)

# Default float comparison thresholds: plenty of double-precision headroom
# for products up to a few hundred rows.
REL_TOL = 1e-9
ABS_TOL = 1e-12

_EXACT_TYPES = (int, Fraction)
_F0 = Fraction(0)


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

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        v = object.__new__(cls)
        v.re = re
        v.im = im
        return v

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _EXACT_TYPES):
            return GaussianRational._raw(Fraction(other), _F0)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational._raw(self.re * o.re, _F0)
        return GaussianRational._raw(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return GaussianRational._raw(self.re / o.re, self.im / o.re)
        d = o.re * o.re + o.im * o.im
        return GaussianRational._raw(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def abs_sq(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return f"gq({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


_ZERO = GaussianRational._raw(_F0, _F0)


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
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _EXACT_TYPES):
            return GaussianRational(value)
        raise VariantError(f"cannot place {type(value).__name__} into exact ('gq') data")
    if kind == CF64:
        if isinstance(value, GaussianRational):
            raise VariantError("cannot place exact scalar into float ('cf64') data")
        if isinstance(value, (complex, float, int)):
            return complex(value)
        raise VariantError(f"cannot place {type(value).__name__} into 'cf64' data")
    raise VariantError(f"unknown scalar kind {kind!r}")


def to_scaled(data):
    """Common-denominator form ``(den, re, im)`` of exact data: ``data[k] ==
    (re[k] + i*im[k]) / den`` with int lists and ``den`` the lcm of the
    entries' denominators (zeros have denominator 1)."""
    den = lcm(*{v.re.denominator for v in data}, *{v.im.denominator for v in data})
    return (den, [v.re.numerator * (den // v.re.denominator) for v in data],
            [v.im.numerator * (den // v.im.denominator) for v in data])


def from_scaled(den, re, im) -> tuple:
    """Inverse of :func:`to_scaled`: the tuple of ``(re[k] + i*im[k]) / den``."""
    return tuple(scaled(x, y, den) for x, y in zip(re, im))


def scaled(re: int, im: int, den: int) -> GaussianRational:
    """``(re + i*im) / den`` for ints with ``den > 0``; zero is one shared value."""
    if not (re or im):
        return _ZERO
    if den == 1:
        return GaussianRational._raw(Fraction(re), Fraction(im) if im else _F0)
    return GaussianRational._raw(Fraction(re, den), Fraction(im, den) if im else _F0)


def trusted(cls, **slots):
    """``cls`` instance with the given slots and no per-entry :func:`coerce`."""
    obj = object.__new__(cls)
    for name, value in slots.items():
        setattr(obj, name, value)
    return obj


def zero(kind: str):
    """Zero of ``kind``; an unknown kind raises :class:`VariantError`."""
    if kind == GQ:
        return _ZERO
    if kind == CF64:
        return 0j
    raise VariantError(f"unknown scalar kind {kind!r}")


def one(kind: str):
    """One of ``kind``; an unknown kind raises :class:`VariantError`."""
    if kind == GQ:
        return GaussianRational._raw(Fraction(1), _F0)
    if kind == CF64:
        return complex(1.0)
    raise VariantError(f"unknown scalar kind {kind!r}")


def close(x: complex, y: complex, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Float comparison with relative tolerance and an absolute floor."""
    return abs(x - y) <= max(abs_tol, rel_tol * max(abs(x), abs(y)))


def data_close(a, b, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Whether two matrices, vectors or tensors of the same shape hold the same
    ``kind`` and ``data``: equal entries if exact, :func:`close` ones if float."""
    if a.kind != b.kind:
        return False
    if a.kind == GQ:
        return a.data == b.data
    return all(close(x, y, rel_tol, abs_tol) for x, y in zip(a.data, b.data))
