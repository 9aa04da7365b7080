from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stretchkit.errors import VariantError
from stretchkit.scalars import CF64, GQ, GaussianRational, close, coerce, gq

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, fractions, fractions)


@given(gaussians, gaussians)
def test_addition_is_exactly_invertible(a, b):
    assert (a + b) - b == a


@given(gaussians, gaussians)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


@given(gaussians)
def test_components_stay_in_lowest_terms(a):
    doubled = a * 2
    assert doubled.re.denominator == Fraction(2 * a.re).denominator
    assert a.re.denominator > 0 and a.im.denominator > 0


def test_int_and_fraction_operands_are_exact():
    x = gq("3/2", "-1/3")
    assert x + 1 == gq("5/2", "-1/3")
    assert x * Fraction(2, 3) == gq(1, "-2/9")
    assert 1 - x == gq("-1/2", "1/3")


def test_complex_multiplication():
    i = gq(0, 1)
    assert i * i == gq(-1)
    assert gq(1, 2) * gq(3, -1) == gq(5, 5)
    assert gq(5, 5) / gq(3, -1) == gq(1, 2)


def test_float_operands_are_rejected():
    with pytest.raises(VariantError):
        GaussianRational(0.5)
    x = gq(1)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        x + 1j


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_kind_tagging_and_coercion():
    assert coerce(3, GQ) == gq(3)
    assert coerce(3, CF64) == 3 + 0j
    with pytest.raises(VariantError):
        coerce(gq(1), CF64)
    with pytest.raises(VariantError):
        coerce(0.5, GQ)


def test_zero_one_and_truthiness():
    assert not gq(0) and gq(1)
    assert not 0j and 1 + 0j
    assert coerce(0, GQ) == gq(0) and coerce(1, CF64) == 1 + 0j
    for value in (0, 1):
        with pytest.raises(VariantError, match="unknown scalar kind 'f32'"):
            coerce(value, "f32")


def test_str_signs_the_imaginary_part():
    assert str(gq(1, "1/2")) == "(1+1/2i)"
    assert str(gq(1, "-1/2")) == "(1-1/2i)"
    assert str(gq(0, 3)) == "(0+3i)" and str(gq("-2/3")) == "-2/3"


def test_close_uses_relative_tolerance_with_absolute_floor():
    assert close(1e6, 1e6 * (1 + 1e-10))
    assert not close(1e6, 1e6 * (1 + 1e-8))
    assert close(0.0, 1e-13)
    assert not close(0.0, 1e-11)


@given(fractions)
def test_real_values_hash_like_their_fraction(re):
    value = GaussianRational(re)
    assert hash(value) == hash(re)
    assert value in {re} and {re: "x"}[value] == "x"


def test_real_values_are_found_among_ints_and_fractions():
    assert gq(2) in {2} and {2: "x"}[gq(2)] == "x"
    assert gq(Fraction(1, 2)) in {Fraction(1, 2)}
    assert gq(2, 1) not in {2}
