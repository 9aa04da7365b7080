"""What may enter exact data: one rule for the scalar operators, `coerce` and
every array builder, and the raise sites of the public constructors."""
import operator
from fractions import Fraction

import pytest

from stretchkit import serialize as sz
from stretchkit.errors import DimensionError, DomainError, VariantError
from stretchkit.indexing import IndexSet, Permutation, enumerate_z_inverse
from stretchkit.jordan import JordanSpec, jordan_oracle, jordan_pair, spec_matrix
from stretchkit.linalg import DenseMatrix, DenseVector, permutation_matrix, square_matrix
from stretchkit.scalars import CF64, GQ, GaussianRational, coerce, gq
from stretchkit.tensors import Tensor, TensorVector, identity_tensor, pure_tensor

# Reference arithmetic on (re, im) Fraction pairs.
REFERENCE = {
    operator.add: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    operator.sub: lambda a, b: (a[0] - b[0], a[1] - b[1]),
    operator.mul: lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
    operator.truediv: lambda a, b: ((a[0] * b[0] + a[1] * b[1]) / (b[0] ** 2 + b[1] ** 2),
                                    (a[1] * b[0] - a[0] * b[1]) / (b[0] ** 2 + b[1] ** 2)),
    operator.eq: lambda a, b: a == b,
}
LEFTS = (gq("3/2", "-1/3"), gq(2))
EXACT_OPERANDS = (gq("-2/5", "7/4"), gq(2), 2, -7, Fraction(5, 6), Fraction(2))
INEXACT_OPERANDS = (0.5, 2.0, 1j, 2 + 0j, "x")


def pair(v):
    return (v.re, v.im) if isinstance(v, GaussianRational) else (Fraction(v), Fraction(0))


@pytest.mark.parametrize("op", list(REFERENCE), ids=lambda op: op.__name__)
@pytest.mark.parametrize("other", EXACT_OPERANDS, ids=repr)
def test_every_operator_on_both_sides_matches_fraction_pairs(op, other):
    for x in LEFTS:
        for a, b in ((x, other), (other, x)):
            got, want = op(a, b), REFERENCE[op](pair(a), pair(b))
            if op is operator.eq:
                assert got is want and (a != b) is (not want)
            else:
                assert type(got) is GaussianRational and (got.re, got.im) == want
                assert type(got.re) is Fraction and type(got.im) is Fraction


@pytest.mark.parametrize("other", INEXACT_OPERANDS, ids=repr)
def test_inexact_operands_are_refused_on_both_sides(other):
    x = gq(2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert not x == other and not other == x and x != other and other != x
    with pytest.raises(VariantError, match="into exact"):
        coerce(other, GQ)


def test_division_of_an_int_and_unary_plus():
    assert 2 / gq(3) == gq(Fraction(2, 3)) and 1 / gq(0, 1) == gq(0, -1)
    x = gq("3/2", "-1/3")
    assert +x is x and -x == gq("-3/2", "1/3")
    assert hash(gq(3)) == hash(Fraction(3)) == hash(3) and gq(1) != "1"


LINE, QUAD = IndexSet.rectangular((2,)), IndexSet.rectangular((4,))
BUILDERS = {
    "DenseMatrix": lambda kind, vs: DenseMatrix(kind, 2, 2, vs),
    "DenseMatrix.from_rows": lambda kind, vs: DenseMatrix.from_rows([vs[:2], vs[2:]], kind),
    "DenseVector": lambda kind, vs: DenseVector(kind, 4, vs),
    "Tensor": lambda kind, vs: Tensor(LINE, kind, vs),
    "TensorVector": lambda kind, vs: TensorVector(QUAD, kind, vs),
    "Tensor.from_entries": lambda kind, vs: Tensor.from_entries(
        LINE, kind, dict(zip([(p, q) for p in LINE.points for q in LINE.points], vs))),
    "TensorVector.from_entries": lambda kind, vs: TensorVector.from_entries(
        QUAD, kind, dict(zip(QUAD.points, vs))),
    "square_matrix": lambda kind, vs: square_matrix(kind, 2, enumerate(vs)),
}
FORMS = {
    GQ: ([1, 0, -2, 3], [Fraction(1), Fraction(0), Fraction(-2), Fraction(3)],
         [gq(1), gq(0), gq(-2), gq(3)], [True, Fraction(0), gq(-2), 3]),
    CF64: ([1, 0, -2, 3], [1.0, 0.0, -2.0, 3.0], [1 + 0j, 0j, -2 + 0j, 3 + 0j], [1, 0.0, -2, 3j]),
}


@pytest.mark.parametrize("kind", [GQ, CF64])
@pytest.mark.parametrize("name", list(BUILDERS))
def test_every_builder_stores_one_form_for_each_way_of_writing_a_value(name, kind):
    build = BUILDERS[name]
    first, *others = [build(kind, list(vs)) for vs in FORMS[kind][:3]]
    for other in others:
        assert other == first and other._k == first._k
    entry = complex if kind == CF64 else GaussianRational
    assert all(type(v) is entry for v in first.data)
    mixed = build(kind, FORMS[kind][3])
    assert mixed.kind == kind and all(type(v) is entry for v in mixed.data)
    if kind == GQ:
        assert mixed == first


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("bad", [0.5, 1.0, 1j, "x"], ids=repr)
def test_every_builder_refuses_an_inexact_value_in_exact_data(name, bad):
    with pytest.raises(VariantError, match="into exact"):
        BUILDERS[name](GQ, [1, bad, 0, 0])


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("bad", [gq(1), "x"], ids=repr)
def test_every_builder_refuses_an_exact_or_foreign_value_in_float_data(name, bad):
    with pytest.raises(VariantError):
        BUILDERS[name](CF64, [1, bad, 0, 0])


@pytest.mark.parametrize("kind", [GQ, CF64])
def test_unit_builders_equal_the_arrays_of_int_ones(kind):
    ones = [0, 0, 1, 1, 0, 0, 0, 1, 0]
    assert permutation_matrix([1, 2, 0], kind) == DenseMatrix(kind, 3, 3, ones)
    assert DenseMatrix.identity(2, kind) == DenseMatrix(kind, 2, 2, [1, 0, 0, 1])
    assert identity_tensor(LINE, kind) == Tensor(LINE, kind, [1, 0, 0, 1])
    entry = complex if kind == CF64 else GaussianRational
    assert all(type(v) is entry for v in permutation_matrix([1, 0], kind).data)


def test_square_matrix_admits_its_values():
    assert square_matrix(GQ, 1, [(0, 1)]) == DenseMatrix(GQ, 1, 1, [1])
    with pytest.raises(VariantError, match="cannot place float into exact"):
        square_matrix(GQ, 1, [(0, 0.5)])
    m = square_matrix(CF64, 1, [(0, 1)])
    assert m.data == (1 + 0j,) and type(m.data[0]) is complex
    assert sz.matrix_to_json(m)["data"] == [[{"re": 1.0, "im": 0.0}]]
    assert '"re": 1.0' in sz.dumps(sz.matrix_to_json(m))


@pytest.mark.parametrize("kind", [GQ, CF64])
def test_a_repeated_position_keeps_its_last_value_in_the_stored_form(kind):
    # The replaced value's denominator must not reach the stored form.
    first = Fraction(1, 3) if kind == GQ else 0.5
    got = square_matrix(kind, 2, [(0, first), (3, 2), (0, 1), (1, first), (1, 0)])
    want = DenseMatrix(kind, 2, 2, [1, 0, 0, 2])
    assert got == want and got._k == want._k and got.data == want.data
    # A replaced value is still admitted before the next pair is read.
    with pytest.raises(VariantError, match="cannot place"):
        square_matrix(kind, 1, [(0, "x"), (0, 1)])


def test_errors_keep_their_order_across_entries():
    inside, outside = (0,), (9,)
    # Each entry is placed and admitted before the next one is read.
    with pytest.raises(VariantError):
        TensorVector.from_entries(LINE, GQ, {inside: 0.5, outside: 1})
    with pytest.raises(DomainError):
        TensorVector.from_entries(LINE, GQ, {outside: 1, inside: 0.5})
    with pytest.raises(VariantError):
        Tensor.from_entries(LINE, GQ, {(inside, inside): 0.5, (inside, outside): 1})
    # An entry with both faults reports its outside point.
    with pytest.raises(DomainError):
        Tensor.from_entries(LINE, GQ, {(outside, inside): 0.5})
    with pytest.raises(VariantError, match="unknown scalar kind"):
        TensorVector.from_entries(LINE, "f32", {outside: 1})
    # A dense constructor reports a wrong kind before a wrong entry count.
    for build in (lambda: DenseMatrix(GQ, 2, 2, [0.5]), lambda: Tensor(LINE, GQ, [0.5]),
                  lambda: DenseMatrix("f32", 2, 2, [1])):
        with pytest.raises(VariantError):
            build()
    with pytest.raises(DimensionError, match="needs 4 entries, got 1"):
        Tensor(LINE, GQ, [1])


RAISE_SITES = [
    (lambda: IndexSet.rectangular(()), DomainError, "rectangular dims must be positive"),
    (lambda: IndexSet.rectangular((0,)), DomainError, "got (0,)"),
    (lambda: Permutation((1, 2)).compose(Permutation((1, 2, 3))), DomainError,
     "different degrees"),
    (lambda: enumerate_z_inverse(0, 0), DomainError, "arity must be at least 1"),
    (lambda: jordan_pair(0, 1, 1, 1), DimensionError, "cell sizes must be positive"),
    (lambda: jordan_oracle(spec_matrix(JordanSpec([(1, gq(2))])), [gq(2)]).weyr(3),
     DomainError, "oracle was not run for eigenvalue 3"),
    (lambda: DenseMatrix(GQ, 1, 2, [1, 2], row_labels=[0, 1]), DimensionError,
     "row_labels has 2 labels for 1 entries"),
    (lambda: DenseMatrix(GQ, 0, 2, []), DimensionError, "dimensions must be positive"),
    (lambda: DenseMatrix.from_rows([], GQ), DimensionError, "at least one row"),
    (lambda: DenseMatrix.from_rows([[1, 2], [3]], GQ), DimensionError, "ragged rows"),
    (lambda: square_matrix(GQ, 0, []), DimensionError, "dimensions must be positive"),
    (lambda: DenseVector(GQ, 0, []), DimensionError, "vector length must be positive"),
    (lambda: permutation_matrix([0, 0]), DimensionError, "permutation of 0..n-1"),
    (lambda: coerce("x", CF64), VariantError, "cannot place str into 'cf64' data"),
    (lambda: pure_tensor([]), DomainError, "at least one factor"),
]


@pytest.mark.parametrize("call, error, fragment", RAISE_SITES)
def test_public_raise_site(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
