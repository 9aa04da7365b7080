import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.errors import DomainError, ParseError, PermutationDomainError
from stretchkit.indexing import (IndexMap, IndexSet, Permutation, enumerate_z,
                                 enumerate_z_inverse)


def test_rectangular_canonical_order_is_mixed_radix():
    s = IndexSet.rectangular((2, 3))
    assert s.points == ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
    for pos, p in enumerate(s.points):
        assert p[0] + 2 * p[1] == pos


def test_index_set_takes_no_dims():
    # Only IndexSet.rectangular sets dims, from the points it builds.
    with pytest.raises(TypeError):
        IndexSet([(0,), (1,)], dims=(5,))
    assert IndexSet([(0,), (1,)]).dims is None
    assert IndexSet.rectangular((2, 1, 3)).dims == (2, 1, 3)


def test_explicit_sorting_matches_rectangular_order():
    rect = IndexSet.rectangular((2, 2))
    shuffled = IndexSet.explicit([(1, 1), (0, 0), (1, 0), (0, 1)])
    assert shuffled.points == rect.points
    assert shuffled == rect  # equality is pointwise


@pytest.mark.parametrize("dims", [(1,), (5,), (2, 3), (3, 1, 2), (2, 2, 1, 3)])
def test_rectangular_set_is_the_explicit_set_of_its_points(dims):
    # rectangular builds its points in canonical order without the explicit
    # checks and sort; the explicit set of the same points, given shuffled,
    # must agree with it position by position.
    points = list(itertools.product(*map(range, dims)))
    random.Random(len(points)).shuffle(points)
    rect, explicit = IndexSet.rectangular(dims), IndexSet.explicit(points)
    assert rect == explicit and rect.points == explicit.points
    assert rect.arity == explicit.arity == len(dims) and len(rect) == len(points)
    for pos, p in enumerate(explicit.points):
        assert rect.position(p) == explicit.position(p) == pos
        assert all(type(c) is int for c in rect.points[pos])
    with pytest.raises(DomainError, match=r"point \(-1,\) is not in the index set"):
        rect.position((-1,))


@pytest.mark.parametrize("dims, error, message", [
    ((), DomainError, r"rectangular dims must be positive, got \(\)"),
    ((0,), DomainError, r"rectangular dims must be positive, got \(0,\)"),
    ((2, -1), DomainError, r"rectangular dims must be positive, got \(2, -1\)"),
    ((2.0,), TypeError, "integer"),
    (("2",), TypeError, "integer"),
])
def test_rectangular_rejects_bad_dims(dims, error, message):
    with pytest.raises(error, match=message):
        IndexSet.rectangular(dims)


def test_constructor_sorts_points_like_explicit():
    # Every index set holds its points in the canonical order, however given.
    given = [(1, 0), (0, 0)]
    assert IndexSet(given) == IndexSet.explicit(given)
    assert IndexSet(given).points == ((0, 0), (1, 0))
    assert IndexSet([(0, 1), (1, 0), (0, 0)]).points == ((0, 0), (1, 0), (0, 1))
    assert IndexSet(given).position((1, 0)) == 1


def test_explicit_rejects_duplicates_and_ragged_points():
    with pytest.raises(DomainError):
        IndexSet.explicit([(0, 0), (0, 0)])
    with pytest.raises(DomainError):
        IndexSet.explicit([(0, 0), (1,)])
    with pytest.raises(DomainError):
        IndexSet.explicit([])


def test_position_outside_set_raises():
    s = IndexSet.rectangular((2, 2))
    with pytest.raises(DomainError):
        s.position((2, 0))


def test_linear_map_values():
    s = IndexSet.rectangular((2, 2))
    f = IndexMap.linear(s, (1, 1))
    assert f.value((1, 0)) == 1
    g = IndexMap.linear(s, (1, -1))
    assert g.value((1, 1)) == 0
    assert IndexMap.max_coord(s).value((0, 1)) == 1
    with pytest.raises(DomainError):
        f.value((5, 5))


def test_mixed_radix_requires_rectangular():
    explicit = IndexSet.explicit([(0, 0), (2, 1)])
    with pytest.raises(DomainError):
        IndexMap.mixed_radix(explicit)


def test_mixed_radix_image_is_full_range():
    for dims in [(2,), (3, 2), (2, 2, 2), (4, 3), (2, 1, 3, 2)]:
        s = IndexSet.rectangular(dims)
        f = IndexMap.mixed_radix(s)
        assert sorted(f.values()) == list(range(len(s)))
        assert f.is_injective()


def test_partition_groups_equal_values():
    s = IndexSet.rectangular((2, 2))
    part = IndexMap.linear(s, (1, 1)).partition()
    assert part.values == (0, 1, 2)
    assert part.members == ((0,), (1, 2), (3,))  # (0, 0); (1, 0), (0, 1); (1, 1)
    part2 = IndexMap.linear(s, (1, -1)).partition()
    assert part2.values == (-1, 0, 1)
    assert part2.members[1] == (0, 3)  # (0, 0), (1, 1)


def test_injective_partitions_are_singletons():
    s = IndexSet.rectangular((2, 3))
    part = IndexMap.mixed_radix(s).partition()
    assert len(part) == len(s)
    assert all(size == 1 for size in part.sizes)


def test_table_map_must_be_total():
    s = IndexSet.rectangular((2,))
    with pytest.raises(DomainError):
        IndexMap.from_table(s, {(0,): 1})
    with pytest.raises(DomainError, match=r"table map point \(5,\) is not in the index set"):
        IndexMap.from_table(s, {(0,): 1, (5,): 3, (1,): 2})


def test_permutation_action():
    assert Permutation.identity(2).apply((3, 7)) == (3, 7)
    assert Permutation((3, 2, 1)).apply(("a", "b", "c")) == ("c", "b", "a")
    assert Permutation((2, 1)).apply((0, 1)) == (1, 0)
    with pytest.raises(ParseError):
        Permutation((1, 3))
    with pytest.raises(DomainError):
        Permutation((2, 1)).apply((1, 2, 3))


def test_permutation_compose_and_inverse():
    s1 = Permutation((2, 3, 1))
    assert s1.compose(s1.inverse()) == Permutation.identity(3)
    s2 = Permutation((2, 1, 3))
    composed = s1.compose(s2)
    assert all(composed(s) == s1(s2(s)) for s in (1, 2, 3))


def test_compose_map_with_identity_is_pointwise_equal():
    s = IndexSet.rectangular((2, 2))
    f = IndexMap.max_coord(s)
    assert f.compose(Permutation.identity(2)).pointwise_equal(f)


def test_compose_mixed_radix_with_swap_gives_documented_table():
    s = IndexSet.rectangular((2, 2))
    f = IndexMap.mixed_radix(s).compose(Permutation((2, 1)))
    # Canonical order (0, 0), (1, 0), (0, 1), (1, 1); F(p) = p2 + 2*p1.
    assert f.values() == (0, 2, 1, 3)


def test_max_coord_is_symmetric_under_any_permutation():
    s = IndexSet.rectangular((3, 3))
    f = IndexMap.max_coord(s)
    for one_line in itertools.permutations((1, 2)):
        assert f.compose(Permutation(one_line)).pointwise_equal(f)


def test_composition_law_matches_plain_composition():
    # Composing the map with s1 then s2 equals composing once with s2 o s1.
    s = IndexSet.rectangular((2, 2, 2))
    rng = random.Random(3)
    f = IndexMap.from_table(s, {p: rng.randint(-2, 2) for p in s})
    for a in itertools.permutations((1, 2, 3)):
        for b in itertools.permutations((1, 2, 3)):
            s1, s2 = Permutation(a), Permutation(b)
            twice = f.compose(s1).compose(s2)
            once = f.compose(s2.compose(s1))
            assert twice.pointwise_equal(once)


def test_permutation_outside_domain_is_rejected():
    s = IndexSet.rectangular((2, 3))
    with pytest.raises(PermutationDomainError):
        IndexMap.mixed_radix(s).compose(Permutation((2, 1)))
    with pytest.raises(PermutationDomainError):
        IndexMap.max_coord(s).compose(Permutation((1, 2, 3)))


def test_enumeration_fixed_points():
    assert enumerate_z((0,)) == 0
    assert enumerate_z((0, 0)) == 0
    assert enumerate_z_inverse(0, 2) == (0, 0)


def test_enumeration_map_is_injective_on_windows():
    s = IndexSet.explicit([(x, y) for x in range(-2, 3) for y in range(-2, 3)])
    f = IndexMap.enumeration(s)
    assert f.is_injective()


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
def test_enumeration_round_trip(coords):
    point = tuple(coords)
    assert enumerate_z_inverse(enumerate_z(point), len(point)) == point


def test_enumeration_round_trip_dense_window():
    rng = random.Random(9)
    seen = set()
    for _ in range(1000):
        p = (rng.randint(-20, 20), rng.randint(-20, 20))
        v = enumerate_z(p)
        assert enumerate_z_inverse(v, 2) == p
        seen.add((p, v))
    values = {v for _, v in seen}
    points = {p for p, _ in seen}
    assert len(values) == len(points)


@st.composite
def index_sets(draw):
    """A small rectangular or explicit index set."""
    arity = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return IndexSet.rectangular(draw(st.lists(st.integers(1, 3), min_size=arity,
                                                  max_size=arity)))
    coords = st.tuples(*[st.integers(-3, 3)] * arity)
    return IndexSet.explicit(draw(st.lists(coords, min_size=1, max_size=12, unique=True)))


@st.composite
def table_maps(draw):
    s = draw(index_sets())
    values = draw(st.lists(st.integers(-3, 3), min_size=len(s), max_size=len(s)))
    return IndexMap.from_table(s, dict(zip(s.points, values)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(index_sets(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_constructor_values_follow_their_formulas(s, k):
    k = k[:s.arity]
    assert IndexMap.linear(s, k).values() == \
        tuple(sum(c * x for c, x in zip(k, p)) for p in s.points)
    assert IndexMap.max_coord(s).values() == tuple(max(p) for p in s.points)
    assert tuple(enumerate_z_inverse(v, s.arity)
                 for v in IndexMap.enumeration(s).values()) == s.points
    table = {p: i * i - 3 for i, p in enumerate(reversed(s.points))}
    f = IndexMap.from_table(s, table)
    assert f.values() == tuple(table[p] for p in s.points)
    assert all(f.value(p) == table[p] for p in s.points)
    if s.is_rectangular:  # canonical order is the mixed-radix order
        assert IndexMap.mixed_radix(s).values() == tuple(range(len(s)))
    else:
        with pytest.raises(DomainError):
            IndexMap.mixed_radix(s)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(table_maps(), st.permutations((1, 2, 3)))
def test_compose_is_pointwise_and_rejects_points_leaving_the_set(f, slots):
    s = f.domain
    sigma = Permutation([t for t in slots if t <= s.arity])
    images = [sigma.apply(p) for p in s.points]
    if all(q in s for q in images):
        assert f.compose(sigma).values() == tuple(f.value(q) for q in images)
    else:
        with pytest.raises(PermutationDomainError):
            f.compose(sigma)
    with pytest.raises(PermutationDomainError):
        f.compose(Permutation.identity(s.arity + 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(table_maps())
def test_partition_members_cover_each_position_once_in_order(f):
    part = f.partition()
    values = f.values()
    assert sorted(m for c in part.members for m in c) == list(range(len(f.domain)))
    assert all(list(c) == sorted(c) for c in part.members)
    assert all(a < b for a, b in zip(part.values, part.values[1:]))
    assert part.sizes == tuple(len(c) for c in part.members)
    for ci, members in enumerate(part.members):
        assert {values[m] for m in members} == {part.values[ci]}
        assert all(part.class_of_position[m] == ci for m in members)
    assert len(part) == len(set(values))


def test_index_map_holds_one_value_per_point():
    s = IndexSet.rectangular((2, 2))
    assert IndexMap(s, [5, 1, 5, 0]).partition().members == ((3,), (1,), (0, 2))
    with pytest.raises(DomainError, match="index map has 3 values for 4 points"):
        IndexMap(s, [0, 1, 2])
