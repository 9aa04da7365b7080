import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretchkit import serialize as sz
from stretchkit.errors import DomainError, ParseError, VariantError
from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.jordan import JordanSpec
from stretchkit.linalg import DenseMatrix, DenseVector
from stretchkit.scalars import CF64, GQ, gq
from stretchkit.tensors import Tensor, TensorVector
from stretchkit.verify import rand_rect_set, rand_tensor


def test_fraction_round_trip_and_rejects():
    assert sz.fraction_to_str(sz.fraction_from_str("-6/4", "x")) == "-3/2"
    assert sz.fraction_from_str("7", "x") == 7
    for bad in ("1.5", "a/b", "1/0", None, 3):
        with pytest.raises(ParseError):
            sz.fraction_from_str(bad, "x")


def test_matrix_round_trip_gq_with_labels():
    m = DenseMatrix.from_rows([[gq("1/2"), gq(0, 1)], [gq(-3), gq(0)]], GQ,
                              row_labels=(-1, 1), col_labels=(-1, 1))
    assert sz.matrix_to_json(m) == {
        "rows": 2, "cols": 2, "scalar": "gq",
        "data": [[{"re": "1/2", "im": "0/1"}, {"re": "0/1", "im": "1/1"}],
                 [{"re": "-3/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]],
        "row_labels": [-1, 1], "col_labels": [-1, 1]}


def test_matrix_round_trip_cf64():
    m = DenseMatrix.from_rows([[1.5 + 2j, 0j], [-1j, 3.0]], CF64)
    assert sz.matrix_to_json(m) == {
        "rows": 2, "cols": 2, "scalar": "cf64",
        "data": [[{"re": 1.5, "im": 2.0}, {"re": 0.0, "im": 0.0}],
                 [{"re": 0.0, "im": -1.0}, {"re": 3.0, "im": 0.0}]]}


def test_vector_round_trip():
    v = DenseVector(GQ, 3, [gq(1), gq("2/3"), gq(0, -1)], labels=(-1, 0, 1))
    assert sz.vector_to_json(v) == {
        "n": 3, "scalar": "gq", "labels": [-1, 0, 1],
        "data": [{"re": "1/1", "im": "0/1"}, {"re": "2/3", "im": "0/1"},
                 {"re": "0/1", "im": "-1/1"}]}


def test_index_set_round_trip():
    rect = IndexSet.rectangular((2, 3))
    assert sz.index_set_from_json(sz.index_set_to_json(rect)) == rect
    assert sz.index_set_to_json(rect)["kind"] == "rectangular"
    explicit = IndexSet.explicit([(-1, 2), (0, 0)])
    back = sz.index_set_from_json(sz.index_set_to_json(explicit))
    assert back == explicit and not back.is_rectangular


def test_index_map_round_trip_all_kinds():
    dom = IndexSet.rectangular((2, 2))
    cases = [({"kind": "linear", "k": [1, -1]}, IndexMap.linear(dom, (1, -1))),
             ({"kind": "mixed-radix"}, IndexMap.mixed_radix(dom)),
             ({"kind": "max"}, IndexMap.max_coord(dom)),
             ({"kind": "enumeration"}, IndexMap.enumeration(dom)),
             ({"kind": "table", "pairs": [
                 {"point": [0, 0], "value": 0}, {"point": [1, 0], "value": 1},
                 {"point": [0, 1], "value": 0}, {"point": [1, 1], "value": 1}]},
              IndexMap.from_table(dom, {p: i % 2 for i, p in enumerate(dom.points)}))]
    for obj, f in cases:
        assert sz.index_map_from_json(obj, dom).pointwise_equal(f)
    # embedded index_set makes the file self-contained
    obj = {"kind": "linear", "k": [1, -1],
           "index_set": {"kind": "rectangular", "dims": [2, 2]}}
    assert sz.index_map_from_json(obj, None).pointwise_equal(cases[0][1])
    with pytest.raises(ParseError, match="index_set"):
        sz.index_map_from_json({"kind": "max"}, None)


def test_embedded_index_set_must_equal_a_given_domain():
    obj = {"kind": "max", "index_set": {"kind": "rectangular", "dims": [3, 3]}}
    with pytest.raises(DomainError) as info:
        sz.index_map_from_json(obj, IndexSet.rectangular((2, 2)))
    assert str(info.value) == "map.index_set does not match the domain of the other operand"
    same = IndexSet.explicit([(1, 1), (0, 0), (1, 0), (0, 1)])
    assert sz.index_map_from_json(obj | {"index_set": sz.index_set_to_json(same)},
                                  IndexSet.rectangular((2, 2))).domain == same


def test_tensor_round_trip_drops_zeros():
    rng = random.Random(1)
    dom = rand_rect_set(rng, max_arity=2)
    t = rand_tensor(rng, dom)
    obj = sz.tensor_to_json(t)
    assert all(entry["value"]["re"] != "0/1" or entry["value"]["im"] != "0/1"
               for entry in obj["entries"])
    assert sz.tensor_from_json(obj) == t


def test_tensor_vector_round_trip():
    dom = IndexSet.rectangular((2, 2))
    x = TensorVector.from_entries(dom, GQ, {(0, 1): gq("5/3")})
    obj = sz.tensor_vector_to_json(x)
    assert obj["entries"] == [{"point": [0, 1], "value": {"re": "5/3", "im": "0/1"}}]
    assert sz.tensor_vector_from_json(obj) == x


def test_tensor_entry_outside_set_is_parse_error():
    dom = sz.index_set_to_json(IndexSet.rectangular((2,)))
    obj = {"index_set": dom, "scalar": "gq",
           "entries": [{"row": [5], "col": [0],
                        "value": {"re": "1/1", "im": "0/1"}}]}
    with pytest.raises(ParseError, match="entries"):
        sz.tensor_from_json(obj)


def test_repeated_entries_are_parse_errors():
    dom = sz.index_set_to_json(IndexSet.rectangular((2,)))
    one, two = {"re": "1/1", "im": "0/1"}, {"re": "2/1", "im": "0/1"}
    tensor = {"index_set": dom, "scalar": "gq",
              "entries": [{"row": [1], "col": [0], "value": one},
                          {"row": [0], "col": [0], "value": one},
                          {"row": [1], "col": [0], "value": two}]}
    with pytest.raises(ParseError, match=r"tensor\.entries\[2\]: repeats row \[1\], col \[0\]"):
        sz.tensor_from_json(tensor)
    vector = {"index_set": dom, "scalar": "gq",
              "entries": [{"point": [1], "value": one}, {"point": [1], "value": two}]}
    with pytest.raises(ParseError, match=r"vector\.entries\[1\]: repeats point \[1\]"):
        sz.tensor_vector_from_json(vector)


def test_table_map_pairs_that_repeat_or_leave_the_set_are_parse_errors():
    dom = IndexSet.rectangular((2,))

    def table(*pairs):
        return {"kind": "table", "pairs": [{"point": p, "value": v} for p, v in pairs]}
    with pytest.raises(ParseError, match=r"^map\.pairs\[2\]: repeats point \[0\]$"):
        sz.index_map_from_json(table(([0], 1), ([1], 2), ([0], 5)), dom)
    with pytest.raises(ParseError,
                       match=r"^map\.pairs\[1\]\.point: \[5\] is not in the index set$"):
        sz.index_map_from_json(table(([0], 1), ([5], 2), ([1], 3)), dom)


def test_json_booleans_are_not_integers():
    with pytest.raises(ParseError, match=r"index_set\.dims"):
        sz.index_set_from_json({"kind": "rectangular", "dims": [True]})
    dom = IndexSet.rectangular((2,))
    with pytest.raises(ParseError, match=r"pairs\[0\]\.value"):
        sz.index_map_from_json({"kind": "table", "pairs": [
            {"point": [0], "value": False}, {"point": [1], "value": 1}]}, dom)
    with pytest.raises(ParseError, match=r"blocks\[0\]\.size"):
        sz.jordan_spec_from_json({"blocks": [{"size": True, "eigenvalue":
                                              {"re": "1/1", "im": "0/1"}}]})


def test_jordan_spec_round_trip():
    s = JordanSpec([(2, gq("1/2", "-1/3")), (1, gq(0))])
    back = sz.jordan_spec_from_json(sz.jordan_spec_to_json(s))
    assert back == s
    specs = sz.jordan_spec_list_from_json([sz.jordan_spec_to_json(s)])
    assert specs == [s]
    with pytest.raises(ParseError):
        sz.jordan_spec_list_from_json([])
    with pytest.raises(ParseError, match="blocks"):
        sz.jordan_spec_from_json({"blocks": [{"size": 0, "eigenvalue":
                                              {"re": "1/1", "im": "0/1"}}]})


def test_jordan_spec_errors_other_than_dimension_propagate(monkeypatch):
    # Only the DimensionError of a bad size or an empty block list is a parse error.
    def fail(blocks):
        raise RuntimeError("not a parse error")
    monkeypatch.setattr(sz, "JordanSpec", fail)
    with pytest.raises(RuntimeError, match="not a parse error"):
        sz.jordan_spec_from_json(sz.jordan_spec_to_json(JordanSpec.single(1, gq(0))))


def test_tensor_on_a_set_built_out_of_order_round_trips():
    domain = IndexSet([(1, 0), (0, 0)])
    t = Tensor.from_entries(domain, GQ, {((1, 0), (0, 0)): gq(2), ((0, 0), (1, 0)): gq(-1)})
    assert sz.tensor_from_json(sz.tensor_to_json(t)) == t


@pytest.mark.parametrize("value", [complex(float("inf"), 0), complex(1, float("-inf")),
                                   complex(float("nan"), 0)], ids=["inf", "-inf-im", "nan"])
def test_non_finite_cf64_value_is_not_written(value):
    with pytest.raises(VariantError, match="is not finite"):
        sz.scalar_to_json(value, CF64)
    assert sz.scalar_to_json(complex(1e308, -2.5), CF64) == {"re": 1e308, "im": -2.5}


def test_dumps_is_canonical_and_deterministic():
    obj = {"b": 1, "a": {"d": [1, 2], "c": "x"}}
    first = sz.dumps(obj)
    assert first == sz.dumps({"a": {"c": "x", "d": [1, 2]}, "b": 1})
    assert first.endswith("\n")
    assert first.index('"a"') < first.index('"b"')


def test_load_json_file_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        sz.load_json_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError, match="invalid JSON"):
        sz.load_json_file(bad)


# -- dumps against the json module -----------------------------------------

_TEXT = st.text() | st.text(alphabet="\"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600 a")
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200)
           | st.integers(-2 ** 200, -2 ** 64) | st.floats() | st.sampled_from(
               [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324])
           | _TEXT)
_TREES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=25)


def json_reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({"": [], "a": {}, "b": (), "c": [[]], "d": [{}]})
@example([1, [True, 1], [1.0, 1], [1, True], [1], [True], (1,)])
def test_dumps_matches_json_dumps_on_random_trees(obj):
    assert sz.dumps(obj) == json_reference(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers() | st.integers(2 ** 64, 2 ** 100), min_size=1, max_size=4),
       _TREES)
def test_dumps_renders_one_int_list_at_each_depth(ints, tree):
    # The same list, and equal copies of it, at four depths.
    obj = {"a": ints, "b": [ints, {"c": list(ints), "d": [tuple(ints)]}], "e": tree}
    assert sz.dumps(obj) == json_reference(obj)


def test_dumps_rejects_non_json_values_and_non_string_keys():
    for bad in ({1: 2}, {"a": {1, 2}}, [object()], b"x"):
        with pytest.raises(TypeError):
            sz.dumps(bad)


# -- tensor and vector entries: one golden message per rejected shape ---------

_ONE = {"re": "1/1", "im": "0/1"}


def _good_entry(i, vector):
    point = [i % 2, i // 2]
    return {"point": point, "value": _ONE} if vector else \
        {"row": point, "col": [0, 0], "value": _ONE}


def _entry(vector, key=None, value=_ONE, col=None):
    """Entry 3 of a payload; ``key`` is its row (tensor) or point (vector),
    and a tensor entry's col defaults to [0, 0]."""
    entry = {} if value is None else {"value": value}
    if key is not None:
        entry["point" if vector else "row"] = key
    if not vector:
        entry["col"] = [0, 0] if col is None else col
    return entry


_BAD_ENTRIES = {
    "not-a-dict": lambda v: 7,
    "missing-key": lambda v: _entry(v),
    "bool-in-key": lambda v: _entry(v, [1, True]),
    "non-list-col": lambda v: _entry(v, 3) if v else _entry(v, [1, 1], col=3),
    "missing-value": lambda v: _entry(v, [1, 1], value=None),
    "value-not-dict": lambda v: _entry(v, [1, 1], value="1/1"),
    "value-missing-im": lambda v: _entry(v, [1, 1], value={"re": "1/1"}),
    "bad-fraction": lambda v: _entry(v, [1, 1], value={"re": "1/1", "im": "1.5"}),
    "zero-denominator": lambda v: _entry(v, [1, 1], value={"re": "2/0", "im": "0/1"}),
    "outside-domain": lambda v: _entry(v, [5, 0]),
    "outside-domain-col": lambda v: _entry(v, [0]) if v else _entry(v, [1, 1], col=[0]),
    "repeated": lambda v: _good_entry(1, v),
}

# Recorded before the entry parser got its fast path.  The four domain cases
# used to read "tensor.entries: point ..." and now name the entry and field.
_GOLDEN = {
    "tensor:not-a-dict": 'tensor.entries[3]: missing field "row"',
    "tensor:missing-key": 'tensor.entries[3]: missing field "row"',
    "tensor:bool-in-key": "tensor.entries[3].row: expected an array of integers",
    "tensor:non-list-col": "tensor.entries[3].col: expected an array of integers",
    "tensor:missing-value": 'tensor.entries[3]: missing field "value"',
    "tensor:value-not-dict": 'tensor.entries[3].value: expected an object with "re" and "im"',
    "tensor:value-missing-im": 'tensor.entries[3].value: expected an object with "re" and "im"',
    "tensor:bad-fraction":
        "tensor.entries[3].value.im: expected a fraction string like \"3/4\", got '1.5'",
    "tensor:zero-denominator": "tensor.entries[3].value.re: zero denominator in '2/0'",
    "tensor:outside-domain": "tensor.entries[3].row: point (5, 0) is not in the index set",
    "tensor:outside-domain-col": "tensor.entries[3].col: point (0,) is not in the index set",
    "tensor:repeated": "tensor.entries[3]: repeats row [1, 0], col [0, 0]",
    "vector:not-a-dict": 'vector.entries[3]: missing field "point"',
    "vector:missing-key": 'vector.entries[3]: missing field "point"',
    "vector:bool-in-key": "vector.entries[3].point: expected an array of integers",
    "vector:non-list-col": "vector.entries[3].point: expected an array of integers",
    "vector:missing-value": 'vector.entries[3]: missing field "value"',
    "vector:value-not-dict": 'vector.entries[3].value: expected an object with "re" and "im"',
    "vector:value-missing-im": 'vector.entries[3].value: expected an object with "re" and "im"',
    "vector:bad-fraction":
        "vector.entries[3].value.im: expected a fraction string like \"3/4\", got '1.5'",
    "vector:zero-denominator": "vector.entries[3].value.re: zero denominator in '2/0'",
    "vector:outside-domain": "vector.entries[3].point: point (5, 0) is not in the index set",
    "vector:outside-domain-col": "vector.entries[3].point: point (0,) is not in the index set",
    "vector:repeated": "vector.entries[3]: repeats point [1, 0]",
}


def _payload(entries, scalar="gq"):
    return {"index_set": {"kind": "rectangular", "dims": [2, 2]}, "scalar": scalar,
            "entries": entries}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_rejected_entries_have_golden_messages(case):
    what, shape = case.split(":")
    vector = what == "vector"
    payload = _payload([_good_entry(i, vector) for i in range(3)]
                       + [_BAD_ENTRIES[shape](vector)])
    parse = sz.tensor_vector_from_json if vector else sz.tensor_from_json
    with pytest.raises(ParseError) as info:
        parse(payload)
    assert str(info.value) == _GOLDEN[case]


def test_rejected_cf64_entries_have_golden_messages():
    good = {"re": 1.0, "im": 0.0}
    tensor = _payload([{"row": [0, 0], "col": [0, 0], "value": good},
                       {"row": [1, 1], "col": [0, 0], "value": {"re": 1.0, "im": True}}],
                      "cf64")
    with pytest.raises(ParseError, match=r"^tensor\.entries\[1\]\.value: cf64 components "
                                         r"must be numbers$"):
        sz.tensor_from_json(tensor)
    vector = _payload([{"point": [0, 0], "value": good},
                       {"point": [1, 1], "value": {"re": "1", "im": 0}}], "cf64")
    with pytest.raises(ParseError, match=r"^vector\.entries\[1\]\.value: cf64 components"):
        sz.tensor_vector_from_json(vector)


def test_entry_checks_keep_their_order_across_entries():
    # A later parse error wins over an earlier point outside the domain, as
    # before: the domain is checked once every entry has parsed.
    payload = _payload([_entry(False, [5, 0]), _good_entry(0, False),
                        _entry(False, [1, 1], value={"re": "x", "im": "0/1"})])
    with pytest.raises(ParseError, match=r"^tensor\.entries\[2\]\.value\.re: "):
        sz.tensor_from_json(payload)


def test_entries_accept_int_subclasses_and_share_parsed_values():
    class Coord(int):
        pass
    payload = _payload([{"row": [Coord(1), 0], "col": [0, 0], "value": _ONE},
                        {"row": [0, 1], "col": [1, 1], "value": dict(_ONE)},
                        {"row": [1, 1], "col": [1, 0], "value": {"re": "-6/4", "im": "1/3"}},
                        {"row": [0, 0], "col": [1, 1], "value": dict(_ONE)}])
    t = sz.tensor_from_json(payload)
    assert t.at((1, 0), (0, 0)) == gq(1)
    assert t.at((0, 1), (1, 1)) is t.at((0, 0), (1, 1)) == gq(1)
    assert t.at((1, 1), (1, 0)) == gq("-3/2", "1/3")
    assert sz.tensor_from_json(sz.tensor_to_json(t)) == t


@pytest.mark.parametrize("parse, build", [(sz.tensor_from_json, "Tensor"),
                                          (sz.tensor_vector_from_json, "TensorVector")])
def test_only_domain_errors_become_parse_errors(monkeypatch, parse, build):
    # Anything else raised while the entries are placed is not relabelled.
    def fail(cls, *args):
        raise VariantError("not a parse error")
    monkeypatch.setattr({"Tensor": Tensor, "TensorVector": TensorVector}[build],
                        "from_entries", classmethod(fail))
    vector = build == "TensorVector"
    with pytest.raises(VariantError, match="not a parse error"):
        parse(_payload([_good_entry(0, vector)]))


def test_fraction_strings_parse_as_before():
    for text, value in (("-6/4", Fraction(-3, 2)), ("+7", Fraction(7)), ("007/010", Fraction(7, 10)),
                        ("-0/5", Fraction(0)), ("3/4\n", Fraction(3, 4)),
                        ("\u0663/\u0664", Fraction(3, 4))):
        assert sz.fraction_from_str(text, "x") == value == Fraction(text)
    for bad in ("1/-2", " 1/2", "1 /2", "1/2/3", "", "/2", "1/", "1_0/3"):
        with pytest.raises(ParseError, match="expected a fraction string"):
            sz.fraction_from_str(bad, "x")
    with pytest.raises(ParseError, match="zero denominator in '-3/00'"):
        sz.fraction_from_str("-3/00", "x")


# -- import weight ----------------------------------------------------------

def test_cli_import_does_not_load_dataclasses_or_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import stretchkit.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
