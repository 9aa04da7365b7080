import random

import pytest

from stretchkit import serialize as sz
from stretchkit.errors import ParseError
from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.jordan import JordanSpec
from stretchkit.linalg import DenseMatrix, DenseVector
from stretchkit.scalars import CF64, GQ, gq
from stretchkit.tensors import TensorVector
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
    obj = sz.matrix_to_json(m)
    back = sz.matrix_from_json(obj)
    assert back == m
    assert back.row_labels == (-1, 1) and back.col_labels == (-1, 1)
    assert obj["data"][0][0] == {"re": "1/2", "im": "0/1"}


def test_matrix_round_trip_cf64():
    m = DenseMatrix.from_rows([[1.5 + 2j, 0j], [-1j, 3.0]], CF64)
    back = sz.matrix_from_json(sz.matrix_to_json(m))
    assert back == m


def test_matrix_parse_errors_name_fields():
    with pytest.raises(ParseError, match="rows"):
        sz.matrix_from_json({"cols": 1, "scalar": "gq", "data": []})
    with pytest.raises(ParseError, match="scalar"):
        sz.matrix_from_json({"rows": 1, "cols": 1, "scalar": "f32",
                             "data": [[{"re": "1/1", "im": "0/1"}]]})
    with pytest.raises(ParseError, match=r"data\[0\]\[0\]"):
        sz.matrix_from_json({"rows": 1, "cols": 1, "scalar": "gq",
                             "data": [[{"re": "x", "im": "0/1"}]]})
    with pytest.raises(ParseError, match="cf64"):
        sz.matrix_from_json({"rows": 1, "cols": 1, "scalar": "cf64",
                             "data": [[{"re": "1/2", "im": 0}]]})


def test_vector_round_trip():
    v = DenseVector(GQ, 3, [gq(1), gq("2/3"), gq(0, -1)], labels=(-1, 0, 1))
    assert sz.vector_from_json(sz.vector_to_json(v)) == v


def test_index_set_round_trip():
    rect = IndexSet.rectangular((2, 3))
    assert sz.index_set_from_json(sz.index_set_to_json(rect)) == rect
    assert sz.index_set_to_json(rect)["kind"] == "rectangular"
    explicit = IndexSet.explicit([(-1, 2), (0, 0)])
    back = sz.index_set_from_json(sz.index_set_to_json(explicit))
    assert back == explicit and not back.is_rectangular


def test_index_map_round_trip_all_kinds():
    dom = IndexSet.rectangular((2, 2))
    maps = [IndexMap.linear(dom, (1, -1)), IndexMap.mixed_radix(dom),
            IndexMap.max_coord(dom), IndexMap.enumeration(dom),
            IndexMap.from_table(dom, {p: i % 2 for i, p in enumerate(dom.points)})]
    for f in maps:
        back = sz.index_map_from_json(sz.index_map_to_json(f), dom)
        assert back.pointwise_equal(f)
    # embedded index_set makes the file self-contained
    obj = sz.index_map_to_json(maps[0], include_index_set=True)
    assert sz.index_map_from_json(obj, None).pointwise_equal(maps[0])
    with pytest.raises(ParseError, match="index_set"):
        sz.index_map_from_json({"kind": "max"}, None)


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


def test_json_booleans_are_not_integers():
    with pytest.raises(ParseError, match="matrix.rows"):
        sz.matrix_from_json({"rows": True, "cols": True, "scalar": "gq",
                             "data": [[{"re": "1/1", "im": "0/1"}]]})
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
