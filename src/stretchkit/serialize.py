"""JSON schemas for matrices, vectors, tensors, maps, sets and Jordan specs.

All output is canonical: keys sorted, two-space indent, one trailing newline,
exact values rendered as "p/q" strings in lowest terms.  Parse failures raise
:class:`~stretchkit.errors.ParseError` with the offending field in the
message.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError, VariantError
from .indexing import IndexMap, IndexSet
from .jordan import JordanSpec
from .linalg import DenseMatrix, DenseVector
from .scalars import GQ, KINDS, GaussianRational
from .tensors import Tensor, TensorVector

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def fraction_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fraction_from_str(text, path: str) -> Fraction:
    if not isinstance(text, str) or not _FRACTION_RE.match(text):
        raise ParseError(f"{path}: expected a fraction string like \"3/4\", got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"{path}: zero denominator in {text!r}") from None


def scalar_to_json(value, kind: str) -> dict:
    if kind == GQ:
        return {"re": fraction_to_str(value.re), "im": fraction_to_str(value.im)}
    return {"re": value.real, "im": value.imag}


def scalar_from_json(obj, kind: str, path: str):
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParseError(f"{path}: expected an object with \"re\" and \"im\"")
    if kind == GQ:
        return GaussianRational(fraction_from_str(obj["re"], f"{path}.re"),
                                fraction_from_str(obj["im"], f"{path}.im"))
    re_part, im_part = obj["re"], obj["im"]
    if isinstance(re_part, bool) or isinstance(im_part, bool) or \
            not isinstance(re_part, (int, float)) or not isinstance(im_part, (int, float)):
        raise ParseError(f"{path}: cf64 components must be numbers")
    return complex(re_part, im_part)


def _require(obj, key, path, types=None):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}: missing field \"{key}\"")
    value = obj[key]
    # JSON true/false parse as bool, a subclass of int: never a valid field.
    if types is not None and (not isinstance(value, types) or isinstance(value, bool)):
        raise ParseError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def _kind(obj, path) -> str:
    kind = _require(obj, "scalar", path, str)
    if kind not in KINDS:
        raise ParseError(f"{path}.scalar: expected one of {KINDS}, got {kind!r}")
    return kind


def _int_list(value, path):
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ParseError(f"{path}: expected an array of integers")
    return value


def matrix_to_json(m: DenseMatrix) -> dict:
    out = {
        "rows": m.n_rows,
        "cols": m.n_cols,
        "scalar": m.kind,
        "data": [[scalar_to_json(m.at(i, j), m.kind) for j in range(m.n_cols)]
                 for i in range(m.n_rows)],
    }
    if m.row_labels is not None:
        out["row_labels"] = list(m.row_labels)
    if m.col_labels is not None:
        out["col_labels"] = list(m.col_labels)
    return out


def matrix_from_json(obj, path: str = "matrix") -> DenseMatrix:
    rows = _require(obj, "rows", path, int)
    cols = _require(obj, "cols", path, int)
    kind = _kind(obj, path)
    data = _require(obj, "data", path, list)
    if len(data) != rows:
        raise ParseError(f"{path}.data: expected {rows} rows, got {len(data)}")
    flat = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{path}.data[{i}]: expected {cols} values")
        flat.extend(scalar_from_json(v, kind, f"{path}.data[{i}][{j}]")
                    for j, v in enumerate(row))
    row_labels = _int_list(obj["row_labels"], f"{path}.row_labels") \
        if "row_labels" in obj else None
    col_labels = _int_list(obj["col_labels"], f"{path}.col_labels") \
        if "col_labels" in obj else None
    return DenseMatrix(kind, rows, cols, flat, row_labels, col_labels)


def vector_to_json(v: DenseVector) -> dict:
    out = {"n": v.n, "scalar": v.kind,
           "data": [scalar_to_json(x, v.kind) for x in v.data]}
    if v.labels is not None:
        out["labels"] = list(v.labels)
    return out


def vector_from_json(obj, path: str = "vector") -> DenseVector:
    n = _require(obj, "n", path, int)
    kind = _kind(obj, path)
    data = _require(obj, "data", path, list)
    values = [scalar_from_json(x, kind, f"{path}.data[{i}]") for i, x in enumerate(data)]
    labels = _int_list(obj["labels"], f"{path}.labels") if "labels" in obj else None
    return DenseVector(kind, n, values, labels)


def index_set_to_json(s: IndexSet) -> dict:
    if s.is_rectangular:
        return {"kind": "rectangular", "dims": list(s.dims)}
    return {"kind": "explicit", "points": [list(p) for p in s.points]}


def index_set_from_json(obj, path: str = "index_set") -> IndexSet:
    kind = _require(obj, "kind", path, str)
    if kind == "rectangular":
        return IndexSet.rectangular(_int_list(_require(obj, "dims", path), f"{path}.dims"))
    if kind == "explicit":
        points = _require(obj, "points", path, list)
        return IndexSet.explicit(
            [_int_list(p, f"{path}.points[{i}]") for i, p in enumerate(points)])
    raise ParseError(f"{path}.kind: unknown index set kind {kind!r}")


def index_map_to_json(m: IndexMap, include_index_set: bool = False) -> dict:
    if m.kind == "linear":
        out = {"kind": "linear", "k": list(m.k)}
    elif m.kind == "table":
        out = {"kind": "table",
               "pairs": [{"point": list(p), "value": m.table[p]} for p in m.domain]}
    else:
        out = {"kind": m.kind}
    if include_index_set:
        out["index_set"] = index_set_to_json(m.domain)
    return out


def index_map_from_json(obj, domain: IndexSet | None = None,
                        path: str = "map") -> IndexMap:
    """Bind a map payload to a domain.

    The domain normally comes from the tensor or vector it accompanies; a
    payload may also embed its own "index_set" (required when no other
    operand supplies one, e.g. for the similarity-witness command).
    """
    kind = _require(obj, "kind", path, str)
    if domain is None:
        if "index_set" not in obj:
            raise ParseError(
                f"{path}: no domain available; embed an \"index_set\" in the map file")
        domain = index_set_from_json(obj["index_set"], f"{path}.index_set")
    if kind == "linear":
        return IndexMap.linear(domain, _int_list(_require(obj, "k", path), f"{path}.k"))
    if kind == "mixed-radix":
        return IndexMap.mixed_radix(domain)
    if kind == "max":
        return IndexMap.max_coord(domain)
    if kind == "enumeration":
        return IndexMap.enumeration(domain)
    if kind == "table":
        pairs = _require(obj, "pairs", path, list)
        mapping = {}
        for i, pair in enumerate(pairs):
            point = _int_list(_require(pair, "point", f"{path}.pairs[{i}]"),
                              f"{path}.pairs[{i}].point")
            value = _require(pair, "value", f"{path}.pairs[{i}]", int)
            mapping[tuple(point)] = value
        return IndexMap.from_table(domain, mapping)
    raise ParseError(f"{path}.kind: unknown map kind {kind!r}")


def tensor_to_json(t: Tensor) -> dict:
    n = t.size
    entries = []
    for i, pi in enumerate(t.domain.points):
        for j, pj in enumerate(t.domain.points):
            v = t.data[i * n + j]
            if v:
                entries.append({"row": list(pi), "col": list(pj),
                                "value": scalar_to_json(v, t.kind)})
    return {"index_set": index_set_to_json(t.domain), "scalar": t.kind,
            "entries": entries}


def tensor_from_json(obj, path: str = "tensor") -> Tensor:
    domain = index_set_from_json(_require(obj, "index_set", path), f"{path}.index_set")
    kind = _kind(obj, path)
    entries = {}
    for i, entry in enumerate(_require(obj, "entries", path, list)):
        row = tuple(_int_list(_require(entry, "row", f"{path}.entries[{i}]"),
                              f"{path}.entries[{i}].row"))
        col = tuple(_int_list(_require(entry, "col", f"{path}.entries[{i}]"),
                              f"{path}.entries[{i}].col"))
        value = scalar_from_json(_require(entry, "value", f"{path}.entries[{i}]"),
                                 kind, f"{path}.entries[{i}].value")
        if (row, col) in entries:
            raise ParseError(f"{path}.entries[{i}]: repeats row {list(row)}, col {list(col)}")
        entries[(row, col)] = value
    try:
        return Tensor.from_entries(domain, kind, entries)
    except Exception as exc:
        raise ParseError(f"{path}.entries: {exc}") from None


def tensor_vector_to_json(x: TensorVector) -> dict:
    entries = []
    for i, p in enumerate(x.domain.points):
        if x.data[i]:
            entries.append({"point": list(p), "value": scalar_to_json(x.data[i], x.kind)})
    return {"index_set": index_set_to_json(x.domain), "scalar": x.kind,
            "entries": entries}


def tensor_vector_from_json(obj, path: str = "vector") -> TensorVector:
    domain = index_set_from_json(_require(obj, "index_set", path), f"{path}.index_set")
    kind = _kind(obj, path)
    entries = {}
    for i, entry in enumerate(_require(obj, "entries", path, list)):
        point = tuple(_int_list(_require(entry, "point", f"{path}.entries[{i}]"),
                                f"{path}.entries[{i}].point"))
        value = scalar_from_json(_require(entry, "value", f"{path}.entries[{i}]"),
                                 kind, f"{path}.entries[{i}].value")
        if point in entries:
            raise ParseError(f"{path}.entries[{i}]: repeats point {list(point)}")
        entries[point] = value
    try:
        return TensorVector.from_entries(domain, kind, entries)
    except Exception as exc:
        raise ParseError(f"{path}.entries: {exc}") from None


def jordan_spec_to_json(s: JordanSpec) -> dict:
    return {"blocks": [{"size": size,
                        "eigenvalue": scalar_to_json(eig, GQ)}
                       for size, eig in s.blocks]}


def jordan_spec_from_json(obj, path: str = "spec") -> JordanSpec:
    blocks = []
    for i, block in enumerate(_require(obj, "blocks", path, list)):
        size = _require(block, "size", f"{path}.blocks[{i}]", int)
        raw = _require(block, "eigenvalue", f"{path}.blocks[{i}]")
        if isinstance(raw, dict) and isinstance(raw.get("re"), (int, float)) \
                and not isinstance(raw.get("re"), bool):
            # Float eigenvalues are a scalar-variant violation, not a syntax
            # error: Jordan structure is discontinuous in the eigenvalue.
            raise VariantError(
                f"{path}.blocks[{i}].eigenvalue: Jordan eigenvalues must be "
                "exact fraction strings, not floats")
        eig = scalar_from_json(raw, GQ, f"{path}.blocks[{i}].eigenvalue")
        blocks.append((size, eig))
    try:
        return JordanSpec(blocks)
    except Exception as exc:
        raise ParseError(f"{path}.blocks: {exc}") from None


def jordan_spec_list_from_json(obj, path: str = "specs"):
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a nonempty array of Jordan specs")
    return [jordan_spec_from_json(item, f"{path}[{i}]") for i, item in enumerate(obj)]


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
