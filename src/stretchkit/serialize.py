"""JSON schemas for matrices, vectors, tensors, maps, sets and Jordan specs.

All output is canonical: keys sorted, two-space indent, one trailing newline,
exact values rendered as "p/q" strings in lowest terms.  :func:`dumps` gives
the text of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, but
writes a tensor, vector or Jordan type straight from its stored form, as text
equal to that of its ``*_to_json`` payload: each point list and each distinct
value or Jordan block is written once.

Parse failures raise :class:`~stretchkit.errors.ParseError` with the
offending field in the message.  Each tensor or vector entry is read once,
and only a failing entry gets the path that names it.  Within one tensor or
vector each distinct fraction string is parsed once, and each distinct
``(re, im)`` string pair gives one shared value.
"""
from __future__ import annotations

import json
import re
import sys
from cmath import isfinite
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import DimensionError, DomainError, ParseError, VariantError
from .indexing import IndexMap, IndexSet
from .jordan import JordanSpec
from .linalg import DenseMatrix, DenseVector
from .scalars import CF64, GQ, KINDS, GaussianRational, _raw
from .tensors import Tensor, TensorVector

_FRACTION_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_INT = frozenset((int,))
_NUMBER = frozenset((int, float))


def exact_text(render, *args) -> str:
    """``render(*args)``, run again with Python's int/str digit limit lifted
    for that one call if an int is past it, so output stays exact however
    large the numbers grew.  Input from outside is never parsed this way: the
    limit guards against the quadratic time of parsing huge numbers."""
    try:
        return render(*args)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return render(*args)
        finally:
            sys.set_int_max_str_digits(limit)


def fraction_to_str(f: Fraction) -> str:
    """``"p/q"`` of ``f``, in full (see :func:`exact_text`)."""
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        return exact_text("{0.numerator}/{0.denominator}".format, f)


def fraction_from_str(text, path: str) -> Fraction:
    match = _FRACTION_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise ParseError(f"{path}: expected a fraction string like \"3/4\", got {text!r}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # past Python's int/str digit limit
        raise ParseError(f"{path}: a number has more than {sys.get_int_max_str_digits()} "
                         "digits") from None
    if not den:
        raise ParseError(f"{path}: zero denominator in {text!r}")
    return Fraction(num, den)


def scalar_to_json(value, kind: str) -> dict:
    """JSON of one scalar.  Finite cf64 input can overflow, and JSON has no
    infinity or NaN, so a cf64 value that is not finite raises VariantError."""
    if kind == GQ:
        return {"re": fraction_to_str(value.re), "im": fraction_to_str(value.im)}
    if not isfinite(value):
        raise VariantError(f"cf64 result {value} is not finite; JSON cannot hold it")
    return {"re": value.real, "im": value.imag}


def scalar_from_json(obj, kind: str, path: str, memo=None):
    """The scalar of ``kind`` in ``obj``; a failure names ``path``.  A
    ``memo`` dict keeps each exact value by its ``(re, im)`` strings and each
    fraction string's Fraction, so a repeated pair shares one value and a
    repeated string is parsed once."""
    try:  # any JSON value but an object raises TypeError here
        re_part, im_part = obj["re"], obj["im"]
    except (KeyError, TypeError):
        raise ParseError(f"{path}: expected an object with \"re\" and \"im\"") from None
    if kind == GQ:
        if memo is None or type(re_part) is not str or type(im_part) is not str:
            return GaussianRational(fraction_from_str(re_part, f"{path}.re"),
                                    fraction_from_str(im_part, f"{path}.im"))
        value = memo.get((re_part, im_part))
        if value is None:
            # Both parts are Fractions in lowest terms, as _raw takes them.
            value = memo[re_part, im_part] = _raw(
                _fraction(re_part, path, ".re", memo), _fraction(im_part, path, ".im", memo))
        return value
    # Subclasses of int and float pass; JSON true/false (bool) do not.
    if (type(re_part) not in _NUMBER or type(im_part) not in _NUMBER) and (
            isinstance(re_part, bool) or isinstance(im_part, bool) or
            not isinstance(re_part, (int, float)) or not isinstance(im_part, (int, float))):
        raise ParseError(f"{path}: cf64 components must be numbers")
    try:  # json reads NaN, Infinity and 1e400 as floats; a 400-digit int overflows
        if isfinite(value := complex(re_part, im_part)):
            return value
    except OverflowError:
        pass
    raise ParseError(f"{path}: cf64 components must be finite")


def _fraction(text: str, path: str, part: str, memo: dict) -> Fraction:
    f = memo.get(text)
    if f is None:
        f = memo[text] = fraction_from_str(text, path + part)
    return f


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
        "data": [[scalar_to_json(v, m.kind) for v in row] for row in m.to_rows()],
    }
    if m.row_labels is not None:
        out["row_labels"] = list(m.row_labels)
    if m.col_labels is not None:
        out["col_labels"] = list(m.col_labels)
    return out


def vector_to_json(v: DenseVector) -> dict:
    out = {"n": v.n, "scalar": v.kind,
           "data": [scalar_to_json(x, v.kind) for x in v.data]}
    if v.labels is not None:
        out["labels"] = list(v.labels)
    return out


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


def index_map_from_json(obj, domain: IndexSet | None = None,
                        path: str = "map") -> IndexMap:
    """Bind a map payload to a domain.

    The domain normally comes from the tensor or vector it accompanies; a
    payload may also embed its own "index_set" (required when no other
    operand supplies one, e.g. for the similarity-witness command).  An
    embedded set must equal a given ``domain``.
    """
    if domain is not None and isinstance(obj, dict) and "index_set" in obj:
        if index_set_from_json(obj["index_set"], f"{path}.index_set") != domain:
            raise DomainError(
                f"{path}.index_set does not match the domain of the other operand")
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
            where = f"{path}.pairs[{i}]"
            point = tuple(_int_list(_require(pair, "point", where), f"{where}.point"))
            value = _require(pair, "value", where, int)
            if point in mapping:
                raise ParseError(f"{where}: repeats point {list(point)}")
            if point not in domain:
                raise ParseError(f"{where}.point: {list(point)} is not in the index set")
            mapping[point] = value
        return IndexMap.from_table(domain, mapping)
    raise ParseError(f"{path}.kind: unknown map kind {kind!r}")


_FIELDS = {Tensor: ("row", "col"), TensorVector: ("point",)}


def tensor_to_json(t: Tensor) -> dict:
    """Payload of a tensor or vector: each nonzero entry in canonical order,
    its points under the field names of the type.  Entries at one point share
    that point's list."""
    fields, kind = _FIELDS[type(t)], t.kind
    points = [list(p) for p in t.domain.points]
    entries = [dict(zip(fields, key), value=scalar_to_json(v, kind))
               for key, v in zip(product(points, repeat=len(fields)), t.data) if v]
    return {"index_set": index_set_to_json(t.domain), "scalar": kind, "entries": entries}


def _pair_key(entry):
    """``(row, col)`` of a tensor entry; raises naming the failing field."""
    if type(entry) is dict:
        row, col = entry.get("row"), entry.get("col")
        if type(row) is list and type(col) is list and _INT.issuperset(map(type, row + col)):
            return tuple(row), tuple(col)
    return _point(entry, "row"), _point(entry, "col")


def _point(entry, name):
    """Field ``name`` of an entry as a point, through the checks whose
    messages are relative to the entry."""
    return tuple(_int_list(_require(entry, name, ""), f".{name}"))


def _from_json(obj, cls, path):
    """The tensor or vector, as ``cls`` says, of a payload whose entries name
    their points by the fields of ``cls``; a repeated key is an error."""
    fields = _FIELDS[cls]
    # A vector has |A| entries, not |A|^2: its points take the checked path.
    key_of = _pair_key if cls is Tensor else lambda entry: (_point(entry, "point"),)
    domain = index_set_from_json(_require(obj, "index_set", path), f"{path}.index_set")
    kind = _kind(obj, path)
    memo, entries = {}, {}
    for i, entry in enumerate(_require(obj, "entries", path, list)):
        try:
            key = key_of(entry)  # a dict from here on
            value = scalar_from_json(entry["value"], kind, ".value", memo)
        except KeyError:  # only entry["value"] can raise it
            raise ParseError(f"{path}.entries[{i}]: missing field \"value\"") from None
        except ParseError as exc:
            raise ParseError(f"{path}.entries[{i}]{exc}") from None
        if key in entries:
            raise ParseError(f"{path}.entries[{i}]: repeats " + ", ".join(
                f"{name} {list(point)}" for name, point in zip(fields, key)))
        entries[key] = value
    try:  # a vector's entries are keyed by their point alone
        return cls.from_entries(domain, kind, entries if cls is Tensor else
                                {p: v for (p,), v in entries.items()})
    except DomainError as exc:
        raise _outside(exc, domain, entries, fields, path) from None


def _outside(exc, domain, entries, fields, path):
    """ParseError naming the first entry with a point outside ``domain``."""
    for i, key in enumerate(entries):
        for name, point in zip(fields, key):
            if point not in domain:
                return ParseError(f"{path}.entries[{i}].{name}: {exc}")
    return exc


def tensor_from_json(obj, path: str = "tensor") -> Tensor:
    return _from_json(obj, Tensor, path)


def tensor_vector_to_json(x: TensorVector) -> dict:
    return tensor_to_json(x)


def tensor_vector_from_json(obj, path: str = "vector") -> TensorVector:
    return _from_json(obj, TensorVector, path)


def jordan_spec_to_json(s: JordanSpec) -> dict:
    return {"blocks": [{"size": size,
                        "eigenvalue": scalar_to_json(eig, GQ)}
                       for size, eig in s.blocks]}


def jordan_spec_from_json(obj, path: str = "spec") -> JordanSpec:
    blocks = []
    for i, block in enumerate(_require(obj, "blocks", path, list)):
        size = _require(block, "size", f"{path}.blocks[{i}]", int)
        raw = _require(block, "eigenvalue", f"{path}.blocks[{i}]")
        parts = (raw.get("re"), raw.get("im")) if isinstance(raw, dict) else ()
        if any(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            # A JSON number in either part is a scalar-variant violation, not
            # a syntax error: Jordan structure is discontinuous in the eigenvalue.
            raise VariantError(f"{path}.blocks[{i}].eigenvalue: Jordan eigenvalues must be "
                               "exact fraction strings, not numbers")
        eig = scalar_from_json(raw, GQ, f"{path}.blocks[{i}].eigenvalue")
        blocks.append((size, eig))
    try:
        return JordanSpec(blocks)
    except DimensionError as exc:  # a size below 1, or no blocks
        raise ParseError(f"{path}.blocks: {exc}") from None


def jordan_spec_list_from_json(obj, path: str = "specs"):
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a nonempty array of Jordan specs")
    return [jordan_spec_from_json(item, f"{path}[{i}]") for i, item in enumerate(obj)]


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Byte for byte ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    for a tree that ``json.dumps`` takes, where a Tensor, TensorVector or
    JordanSpec stands for its ``tensor_to_json`` or ``jordan_spec_to_json``
    payload (and raises the VariantError that gives).  A dict key that is not
    a string raises ``TypeError``, as does any value ``json.dumps`` refuses.
    Subclasses of dict, list, tuple, str, int and float are written as their
    base types are.
    """
    return exact_text(_text, obj, "\n") + "\n"


def _text(obj, nl: str) -> str:
    """JSON text of ``obj``, with ``nl`` (a newline and the indent of its
    depth) between its lines: a payload from its stored form, a container
    that holds one joined here, anything else through ``json.dumps``, which
    escapes every newline inside a string: its only newlines are its own."""
    writer = _PAYLOADS.get(type(obj))
    if writer is not None:
        return writer(obj, nl)
    if not _holds_payload(obj):
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [f"{json.dumps(key)}: {_text(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return "[" + inner + ("," + inner).join([_text(value, inner) for value in obj]) + nl + "]"


def _holds_payload(obj) -> bool:
    """Whether a payload is in ``obj``.  Every dict on the way must have only
    string keys: ``json.dumps`` would write an int, float, bool or None key as
    a string."""
    if type(obj) in _PAYLOADS:
        return True
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(map(_holds_payload, obj))


def _tensor_text(t, nl: str) -> str:
    """Text of ``tensor_to_json(t)`` from ``t._k``: a template per nonzero
    entry, filled with its point texts, each written once, and its value
    text, made once per distinct exact value (float: where most repeat)."""
    i1, i2, i3, i4 = (nl + "  " * depth for depth in range(1, 5))
    points = ["[" + i4 + ("," + i4).join(map(str, p)) + i3 + "]" for p in t.domain.points]
    head, tail = f'{{{i3}"{_FIELDS[type(t)][-1]}": ', f"{i2}}}"
    rows = ([f',{i3}"row": {p},{i3}"value": ' for p in points] if type(t) is Tensor
            else [f',{i3}"value": '])
    keys = product(rows, points)  # (row text, column text) in position order
    den, re, im = t._k
    if im is None:
        def text(v):
            return f'{{{i4}"im": {v.imag!r},{i4}"re": {v.real!r}{i3}}}{tail}'
        if not all(map(isfinite, re)):  # scalar_to_json raises VariantError
            scalar_to_json(next(v for v in re if not isfinite(v)), CF64)
        # Where most values repeat (class means do), each distinct one shares
        # its text; -0.0 == 0.0, so a value with a zero part does not.
        distinct = set(re)
        texts = ({v: text(v) for v in distinct if v.real and v.imag}
                 if 2 * len(distinct) <= len(re) else {})
        entries = [f"{head}{col}{row}{texts.get(v) or text(v)}"
                   for (row, col), v in zip(keys, re) if v]
    else:
        def part(x):
            g = gcd(x, den)
            return f'"{x // g}/{den // g}"'
        texts = {pair: f'{{{i4}"im": {part(pair[1])},{i4}"re": {part(pair[0])}{i3}}}{tail}'
                 for pair in set(zip(re, im))}
        texts[0, 0] = ""
        entries = [f"{head}{col}{row}{text}" for (row, col), text in
                   zip(keys, map(texts.__getitem__, zip(re, im))) if text]
    body = f"[{i2}{f',{i2}'.join(entries)}{i1}]" if entries else "[]"
    return (f'{{{i1}"entries": {body},{i1}"index_set": '
            f'{_text(index_set_to_json(t.domain), i1)},{i1}"scalar": '
            f'{_text(t.kind, i1)}{nl}}}')


def _spec_text(s, nl: str) -> str:
    """Text of ``jordan_spec_to_json(s)``: each distinct block of ``s.counts``
    is rendered once and repeated by its count."""
    i1, i2, i3 = (nl + "  " * depth for depth in range(1, 4))
    blocks = f",{i2}".join(f",{i2}".join([
        f'{{{i3}"eigenvalue": {_text(scalar_to_json(eig, GQ), i3)},{i3}"size": '
        f'{int.__repr__(size)}{i2}}}'] * count) for (size, eig), count in s.counts)
    return f'{{{i1}"blocks": [{i2}{blocks}{i1}]{nl}}}'


_PAYLOADS = {Tensor: _tensor_text, TensorVector: _tensor_text, JordanSpec: _spec_text}


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, huge ints, deep nesting
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
