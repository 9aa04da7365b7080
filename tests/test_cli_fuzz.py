"""Mutated tensor, vector, map and spec payloads through ``cli.main``.

Every outcome is a documented exit code: no exception escapes, and an error
exit writes exactly one stderr line and nothing to stdout.  All integers stay
small, so no mutation asks for a large index set.
"""
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.cli import main

ONE = {"re": "1/1", "im": "0/1"}
HALF = {"re": "-1/2", "im": "3/1"}
RECT = {"kind": "rectangular", "dims": [2, 2]}
EXPLICIT = {"kind": "explicit", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
PAYLOADS = {
    "t": {"index_set": RECT, "scalar": "gq", "entries": [
        {"row": [0, 0], "col": [0, 0], "value": ONE},
        {"row": [1, 0], "col": [0, 1], "value": HALF},
        {"row": [1, 1], "col": [1, 0], "value": ONE}]},
    "u": {"index_set": EXPLICIT, "scalar": "cf64", "entries": [
        {"row": [0, 1], "col": [1, 1], "value": {"re": 0.5, "im": -1.0}}]},
    "v": {"index_set": RECT, "scalar": "gq", "entries": [
        {"point": [0, 1], "value": HALF}, {"point": [1, 1], "value": ONE}]},
    "linear": {"kind": "linear", "k": [1, 1]},
    "max": {"kind": "max"},
    "mixed": {"kind": "mixed-radix"},
    "enum": {"kind": "enumeration"},
    "table": {"kind": "table", "index_set": RECT, "pairs": [
        {"point": [0, 0], "value": 2}, {"point": [1, 0], "value": 0},
        {"point": [0, 1], "value": 3}, {"point": [1, 1], "value": 1}]},
    "specs": [{"blocks": [{"size": 2, "eigenvalue": {"re": "2/1", "im": "0/1"}}]},
              {"blocks": [{"size": 1, "eigenvalue": {"re": "1/2", "im": "1/1"}},
                          {"size": 1, "eigenvalue": ONE}]}],
}
MAPS = ("linear", "max", "mixed", "enum", "table")
# (argv with {file} placeholders, the payload files it reads)
COMMANDS = [
    (["stretch", "--tensor", "{t}", "--map", "{m}"], ("t",)),
    (["stretch", "--tensor", "{u}", "--map", "{m}", "--pretty"], ("u",)),
    (["stretch-vector", "--vector", "{v}", "--map", "{m}"], ("v",)),
    (["convolve", "--left", "{t}", "--right", "{t}", "--map", "{m}"], ("t",)),
    (["convolve", "--left", "{t}", "--right", "{u}", "--map", "{m}"], ("t", "u")),
    (["act", "--tensor", "{t}", "--vector", "{v}", "--map", "{m}"], ("t", "v")),
    (["average", "--tensor", "{t}", "--map", "{m}", "--raw"], ("t",)),
    (["kappa", "--tensor", "{t}", "--map", "{m}"], ("t",)),
    (["permute", "--tensor", "{t}", "--map", "{m}", "--sigma", "2,1"], ("t",)),
    (["permute", "--tensor", "{u}", "--map", "{m}", "--sigma", "3,1,2"], ("u",)),
    (["jordan", "--spec", "{specs}", "--verify"], ("specs",)),
    (["tp-witness", "--map", "{table}"], ()),
]
REPLACEMENTS = [None, True, "x", "", "1/0", "1/2", "2/-3", "1.5/2", 0, 1, 2, -1, 1.5,
                [], {}, [0], [1, 0, 0], [[0, 1]], {"re": "1/0", "im": "0/1"},
                {"re": 1, "im": "0/1"}, {"kind": "explicit", "points": []}]


def paths(obj, path=()):
    """Every path into a JSON tree, the root included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from paths(value, path + (key,))


def mutate(obj, path, op, value):
    """``obj`` with the node at ``path`` replaced, deleted or (in a list)
    extended by one item; the root is only ever replaced."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    node, last = parent[path[-1]], path[-1]
    if op == "delete":
        del parent[last]
    elif op == "extend" and isinstance(node, list):
        node.append(node[-1] if node else value)
    else:
        parent[last] = value
    return obj


@st.composite
def cases(draw):
    argv, operands = draw(st.sampled_from(COMMANDS))
    payloads = dict(PAYLOADS, m=PAYLOADS[draw(st.sampled_from(MAPS))])
    target = draw(st.sampled_from(operands + ("m" if "{m}" in argv else "table",)))
    payload = payloads[target]
    for _ in range(draw(st.integers(1, 3))):
        payload = mutate(payload, draw(st.sampled_from(list(paths(payload)))),
                         draw(st.sampled_from(("replace", "delete", "extend"))),
                         draw(st.sampled_from(REPLACEMENTS)))
    payloads[target] = payload
    return argv, payloads


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
def test_mutated_payloads_end_in_a_documented_exit(case):
    argv, payloads = case
    with tempfile.TemporaryDirectory() as tmp:
        names = {}
        for name, payload in payloads.items():
            names[name] = os.path.join(tmp, f"{name}.json")
            with open(names[name], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.format(**names) for arg in argv])
    assert code in range(6)
    if code in (0, 1):  # a result, or the report of a failed verification
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
