"""The package's public surface: every exported name exists, once."""
import functools
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import pytest

import stretchkit
from stretchkit import (GQ, DenseMatrix, IndexMap, IndexSet, JordanSpec,
                        Permutation, enumerate_z, enumerate_z_inverse)


def test_every_export_resolves_and_appears_once():
    names = stretchkit.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(stretchkit, n)] == []


def test_readme_names_every_export_as_a_code_span():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as f:
        text = re.sub(r"^```.*?^```", "", f.read(), flags=re.S | re.M)  # fenced blocks
    spans = set(re.findall(r"`([^`\n]+)`", text))
    assert [n for n in stretchkit.__all__ if n not in spans] == []


def test_star_import_binds_every_export():
    # A fresh interpreter, so a lazily loaded export is resolved by the import itself.
    code = ("import stretchkit; ns = {}; exec('from stretchkit import *', ns); "
            "print(sorted(set(stretchkit.__all__) - set(ns)))")
    src = os.path.dirname(os.path.dirname(stretchkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


# Integer arguments are read with operator.index: a float or a string is
# refused, not truncated or parsed.
NON_INTEGER_ARGUMENTS = {
    "jordan block size": lambda: JordanSpec([(2.7, 1)]),
    "rectangular dims": lambda: IndexSet.rectangular((2.9,)),
    "explicit point": lambda: IndexSet.explicit([("1",)]),
    "index set point": lambda: IndexSet([(0.0,)]),
    "permutation": lambda: Permutation((1.5, 2)),
    "linear coefficients": lambda: IndexMap.linear(IndexSet.rectangular((2, 2)), (0.5, 1)),
    "table value": lambda: IndexMap.from_table(IndexSet.rectangular((2,)),
                                               {(0,): 1.0, (1,): 2}),
    "matrix labels": lambda: DenseMatrix(GQ, 2, 1, [1, 0], row_labels=[0.5, True]),
    "enumeration point": lambda: enumerate_z((0.5, 1.7)),
    "enumeration value": lambda: enumerate_z_inverse(2.9, 1),
}


@pytest.mark.parametrize("build", NON_INTEGER_ARGUMENTS.values(), ids=NON_INTEGER_ARGUMENTS)
def test_constructors_refuse_non_integers(build):
    with pytest.raises(TypeError):
        build()


def test_each_traced_name_is_a_distinct_function_of_its_module():
    """The benchmark's tracer wraps every binding of each traced function, so
    each (module, function) must be a function defined in that module, and no
    two names one object: an alias such as ``g = f`` would count each call to
    ``f`` in two spans."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("traced_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    seen = {}
    for module, name in spans.TRACED:
        mod = importlib.import_module(f"stretchkit.{module}")
        func = functools.reduce(getattr, name.split("."), mod)
        assert inspect.isfunction(func) and func.__module__ == mod.__name__, (module, name)
        assert seen.setdefault(func, (module, name)) == (module, name), (module, name)
