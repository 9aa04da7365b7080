"""The package's public surface: every exported name exists, once."""
import os
import subprocess
import sys

import stretchkit


def test_every_export_resolves_and_appears_once():
    names = stretchkit.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(stretchkit, n)] == []


def test_star_import_binds_every_export():
    # A fresh interpreter, so a lazily loaded export is resolved by the import itself.
    code = ("import stretchkit; ns = {}; exec('from stretchkit import *', ns); "
            "print(sorted(set(stretchkit.__all__) - set(ns)))")
    src = os.path.dirname(os.path.dirname(stretchkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
