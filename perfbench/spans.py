"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function in its defining module and
every other binding of it that a ``stretchkit`` module made with
``from .x import f`` (``IndexMap.partition`` is replaced on the class).
Each call records a span ``[name, start, end, parent, op]`` in memory;
``scalars.coerce`` runs once per entry, so it is only counted.
``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import functools
import os
import sys
import time

# (module, function) pairs that get a span, grouped by layer.
TRACED = (
    ("linalg", "mat_mul"), ("linalg", "mat_vec"), ("linalg", "kron"),
    ("linalg", "det"), ("linalg", "rank"), ("linalg", "inverse"),
    ("indexing", "IndexMap.partition"),
    ("tensors", "pure_tensor"), ("tensors", "convolve"), ("tensors", "act"),
    ("tensors", "average"), ("tensors", "star"),
    ("stretching", "stretch"), ("stretching", "stretch_vector"), ("stretching", "kappa"),
    ("stretching", "permute_stretch"), ("stretching", "check_tp_witness"),
    ("stretching", "verify_averaging_decomposition"),
    ("jordan", "jordan_nfold"), ("jordan", "jordan_pair"), ("jordan", "jordan_oracle"),
    ("jordan", "nfold_product_matrix"),
    ("verify", "run_suite"),
    ("serialize", "load_json_file"), ("serialize", "tensor_from_json"),
    ("serialize", "tensor_vector_from_json"), ("serialize", "index_map_from_json"),
    ("serialize", "tensor_to_json"), ("serialize", "tensor_vector_to_json"),
    ("serialize", "matrix_to_json"), ("serialize", "dumps"),
    ("cli", "main"),
)
COUNTED = (("scalars", "coerce"),)
COUNTERS = ("linalg.mat_mul.madds", "serialize.bytes_in", "serialize.bytes_out")


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [("scalars.coerce.calls", "count")]
    for module, func in TRACED:
        names += [(f"{module}.{func}.calls", "count"), (f"{module}.{func}.self_s", "s")]
    names += [(c, "count") if c.endswith("madds") else (c, "B") for c in COUNTERS]
    names += [("cli.import_s", "s"), ("trace.overhead_s", "s"), ("trace.glue_s", "s")]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.calls = {f"{m}.{f}": 0 for m, f in COUNTED}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._restore = []

    def reset(self):
        """Drop the spans and zero the counts (in place: wrappers hold them)."""
        self.spans.clear()
        for counts in (self.calls, self.counters):
            for key in counts:
                counts[key] = 0

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hooks(self, name):
        c = self.counters
        if name == "linalg.mat_mul":
            def before(args):
                a, b = args[0], args[1]
                c["linalg.mat_mul.madds"] += a.n_rows * a.n_cols * b.n_cols
            return before, None
        if name == "serialize.load_json_file":
            def before(args):
                try:
                    c["serialize.bytes_in"] += os.path.getsize(args[0])
                except OSError:
                    pass
            return before, None
        if name == "serialize.dumps":
            def after(text):
                c["serialize.bytes_out"] += len(text.encode("utf-8"))
            return None, after
        return None, None

    def install(self):
        """Wrap every traced function of the imported stretchkit modules."""
        self.reset()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stretchkit" or n.startswith("stretchkit."))]
        for module, func in TRACED + COUNTED:
            name = f"{module}.{func}"
            mod = sys.modules.get(f"stretchkit.{module}")
            if mod is None:
                continue
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._span(name, orig, *self._hooks(name)))
                continue
            orig = getattr(mod, func)
            if (module, func) in COUNTED:
                wrapped = self._counted(name, orig)
            else:
                wrapped = self._span(name, orig, *self._hooks(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def per_layer(self):
        """{metric: value} of calls, self time and counters for the spans held."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{m}.{f}.calls": self.calls.get(f"{m}.{f}", 0) for m, f in COUNTED}
        for module, func in TRACED:
            out[f"{module}.{func}.calls"] = 0
            out[f"{module}.{func}.self_s"] = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
        out.update(self.counters)
        return out

    def dump(self, path):
        """Write the spans held as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f'["{name}", {start:.9f}, {end:.9f}, {parent}, {op}]\n')
