"""The four workloads: seeded inputs, their operations and output checks.

A workload is built from ``(seed, scale)``.  It generates its inputs with
its own ``random.Random`` and hands the library only the generated values.
``ops()`` lists the operations of one round: each is ``(name, fn)`` and
``fn(outputs)`` makes exactly one call into the library (or runs one CLI
command), where ``outputs`` holds this round's earlier results.
``check(outputs)`` compares the results of a round with references that
``exact.py`` computes without stretchkit, and returns a list of errors.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import exact

F0 = Fraction(0)

# Workload make-up per scale.  "full" is what the benchmark measures (the
# README says why); "smoke" runs the same code paths in well under a second.
SIZES = {
    "full": {
        "algebra": {"big": (4, 4, 4), "small": (3, 3, 3)},
        "verify": {"fixed_seeds": 24, "drawn": {"kappa": (8, 4), "permutation": (12, 4),
                                                "jordan": (20, 4), "tp-witness": (8, 2)}},
        "jordan": {"nfold": (5, 6, 7)},
        "cli": {"exact": (4, 4, 4), "float": (8, 16)},
    },
    "smoke": {
        "algebra": {"big": (2, 3, 2), "small": (2, 2, 2)},
        "verify": {"fixed_seeds": 2, "drawn": {"kappa": (1, 1), "permutation": (1, 1),
                                               "jordan": (1, 1), "tp-witness": (1, 1)}},
        "jordan": {"nfold": (2, 3)},
        "cli": {"exact": (2, 2, 2), "float": (2, 4)},
    },
}


class OpError:
    """Result of an in-process operation that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"OpError({type(self.exc).__name__}: {self.exc})"


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def rand_gq(rng):
    """Own Gaussian rational: about half of the entries are non-real."""
    return (rand_fraction(rng), rand_fraction(rng) if rng.random() < 0.5 else F0)


def rand_tensor(rng, points):
    return {(pi, pj): rand_gq(rng) for pi in points for pj in points}


def rand_vector(rng, points):
    return {p: rand_gq(rng) for p in points}


def pair(v):
    return (v.re, v.im)


def matrix_dict(m):
    rl, cl, n = m.row_labels, m.col_labels, m.n_cols
    return list(rl), {(rl[i], cl[j]): pair(m.data[i * n + j])
                      for i in range(m.n_rows) for j in range(n)}


def tensor_dict(t):
    pts, n = t.domain.points, len(t.domain)
    return {(pi, pj): pair(t.data[i * n + j])
            for i, pi in enumerate(pts) for j, pj in enumerate(pts)}


def vector_dict(x):
    return {p: pair(v) for p, v in zip(x.domain.points, x.data)}


class Workload:
    name = ""

    def __init__(self, sk, seed: int, scale: str, workdir: str):
        self.sk = sk
        self.seed = seed
        self.sizes = SIZES[scale][self.name]
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def ops(self, inprocess: bool = True):
        raise NotImplementedError

    def failed(self, name, output) -> bool:
        return isinstance(output, OpError)

    def check(self, outputs) -> list:
        raise NotImplementedError

    def close(self):
        """Release files or processes the workload set up."""


class Algebra(Workload):
    """Exact stretch, act, average, kappa and convolve on large tensors."""

    name = "algebra"

    def __init__(self, sk, seed, scale, workdir):
        super().__init__(sk, seed, scale, workdir)
        rng = self.rng
        self.inputs = {}
        for tag, dims, n_table in (("big", self.sizes["big"], 8),
                                   ("small", self.sizes["small"], 6)):
            points = exact.canonical_points(dims)
            maps = {
                "lin111": ("linear", {"k": (1,) * len(dims)}),
                "lin123": ("linear", {"k": tuple(range(1, len(dims) + 1))}),
                "max": ("max", {}),
                "table": ("table", {"table": {p: rng.randrange(n_table) for p in points}}),
                "mixed-radix": ("mixed-radix", {}),
            }
            tensors = {name: rand_tensor(rng, points) for name in ("t1", "t2")}
            vector = rand_vector(rng, points)
            self.inputs[tag] = (dims, points, maps, tensors, vector)
        self.lib = {tag: self._to_library(*self.inputs[tag]) for tag in self.inputs}

    def _to_library(self, dims, points, maps, tensors, vector):
        sk = self.sk
        domain = sk.IndexSet.rectangular(dims)
        gq = sk.GaussianRational
        lib_maps = {}
        for name, (kind, kw) in maps.items():
            if kind == "linear":
                lib_maps[name] = sk.IndexMap.linear(domain, kw["k"])
            elif kind == "max":
                lib_maps[name] = sk.IndexMap.max_coord(domain)
            elif kind == "table":
                lib_maps[name] = sk.IndexMap.from_table(domain, kw["table"])
            else:
                lib_maps[name] = sk.IndexMap.mixed_radix(domain)
        order = domain.points
        lib_tensors = {name: sk.Tensor(domain, sk.GQ,
                                       [gq(*t[(pi, pj)]) for pi in order for pj in order])
                       for name, t in tensors.items()}
        lib_vector = sk.TensorVector(domain, sk.GQ, [gq(*vector[p]) for p in order])
        return lib_maps, lib_tensors, lib_vector

    def ops(self, inprocess=True):
        sk = self.sk
        ops = []
        maps, tensors, x = self.lib["big"]
        t = tensors["t1"]
        for m in maps:
            ops.append((f"stretch:{m}", lambda o, m=m: sk.stretch(t, maps[m])))
        for m in maps:
            ops.append((f"act:{m}", lambda o, m=m: sk.act(t, x, maps[m])))
        for m in maps:
            ops.append((f"average:{m}", lambda o, m=m: sk.average(t, maps[m])))
            ops.append((f"average-raw:{m}",
                        lambda o, m=m: sk.average(t, maps[m], normalized=False)))
        for m in ("lin111", "lin123", "max", "table"):
            ops.append((f"kappa:{m}", lambda o, m=m: sk.kappa(t, maps[m])))
        smaps, stensors, _ = self.lib["small"]
        a, b = stensors["t1"], stensors["t2"]
        for m in ("lin111", "lin123", "max", "table"):
            ops.append((f"convolve:{m}", lambda o, m=m: sk.convolve(a, b, smaps[m])))
        for m in ("lin123", "table"):
            ops.append((f"kappa-t1:{m}", lambda o, m=m: sk.kappa(a, smaps[m])))
            ops.append((f"kappa-t2:{m}", lambda o, m=m: sk.kappa(b, smaps[m])))
            ops.append((f"kappa-conv:{m}",
                        lambda o, m=m: sk.kappa(o[f"convolve:{m}"], smaps[m])))
        ops.append(("kappa-t1:mixed-radix", lambda o: sk.kappa(a, smaps["mixed-radix"])))
        return ops

    def _fvals(self, tag, m):
        dims, points, maps, _, _ = self.inputs[tag]
        kind, kw = maps[m]
        return exact.map_values(kind, points, dims=dims, **kw)

    def check(self, outputs):
        errors = []
        dims, points, maps, tensors, x = self.inputs["big"]
        t = tensors["t1"]
        for m in maps:
            fv = self._fvals("big", m)
            if matrix_dict(outputs[f"stretch:{m}"]) != exact.stretch(t, fv):
                errors.append(f"stretch:{m} differs from the definition")
            if vector_dict(outputs[f"act:{m}"]) != exact.act(t, x, fv, points):
                errors.append(f"act:{m} differs from the class-sum formula")
            for raw in (False, True):
                name = f"average{'-raw' if raw else ''}:{m}"
                if tensor_dict(outputs[name]) != exact.average(t, fv, points, not raw):
                    errors.append(f"{name} differs from the block {'sums' if raw else 'means'}")
        for m in ("lin111", "lin123", "max", "table"):
            labels, s = exact.stretch(t, self._fvals("big", m))
            if pair(outputs[f"kappa:{m}"]) != exact.det(labels, s):
                errors.append(f"kappa:{m} differs from the determinant of the stretch")
        sdims, spoints, _, stensors, _ = self.inputs["small"]
        a, b = stensors["t1"], stensors["t2"]
        probe_rng = random.Random(f"probe:{self.seed}")
        for m in ("lin111", "lin123", "max", "table"):
            fv = self._fvals("small", m)
            out = tensor_dict(outputs[f"convolve:{m}"])
            for _ in range(2):
                probe = {p: (Fraction(probe_rng.randint(-10 ** 6, 10 ** 6)), F0)
                         for p in spoints}
                lhs, rhs = exact.convolution_probe(out, a, b, fv, spoints, probe)
                if lhs != rhs:
                    errors.append(f"convolve:{m} fails a random-vector probe")
                    break
            labels, s_out = exact.stretch(out, fv)
            _, s_a = exact.stretch(a, fv)
            _, s_b = exact.stretch(b, fv)
            if s_out != exact.mat_mul(labels, s_a, s_b):
                errors.append(f"convolve:{m} breaks stretch(t1*t2) = stretch(t1).stretch(t2)")
        for m in ("lin123", "table"):
            fv = self._fvals("small", m)
            k1, k2, k12 = (pair(outputs[f"kappa-{w}:{m}"]) for w in ("t1", "t2", "conv"))
            if k12 != exact.mul(k1, k2):
                errors.append(f"kappa:{m} breaks kappa(t1*t2) = kappa(t1).kappa(t2)")
            for tensor, k, w in ((a, k1, "t1"), (b, k2, "t2")):
                if k != exact.det(*exact.stretch(tensor, fv)):
                    errors.append(f"kappa-{w}:{m} differs from the determinant of the stretch")
        fv = self._fvals("small", "mixed-radix")
        if pair(outputs["kappa-t1:mixed-radix"]) != exact.det(*exact.stretch(a, fv)):
            errors.append("kappa-t1:mixed-radix differs from the determinant of the stretch")
        return errors


# The check names each suite must report, as documented by the suites.
SUITE_CHECKS = {
    "homomorphism": {"matrix-homomorphism", "vector-homomorphism"},
    "associativity": {"associativity", "identity-formulas"},
    "adjoint": {"transpose-law", "star-involution", "star-anti-automorphism"},
    "kappa": {"kappa-multiplicativity", "kappa-tensor-product"},
    "averaging": {"decomposition-clauses", "idempotence", "block-constant"},
    "permutation": {"permutation-composition", "permutation-isometry",
                    "kernel-preservation"},
    "jordan": {"pair-random", "nfold-random"},
    "tp-witness": {"tp-witness"},
}
# Suites that draw their own index sets, up to 3x3x3: one 27-point instance
# costs several hundred times the median one, so suite seeds drawn from the
# workload seed would make the round time vary by more than half between
# seeds.  These run one trial on each of a fixed list of suite seeds 0..n-1.
# The other suites run ("drawn" above: trials, suite seeds) on suite seeds
# drawn from the workload seed; each of their calls costs more than any
# typical fixed-seed call, so op_p50_ms falls among the fixed-seed calls.
FIXED_SEED_SUITES = ("homomorphism", "associativity", "adjoint", "averaging")


class Verify(Workload):
    """run_suite over all eight suites on small random instances."""

    name = "verify"

    def __init__(self, sk, seed, scale, workdir):
        super().__init__(sk, seed, scale, workdir)
        self.calls = []
        for suite in SUITE_CHECKS:
            if suite in FIXED_SEED_SUITES:
                self.calls += [(suite, 1, s) for s in range(self.sizes["fixed_seeds"])]
            else:
                trials, n_seeds = self.sizes["drawn"][suite]
                self.calls += [(suite, trials, s)
                               for s in self.rng.sample(range(10 ** 6), n_seeds)]

    def ops(self, inprocess=True):
        sk = self.sk
        return [(f"{suite}:{trials}:{s}",
                 lambda o, c=(suite, trials, s): sk.run_suite(*c))
                for suite, trials, s in self.calls]

    def check(self, outputs):
        errors = []
        for suite, trials, s in self.calls:
            name = f"{suite}:{trials}:{s}"
            report = outputs[name]
            if (report.get("suite"), report.get("trials"), report.get("seed")) != (suite, trials, s):
                errors.append(f"{name}: report does not echo its suite, trials and seed")
            checks = report.get("checks", [])
            if {c.get("check") for c in checks} != SUITE_CHECKS[suite]:
                errors.append(f"{name}: unexpected check names")
            if not report.get("ok") or report.get("failed") != 0 or \
                    any(not c.get("passed") or c["details"].get("failures") for c in checks):
                errors.append(f"{name}: an identity failed")
        return errors


# Fold block structures: (size, slot) per block, where slot "e" draws a
# nonzero eigenvalue and 0 is a nilpotent block.  Dimensions 36, 48, 60.
FOLDS = (
    (((2, "e"), (1, "e")), ((2, "e"), (1, 0)), ((3, "e"), (1, "e"))),
    (((3, "e"), (1, "e")), ((2, "e"), (2, 0)), ((2, "e"), (1, "e"))),
    (((2, "e"), (1, 0)), ((3, "e"), (2, "e")), ((2, "e"), (2, "e"))),
)
SMOKE_FOLD = (((1, "e"), (1, 0)), ((2, "e"),), ((1, "e"), (1, "e")))
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class Jordan(Workload):
    """Closed-form n-fold Jordan types and oracle-certified 3-factor folds."""

    name = "jordan"

    def __init__(self, sk, seed, scale, workdir):
        super().__init__(sk, seed, scale, workdir)
        rng = self.rng
        # [J3(a) + J2(0) + J1(b)]: a and b are distinct nonzero integers.
        a = rng.choice((2, 3, 5, 7)) * rng.choice((1, -1))
        b = rng.choice((1, -1))
        self.base = [(3, (Fraction(a), F0)), (2, exact.ZERO), (1, (Fraction(b), F0))]
        self.folds = [self._draw_fold(rng, struct, exact_kind)
                      for exact_kind in ("int", "gq")
                      for struct in (FOLDS if scale == "full" else (SMOKE_FOLD,))]
        gq = sk.GaussianRational
        to_spec = lambda blocks: sk.JordanSpec([(s, gq(*e)) for s, e in blocks])
        self.lib_base = to_spec(self.base)
        self.lib_folds = [[to_spec(f) for f in specs] for specs in self.folds]
        self.lib_eigs = [[gq(*e) for e in exact.eigen_multiplicities(specs)]
                         for specs in self.folds]

    @staticmethod
    def _draw_fold(rng, struct, exact_kind):
        """Eigenvalues built on distinct primes, so no two products collide.

        Integer folds use +-p (the integer rank path); Gaussian-rational
        folds use u*p/q with a unit u and q in {2, 3} (the Fraction path).
        """
        primes = [2, 3, 5, 7, 11, 13, 17] if exact_kind == "int" else [5, 7, 11, 13, 17, 19, 23]
        rng.shuffle(primes)
        specs = []
        for factor in struct:
            blocks = []
            for size, slot in factor:
                if slot == 0:
                    blocks.append((size, exact.ZERO))
                    continue
                p = primes.pop()
                if exact_kind == "int":
                    blocks.append((size, (Fraction(p * rng.choice((1, -1))), F0)))
                else:
                    u, q = rng.choice(UNITS), rng.choice((2, 3))
                    blocks.append((size, (Fraction(p * u[0], q), Fraction(p * u[1], q))))
            specs.append(blocks)
        return specs

    def ops(self, inprocess=True):
        sk = self.sk
        ops = []
        for i, specs in enumerate(self.lib_folds):
            ops.append((f"closed:{i}", lambda o, s=specs: sk.jordan_nfold(s)))
            # Certification is one operation: the product matrix, then the oracle.
            ops.append((f"oracle:{i}", lambda o, s=specs, e=self.lib_eigs[i]:
                        sk.jordan_oracle(sk.nfold_product_matrix(s), e)))
        # Last, so that the round's other operations do not pay for garbage
        # collection passes over the 205,243 blocks of the 7-fold result.
        ops += [(f"nfold:{k}", lambda o, k=k: sk.jordan_nfold([self.lib_base] * k))
                for k in self.sizes["nfold"]]
        return ops

    @staticmethod
    def _blocks(spec):
        return [(size, pair(eig)) for size, eig in spec.blocks]

    def _check_spec(self, name, blocks, factor_specs):
        expected = exact.eigen_multiplicities(factor_specs)
        dim = 1
        for spec in factor_specs:
            dim *= sum(size for size, _ in spec)
        errors = []
        if sum(size for size, _ in blocks) != dim:
            errors.append(f"{name}: total dimension differs from the product of the factors")
        if exact.spec_multiplicities(blocks) != expected:
            errors.append(f"{name}: eigenvalue multiplicities differ from the factor specs")
        return errors

    def check(self, outputs):
        errors = []
        for k in self.sizes["nfold"]:
            errors += self._check_spec(f"nfold:{k}", self._blocks(outputs[f"nfold:{k}"]),
                                       [self.base] * k)
        for i, specs in enumerate(self.folds):
            closed = outputs[f"closed:{i}"]
            oracle = outputs[f"oracle:{i}"].spec()
            if self._blocks(closed) != self._blocks(oracle):
                errors.append(f"fold {i}: closed form differs from the rank oracle")
            errors += self._check_spec(f"closed:{i}", self._blocks(closed), specs)
            errors += self._check_spec(f"oracle:{i}", self._blocks(oracle), specs)
        return errors


# Exit codes of the CLI (the table in its module docstring).
EXIT_PREFIX = {2: "parse error:", 3: "domain error:", 4: "permutation domain error:",
               5: "scalar variant error:"}
# Commands that end with the wrong exit code today; counted as failed.
KNOWN_FAULTS = ("fault:verify-negative-trials", "fault:duplicate-entry")


CliResult = namedtuple("CliResult", "code out err")


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def value_json(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return {"re": frac_str(v[0]), "im": frac_str(v[1])}


def tensor_json(dims, kind, t):
    entries = [{"row": list(pi), "col": list(pj), "value": value_json(v)}
               for (pi, pj), v in t.items() if v != 0 and v != exact.ZERO]
    return {"index_set": {"kind": "rectangular", "dims": list(dims)},
            "scalar": kind, "entries": entries}


def vector_json(dims, x):
    return {"index_set": {"kind": "rectangular", "dims": list(dims)}, "scalar": "gq",
            "entries": [{"point": list(p), "value": value_json(v)}
                        for p, v in x.items() if v != exact.ZERO]}


def parse_value(obj, kind):
    if kind == "cf64":
        return complex(obj["re"], obj["im"])
    return (Fraction(obj["re"]), Fraction(obj["im"]))


def parse_matrix(obj):
    kind, labels = obj["scalar"], obj["row_labels"]
    if obj["col_labels"] != labels:
        raise ValueError("row and column labels differ")
    return labels, {(labels[i], labels[j]): parse_value(v, kind)
                    for i, row in enumerate(obj["data"]) for j, v in enumerate(row)}


def parse_entries(obj, points, key):
    kind = obj["scalar"]
    zero = 0j if kind == "cf64" else exact.ZERO
    out = {k: zero for k in points}
    for e in obj["entries"]:
        k = tuple(e["point"]) if key == "point" else (tuple(e["row"]), tuple(e["col"]))
        out[k] = parse_value(e["value"], kind)
    return out


def dicts_close(a, b, tol=1e-9):
    return a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= tol * max(1.0, abs(a[k]), abs(b[k])) for k in a)


class Cli(Workload):
    """``python -m stretchkit`` on JSON files, one process per command."""

    name = "cli"

    def __init__(self, sk, seed, scale, workdir):
        super().__init__(sk, seed, scale, workdir)
        rng = self.rng
        os.makedirs(workdir, exist_ok=True)
        self.src = os.path.dirname(os.path.dirname(os.path.abspath(sk.__file__)))
        dims = self.sizes["exact"]
        self.points = exact.canonical_points(dims)
        self.t = rand_tensor(rng, self.points)
        self.x = rand_vector(rng, self.points)
        self.table = {p: rng.randrange(8) for p in self.points}
        self.maps = {"lin111": ("linear", {"k": (1,) * len(dims)}),
                     "lin123": ("linear", {"k": tuple(range(1, len(dims) + 1))}),
                     "max": ("max", {}), "table": ("table", {"table": self.table})}
        fdims = self.sizes["float"]
        self.fpoints = exact.canonical_points(fdims)
        self.c1, self.c2 = ({(pi, pj): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                             for pi in self.fpoints for pj in self.fpoints}
                            for _ in range(2))
        self.fold_k = (1,) * len(fdims)
        files = {
            "t.json": tensor_json(dims, "gq", self.t),
            "x.json": vector_json(dims, self.x),
            "lin111.json": {"kind": "linear", "k": list(self.maps["lin111"][1]["k"])},
            "lin123.json": {"kind": "linear", "k": list(self.maps["lin123"][1]["k"])},
            "max.json": {"kind": "max"},
            "table.json": {"kind": "table", "pairs": [
                {"point": list(p), "value": v} for p, v in self.table.items()]},
            "c1.json": tensor_json(fdims, "cf64", self.c1),
            "c2.json": tensor_json(fdims, "cf64", self.c2),
            "fold.json": {"kind": "linear", "k": list(self.fold_k)},
        }
        files.update(self._error_inputs())
        self.expected = {name: code for name, _, code in self.commands()}
        for name, obj in files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                # json.dump would take the slow pure-Python encoder
                fh.write(obj if isinstance(obj, str) else json.dumps(obj))

    @staticmethod
    def _error_inputs():
        """Small fixed inputs for the error paths; they do not depend on the seed."""
        one = {"re": "1/1", "im": "0/1"}
        rect = lambda dims: {"kind": "rectangular", "dims": dims}
        unit = lambda dims, kind="gq", value=one: {
            "index_set": rect(dims), "scalar": kind,
            "entries": [{"row": [0] * len(dims), "col": [0] * len(dims), "value": value}]}
        bad = unit([2, 2])
        bad["entries"][0]["value"] = {"re": "one", "im": "0/1"}
        dup = unit([2, 2])
        dup["entries"].append({"row": [0, 0], "col": [0, 0],
                               "value": {"re": "2/1", "im": "0/1"}})
        return {
            "bad.json": bad,
            "dup.json": dup,
            "e22.json": unit([2, 2]),
            "e23.json": unit([2, 3]),
            "f22.json": unit([2, 2], "cf64", {"re": 1.0, "im": 0.0}),
            "v3.json": {"index_set": rect([3]), "scalar": "gq",
                        "entries": [{"point": [0], "value": one}]},
            "fv22.json": {"index_set": rect([2, 2]), "scalar": "cf64",
                          "entries": [{"point": [0, 0], "value": {"re": 1.0, "im": 0.0}}]},
            "k11.json": {"kind": "linear", "k": [1, 1]},
            "k11_33.json": {"kind": "linear", "k": [1, 1], "index_set": rect([3, 3])},
            "float_spec.json": [{"blocks": [{"size": 2, "eigenvalue": {"re": 1.5, "im": 0}}]}],
            "truncated.json": '{"index_set": {"kind": "rectangular", "dims": [2, 2]}',
        }

    def path(self, name):
        return os.path.join(self.workdir, name)

    def commands(self):
        """(name, argv, expected exit code) for one round."""
        p = self.path
        return [
            ("stretch:lin111", ["stretch", "--tensor", p("t.json"), "--map", p("lin111.json")], 0),
            ("average:max", ["average", "--tensor", p("t.json"), "--map", p("max.json")], 0),
            ("average-raw:table", ["average", "--tensor", p("t.json"), "--map",
                                   p("table.json"), "--raw"], 0),
            ("act:lin123", ["act", "--tensor", p("t.json"), "--vector", p("x.json"),
                            "--map", p("lin123.json")], 0),
            ("kappa:lin111", ["kappa", "--tensor", p("t.json"), "--map", p("lin111.json")], 0),
            ("kappa:table", ["kappa", "--tensor", p("t.json"), "--map", p("table.json")], 0),
            ("cf64-average:fold", ["average", "--tensor", p("c1.json"), "--map", p("fold.json")], 0),
            ("cf64-stretch:fold", ["stretch", "--tensor", p("c1.json"), "--map", p("fold.json")], 0),
            ("cf64-convolve:fold", ["convolve", "--left", p("c1.json"), "--right", p("c2.json"),
                                    "--map", p("fold.json")], 0),
            ("error:bad-fraction", ["stretch", "--tensor", p("bad.json"), "--map", p("k11.json")], 2),
            ("error:truncated-json", ["stretch", "--tensor", p("truncated.json"), "--map",
                                      p("k11.json")], 2),
            ("error:missing-file", ["stretch", "--tensor", p("absent.json"), "--map",
                                    p("k11.json")], 2),
            ("error:domain", ["act", "--tensor", p("e22.json"), "--vector", p("v3.json"),
                              "--map", p("k11.json")], 3),
            ("error:map-domain", ["stretch", "--tensor", p("e22.json"), "--map",
                                  p("k11_33.json")], 3),
            ("error:permutation", ["permute", "--tensor", p("e23.json"), "--map", p("k11.json"),
                                   "--sigma", "2,1"], 4),
            ("error:permutation-degree", ["permute", "--tensor", p("e22.json"), "--map",
                                          p("k11.json"), "--sigma", "1,2,3"], 4),
            ("error:mixed-kinds", ["convolve", "--left", p("e22.json"), "--right", p("f22.json"),
                                   "--map", p("k11.json")], 5),
            ("error:mixed-vector", ["act", "--tensor", p("e22.json"), "--vector", p("fv22.json"),
                                    "--map", p("k11.json")], 5),
            ("error:float-eigenvalue", ["jordan", "--spec", p("float_spec.json")], 5),
            ("fault:verify-negative-trials", ["verify", "homomorphism", "--trials", "-5"], 2),
            ("fault:duplicate-entry", ["stretch", "--tensor", p("dup.json"), "--map",
                                       p("k11.json")], 2),
        ]

    def ops(self, inprocess=False):
        run = self._run_inprocess if inprocess else self._run_process
        return [(name, lambda o, a=argv: run(a)) for name, argv, _ in self.commands()]

    def _run_process(self, argv):
        env = dict(os.environ, PYTHONPATH=self.src)
        env.pop("STRETCHKIT_SEED", None)
        proc = subprocess.run([sys.executable, "-m", "stretchkit", *argv],
                              cwd=os.path.dirname(self.src),
                              env=env, capture_output=True, text=True, timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def _run_inprocess(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.sk.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    def failed(self, name, output):
        return output.code != self.expected[name]

    def _fvals(self, m):
        kind, kw = self.maps[m]
        return exact.map_values(kind, self.points, **kw)

    def check(self, outputs):
        errors = []
        for name, result in outputs.items():
            if self.failed(name, result):
                continue
            code = self.expected[name]
            if code:
                lines = result.err.splitlines()
                if result.out or len(lines) != 1 or not lines[0].startswith(EXIT_PREFIX[code]):
                    errors.append(f"{name}: exit {code} without its one-line message")
                continue
            try:
                obj = json.loads(result.out)
            except ValueError:
                errors.append(f"{name}: stdout is not JSON")
                continue
            if result.out != json.dumps(obj, sort_keys=True, indent=2) + "\n":
                errors.append(f"{name}: output is not in canonical form")
            if not self._value_ok(name, obj):
                errors.append(f"{name}: output differs from the reference")
        return errors

    def _value_ok(self, name, obj):
        op, m = name.split(":")
        if op.startswith("cf64"):
            fv = {p: sum(c * x for c, x in zip(self.fold_k, p)) for p in self.fpoints}
            if op == "cf64-stretch":
                labels, got = parse_matrix(obj)
                ref_labels, ref = exact.stretch(self.c1, fv, exact.FLOAT)
                return labels == ref_labels and dicts_close(got, ref)
            got = parse_entries(obj, [(pi, pj) for pi in self.fpoints for pj in self.fpoints],
                                "pair")
            if op == "cf64-average":
                return dicts_close(got, exact.average(self.c1, fv, self.fpoints, True,
                                                      exact.FLOAT))
            probe_rng = random.Random(f"probe:{self.seed}")
            probe = {p: complex(probe_rng.uniform(-1, 1), 0) for p in self.fpoints}
            return dicts_close(*exact.convolution_probe(got, self.c1, self.c2, fv,
                                                        self.fpoints, probe, exact.FLOAT))
        fv = self._fvals(m)
        if op == "stretch":
            return parse_matrix(obj) == exact.stretch(self.t, fv)
        if op == "kappa":
            return parse_value(obj["value"], "gq") == exact.det(*exact.stretch(self.t, fv))
        if op == "act":
            return parse_entries(obj, self.points, "point") == \
                exact.act(self.t, self.x, fv, self.points)
        got = parse_entries(obj, [(pi, pj) for pi in self.points for pj in self.points], "pair")
        return got == exact.average(self.t, fv, self.points, normalized=(op == "average"))

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(self.path(name))
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (Algebra, Verify, Jordan, Cli)}
