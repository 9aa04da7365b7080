"""Command-line front end.

Subcommands: stretch, stretch-vector, convolve, act, average, kappa, permute,
jordan, tp-witness, verify.  Inputs and outputs are JSON; ``--pretty`` prints
matrices, Jordan types and suite reports as text.  Exit codes: 0 success,
1 verification failure, 2 parse error, 3 domain mismatch, 4 permutation
outside the index set, 5 scalar-variant error.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

from . import serialize as sz
from .errors import (DimensionError, DomainError, ParseError,
                     PermutationDomainError, VariantError)
from .indexing import Permutation
from .jordan import JordanSpec, jordan_nfold, nfold_oracle
from .scalars import GQ
from .stretching import (check_tp_witness, kappa, permute_stretch, stretch,
                         stretch_vector, tp_similarity_witness)
from .tensors import act, average, convolve
from .verify import SUITE_NAMES, run_suite, suite_error

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_PERMUTATION = 4
EXIT_VARIANT = 5


def _default_seed() -> int:
    text = os.environ.get("STRETCHKIT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"STRETCHKIT_SEED must be an integer, got {text!r}") from None


# Each flag: its argparse name and options; the two --map flags differ in help only.
_FLAGS = {
    "tensor": ("--tensor", {"required": True, "help": "tensor JSON path"}),
    "left": ("--left", {"required": True, "help": "left tensor JSON path"}),
    "right": ("--right", {"required": True, "help": "right tensor JSON path"}),
    "vector": ("--vector", {"required": True, "help": "vector JSON path"}),
    "map": ("--map", {"required": True, "dest": "map_path", "help": "index map JSON path"}),
    "witness-map": ("--map", {"required": True, "dest": "map_path",
                              "help": "map JSON path (must embed its index_set)"}),
    "raw": ("--raw", {"action": "store_true",
                      "help": "unnormalized averaging (block sums, not means)"}),
    "sigma": ("--sigma", {"required": True,
                          "help": "slot permutation in one-line notation, e.g. \"2,1\""}),
    "spec": ("--spec", {"required": True, "help": "JSON array of Jordan specs"}),
    "verify": ("--verify", {"action": "store_true",
                            "help": "certify the closed form with the rank oracle"}),
    "suite": ("suite", {"help": f"one of: {', '.join(SUITE_NAMES)}"}),
    "trials": ("--trials", {"type": int, "default": 100}),
    "seed": ("--seed", {"type": int, "help": "defaults to $STRETCHKIT_SEED, then 0"}),
    "out": ("--out", {"help": "output path (default: stdout)"}),
    "pretty": ("--pretty", {"action": "store_true",
                            "help": "print a matrix as a table, a Jordan type as blocks and a "
                                    "suite report as lines; other output stays JSON"}),
}


def _jordan(args):
    specs = sz.jordan_spec_list_from_json(sz.load_json_file(args.spec), path="specs")
    result = jordan_nfold(specs)
    if not args.verify:
        return result, True
    oracle_spec = nfold_oracle(specs)
    agree = result == oracle_spec
    return {"closed_form": result, "oracle": oracle_spec, "agree": agree}, agree


def _tp_witness(args, fmap):
    witness = tp_similarity_witness(fmap)
    verified = check_tp_witness(fmap, witness)
    report = {
        "index_set": sz.index_set_to_json(fmap.domain),
        "permutation": list(witness.perm),
        "matrix": sz.matrix_to_json(witness.matrix),
        "checked_units": len(fmap.domain) ** 2,
        "verified": verified,
    }
    return report, verified


def _verify(args):
    error = suite_error(args.suite, args.trials)
    if error:
        raise ParseError(error)
    seed = args.seed if args.seed is not None else _default_seed()
    report = run_suite(args.suite, args.trials, seed)
    return report, report["ok"]


# Each command: help, flags in order (keys of _FLAGS; every command also takes
# --out and --pretty) and a run from (args, *operands, map) to the output (a
# JSON tree, or a tensor or Jordan type that sz.dumps writes) and whether it
# verified.  A run is a lambda or a function of this module, so it looks
# library functions up per call and sees functions a tracer swaps.
_COMMANDS = {
    "stretch": ("stretch a tensor to a labelled matrix", ("tensor", "map"), lambda args, t, m: (
        sz.matrix_to_json(stretch(t, m)), True)),
    "stretch-vector": ("stretch a vector", ("vector", "map"), lambda args, v, m: (
        sz.vector_to_json(stretch_vector(v, m)), True)),
    "convolve": ("convolution product of two tensors", ("left", "right", "map"),
                 lambda args, a, b, m: (convolve(a, b, m), True)),
    "act": ("act with a tensor on a vector", ("tensor", "vector", "map"), lambda args, t, v, m: (
        act(t, v, m), True)),
    "average": ("class-averaging of a tensor", ("tensor", "map", "raw"), lambda args, t, m: (
        average(t, m, normalized=not args.raw), True)),
    "kappa": ("determinant of the stretched matrix", ("tensor", "map"), lambda args, t, m: (
        {"scalar": t.kind, "value": sz.scalar_to_json(kappa(t, m), t.kind)}, True)),
    "permute": ("stretch through a permuted map", ("tensor", "map", "sigma"), lambda args, t, m: (
        sz.matrix_to_json(permute_stretch(t, m, Permutation.from_string(args.sigma))), True)),
    "jordan": ("Jordan type of an n-fold stretched product", ("spec", "verify"), _jordan),
    "tp-witness": ("similarity witness for an injective map", ("witness-map",), _tp_witness),
    "verify": ("run a seeded verification suite", ("suite", "trials", "seed"), _verify),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every subcommand gets its name and help, but
    only those named in ``argv`` get their flags: argparse runs at most one."""
    parser = argparse.ArgumentParser(
        prog="stretchkit",
        description="Stretching maps, tensor convolution, class averaging and "
                    "Jordan forms of stretched Kronecker products.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in named:
            for spelling, options in (_FLAGS[f] for f in (*flags, "out", "pretty")):
                p.add_argument(spelling, **options)
    return parser


def _cell(value, kind) -> str:
    """Text of one entry of a matrix this command wrote as JSON; a canonical
    ``"p/q"`` string prints as ``str`` of its Fraction does."""
    re, im = value["re"], value["im"]
    if kind != GQ:
        return f"{re:.6g}{im:+.6g}i" if im else f"{re:.6g}"
    re, im = (x[:-2] if x.endswith("/1") else x for x in (re, im))
    if im == "0":
        return re
    return f"({re}{'-' if im[0] == '-' else '+'}{im.lstrip('-')}i)"


def _pretty_matrix(obj) -> str:
    cells = [[_cell(v, obj["scalar"]) for v in row] for row in obj["data"]]
    col_labels = obj.get("col_labels", list(range(obj["cols"])))
    row_labels = obj.get("row_labels", list(range(obj["rows"])))
    widths = [max(len(str(col_labels[j])),
                  max(len(cells[i][j]) for i in range(len(cells))))
              for j in range(len(col_labels))]
    label_w = max(len(str(r)) for r in row_labels)
    lines = [" " * (label_w + 2)
             + "  ".join(str(c).rjust(w) for c, w in zip(col_labels, widths))]
    for lab, row in zip(row_labels, cells):
        lines.append(str(lab).rjust(label_w) + " |"
                     + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _pretty(obj) -> str:
    if isinstance(obj, dict) and {"rows", "cols", "data"} <= obj.keys():
        return _pretty_matrix(obj)
    if isinstance(obj, JordanSpec):  # each distinct block's text once, repeated by its count
        return " + ".join(" + ".join([f"J{size}({_cell(sz.scalar_to_json(eig, GQ), GQ)})"] * count)
                          for (size, eig), count in obj.counts) + "\n"
    if isinstance(obj, dict) and "checks" in obj:
        lines = [f"suite {obj['suite']} (seed {obj['seed']}, trials {obj['trials']})"]
        for check in obj["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"  {status}  {check['check']}  {check['details']}")
        lines.append("OK" if obj["ok"] else "FAILED")
        return "\n".join(lines) + "\n"
    return sz.dumps(obj)


def _emit(obj, out_path, pretty: bool) -> None:
    text = sz.exact_text(_pretty, obj) if pretty else sz.dumps(obj)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _run(args):
    """Load the operands in flag order, then the map on the first one's domain
    (a map without operands embeds its own); the run's output and verdict."""
    _, flags, run = _COMMANDS[args.command]
    loaded = [sz.tensor_vector_from_json(sz.load_json_file(args.vector), path="vector")
              if flag == "vector" else
              sz.tensor_from_json(sz.load_json_file(getattr(args, flag)), path="tensor")
              for flag in flags if flag in ("tensor", "left", "right", "vector")]
    if "map_path" in args:
        loaded.append(sz.index_map_from_json(sz.load_json_file(args.map_path),
                                             loaded[0].domain if loaded else None,
                                             path="map"))
    return run(args, *loaded)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    # A command builds large acyclic JSON trees and tensors, which the cyclic
    # collector would only traverse again and again; refcounting frees them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        obj, verified = _run(args)
        _emit(obj, args.out, args.pretty)
        return EXIT_OK if verified else EXIT_VERIFY
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PermutationDomainError as exc:
        print(f"permutation domain error: {exc}", file=sys.stderr)
        return EXIT_PERMUTATION
    except (DomainError, DimensionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VariantError as exc:
        print(f"scalar variant error: {exc}", file=sys.stderr)
        return EXIT_VARIANT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
