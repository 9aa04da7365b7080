"""Command-line front end.

Subcommands: stretch, stretch-vector, convolve, act, average, kappa, permute,
jordan, tp-witness, verify.  Inputs and outputs are JSON; ``--pretty`` prints
human-readable tables instead.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 domain mismatch, 4 permutation outside the index
set, 5 scalar-variant error.
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
from .jordan import jordan_nfold, jordan_oracle, nfold_eigenvalues, nfold_product_matrix
from .scalars import GQ
from .stretching import (check_tp_witness, kappa, permute_stretch, stretch,
                         stretch_vector, tp_similarity_witness)
from .tensors import act, average, convolve
from .verify import SUITE_NAMES, min_trials, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_PERMUTATION = 4
EXIT_VARIANT = 5


def _default_seed() -> int:
    try:
        return int(os.environ.get("STRETCHKIT_SEED", "0"))
    except ValueError:
        return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchkit",
        description="Stretching maps, tensor convolution, class averaging and "
                    "Jordan forms of stretched Kronecker products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, *, tensor=False, left_right=False, vector=False, fmap=False,
                 spec=False, sigma=False, raw=False):
        if tensor:
            p.add_argument("--tensor", required=True, help="tensor JSON path")
        if left_right:
            p.add_argument("--left", required=True, help="left tensor JSON path")
            p.add_argument("--right", required=True, help="right tensor JSON path")
        if vector:
            p.add_argument("--vector", required=True, help="vector JSON path")
        if fmap:
            p.add_argument("--map", required=True, dest="map_path",
                           help="index map JSON path")
        if spec:
            p.add_argument("--spec", required=True, help="Jordan spec list JSON path")
        if sigma:
            p.add_argument("--sigma", required=True,
                           help="slot permutation in one-line notation, e.g. \"2,1\"")
        if raw:
            p.add_argument("--raw", action="store_true",
                           help="unnormalized averaging (block sums, not means)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")

    io_flags(sub.add_parser("stretch", help="stretch a tensor to a labelled matrix"),
             tensor=True, fmap=True)
    io_flags(sub.add_parser("stretch-vector", help="stretch a vector"),
             vector=True, fmap=True)
    io_flags(sub.add_parser("convolve", help="convolution product of two tensors"),
             left_right=True, fmap=True)
    io_flags(sub.add_parser("act", help="act with a tensor on a vector"),
             tensor=True, vector=True, fmap=True)
    io_flags(sub.add_parser("average", help="class-averaging of a tensor"),
             tensor=True, fmap=True, raw=True)
    io_flags(sub.add_parser("kappa", help="determinant of the stretched matrix"),
             tensor=True, fmap=True)
    io_flags(sub.add_parser("permute", help="stretch through a permuted map"),
             tensor=True, fmap=True, sigma=True)

    jordan_p = sub.add_parser("jordan", help="Jordan type of an n-fold stretched product")
    jordan_p.add_argument("--spec", required=True, help="JSON array of Jordan specs")
    jordan_p.add_argument("--verify", action="store_true",
                          help="certify the closed form with the rank oracle")
    jordan_p.add_argument("--out", help="output path (default: stdout)")
    jordan_p.add_argument("--pretty", action="store_true")

    witness_p = sub.add_parser("tp-witness",
                               help="similarity witness for an injective map")
    witness_p.add_argument("--map", required=True, dest="map_path",
                           help="map JSON path (must embed its index_set)")
    witness_p.add_argument("--out", help="output path (default: stdout)")
    witness_p.add_argument("--pretty", action="store_true")

    verify_p = sub.add_parser("verify", help="run a seeded verification suite")
    verify_p.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=None,
                          help="defaults to $STRETCHKIT_SEED, then 0")
    verify_p.add_argument("--out", help="output path (default: stdout)")
    verify_p.add_argument("--pretty", action="store_true")
    return parser


def _fmt_scalar(value, kind) -> str:
    if kind == GQ:
        return str(value)
    return f"{value.real:.6g}{value.imag:+.6g}i" if value.imag else f"{value.real:.6g}"


def _pretty_matrix(obj) -> str:
    kind = obj["scalar"]
    cells = [[_fmt_scalar(sz.scalar_from_json(v, kind, "cell"), kind) for v in row]
             for row in obj["data"]]
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
    if isinstance(obj, dict) and "blocks" in obj:
        parts = [f"J{b['size']}({b['eigenvalue']['re']}+{b['eigenvalue']['im']}i)"
                 for b in obj["blocks"]]
        return " + ".join(parts) + "\n"
    if isinstance(obj, dict) and "checks" in obj:
        lines = [f"suite {obj['suite']} (seed {obj['seed']}, trials {obj['trials']})"]
        for check in obj["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"  {status}  {check['check']}  {check['details']}")
        lines.append("OK" if obj["ok"] else "FAILED")
        return "\n".join(lines) + "\n"
    return sz.dumps(obj)


def _emit(obj, out_path, pretty: bool) -> None:
    text = _pretty(obj) if pretty else sz.dumps(obj)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_map(path, domain=None):
    obj = sz.load_json_file(path)
    if domain is not None and isinstance(obj, dict) and "index_set" in obj:
        embedded = sz.index_set_from_json(obj["index_set"], "map.index_set")
        if embedded != domain:
            raise DomainError(
                "map.index_set does not match the domain of the other operand")
    return sz.index_map_from_json(obj, domain, path="map")


def _operands(args, *flags):
    """Load the tensor/vector files named by ``flags``, then the map on the
    first one's domain."""
    loaded = [sz.tensor_vector_from_json(sz.load_json_file(args.vector), path="vector")
              if flag == "vector" else
              sz.tensor_from_json(sz.load_json_file(getattr(args, flag)), path="tensor")
              for flag in flags]
    return (*loaded, _load_map(args.map_path, loaded[0].domain))


def _cmd_stretch(args) -> int:
    _emit(sz.matrix_to_json(stretch(*_operands(args, "tensor"))), args.out, args.pretty)
    return EXIT_OK


def _cmd_stretch_vector(args) -> int:
    result = stretch_vector(*_operands(args, "vector"))
    _emit(sz.vector_to_json(result), args.out, args.pretty)
    return EXIT_OK


def _cmd_convolve(args) -> int:
    result = convolve(*_operands(args, "left", "right"))
    _emit(sz.tensor_to_json(result), args.out, args.pretty)
    return EXIT_OK


def _cmd_act(args) -> int:
    result = act(*_operands(args, "tensor", "vector"))
    _emit(sz.tensor_vector_to_json(result), args.out, args.pretty)
    return EXIT_OK


def _cmd_average(args) -> int:
    result = average(*_operands(args, "tensor"), normalized=not args.raw)
    _emit(sz.tensor_to_json(result), args.out, args.pretty)
    return EXIT_OK


def _cmd_kappa(args) -> int:
    tensor, fmap = _operands(args, "tensor")
    value = sz.scalar_to_json(kappa(tensor, fmap), tensor.kind)
    _emit({"scalar": tensor.kind, "value": value}, args.out, args.pretty)
    return EXIT_OK


def _cmd_permute(args) -> int:
    tensor, fmap = _operands(args, "tensor")
    result = permute_stretch(tensor, fmap, Permutation.from_string(args.sigma))
    _emit(sz.matrix_to_json(result), args.out, args.pretty)
    return EXIT_OK


def _cmd_jordan(args) -> int:
    specs = sz.jordan_spec_list_from_json(sz.load_json_file(args.spec), path="specs")
    result = jordan_nfold(specs)
    if not args.verify:
        _emit(sz.jordan_spec_to_json(result), args.out, args.pretty)
        return EXIT_OK
    oracle = jordan_oracle(nfold_product_matrix(specs), nfold_eigenvalues(specs))
    oracle_spec = oracle.spec()
    report = {
        "closed_form": sz.jordan_spec_to_json(result),
        "oracle": sz.jordan_spec_to_json(oracle_spec),
        "agree": result == oracle_spec,
    }
    _emit(report, args.out, args.pretty)
    return EXIT_OK if report["agree"] else EXIT_VERIFY


def _cmd_tp_witness(args) -> int:
    fmap = _load_map(args.map_path, None)
    witness = tp_similarity_witness(fmap)
    verified = check_tp_witness(fmap, witness)
    report = {
        "index_set": sz.index_set_to_json(fmap.domain),
        "permutation": list(witness.perm),
        "matrix": sz.matrix_to_json(witness.matrix),
        "checked_units": len(fmap.domain) ** 2,
        "verified": verified,
    }
    _emit(report, args.out, args.pretty)
    return EXIT_OK if verified else EXIT_VERIFY


def _cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        raise ParseError(f"unknown suite {args.suite!r}; choose from {SUITE_NAMES}")
    least = min_trials(args.suite)
    if args.trials < least:
        raise ParseError(f"--trials must be at least {least}, got {args.trials}")
    seed = args.seed if args.seed is not None else _default_seed()
    report = run_suite(args.suite, args.trials, seed)
    _emit(report, args.out, args.pretty)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


_HANDLERS = {
    "stretch": _cmd_stretch,
    "stretch-vector": _cmd_stretch_vector,
    "convolve": _cmd_convolve,
    "act": _cmd_act,
    "average": _cmd_average,
    "kappa": _cmd_kappa,
    "permute": _cmd_permute,
    "jordan": _cmd_jordan,
    "tp-witness": _cmd_tp_witness,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # A command builds large acyclic JSON trees and tensors, which the cyclic
    # collector would only traverse again and again; refcounting frees them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _HANDLERS[args.command](args)
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
