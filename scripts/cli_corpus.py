"""Byte-identity corpus: a fixed list of CLI commands and one digest per command.

    python scripts/cli_corpus.py            # name every command whose digest changed
    python scripts/cli_corpus.py --write    # record the digests of this tree

Each digest covers a command's exit code, stdout, stderr and any ``--out``
file.  The input files come from the paper fixtures and from fixed seeds and
are written to a temporary directory; every command runs in process through
``stretchkit.cli.main`` from inside it, so file names in messages are
relative and the digests do not depend on where the repository lives.

Two outputs depend on the Python version rather than on stretchkit: argparse
usage and help text, and the ``json`` decoder's messages.  A command that
ends in argparse (``SystemExit``) or reports invalid JSON is digested by its
exit code and the part of stderr before the first colon only.

Exit 1, a failed verification, is never reached by a correct library.  Four
commands therefore swap one library function for a wrong one while they run,
so that the failure reports are pinned too.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures" / "paper"
CORPUS = REPO / "fixtures" / "cli_corpus.json"
sys.path.insert(0, str(REPO / "src"))

from stretchkit import cli  # noqa: E402
from stretchkit import verify as verify_module  # noqa: E402
from stretchkit.jordan import JordanSpec  # noqa: E402

# Each domain: its index-set payload, the linear maps' coefficients and a
# slot permutation that keeps it (identity on one slot).
DOMAINS = {
    "p1": ({"kind": "rectangular", "dims": [1]}, [[3]], "1"),
    "r4": ({"kind": "rectangular", "dims": [4]}, [[2], [-1]], "1"),
    "g22": ({"kind": "rectangular", "dims": [2, 2]}, [[1, 1], [1, -1]], "2,1"),
    "g23": ({"kind": "rectangular", "dims": [2, 3]}, [[1, 1], [2, -1]], "1,2"),
    "g212": ({"kind": "rectangular", "dims": [2, 1, 2]}, [[1, -1, 2]], "3,2,1"),
    "x4": ({"kind": "explicit", "points": [[0, 0], [2, 1], [1, 1], [3, 0]]},
           [[1, 1]], "1,2"),
}


def _points(index_set):
    if index_set["kind"] == "explicit":
        return [tuple(p) for p in index_set["points"]]
    points = [()]
    for d in index_set["dims"]:  # first slot fastest, like the library
        points = [p + (i,) for i in range(d) for p in points]
    return points


def _value(rng, kind):
    if kind == "cf64":
        return {"re": rng.choice([0.5, -1.25, 2.0, 3, 0.1]),
                "im": rng.choice([0.0, 0.0, -0.5, 1.0])}
    re = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
    im = Fraction(rng.randint(-2, 2), rng.choice([1, 2])) if rng.random() < 0.4 else 0
    return {"re": f"{re.numerator}/{re.denominator}",
            "im": f"{Fraction(im).numerator}/{Fraction(im).denominator}"}


def _tensor(rng, index_set, kind):
    points = _points(index_set)
    entries = [{"row": list(p), "col": list(q), "value": _value(rng, kind)}
               for p in points for q in points if rng.random() < 0.6]
    return {"index_set": index_set, "scalar": kind, "entries": entries}


def _vector(rng, index_set, kind):
    entries = [{"point": list(p), "value": _value(rng, kind)}
               for p in _points(index_set) if rng.random() < 0.8]
    return {"index_set": index_set, "scalar": kind, "entries": entries}


def _maps(rng, name, index_set, linear):
    points = _points(index_set)
    maps = {f"{name}-linear{i}": {"kind": "linear", "k": k} for i, k in enumerate(linear)}
    maps[f"{name}-max"] = {"kind": "max"}
    maps[f"{name}-mixed"] = {"kind": "mixed-radix"}
    maps[f"{name}-enum"] = {"kind": "enumeration"}
    maps[f"{name}-table"] = {"kind": "table", "pairs": [
        {"point": list(p), "value": rng.randint(-1, 2)} for p in points]}
    values = list(range(len(points)))
    rng.shuffle(values)
    maps[f"{name}-injective"] = {"kind": "table", "index_set": index_set, "pairs": [
        {"point": list(p), "value": 3 * v - 2} for p, v in zip(points, values)]}
    return maps


def _spec(*blocks):
    return {"blocks": [{"size": s, "eigenvalue": {"re": re, "im": im}} for s, re, im in blocks]}


SPEC_LISTS = {
    "real": [_spec((3, "6/1", "0/1"), (1, "6/1", "0/1"))],
    "pair": [_spec((2, "2/1", "0/1")), _spec((2, "3/1", "0/1"), (1, "-1/2", "0/1"))],
    "complex": [_spec((2, "1/1", "-2/1"), (1, "6/1", "0/1"))],
    "complex-pair": [_spec((2, "1/1", "-2/1")), _spec((1, "0/1", "1/1"), (2, "1/3", "1/2"))],
    "nilpotent": [_spec((2, "0/1", "0/1")), _spec((3, "5/1", "0/1"))],
    "both-nilpotent": [_spec((3, "0/1", "0/1")), _spec((2, "0/1", "0/1"), (1, "1/1", "0/1"))],
    "three": [_spec((2, "1/1", "0/1")), _spec((1, "-1/1", "0/1"), (1, "2/1", "0/1")),
              _spec((2, "0/1", "0/1"))],
    "five": [_spec((2, "1/1", "0/1"), (2, "0/1", "0/1"))] * 3,
    # Malformed lists, one failure each.
    "float-re": [_spec((2, 0.5, 0.0))],
    "int-re": [{"blocks": [{"size": 1, "eigenvalue": {"re": 2, "im": "0/1"}}]}],
    "float-im": [{"blocks": [{"size": 1, "eigenvalue": {"re": "1/1", "im": 0.5}}]}],
    "bool-re": [{"blocks": [{"size": 1, "eigenvalue": {"re": True, "im": "0/1"}}]}],
    "bad-fraction": [_spec((1, "1/0", "0/1"))],
    "zero-size": [_spec((0, "1/1", "0/1"))],
    "no-blocks": [{"blocks": []}],
    "empty": [],
    "object": {"blocks": []},
}


def _files():
    """{file name: text} of every input file, built from fixed seeds."""
    rng = random.Random(20231019)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.json"))}
    payloads = {}
    for name, (index_set, linear, _) in DOMAINS.items():
        for kind in ("gq", "cf64"):
            payloads[f"{name}-{kind}-t"] = _tensor(rng, index_set, kind)
            payloads[f"{name}-{kind}-u"] = _tensor(rng, index_set, kind)
            payloads[f"{name}-{kind}-v"] = _vector(rng, index_set, kind)
        payloads.update(_maps(rng, name, index_set, linear))
    for name, specs in SPEC_LISTS.items():
        payloads[f"spec-{name}"] = specs
    t, v = payloads["g22-gq-t"], payloads["g22-gq-v"]
    first = t["entries"][0]
    bad = {
        "bad-fraction": {**t, "entries": [{**first, "value": {"re": "1/0", "im": "0/1"}}]},
        "float-in-gq": {**t, "entries": [{**first, "value": {"re": 0.5, "im": 0}}]},
        "repeat": {**t, "entries": t["entries"][:1] * 2},
        "outside": {**t, "entries": [{"row": [5, 0], "col": [0, 0],
                                      "value": {"re": "1/1", "im": "0/1"}}]},
        "no-scalar": {"index_set": t["index_set"], "entries": []},
        "bad-kind": {**t, "scalar": "q64"},
        "bool-dims": {**t, "index_set": {"kind": "rectangular", "dims": [True, 2]}},
        "bad-set": {**t, "index_set": {"kind": "torus", "dims": [2]}},
        "nan": {**payloads["g22-cf64-t"], "entries": [
            {"row": [0, 0], "col": [0, 0], "value": {"re": float("nan"), "im": 0}}]},
        "inf": {**payloads["g22-cf64-t"], "entries": [
            {"row": [0, 0], "col": [0, 0], "value": {"re": 0, "im": float("inf")}}]},
        "huge-exact": {**t, "entries": [{"row": [0, 0], "col": [0, 0],
                                         "value": {"re": "1" + "0" * 4400 + "/1", "im": "0/1"}}]},
        "vector-repeat": {**v, "entries": v["entries"][:1] * 2},
        "vector-row": {**v, "entries": [
            {"row": [0, 0], "value": {"re": "1/1", "im": "0/1"}}]},
        "map-bad-kind": {"kind": "spiral"},
        "map-repeat": {"kind": "table", "pairs": [{"point": [0, 0], "value": 1}] * 2},
        "map-other-set": {"kind": "max", "index_set": {"kind": "rectangular", "dims": [4]}},
        "map-linear-arity": {"kind": "linear", "k": [1, 2, 3]},
        "map-noninjective": {"kind": "table", "index_set": DOMAINS["g22"][0], "pairs": [
            {"point": list(p), "value": 0} for p in _points(DOMAINS["g22"][0])]},
        "map-explicit": {"kind": "table", "index_set": DOMAINS["x4"][0], "pairs": [
            {"point": list(p), "value": i} for i, p in enumerate(_points(DOMAINS["x4"][0]))]},
    }
    payloads.update({f"bad-{k}": v for k, v in bad.items()})
    files.update({f"{k}.json": json.dumps(v, sort_keys=True) for k, v in payloads.items()})
    files["bad-truncated.json"] = files["g22-gq-t.json"][:40]
    files["bad-empty.json"] = ""
    files["bad-deep.json"] = "[" * 100000 + "]" * 100000
    files["bad-huge-int.json"] = '{"kind": "linear", "k": [' + "9" * 5000 + "]}"
    return files


def _tensor_commands(name, kind, maps, sigma):
    """Every tensor command on the files of one domain and kind."""
    t, u, v = (f"{name}-{kind}-{role}.json" for role in "tuv")
    for m in maps:
        m = f"{m}.json"
        yield ["stretch", "--tensor", t, "--map", m]
        yield ["stretch-vector", "--vector", v, "--map", m]
        yield ["convolve", "--left", t, "--right", u, "--map", m]
        yield ["act", "--tensor", t, "--vector", v, "--map", m]
        yield ["average", "--tensor", t, "--map", m]
        yield ["average", "--tensor", u, "--map", m, "--raw"]
        yield ["kappa", "--tensor", t, "--map", m]
        yield ["permute", "--tensor", t, "--map", m, "--sigma", sigma]


def commands():
    """``(argv, seed, swap)`` of every command, in a fixed order: ``seed`` is
    the ``STRETCHKIT_SEED`` it runs with (None: unset) and ``swap`` the
    ``(module, name, function)`` it runs with in place, or None."""
    plain = []
    for name, (index_set, linear, sigma) in DOMAINS.items():
        maps = [f"{name}-linear{i}" for i in range(len(linear))] + [
            f"{name}-{m}" for m in ("max", "mixed", "enum", "table", "injective")]
        for kind in ("gq", "cf64"):
            plain += _tensor_commands(name, kind, maps, sigma)
        plain.append(["tp-witness", "--map", f"{name}-injective.json"])
    fixture_tensors = sorted(p.name for p in FIXTURES.glob("*_tensor.json"))
    fixture_maps = sorted(p.name for p in FIXTURES.glob("map_*.json"))
    for t in fixture_tensors:
        for m in fixture_maps:
            plain += [["stretch", "--tensor", t, "--map", m],
                      ["average", "--tensor", t, "--map", m],
                      ["average", "--tensor", t, "--map", m, "--raw"],
                      ["kappa", "--tensor", t, "--map", m],
                      ["permute", "--tensor", t, "--map", m, "--sigma", "2,1"],
                      ["convolve", "--left", t, "--right", t, "--map", m]]
    for m in fixture_maps:
        plain += [["stretch-vector", "--vector", "grid22_vector.json", "--map", m],
                  ["act", "--tensor", "linear11_AB_tensor.json", "--vector",
                   "grid22_vector.json", "--map", m]]
    for name in SPEC_LISTS:
        plain += [["jordan", "--spec", f"spec-{name}.json"],
                  ["jordan", "--spec", f"spec-{name}.json", "--verify"]]
    for suite in verify_module.SUITE_NAMES:
        for seed in ("0", "1"):
            for trials in ("1", "3"):
                plain.append(["verify", suite, "--trials", trials, "--seed", seed])
    plain.append(["verify", "jordan", "--trials", "0", "--seed", "0"])
    errors = [
        ["stretch", "--tensor", "absent.json", "--map", "g22-max.json"],
        ["stretch", "--tensor", "g22-gq-t.json", "--map", "absent.json"],
        ["act", "--tensor", "g22-gq-t.json", "--vector", "r4-gq-v.json", "--map", "g22-max.json"],
        ["convolve", "--left", "g22-gq-t.json", "--right", "g23-gq-t.json", "--map",
         "g22-max.json"],
        ["convolve", "--left", "g22-gq-t.json", "--right", "g22-cf64-t.json", "--map",
         "g22-max.json"],
        ["act", "--tensor", "g22-gq-t.json", "--vector", "g22-cf64-v.json", "--map",
         "g22-max.json"],
        ["act", "--tensor", "g22-cf64-t.json", "--vector", "g22-gq-v.json", "--map",
         "g22-max.json"],
        ["stretch", "--tensor", "g22-gq-t.json", "--map", "r4-injective.json"],
        ["stretch", "--tensor", "g22-gq-t.json", "--map", "bad-map-other-set.json"],
        ["permute", "--tensor", "g23-gq-t.json", "--map", "g23-max.json", "--sigma", "2,1"],
        ["permute", "--tensor", "g22-gq-t.json", "--map", "g22-max.json", "--sigma", "3,1,2"],
        ["permute", "--tensor", "g22-gq-t.json", "--map", "g22-max.json", "--sigma", "1,1"],
        ["permute", "--tensor", "g22-gq-t.json", "--map", "g22-max.json", "--sigma", "x"],
        ["permute", "--tensor", "x4-gq-t.json", "--map", "x4-max.json", "--sigma", "2,1"],
        ["tp-witness", "--map", "g22-max.json"],
        ["tp-witness", "--map", "bad-map-noninjective.json"],
        ["tp-witness", "--map", "bad-map-explicit.json"],
        ["tp-witness", "--map", "bad-truncated.json"],
        ["verify", "nosuch"],
        ["verify", "homomorphism", "--trials", "0"],
        ["verify", "jordan", "--trials", "-1"],
        ["stretch", "--tensor", "g22-gq-t.json", "--map", "g22-max.json", "--out",
         "missing-dir/out.json"],
    ]
    for bad in ("bad-fraction", "float-in-gq", "repeat", "outside", "no-scalar", "bad-kind",
                "bool-dims", "bad-set", "nan", "inf", "huge-exact", "truncated", "empty",
                "deep"):
        errors += [["stretch", "--tensor", f"bad-{bad}.json", "--map", "g22-max.json"],
                   ["convolve", "--left", "g22-gq-t.json", "--right", f"bad-{bad}.json",
                    "--map", "g22-mixed.json"]]
    for bad in ("vector-repeat", "vector-row", "truncated"):
        errors.append(["act", "--tensor", "g22-gq-t.json", "--vector", f"bad-{bad}.json",
                       "--map", "g22-max.json"])
    for bad in ("map-bad-kind", "map-repeat", "map-linear-arity", "huge-int", "empty"):
        errors.append(["stretch", "--tensor", "g22-gq-t.json", "--map", f"bad-{bad}.json"])
    pretty = [argv + ["--pretty"] for argv in plain + errors]
    outs = [["stretch", "--tensor", "g22-gq-t.json", "--map", "g22-max.json", "--out",
             "out.json"],
            ["jordan", "--spec", "spec-complex.json", "--pretty", "--out", "out.json"],
            ["verify", "kappa", "--trials", "2", "--seed", "4", "--out", "out.json"]]
    argparse_runs = [["--help"], [], ["nosuch"], ["stretch"], ["stretch", "--tensor"],
                     ["verify", "kappa", "--trials", "x"], ["jordan", "--spec", "a", "--bogus"]]
    argparse_runs += [[name, "--help"] for name in (*cli._TENSOR_COMMANDS, *cli._OTHER_COMMANDS)]
    runs = [(argv, None, None) for argv in plain + errors + pretty + outs + argparse_runs]
    for seed in ("7", "abc", "", "1.5"):
        for extra in ([], ["--pretty"]):
            runs.append((["verify", "averaging", "--trials", "2", *extra], seed, None))
    never = JordanSpec.single(1, 0)
    runs += [
        (["jordan", "--spec", "spec-pair.json", "--verify"], None,
         (cli, "nfold_oracle", lambda specs: never)),
        (["tp-witness", "--map", "g22-injective.json"], None,
         (cli, "check_tp_witness", lambda fmap, witness: False)),
        (["verify", "tp-witness", "--trials", "3", "--seed", "0"], None,
         (verify_module, "check_tp_witness", lambda fmap, witness: False)),
        (["verify", "tp-witness", "--trials", "3", "--seed", "0", "--pretty"], None,
         (verify_module, "check_tp_witness", lambda fmap, witness: False)),
    ]
    return runs


def key(argv, seed, swap) -> str:
    """The name of a command in the corpus file."""
    text = " ".join(argv)
    if seed is not None:
        text = f"STRETCHKIT_SEED={json.dumps(seed)} {text}"
    if swap is not None:
        text += f"  [{swap[0].__name__}.{swap[1]} swapped for a wrong one]"
    return text


@contextmanager
def _setting(seed, swap):
    """``STRETCHKIT_SEED`` set to ``seed`` and the ``swap`` in place, for the
    duration; both are put back as they were."""
    saved_seed = os.environ.pop("STRETCHKIT_SEED", None)
    if seed is not None:
        os.environ["STRETCHKIT_SEED"] = seed
    saved = swap and getattr(swap[0], swap[1])
    if swap:
        setattr(swap[0], swap[1], swap[2])
    try:
        yield
    finally:
        if swap:
            setattr(swap[0], swap[1], saved)
        os.environ.pop("STRETCHKIT_SEED", None)
        if saved_seed is not None:
            os.environ["STRETCHKIT_SEED"] = saved_seed


def run(argv, seed=None, swap=None) -> str:
    """``"<exit code>:<digest>"`` of one command, run in the current directory."""
    out, err = StringIO(), StringIO()
    loose = False
    with _setting(seed, swap), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage, help and its own errors
            code, loose = exc.code, True
    stdout, stderr = out.getvalue(), err.getvalue()
    written = ""
    if os.path.exists("out.json"):
        with open("out.json", encoding="utf-8") as fh:
            written = fh.read()
        os.remove("out.json")
    if loose or "invalid JSON (" in stderr:
        stdout, stderr = "", stderr.split(":", 1)[0]
    text = json.dumps([code, stdout, stderr, written])
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def digests(workdir) -> dict:
    """{command name: digest} of the whole corpus, run inside ``workdir``."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in _files().items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        result = {}
        for argv, seed, swap in commands():
            name = key(argv, seed, swap)
            if name in result:
                raise ValueError(f"corpus names {name!r} twice")
            result[name] = run(argv, seed, swap)
        return result
    finally:
        os.chdir(here)


def changed(recorded: dict, current: dict) -> list:
    """Names of the commands whose digest differs, or that only one side has."""
    return sorted(name for name in recorded.keys() | current.keys()
                  if recorded.get(name) != current.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record the digests in {CORPUS.relative_to(REPO)}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        current = digests(tmp)
    if args.write:
        CORPUS.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        codes = sorted({int(v.split(":")[0]) for v in current.values()})
        print(f"{len(current)} commands, exit codes {codes}")
        return 0
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    names = changed(recorded, current)
    for name in names:
        print(f"changed: {name}")
    print(f"{len(names)} of {len(current)} commands changed")
    return 1 if names else 0


if __name__ == "__main__":
    raise SystemExit(main())
