import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stretchkit import serialize as sz
from stretchkit.cli import main
from stretchkit.errors import DomainError
from stretchkit.indexing import enumerate_z
from stretchkit.jordan import JordanSpec
from stretchkit.linalg import DenseMatrix
from stretchkit.scalars import GQ
from stretchkit.tensors import pure_tensor
from stretchkit.verify import SUITE_NAMES, run_suite

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(sz.dumps(obj))
    return str(path)


def spec_json(blocks):
    return sz.jordan_spec_to_json(JordanSpec(blocks))


def test_stretch_reproduces_diag_sum_fixture(fixtures_dir, capsys):
    code, out, _ = run_cli(["stretch",
                            "--tensor", str(fixtures_dir / "linear11_AB_tensor.json"),
                            "--map", str(fixtures_dir / "map_linear11.json")], capsys)
    assert code == 0
    expected = json.loads((fixtures_dir / "linear11_AB_stretched.json").read_text())
    assert json.loads(out) == expected


def test_stretch_reproduces_remaining_fixtures(fixtures_dir, capsys):
    cases = [
        ("linear1m1_jordan_tensor.json", "map_linear1m1.json",
         "linear1m1_jordan_stretched.json"),
        ("linear11_rect23_tensor.json", "map_linear11.json",
         "linear11_rect23_stretched.json"),
        ("max_AB_tensor.json", "map_max.json", "max_AB_stretched.json"),
        ("mixed_radix_identity_tensor.json", "map_mixed_radix.json",
         "mixed_radix_identity_stretched.json"),
    ]
    for tensor, fmap, golden in cases:
        code, out, _ = run_cli(["stretch",
                                "--tensor", str(fixtures_dir / tensor),
                                "--map", str(fixtures_dir / fmap)], capsys)
        assert code == 0, (tensor, fmap)
        assert json.loads(out) == json.loads((fixtures_dir / golden).read_text())


def test_output_is_byte_identical_across_runs(fixtures_dir, capsys):
    args = ["stretch", "--tensor", str(fixtures_dir / "max_AB_tensor.json"),
            "--map", str(fixtures_dir / "map_max.json")]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_average_with_injective_map_reserializes_identically(fixtures_dir,
                                                             tmp_path, capsys):
    tensor_path = fixtures_dir / "linear11_AB_tensor.json"
    code, out, _ = run_cli(["average", "--tensor", str(tensor_path),
                            "--map", str(fixtures_dir / "map_mixed_radix.json")],
                           capsys)
    assert code == 0
    canonical = sz.dumps(json.loads(tensor_path.read_text()))
    assert out == canonical


def test_average_raw_flag_changes_result(fixtures_dir, capsys):
    args = ["average", "--tensor", str(fixtures_dir / "linear11_AB_tensor.json"),
            "--map", str(fixtures_dir / "map_linear11.json")]
    _, normalized, _ = run_cli(args, capsys)
    _, raw, _ = run_cli(args + ["--raw"], capsys)
    assert normalized != raw


def test_kappa_of_identity_is_one_for_injective_maps(tmp_path, capsys):
    eye = pure_tensor([DenseMatrix.identity(2, GQ), DenseMatrix.identity(2, GQ)])
    tensor = write_json(tmp_path, "eye.json", sz.tensor_to_json(eye))
    for fmap_obj in ({"kind": "mixed-radix"}, {"kind": "enumeration"},
                     {"kind": "linear", "k": [1, 2]}):
        fmap = write_json(tmp_path, "map.json", fmap_obj)
        code, out, _ = run_cli(["kappa", "--tensor", tensor, "--map", fmap], capsys)
        assert code == 0
        assert json.loads(out) == \
            {"scalar": "gq", "value": {"re": "1/1", "im": "0/1"}}


def test_kappa_of_identity_counts_class_sizes_otherwise(tmp_path, capsys):
    # The stretched identity is the diagonal of class sizes, so kappa(Id) is
    # their product: 1 * 3 for the max map on the 2x2 grid.
    eye = pure_tensor([DenseMatrix.identity(2, GQ), DenseMatrix.identity(2, GQ)])
    tensor = write_json(tmp_path, "eye.json", sz.tensor_to_json(eye))
    fmap = write_json(tmp_path, "map.json", {"kind": "max"})
    code, out, _ = run_cli(["kappa", "--tensor", tensor, "--map", fmap], capsys)
    assert code == 0
    assert json.loads(out)["value"] == {"re": "3/1", "im": "0/1"}


def test_convolve_and_act_round_trip(tmp_path, fixtures_dir, capsys):
    tensor = str(fixtures_dir / "linear11_AB_tensor.json")
    fmap = str(fixtures_dir / "map_linear11.json")
    code, out, _ = run_cli(["convolve", "--left", tensor, "--right", tensor,
                            "--map", fmap], capsys)
    assert code == 0
    assert json.loads(out)["scalar"] == "gq"
    vec = write_json(tmp_path, "vec.json", {
        "index_set": {"kind": "rectangular", "dims": [2, 2]},
        "scalar": "gq",
        "entries": [{"point": [0, 1], "value": {"re": "1/1", "im": "0/1"}}],
    })
    code, out, _ = run_cli(["act", "--tensor", tensor, "--vector", vec,
                            "--map", fmap], capsys)
    assert code == 0
    assert json.loads(out)["entries"]


def test_stretch_vector_outputs_labels(tmp_path, fixtures_dir, capsys):
    vec = write_json(tmp_path, "vec.json", {
        "index_set": {"kind": "rectangular", "dims": [2, 2]},
        "scalar": "gq",
        "entries": [{"point": [0, 1], "value": {"re": "1/1", "im": "0/1"}},
                    {"point": [1, 0], "value": {"re": "1/1", "im": "0/1"}}],
    })
    code, out, _ = run_cli(["stretch-vector", "--vector", vec,
                            "--map", str(fixtures_dir / "map_linear11.json")], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["labels"] == [0, 1, 2]
    assert obj["data"][1] == {"re": "2/1", "im": "0/1"}


VECTOR_GOLDENS = {
    **{f"grid22_vector_{m}_stretched.json": ["stretch-vector", "--vector", "grid22_vector.json",
                                             "--map", f"map_{m}.json"]
       for m in ("linear11", "linear1m1", "max", "mixed_radix")},
    "linear11_AB_act_grid22.json": ["act", "--tensor", "linear11_AB_tensor.json",
                                    "--vector", "grid22_vector.json",
                                    "--map", "map_linear11.json"],
}


@pytest.mark.parametrize("golden", sorted(VECTOR_GOLDENS))
def test_vector_commands_write_their_goldens_byte_for_byte(golden, fixtures_dir, capsys):
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in VECTOR_GOLDENS[golden]]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (fixtures_dir / golden).read_text(encoding="utf-8")


def test_permute_matches_stretch_of_reversed_factors(tmp_path, capsys):
    a = DenseMatrix.from_rows([[1, 2], [3, 4]], GQ)
    b = DenseMatrix.from_rows([[0, 1], [5, 9]], GQ)
    forward = write_json(tmp_path, "ab.json", sz.tensor_to_json(pure_tensor([a, b])))
    backward = write_json(tmp_path, "ba.json", sz.tensor_to_json(pure_tensor([b, a])))
    fmap = write_json(tmp_path, "map.json", {"kind": "mixed-radix"})
    code, permuted, _ = run_cli(["permute", "--tensor", forward, "--map", fmap,
                                 "--sigma", "2,1"], capsys)
    assert code == 0
    code, plain, _ = run_cli(["stretch", "--tensor", backward, "--map", fmap], capsys)
    assert code == 0
    assert json.loads(permuted)["data"] == json.loads(plain)["data"]


def test_permute_sigma_outside_domain_exits_4(tmp_path, capsys):
    a = DenseMatrix.identity(2, GQ)
    b = DenseMatrix.identity(3, GQ)
    tensor = write_json(tmp_path, "t.json", sz.tensor_to_json(pure_tensor([a, b])))
    fmap = write_json(tmp_path, "map.json", {"kind": "mixed-radix"})
    code, _, err = run_cli(["permute", "--tensor", tensor, "--map", fmap,
                            "--sigma", "2,1"], capsys)
    assert code == 4
    assert "outside" in err


def test_jordan_command_with_verification(tmp_path, capsys):
    specs = write_json(tmp_path, "specs.json",
                       [spec_json([(2, 2)]), spec_json([(2, 3)])])
    code, out, _ = run_cli(["jordan", "--spec", specs, "--verify"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["closed_form"] == spec_json([(3, 6), (1, 6)])
    assert obj["oracle"] == obj["closed_form"]


def test_jordan_single_spec_is_returned_verbatim(tmp_path, capsys):
    specs = write_json(tmp_path, "specs.json", [spec_json([(1, 1)])])
    code, out, _ = run_cli(["jordan", "--spec", specs], capsys)
    assert code == 0
    assert json.loads(out) == spec_json([(1, 1)])


def test_jordan_nilpotent_factor_case(tmp_path, capsys):
    specs = write_json(tmp_path, "specs.json",
                       [spec_json([(2, 1)]), spec_json([(2, 0)])])
    code, out, _ = run_cli(["jordan", "--spec", specs, "--verify"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["closed_form"] == spec_json([(2, 0), (2, 0)])


def test_jordan_verify_certifies_a_five_fold_product(tmp_path, capsys):
    # N = 4^5 = 1,024; the oracle builds the product's sparse Kronecker rows.
    specs = write_json(tmp_path, "specs.json", [spec_json([(2, 1), (2, 0)])] * 5)
    code, out, _ = run_cli(["jordan", "--spec", specs, "--verify"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert sum(b["size"] for b in obj["oracle"]["blocks"]) == 1024


def test_jordan_verify_certifies_a_six_fold_product_in_512_mib(tmp_path):
    # N = 4^6 = 4,096: the dense product alone would hold 16.8 million
    # entries, so this passes only if the oracle never builds it.
    resource = pytest.importorskip("resource")
    limit = 512 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    specs = write_json(tmp_path, "specs.json", [spec_json([(2, 1), (2, 0)])] * 6)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run([sys.executable, "-m", "stretchkit", "jordan", "--spec", specs,
                             "--verify"], capture_output=True, text=True, env=env,
                            timeout=120, preexec_fn=cap_memory)
    assert result.returncode == 0, result.stderr
    obj = json.loads(result.stdout)
    assert obj["agree"] is True
    assert sum(b["size"] for b in obj["oracle"]["blocks"]) == 4096


def test_out_of_memory_exits_6_in_512_mib(tmp_path):
    # A tensor on 10^8 points, and a Jordan block whose oracle needs a
    # 30,000 x 30,000 matrix: neither fits, and neither ends in a traceback.
    resource = pytest.importorskip("resource")
    limit = 512 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    tensor = write_json(tmp_path, "t.json", {"index_set": {"kind": "rectangular",
                                                          "dims": [10 ** 8]},
                                            "scalar": "gq", "entries": []})
    fmap = write_json(tmp_path, "m.json", {"kind": "max"})
    specs = write_json(tmp_path, "specs.json", [spec_json([(30000, 1)])])
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    for args in (["stretch", "--tensor", tensor, "--map", fmap],
                 ["jordan", "--spec", specs, "--verify"]):
        result = subprocess.run([sys.executable, "-m", "stretchkit", *args], capture_output=True,
                                text=True, env=env, timeout=120, preexec_fn=cap_memory)
        assert (result.returncode, result.stdout, result.stderr) == (
            6, "", "resource error: out of memory\n")


def test_jordan_float_eigenvalue_exits_5(tmp_path, capsys):
    # A JSON number in either part of an eigenvalue, an int as well as a float.
    for eigenvalue in ({"re": 0.5, "im": 0.0}, {"re": "1/1", "im": 0.5},
                       {"re": 1.5, "im": "0/1"}, {"re": 2, "im": "0/1"}):
        bad = write_json(tmp_path, "bad.json", [
            {"blocks": [{"size": 2, "eigenvalue": eigenvalue}]}])
        code, _, err = run_cli(["jordan", "--spec", bad, "--verify"], capsys)
        assert code == 5
        assert "exact" in err
        assert err == ("scalar variant error: specs[0].blocks[0].eigenvalue: Jordan "
                       "eigenvalues must be exact fraction strings, not numbers\n")


def test_jordan_pretty_writes_eigenvalues_as_matrix_cells(tmp_path, capsys):
    one = {"re": "1/1", "im": "0/1"}
    cases = [  # (blocks, stdout)
        ([{"size": 2, "eigenvalue": {"re": "1/1", "im": "-2/1"}},
          {"size": 1, "eigenvalue": {"re": "6/1", "im": "0/1"}}], "J2((1-2i)) + J1(6)\n"),
        ([{"size": 3, "eigenvalue": {"re": "6/1", "im": "0/1"}},
          {"size": 1, "eigenvalue": {"re": "-1/2", "im": "0/1"}}], "J1(-1/2) + J3(6)\n"),
    ]
    for blocks, want in cases:
        specs = write_json(tmp_path, "specs.json", [{"blocks": blocks},
                                                    {"blocks": [{"size": 1, "eigenvalue": one}]}])
        assert run_cli(["jordan", "--spec", specs, "--pretty"], capsys) == (0, want, "")


def test_tp_witness_command(tmp_path, capsys):
    fmap = write_json(tmp_path, "map.json", {
        "kind": "table",
        "index_set": {"kind": "rectangular", "dims": [3]},
        "pairs": [{"point": [0], "value": 2}, {"point": [1], "value": 0},
                  {"point": [2], "value": 1}],
    })
    code, out, _ = run_cli(["tp-witness", "--map", fmap], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["permutation"] == [2, 0, 1]
    assert obj["checked_units"] == 9


def test_tp_witness_requires_embedded_index_set(tmp_path, capsys):
    fmap = write_json(tmp_path, "map.json", {"kind": "mixed-radix"})
    code, _, err = run_cli(["tp-witness", "--map", fmap], capsys)
    assert code == 2
    assert "index_set" in err


def test_verify_suite_runs_and_reports(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "homomorphism", "--trials", "5",
                            "--seed", "7"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["seed"] == 7
    assert {c["check"] for c in obj["checks"]} == \
        {"matrix-homomorphism", "vector-homomorphism"}


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(["verify", "nonsense"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_trials_below_one_exits_2(capsys):
    for trials in ("-5", "0"):
        code, out, err = run_cli(["verify", "homomorphism", "--trials", trials], capsys)
        assert code == 2 and out == ""
        assert err == f"parse error: --trials must be at least 1, got {trials}\n"
    code, out, _ = run_cli(["verify", "jordan", "--trials", "0"], capsys)
    assert code == 0 and json.loads(out)["trials"] == 0  # the exhaustive cell grid


def test_run_suite_rejects_trial_counts_the_cli_rejects():
    for suite in SUITE_NAMES:
        with pytest.raises(DomainError):
            run_suite(suite, -5, 0)
        if suite != "jordan":
            with pytest.raises(DomainError):
                run_suite(suite, 0, 0)
    report = run_suite("homomorphism", 1, 0)
    assert report["trials"] == 1
    assert all(c["details"]["trials"] == 1 for c in report["checks"])
    assert run_suite("jordan", 0, 0)["checks"][0]["details"]["exhaustive"]


def test_run_suite_raises_the_cli_messages_as_domain_errors():
    with pytest.raises(DomainError, match="unknown suite 'nosuch'; choose from"):
        run_suite("nosuch", 1, 0)
    with pytest.raises(DomainError, match="^--trials must be at least 1, got -5$"):
        run_suite("homomorphism", -5, 0)
    with pytest.raises(DomainError, match="^--trials must be at least 0, got -1$"):
        run_suite("jordan", -1, 0)


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("STRETCHKIT_SEED", "42")
    code, out, _ = run_cli(["verify", "averaging", "--trials", "3"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 42


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_malformed_seed_in_environment_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("STRETCHKIT_SEED", value)
    code, out, err = run_cli(["verify", "kappa", "--trials", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"parse error: STRETCHKIT_SEED must be an integer, got {value!r}\n"
    code, out, _ = run_cli(["verify", "kappa", "--trials", "1", "--seed", "3"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 3  # --seed wins; the variable is unread
    monkeypatch.delenv("STRETCHKIT_SEED")
    code, out, _ = run_cli(["verify", "kappa", "--trials", "1"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 0


def test_parse_error_exits_2(tmp_path, fixtures_dir, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run_cli(["stretch", "--tensor", str(broken),
                            "--map", str(fixtures_dir / "map_max.json")], capsys)
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("pairs, message", [
    ([([0], 1), ([1], 2), ([0], 5)], "map.pairs[2]: repeats point [0]"),
    ([([0], 1), ([1], 2), ([2], 5)], "map.pairs[2].point: [2] is not in the index set"),
])
def test_table_map_with_a_repeated_or_outside_point_exits_2(tmp_path, capsys, pairs, message):
    dom = {"kind": "rectangular", "dims": [2]}
    one = {"re": "1/1", "im": "0/1"}
    tensor = write_json(tmp_path, "t.json", {"index_set": dom, "scalar": "gq", "entries": [
        {"row": [0], "col": [0], "value": one}, {"row": [1], "col": [1], "value": one}]})
    fmap = write_json(tmp_path, "map.json", {
        "kind": "table", "pairs": [{"point": p, "value": v} for p, v in pairs]})
    code, out, err = run_cli(["stretch", "--tensor", tensor, "--map", fmap], capsys)
    assert (code, out) == (2, "")
    assert err == f"parse error: {message}\n"


def test_domain_mismatch_exits_3(tmp_path, fixtures_dir, capsys):
    fmap = write_json(tmp_path, "map.json", {
        "kind": "mixed-radix",
        "index_set": {"kind": "rectangular", "dims": [4]},
    })
    code, _, err = run_cli(["stretch",
                            "--tensor", str(fixtures_dir / "linear11_AB_tensor.json"),
                            "--map", fmap], capsys)
    assert code == 3
    assert "index_set" in err


# Recorded before the embedded-set check moved from the CLI into
# serialize.index_map_from_json: the domain check still runs before "kind".
_MAP_FILE_GOLDEN = [
    ("stretch", {"kind": "max", "index_set": None},
     'parse error: map.index_set: missing field "kind"'),
    ("tp-witness", {"kind": "max", "index_set": None},
     'parse error: map.index_set: missing field "kind"'),
    ("tp-witness", {"index_set": {"kind": "rectangular", "dims": [0]}},
     'parse error: map: missing field "kind"'),
    ("stretch", {"index_set": {"kind": "rectangular", "dims": [3, 3]}},
     "domain error: map.index_set does not match the domain of the other operand"),
]


@pytest.mark.parametrize("command, fmap, message", _MAP_FILE_GOLDEN, ids=[
    "stretch-null-set", "tp-witness-null-set", "tp-witness-no-kind-bad-set",
    "stretch-no-kind-other-set"])
def test_map_file_index_set_messages(tmp_path, capsys, command, fmap, message):
    tensor = write_json(tmp_path, "t.json", {
        "index_set": {"kind": "rectangular", "dims": [2, 2]}, "scalar": "gq",
        "entries": [{"row": [0, 0], "col": [1, 1], "value": {"re": "1/1", "im": "0/1"}}]})
    args = ["--map", write_json(tmp_path, "map.json", fmap)]
    if command == "stretch":
        args = ["--tensor", tensor] + args
    code, out, err = run_cli([command] + args, capsys)
    assert (code, out, err) == (2 if message.startswith("parse") else 3, "", message + "\n")


def test_out_flag_writes_file(tmp_path, fixtures_dir, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(["stretch",
                            "--tensor", str(fixtures_dir / "max_AB_tensor.json"),
                            "--map", str(fixtures_dir / "map_max.json"),
                            "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["rows"] == 2


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, fixtures_dir, capsys, target):
    out_path = tmp_path / "absent" / "x.json" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(["stretch",
                              "--tensor", str(fixtures_dir / "max_AB_tensor.json"),
                              "--map", str(fixtures_dir / "map_max.json"),
                              "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot write {out_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"kind": "max"}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"kind": "linear", "k": [' + b"1" * 5000 + b', 1]}',
], ids=["not-utf8", "nested-too-deep", "integer-past-digit-limit"])
def test_unreadable_json_exits_2(tmp_path, fixtures_dir, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(["stretch", "--tensor", str(bad),
                              "--map", str(fixtures_dir / "map_max.json")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {bad}: invalid JSON (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400", "int-past-float-range"])
@pytest.mark.parametrize("what", ["tensor", "vector"])
def test_non_finite_cf64_input_exits_2(tmp_path, fixtures_dir, capsys, token, what):
    # json reads these tokens as nan, inf or a float past its range (the last, an
    # int, overflows complex()); none of them round-trips as JSON.
    cell = '"point": [0, 0]' if what == "vector" else '"row": [0, 0], "col": [0, 0]'
    bad = tmp_path / "bad.json"
    bad.write_text('{"index_set": {"kind": "rectangular", "dims": [2, 2]}, "scalar": "cf64", '
                   f'"entries": [{{{cell}, "value": {{"re": 1.5, "im": 0}}}}, '
                   f'{{{cell}, "value": {{"re": 0.5, "im": {token}}}}}]}}')
    command = "stretch-vector" if what == "vector" else "stretch"
    code, out, err = run_cli([command, f"--{what}", str(bad),
                              "--map", str(fixtures_dir / "map_max.json")], capsys)
    assert (code, out) == (2, "")
    assert err == f"parse error: {what}.entries[1].value: cf64 components must be finite\n"


def _cf64_on_two_points(entries):
    return {"index_set": {"kind": "rectangular", "dims": [2]}, "scalar": "cf64",
            "entries": [{"row": [i], "col": [j], "value": {"re": re, "im": 0}}
                        for i, j, re in entries]}


@pytest.mark.parametrize("command", ["convolve", "stretch"])
@pytest.mark.parametrize("extra", [[], ["--pretty"], ["--out"]], ids=["json", "pretty", "out"])
def test_cf64_result_that_overflows_exits_5(tmp_path, capsys, command, extra):
    # Finite input, but the product or the class sum is past the float range.
    if command == "convolve":
        t = write_json(tmp_path, "t.json", _cf64_on_two_points(
            [(i, j, 1e300) for i in range(2) for j in range(2)]))
        fmap = write_json(tmp_path, "f.json", {"kind": "linear", "k": [1]})
        argv = ["convolve", "--left", t, "--right", t, "--map", fmap]
    else:
        t = write_json(tmp_path, "t.json", _cf64_on_two_points([(0, 0, 1e308), (1, 1, 1e308)]))
        fmap = write_json(tmp_path, "f.json", {"kind": "table", "pairs": [
            {"point": [0], "value": 0}, {"point": [1], "value": 0}]})
        argv = ["stretch", "--tensor", t, "--map", fmap]
    out_path = tmp_path / "out.json"
    if extra == ["--out"]:
        extra = ["--out", str(out_path)]
    code, out, err = run_cli(argv + extra, capsys)
    assert (code, out) == (5, "")
    assert err == "scalar variant error: cf64 result (inf+0j) is not finite; JSON cannot hold it\n"
    assert not out_path.exists()


USAGE = {
    None: "[-h] {stretch,stretch-vector,convolve,act,average,kappa,permute,jordan,"
          "tp-witness,verify} ...",
    "stretch": "[-h] --tensor TENSOR --map MAP_PATH [--out OUT] [--pretty]",
    "stretch-vector": "[-h] --vector VECTOR --map MAP_PATH [--out OUT] [--pretty]",
    "convolve": "[-h] --left LEFT --right RIGHT --map MAP_PATH [--out OUT] [--pretty]",
    "act": "[-h] --tensor TENSOR --vector VECTOR --map MAP_PATH [--out OUT] [--pretty]",
    "average": "[-h] --tensor TENSOR --map MAP_PATH [--raw] [--out OUT] [--pretty]",
    "kappa": "[-h] --tensor TENSOR --map MAP_PATH [--out OUT] [--pretty]",
    "permute": "[-h] --tensor TENSOR --map MAP_PATH --sigma SIGMA [--out OUT] [--pretty]",
    "jordan": "[-h] --spec SPEC [--verify] [--out OUT] [--pretty]",
    "tp-witness": "[-h] --map MAP_PATH [--out OUT] [--pretty]",
    "verify": "[-h] [--trials TRIALS] [--seed SEED] [--out OUT] [--pretty] suite",
}


@pytest.mark.parametrize("command", USAGE)
def test_usage_line_keeps_each_commands_flags_in_order(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, whatever the terminal
    argv = [command] if command else []
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    prog = " ".join(["stretchkit"] + argv)
    assert capsys.readouterr().out.splitlines()[0] == f"usage: {prog} {USAGE[command]}"


@pytest.mark.parametrize("command", [c for c in USAGE if c])
def test_pretty_help_is_the_same_on_every_command(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    line = next(x for x in capsys.readouterr().out.splitlines() if "--pretty " in x)
    assert line.split(None, 1)[1] == ("print a matrix as a table, a Jordan type as "
                                      "blocks and a suite report as lines; other "
                                      "output stays JSON")


def test_pretty_output_renders_table(fixtures_dir, capsys):
    code, out, _ = run_cli(["stretch",
                            "--tensor", str(fixtures_dir / "max_AB_tensor.json"),
                            "--map", str(fixtures_dir / "map_max.json"),
                            "--pretty"], capsys)
    assert code == 0
    assert "184" in out and "|" in out


def test_module_entry_point_runs_in_subprocess(fixtures_dir):
    result = subprocess.run(
        [sys.executable, "-m", "stretchkit", "kappa",
         "--tensor", str(fixtures_dir / "mixed_radix_identity_tensor.json"),
         "--map", str(fixtures_dir / "map_mixed_radix.json")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == {"re": "1/1", "im": "0/1"}


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # Python's default int/str digit limit, 4300
    return subprocess.run([sys.executable, "-m", "stretchkit", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def diagonal_tensor(tmp_path, *values):
    return write_json(tmp_path, "t.json", {
        "index_set": {"kind": "rectangular", "dims": [len(values)]}, "scalar": "gq",
        "entries": [{"row": [i], "col": [i], "value": {"re": v, "im": "0/1"}}
                    for i, v in enumerate(values)]})


def test_exact_input_past_digit_limit_exits_2(tmp_path):
    tensor = diagonal_tensor(tmp_path, "7" * 5000 + "/1", "1/1")
    fmap = write_json(tmp_path, "m.json", {"kind": "mixed-radix"})
    result = run_module("kappa", "--tensor", tensor, "--map", fmap)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("parse error: tensor.entries[0].value.re: "
                             "a number has more than 4300 digits\n")


def test_exact_output_past_digit_limit_is_written_in_full(tmp_path):
    # Each input number has 3,001 digits; the outputs have 6,001 and 4,301.
    tensor = diagonal_tensor(tmp_path, "1" + "0" * 3000 + "/1", "1" + "0" * 3000 + "/3")
    fmap = write_json(tmp_path, "m.json", {"kind": "mixed-radix"})
    kappa = run_module("kappa", "--tensor", tensor, "--map", fmap)
    assert (kappa.returncode, kappa.stderr) == (0, "")
    assert json.loads(kappa.stdout)["value"] == {"re": "1" + "0" * 6000 + "/3", "im": "0/1"}

    tensor = diagonal_tensor(tmp_path, "9" * 4300 + "/1", "9" * 4300 + "/1")
    fold = write_json(tmp_path, "fold.json", {"kind": "linear", "k": [0]})
    pretty = run_module("stretch", "--tensor", tensor, "--map", fold, "--pretty")
    assert (pretty.returncode, pretty.stderr) == (0, "")
    assert pretty.stdout.split() == ["0", "0", "|1" + "9" * 4299 + "8"]


def test_map_values_past_digit_limit_are_written_in_full(tmp_path):
    # k = 10^4299 has 4,300 digits, which input may have; on 0..10 the map
    # reaches 10^4300, which output must write in full.  json.loads reads
    # ints as text here, since this process keeps the default limit too.
    labels = ["0"] + [str(i) + "0" * 4299 for i in range(1, 11)]
    tensor = diagonal_tensor(tmp_path, *["1/1"] * 11)
    vector = write_json(tmp_path, "v.json", {
        "index_set": {"kind": "rectangular", "dims": [11]}, "scalar": "gq",
        "entries": [{"point": [i], "value": {"re": "1/1", "im": "0/1"}} for i in range(11)]})
    fmap = write_json(tmp_path, "m.json", {"kind": "linear", "k": [10 ** 4299]})
    for args, field in [(("stretch", "--tensor", tensor), "row_labels"),
                        (("permute", "--tensor", tensor, "--sigma", "1"), "col_labels"),
                        (("stretch-vector", "--vector", vector), "labels")]:
        result = run_module(*args, "--map", fmap)
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout, parse_int=str)[field] == labels
    pretty = run_module("stretch", "--tensor", tensor, "--map", fmap, "--pretty")
    assert (pretty.returncode, pretty.stderr) == (0, "")
    assert pretty.stdout.split()[:12] == labels + [labels[0]]

    # The enumeration map squares a 4,300-digit coordinate.
    points = [[10 ** 4299, 0], [0, 1]]
    explicit = write_json(tmp_path, "e.json", {
        "index_set": {"kind": "explicit", "points": points}, "scalar": "gq",
        "entries": [{"row": p, "col": p, "value": {"re": "1/1", "im": "0/1"}} for p in points]})
    enum = write_json(tmp_path, "enum.json", {"kind": "enumeration"})
    result = run_module("stretch", "--tensor", explicit, "--map", enum)
    assert (result.returncode, result.stderr) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        values = sorted(enumerate_z(p) for p in points)
        assert len(str(values[-1])) > 8000
        assert json.loads(result.stdout)["row_labels"] == values
    finally:
        sys.set_int_max_str_digits(limit)
