"""Tests of the benchmark itself: its checks reject corrupted outputs, every
workload runs at smoke size, and the traced run reports every layer."""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import stretchkit as sk  # noqa: E402
import stretchkit.cli  # noqa: E402,F401
from spans import Tracer, metric_names  # noqa: E402
from worker import run_round  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS, CliResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def smoke_round(name, tmp_path, inprocess=True, tracer=None):
    workload = WORKLOADS[name](sk, 3, "smoke", str(tmp_path / "work"))
    _, _, outputs = run_round(workload.ops(inprocess), tracer)
    return workload, outputs


def failures(workload, outputs):
    return {n for n, o in outputs.items() if workload.failed(n, o)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_round_passes_its_checks(name, tmp_path):
    workload, outputs = smoke_round(name, tmp_path)
    try:
        assert workload.check(outputs) == []
        assert failures(workload, outputs) <= set(KNOWN_FAULTS)
    finally:
        workload.close()


def test_cli_commands_run_as_processes(tmp_path):
    workload, outputs = smoke_round("cli", tmp_path, inprocess=False)
    try:
        assert workload.check(outputs) == []
        assert failures(workload, outputs) <= set(KNOWN_FAULTS)
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_reports_every_layer_and_restores(name, tmp_path):
    original = sk.stretching.stretch
    tracer = Tracer().install()
    try:
        workload, outputs = smoke_round(name, tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    try:
        assert workload.check(outputs) == []
    finally:
        workload.close()
    assert sk.stretch is original and sk.verify.stretch is original
    assert "wrapper" not in sk.IndexMap.partition.__code__.co_name
    layer = tracer.per_layer()
    expected = {n for n, _ in metric_names()} - {"cli.import_s", "trace.overhead_s",
                                                  "trace.glue_s"}
    assert set(layer) == expected
    assert layer["scalars.coerce.calls"] > 0
    assert all(v >= -1e-9 for k, v in layer.items() if k.endswith("self_s"))
    if name == "cli":
        assert layer["cli.main.calls"] == len(outputs)
        assert layer["serialize.bytes_in"] > 0 and layer["serialize.bytes_out"] > 0


def bump(v):
    return v + 1


def test_algebra_check_rejects_one_changed_entry(tmp_path):
    workload, outputs = smoke_round("algebra", tmp_path)
    changed = dict(outputs)
    m = outputs["stretch:lin111"]
    changed["stretch:lin111"] = sk.DenseMatrix(m.kind, m.n_rows, m.n_cols,
                                               (bump(m.data[0]),) + m.data[1:],
                                               m.row_labels, m.col_labels)
    for key in ("convolve:max", "average:table", "average-raw:lin123"):
        t = outputs[key]
        changed[key] = sk.Tensor(t.domain, t.kind, t.data[:-1] + (bump(t.data[-1]),))
    x = outputs["act:max"]
    changed["act:max"] = sk.TensorVector(x.domain, x.kind, (bump(x.data[0]),) + x.data[1:])
    changed["kappa:lin123"] = bump(outputs["kappa:lin123"])
    errors = " | ".join(workload.check(changed))
    for key in ("stretch:lin111", "convolve:max fails a random-vector probe",
                "convolve:max breaks", "average:table", "average-raw:lin123",
                "act:max", "kappa:lin123"):
        assert key in errors


def test_jordan_check_rejects_one_resized_block(tmp_path):
    workload, outputs = smoke_round("jordan", tmp_path)

    def resized(spec):
        (size, eig), *rest = spec.blocks
        return sk.JordanSpec([(size + 1, eig), *rest])

    changed = dict(outputs)
    k = workload.sizes["nfold"][-1]
    changed[f"nfold:{k}"] = resized(outputs[f"nfold:{k}"])
    changed["closed:0"] = resized(outputs["closed:0"])
    errors = " | ".join(workload.check(changed))
    assert f"nfold:{k}: total dimension" in errors
    assert "fold 0: closed form differs from the rank oracle" in errors
    assert "closed:0: eigenvalue multiplicities" in errors


def test_cli_check_rejects_altered_exit_code_and_output(tmp_path):
    workload, outputs = smoke_round("cli", tmp_path)
    try:
        for name in ("error:domain", "stretch:lin111"):
            r = outputs[name]
            assert not workload.failed(name, r)
            assert workload.failed(name, CliResult(r.code + 1, r.out, r.err))
        changed = dict(outputs)
        obj = json.loads(outputs["stretch:lin111"].out)
        obj["data"][0][0]["re"] = "12345/1"
        changed["stretch:lin111"] = CliResult(0, json.dumps(obj, sort_keys=True, indent=2)
                                              + "\n", "")
        r = outputs["error:permutation"]
        changed["error:permutation"] = CliResult(r.code, "", "Traceback (most recent call)\n")
        r = outputs["cf64-stretch:fold"]
        changed["cf64-stretch:fold"] = CliResult(0, r.out.replace("\n", "\n  ", 1), "")
        errors = " | ".join(workload.check(changed))
        assert "stretch:lin111: output differs from the reference" in errors
        assert "error:permutation: exit 4 without its one-line message" in errors
        assert "cf64-stretch:fold: output is not in canonical form" in errors
    finally:
        workload.close()


def test_verify_check_rejects_a_failed_identity(tmp_path):
    workload, outputs = smoke_round("verify", tmp_path)
    name = next(iter(outputs))
    report = json.loads(json.dumps(outputs[name]))
    report["checks"][0]["passed"] = False
    errors = workload.check(dict(outputs, **{name: report}))
    assert errors == [f"{name}: an identity failed"]


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "jordan",
                           "--seed", "2", "--seconds", "0", "--trace", str(trace),
                           "--scale", "smoke"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
