"""stretchkit benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures the stretchkit sources in
``src/`` there.  Each workload runs in a fresh worker process as a closed
loop (one operation at a time, no threads) for ``--seconds``, in whole
rounds of the same operations.  Set-up time is sampled from several fresh
processes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same rounds with spans around the library's public functions and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
report with the seed, Python version and CPU count is written to
``.perfbench_out/``.  Exit code 0 means every check passed; 1 means a check
failed; 2 means the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from spans import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("algebra", "verify", "jordan", "cli")
SETUP_PROBES = 4       # set-up-only processes per run, besides the measured one
RUN_BUDGET_S = 170     # one workload run must end within this


class BenchError(Exception):
    pass


def spawn_worker(args, deadline):
    """Start worker.py, wait for it, and return the JSON it printed last."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    # A session of its own, so that a timeout also ends the commands it runs.
    with subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker did not finish in {timeout:.0f} s") from None
            raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, scale):
    """Measure one workload; returns (result line, run report)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", name, "--seed", str(seed), "--scale", scale]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn_worker(base + ["--probe"], deadline)["setup_s"])
    raw = spawn_worker(base + ["--seconds", str(seconds), "--trace", str(int(trace))],
                       deadline)
    setups.append(raw["setup_s"])
    if trace:
        units = dict(metric_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in raw["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(raw["rounds"]), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(raw["latencies"]), "unit": "ms"},
            "peak_rss_mib": {"value": raw["peak_rss_mib"], "unit": "MiB"},
        }
    result = {"correct": not raw["errors"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    report = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  scale=scale, python=platform.python_version(), cpus=os.cpu_count(),
                  errors=raw["errors"], setup_samples_s=setups,
                  rounds_s=raw.get("rounds") or raw.get("traced_rounds"),
                  untraced_rounds_s=raw.get("untraced_rounds"))
    if not trace:
        names = raw["op_names"]
        report["op_median_ms"] = {
            op: 1000 * statistics.median(raw["latencies"][i::len(names)])
            for i, op in enumerate(names)}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure this long, in whole rounds (0: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stretchkit", "__init__.py")):
        print(f"perfbench: no stretchkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, report = run_workload(name, args.seed, args.seconds, args.trace,
                                          args.scale)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        path = os.path.join(OUT_DIR, f"report-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        for error in report["errors"]:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
        print(json.dumps({"workload": name, "seed": args.seed, "python": report["python"],
                          "cpus": report["cpus"], **result}))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
