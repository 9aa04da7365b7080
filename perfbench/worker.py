"""Run one workload in this process and print its raw figures as JSON.

``run.py`` starts this script; it is not meant to be run by hand.  The
process imports stretchkit from ``src/`` of the checkout, builds the
workload's inputs, and then runs whole rounds of the workload's operations,
one at a time, until ``--seconds`` have passed.  The first round's outputs
are checked against the references in ``exact.py``; later rounds must
reproduce them.  ``--probe`` stops after set-up, to sample set-up time.
With ``--trace 1`` untraced and traced rounds alternate and the traced ones
yield per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from spans import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, OpError  # noqa: E402


def import_library():
    sys.path.insert(0, SRC)  # run.py has checked that src/stretchkit exists
    import stretchkit
    return stretchkit


def run_round(ops, tracer=None):
    """Run every operation once, in order; returns (seconds, latencies, outputs)."""
    clock = time.perf_counter
    outputs, latencies = {}, []
    start = clock()
    for i, (name, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = fn(outputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = OpError(exc)
        latencies.append(clock() - t0)
        outputs[name] = out
    return clock() - start, latencies, outputs


def digest(out):
    """Cheap fingerprint of one output, to compare rounds within a process."""
    if isinstance(out, dict):
        return json.dumps(out, sort_keys=True, default=str)
    if isinstance(out, OpError):
        return repr(out)
    for attr in ("data", "blocks", "eigen_data"):
        if hasattr(out, attr):
            return hash(getattr(out, attr))
    return hash(out)


class Runner:
    """Rounds, failure counts and output checks of one workload."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None

    def round(self, tracer=None):
        seconds, latencies, outputs = run_round(self.ops, tracer)
        self.attempted += len(self.ops)
        self.failed += sum(self.workload.failed(n, o) for n, o in outputs.items())
        fingerprint = {n: digest(o) for n, o in outputs.items()}
        if self.reference is None:
            self.reference = fingerprint
            self.peak_rss_mib = peak_rss_mib(self.workload.name)
            try:
                self.errors += self.workload.check(outputs)
            except Exception as exc:  # an unreadable output is a wrong output
                self.errors.append(f"check could not read the outputs: {exc!r}")
        elif fingerprint != self.reference:
            self.errors.append("a later round's outputs differ from the first round's")
        return seconds, latencies

    def report(self):
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def peak_rss_mib(workload):
    """Peak resident memory: this process, or for ``cli`` its largest command."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(runner, seconds):
    deadline = time.perf_counter() + seconds
    rounds, latencies = [], []
    while True:
        wall, lat = runner.round()
        rounds.append(wall)
        latencies += lat
        if time.perf_counter() >= deadline:
            break
    return dict(runner.report(), rounds=rounds, latencies=latencies,
                op_names=[name for name, _ in runner.ops], peak_rss_mib=runner.peak_rss_mib)


def import_seconds(samples=5):
    """Time to import stretchkit.cli in a fresh interpreter (median)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import stretchkit.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                             text=True, timeout=60, check=True).stdout
        times.append(float(out))
    return statistics.median(times)


def measure_traced(runner, seconds, spans_path):
    """Alternate untraced and traced rounds; per-layer figures from the traced."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    untraced, traced, layers = [], [], []
    while True:
        untraced.append(runner.round()[0])
        tracer.install()
        try:
            wall = runner.round(tracer)[0]
        finally:
            tracer.uninstall()
        traced.append(wall)
        layer = tracer.per_layer()
        layer["trace.glue_s"] = wall - sum(v for k, v in layer.items() if k.endswith(".self_s"))
        layers.append(layer)
        if time.perf_counter() >= deadline:
            break
    tracer.dump(spans_path)
    per_layer = {}
    for name, _ in metric_names():
        values = [layer[name] for layer in layers if name in layer]
        if values:
            per_layer[name] = statistics.median(values) if name.endswith("_s") else values[-1]
    per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    per_layer["cli.import_s"] = import_seconds()
    return dict(runner.report(), traced_rounds=traced, untraced_rounds=untraced,
                per_layer=per_layer)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    sk = import_library()
    inprocess = args.trace == 1 or args.workload != "cli"
    if args.workload == "cli" and inprocess:
        import stretchkit.cli  # noqa: F401  (in-process commands go through main)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    workload = WORKLOADS[args.workload](sk, args.seed, args.scale, workdir)
    try:
        ops = workload.ops(inprocess)
        setup_s = time.monotonic() - args.spawned_at
        if args.probe:
            result = {}
        elif args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = measure_traced(Runner(workload, ops), args.seconds, spans)
        else:
            result = measure(Runner(workload, ops), args.seconds)
    finally:
        workload.close()
    result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
