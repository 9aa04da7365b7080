"""Smoke tests: the demo scripts run against the source tree and succeed."""
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_jordan_table_certifies_every_row():
    proc = run_script("jordan_table.py", "--verify")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all rows certified"
    assert proc.stdout.count("[oracle: ok]") == 4 * 4 * 4


def test_compression_demo_reconstructs_within_its_tiles():
    proc = run_script("compression_demo.py")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["side"] == 16 and payload["compression_ratio"] == 16
    assert len(payload["compressed"]) == 4
