"""CLI output stays byte-identical to the recorded corpus of commands.

``scripts/cli_corpus.py`` builds the commands and their input files; a change
that alters output on purpose records the new digests with
``python scripts/cli_corpus.py --write`` and names the changed commands.
"""
import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location("cli_corpus",
                                               REPO_ROOT / "scripts" / "cli_corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

RECORDED = json.loads(corpus.CORPUS.read_text(encoding="utf-8"))


def test_every_command_matches_its_recorded_digest(tmp_path):
    assert corpus.changed(RECORDED, corpus.digests(tmp_path)) == []


def test_corpus_reaches_every_documented_exit_code():
    assert len(RECORDED) >= 600
    assert {int(v.split(":")[0]) for v in RECORDED.values()} == set(range(6))


def test_changed_names_an_altered_and_a_missing_command():
    altered = dict(RECORDED, **{"--help": "0:0"})
    missing = dict(RECORDED)
    del missing["verify nosuch"]
    assert corpus.changed(RECORDED, altered) == ["--help"]
    assert corpus.changed(RECORDED, missing) == ["verify nosuch"]
