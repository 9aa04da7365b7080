import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# pyproject's pytest ``pythonpath`` puts src/ on this process's sys.path only;
# test subprocesses (``python -m stretchkit``) need it in the environment.
_SRC = str(REPO_ROOT / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return REPO_ROOT / "fixtures" / "paper"
