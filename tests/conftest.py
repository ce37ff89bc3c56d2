import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def subprocess_env():
    """Environment for running the CLI as a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(autouse=True)
def no_held_table():
    """Release the oracle table an earlier test left behind, so no test
    depends on which tests ran before it."""
    from wrpg.resilience import _encoded_range

    _encoded_range.cache_clear()
