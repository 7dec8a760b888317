"""Two examples' stdout, byte for byte, against a committed copy.

``examples/quickstart.py`` prints each broker stage's sample count and
mean time (``n=`` / ``mean``) from the metrics registry, and
``examples/overload_control.py`` the listener's mean ``update_lag`` —
the reads a change to how registry samples are stored could move. The
copies in ``example_stdout/`` were captured before registry samples
became moments; regenerate them only for a deliberate change of output::

    PYTHONPATH=src python examples/quickstart.py \\
        > tests/integration/example_stdout/quickstart.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PINNED = Path(__file__).with_name("example_stdout")


@pytest.mark.parametrize("example", ["quickstart", "overload_control"])
def test_stdout_is_byte_identical(example):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        capture_output=True,
        env=env,
        check=True,
    )
    assert run.stdout == (PINNED / f"{example}.txt").read_bytes()
