"""Every subcommand's ``--describe`` output, byte for byte.

``repro pipeline --describe`` and the ``faults``/``shard``/``cache``
describes print stage plans through one helper; ``obs``, ``chaos``,
``telemetry`` and ``autoscale`` describe their span model, soak,
scraper and elastic pool. The copies in ``cli_describe/`` pin what
they print. Regenerate one only for a deliberate change of output::

    PYTHONPATH=src python -m repro pipeline --describe \\
        > tests/integration/cli_describe/pipeline.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

PINNED = Path(__file__).with_name("cli_describe")


@pytest.mark.parametrize(
    "command",
    [
        "pipeline", "faults", "shard", "cache",
        "obs", "chaos", "telemetry", "autoscale",
    ],
)
def test_describe_is_byte_identical(command, capsys):
    assert main([command, "--describe"]) == 0
    assert capsys.readouterr().out == (PINNED / f"{command}.txt").read_text(
        encoding="utf-8"
    )
