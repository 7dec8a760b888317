"""``repro --help`` and every subcommand's ``--help``, byte for byte.

The help text is the CLI's flag surface: every flag name, ``dest``
metavar, choice list, default and help string shows up in it, in
declaration order. The copies in ``cli_help/`` pin what argparse
prints at 80 columns. Regenerate one only for a deliberate change of
the flag surface::

    COLUMNS=80 PYTHONPATH=src python -m repro fig7 --help \\
        > tests/integration/cli_help/fig7.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

PINNED = Path(__file__).with_name("cli_help")

COMMANDS = [
    "fig7", "fig9", "fig10", "table1", "drops", "pipeline", "faults",
    "shard", "obs", "chaos", "cache", "telemetry", "autoscale",
]


@pytest.mark.parametrize("command", ["repro", *COMMANDS])
def test_help_is_byte_identical(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "repro" else [command, "--help"]
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert capsys.readouterr().out == (PINNED / f"{command}.txt").read_text(
        encoding="utf-8"
    )
