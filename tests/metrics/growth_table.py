"""The five-workload growth table: bytes per extra request, each bounded.

Not collected by the tier-1 run (the file name does not start with
``test_``): the ten traced runs take ~50 s, so CI runs it as its own step,

    PYTHONPATH=src python -m pytest -q tests/metrics/growth_table.py

``test_growth.py`` holds the bounds, the measurement and the tier-1
``qos_broker`` gate; this file asserts every row.
"""

from __future__ import annotations

import pytest

from .test_growth import TABLE, measure


@pytest.mark.parametrize("workload", list(TABLE))
def test_every_workload_stays_within_its_bound(workload):
    growth = measure(TABLE[workload])
    print(f"{workload}: {growth.report()}")
    assert growth.bytes_per_request <= TABLE[workload].bound, growth.report()
