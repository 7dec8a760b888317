"""Two wall-clock ratio gates outside the standing e2e benchmark.

``test_perf_regression.py`` holds the telemetry scrape-share gate and
the forked-partitions floor; every other host-cost number comes from
``benchmarks/e2e/run.py``. Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q -s
"""
