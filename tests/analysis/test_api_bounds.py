"""The paper's API model (Fig. 9 baseline) against its asymptotic bound.

Without brokers every client visits the three backends in turn, each a
bounded CGI of ``c`` concurrent slots with service time ``D_i``. For a
closed loop of ``N`` clients with think time ``Z``, operational analysis
bounds the mean response time from below by ``max(sum(D), N * D_max /
c - Z)``: a request costs at least its total demand, and the
bottleneck backend completes at most ``c / D_max`` requests per second.
The simulated mean must sit on that bound to within 2 % at light load
(N = 6), at the knee (N = 15) and deep in saturation (N = 60).
"""

from __future__ import annotations

import pytest

from repro.workload import run_qos_experiment
from repro.workload.scenarios import (
    QOS_SERVICE_TIMES,
    _QOS_BACKEND_CAPACITY,
    _QOS_THINK_TIME,
)


def _response_bound(n_clients: int) -> float:
    total = sum(QOS_SERVICE_TIMES)
    bottleneck = max(QOS_SERVICE_TIMES) / _QOS_BACKEND_CAPACITY
    return max(total, n_clients * bottleneck - _QOS_THINK_TIME)


@pytest.mark.parametrize("n_clients", [6, 15, 60])
def test_api_mean_response_meets_asymptotic_bound(n_clients):
    result = run_qos_experiment(n_clients, mode="api", duration=2000.0, seed=2026)
    assert result.mean_response_time == pytest.approx(
        _response_bound(n_clients), rel=0.02
    )
