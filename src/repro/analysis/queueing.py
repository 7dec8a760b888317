"""Closed-form queueing results used to validate the simulator.

The reproduction's credibility rests on the DES kernel producing correct
queueing behaviour, so this module provides the classical results —
M/M/1, M/M/c (Erlang C), and exact single-station closed-network MVA —
and the test suite checks simulated systems against them within tight
tolerances (``tests/analysis/test_queueing_validation.py``).

These are also handy for sizing experiments analytically, e.g. the
EXPERIMENTS.md calibration note derives the QoS-testbed admission
fractions from the closed-loop throughput bound computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "QueueMetrics",
    "mm1_metrics",
    "mmc_metrics",
    "erlang_c",
    "ClosedLoopMetrics",
    "mva_single_station",
]


@dataclass(frozen=True)
class QueueMetrics:
    """Steady-state metrics of an open queueing station."""

    utilization: float
    mean_wait: float          # time in queue, excluding service
    mean_response: float      # queue + service
    mean_queue_length: float  # jobs waiting, excluding in service
    mean_jobs: float          # total jobs at the station


def mm1_metrics(arrival_rate: float, service_rate: float) -> QueueMetrics:
    """M/M/1 steady state; requires utilization < 1."""
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("rates must be positive")
    rho = arrival_rate / service_rate
    if rho >= 1:
        raise ValueError(f"unstable queue: utilization {rho:.3f} >= 1")
    mean_response = 1.0 / (service_rate - arrival_rate)
    mean_wait = mean_response - 1.0 / service_rate
    return QueueMetrics(
        utilization=rho,
        mean_wait=mean_wait,
        mean_response=mean_response,
        mean_queue_length=arrival_rate * mean_wait,
        mean_jobs=arrival_rate * mean_response,
    )


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """P(wait > 0) for an M/M/c queue (the Erlang C formula)."""
    if servers < 1:
        raise ValueError(f"servers must be >= 1: {servers!r}")
    offered = arrival_rate / service_rate  # in Erlangs
    rho = offered / servers
    if rho >= 1:
        raise ValueError(f"unstable queue: utilization {rho:.3f} >= 1")
    # Sum_{k<c} a^k/k!  and the c-term, computed iteratively for stability.
    term = 1.0
    total = 1.0
    for k in range(1, servers):
        term *= offered / k
        total += term
    term *= offered / servers
    c_term = term / (1.0 - rho)
    return c_term / (total + c_term)


def mmc_metrics(arrival_rate: float, service_rate: float, servers: int) -> QueueMetrics:
    """M/M/c steady state; requires utilization < 1."""
    probability_wait = erlang_c(arrival_rate, service_rate, servers)
    rho = arrival_rate / (servers * service_rate)
    mean_wait = probability_wait / (servers * service_rate - arrival_rate)
    mean_response = mean_wait + 1.0 / service_rate
    return QueueMetrics(
        utilization=rho,
        mean_wait=mean_wait,
        mean_response=mean_response,
        mean_queue_length=arrival_rate * mean_wait,
        mean_jobs=arrival_rate * mean_response,
    )


@dataclass(frozen=True)
class ClosedLoopMetrics:
    """Steady state of a closed interactive system (N clients, think Z)."""

    clients: int
    throughput: float
    mean_response: float
    mean_queue_length: float


def mva_single_station(
    clients: int, service_demand: float, think_time: float
) -> ClosedLoopMetrics:
    """Exact Mean Value Analysis for one single-server station.

    N closed-loop clients cycle: think ``think_time``, then need
    ``service_demand`` seconds at a single-server FCFS station. This is
    the structure of a ClosedLoopClient population hammering one
    capacity-1 resource, and the asymptotic bound
    ``X = min(1/D, N/(D+Z))`` the EXPERIMENTS.md calibration uses.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1: {clients!r}")
    if service_demand <= 0 or think_time < 0:
        raise ValueError("service_demand must be > 0 and think_time >= 0")
    queue_length = 0.0
    response = service_demand
    throughput = 0.0
    for n in range(1, clients + 1):
        response = service_demand * (1.0 + queue_length)
        throughput = n / (response + think_time)
        queue_length = throughput * response
    return ClosedLoopMetrics(
        clients=clients,
        throughput=throughput,
        mean_response=response,
        mean_queue_length=queue_length,
    )
