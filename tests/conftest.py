"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc

import pytest

from repro.net import Link, Network
from repro.sim import Simulation


@pytest.fixture
def sim() -> Simulation:
    """A fresh simulation with a fixed seed."""
    return Simulation(seed=42)


@pytest.fixture
def net(sim: Simulation) -> Network:
    """A network where every node pair is joined by a LAN link."""
    return Network(sim, default_link=Link.lan())


@pytest.fixture
def no_collector():
    """Switch the cyclic collector off for the test, starting from a clean heap."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
