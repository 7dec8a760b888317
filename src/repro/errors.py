"""Exception hierarchy for the :mod:`repro` package.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch the whole family with a single ``except`` clause.
Subsystem-specific families (simulation kernel, network, database,
broker) each have their own intermediate base class.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class EventAlreadyTriggered(SimError):
    """An event was succeeded or failed more than once."""


class EventNotTriggered(SimError):
    """The value of a pending event was accessed before it triggered."""


class StopSimulation(Exception):
    """Internal control-flow exception used to halt :meth:`Simulation.run`.

    Not a :class:`ReproError`: it never escapes ``run()``.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(SimError):
    """Raised inside a process that has been interrupted.

    The optional *cause* passed to :meth:`Process.interrupt` is available
    as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network substrate errors."""


class NoRouteError(NetworkError):
    """No link exists between the two nodes involved in a transfer."""


class AddressInUse(NetworkError):
    """A node attempted to bind a port that is already bound."""


class ConnectionRefused(NetworkError):
    """No listener was bound at the destination address."""


class ConnectionClosed(NetworkError):
    """The peer closed the stream connection."""


# ---------------------------------------------------------------------------
# Backend services
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for backend service errors."""


class ProtocolError(ServiceError):
    """A server received a message it does not understand."""


class QueryError(ServiceError):
    """Base class for database query errors."""


class SqlSyntaxError(QueryError):
    """The mini-SQL parser rejected the statement."""


class UnknownTableError(QueryError):
    """A query referenced a table that does not exist."""


class UnknownColumnError(QueryError):
    """A query referenced a column that does not exist."""


class HttpError(ServiceError):
    """An HTTP exchange failed at the protocol level."""

    def __init__(self, status: int) -> None:
        super().__init__(f"HTTP {status}")
        self.status = status


# ---------------------------------------------------------------------------
# Service broker framework
# ---------------------------------------------------------------------------


class BrokerError(ReproError):
    """Base class for service broker errors."""


class AdmissionRejected(BrokerError):
    """A request was rejected by admission control.

    Carries the :attr:`reason` the admission controller recorded (for
    example ``"qos-threshold"`` or ``"class-intensity"``).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class BrokerTimeout(BrokerError):
    """A broker client gave up waiting for a reply."""


class UnknownServiceError(BrokerError):
    """A request named a service the broker does not front."""
