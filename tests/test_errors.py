"""Sanity tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_class",
        [
            errors.SimError,
            errors.EventAlreadyTriggered,
            errors.EventNotTriggered,
            errors.Interrupt,
            errors.NetworkError,
            errors.NoRouteError,
            errors.AddressInUse,
            errors.ConnectionRefused,
            errors.ConnectionClosed,
            errors.ServiceError,
            errors.ProtocolError,
            errors.QueryError,
            errors.SqlSyntaxError,
            errors.UnknownTableError,
            errors.UnknownColumnError,
            errors.HttpError,
            errors.BrokerError,
            errors.AdmissionRejected,
            errors.BrokerTimeout,
            errors.UnknownServiceError,
        ],
    )
    def test_everything_is_a_repro_error(self, exc_class):
        assert issubclass(exc_class, errors.ReproError)

    def test_stop_simulation_is_internal_not_repro_error(self):
        assert not issubclass(errors.StopSimulation, errors.ReproError)

    def test_interrupt_cause(self):
        assert errors.Interrupt("why").cause == "why"
        assert errors.Interrupt().cause is None

    def test_http_error_carries_status(self):
        exc = errors.HttpError(503)
        assert exc.status == 503
        assert "503" in str(exc)

    def test_admission_rejected_carries_reason(self):
        exc = errors.AdmissionRejected("qos-threshold")
        assert exc.reason == "qos-threshold"

    def test_query_errors_are_service_errors(self):
        # Brokers catch ServiceError to turn backend failures into
        # ERROR replies; SQL errors must be inside that family.
        assert issubclass(errors.SqlSyntaxError, errors.ServiceError)
        assert issubclass(errors.UnknownTableError, errors.ServiceError)
