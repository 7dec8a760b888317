"""Simulated network substrate: nodes, links, streams, datagrams, faults."""

from .._lazy import lazy_exports

_EXPORTS = {
    "Address": "address",
    "Link": "link",
    "Envelope": "message",
    "estimate_size": "message",
    "Network": "network",
    "Node": "network",
    "Route": "network",
    "DatagramSocket": "transport",
    "StreamConnection": "transport",
    "StreamListener": "transport",
    "BackendCrash": "faults",
    "BrokerCrash": "faults",
    "LinkDown": "faults",
    "LinkDegrade": "faults",
    "SlowBackend": "faults",
    "FaultPlan": "faults",
    "FaultInjector": "faults",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
