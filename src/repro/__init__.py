"""repro — service brokers for accessing backend servers in web applications.

A full reproduction of Chen & Mohapatra, *"Using Service Brokers for
Accessing Backend Servers for Web Applications"* (ICDCS 2003), built on a
from-scratch discrete-event simulation substrate.

The package layers, bottom to top:

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.net` — nodes, links, streams, datagrams;
* :mod:`repro.db`, :mod:`repro.fileserver`, :mod:`repro.http` — the
  backend servers;
* :mod:`repro.frontend` — the front-end web server and the API-based
  baseline access model;
* :mod:`repro.core` — the paper's contribution: the service broker
  framework (QoS admission, clustering, caching, prefetching, pooling,
  load balancing, transactions, centralized/distributed models);
* :mod:`repro.workload` — clients and the paper's two testbeds;
* :mod:`repro.metrics` — statistics and report rendering;
* :mod:`repro.obs` — request tracing, latency histograms, exporters.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "Simulation": "sim",
    "HostCpu": "sim",
    "Network": "net",
    "Node": "net",
    "Link": "net",
    "Address": "net",
    "BackendCrash": "net",
    "BrokerCrash": "net",
    "LinkDown": "net",
    "LinkDegrade": "net",
    "SlowBackend": "net",
    "FaultPlan": "net",
    "FaultInjector": "net",
    "Database": "db",
    "DatabaseServer": "db",
    "DatabaseClient": "db",
    "FileServer": "fileserver",
    "FileClient": "fileserver",
    "FileSystem": "fileserver",
    "DiskModel": "fileserver",
    "BackendWebServer": "http",
    "HttpClient": "http",
    "HttpRequest": "http",
    "HttpResponse": "http",
    "FrontendWebServer": "frontend",
    "WebApplication": "frontend",
    "ApiBackendGateway": "frontend",
    "qos_of": "frontend",
    "ServiceBroker": "core",
    "BrokerStage": "core",
    "StagePipeline": "core",
    "RequestContext": "core",
    "stage_plan": "core",
    "HashRing": "core",
    "ShardGroup": "core",
    "ShardDirectory": "core",
    "ShardPeerGroup": "core",
    "BackpressureStage": "core",
    "BrokerSupervisor": "core",
    "RecoveryJournal": "core",
    "CircuitBreaker": "core",
    "RetryPolicy": "core",
    "BrokerClient": "core",
    "BrokerRequest": "core",
    "BrokerReply": "core",
    "ReplyStatus": "core",
    "QoSPolicy": "core",
    "AdmissionController": "core",
    "ResultCache": "core",
    "SharedCacheTier": "core",
    "ClusteringConfig": "core",
    "IdenticalRequestCombiner": "core",
    "RepeatWorkloadCombiner": "core",
    "InListQueryCombiner": "core",
    "FileBatchCombiner": "core",
    "ConnectionPool": "core",
    "Prefetcher": "core",
    "PrefetchRule": "core",
    "FidelityPolicy": "core",
    "TransactionTracker": "core",
    "BrokerPeerGroup": "core",
    "HotSpotMonitor": "core",
    "HotSpotGate": "core",
    "HotSpotNotice": "core",
    "DatabaseAdapter": "core",
    "HttpAdapter": "core",
    "FileAdapter": "core",
    "RoundRobinBalancer": "core",
    "LeastOutstandingBalancer": "core",
    "LatencyAwareBalancer": "core",
    "LoadListener": "core",
    "ResourceProfileRegistry": "core",
    "CentralizedController": "core",
    "ClosedLoopClient": "workload",
    "BurstClient": "workload",
    "OpenLoopGenerator": "workload",
    "zipf_sampler": "workload",
    "run_clustering_experiment": "workload",
    "run_qos_experiment": "workload",
    "run_failure_recovery_experiment": "workload",
    "run_overload_experiment": "workload",
    "run_chaos_experiment": "workload",
    "FailureRecoveryResult": "workload",
    "OverloadResult": "workload",
    "ChaosResult": "workload",
    "MetricsRegistry": "metrics",
    "SummaryStats": "metrics",
    "LatencyHistogram": "metrics",
    "render_table": "metrics",
    "mm1_metrics": "analysis",
    "mmc_metrics": "analysis",
    "mva_single_station": "analysis",
    "TraceCollector": "obs",
    "Trace": "obs",
    "Span": "obs",
    "trace_from_context": "obs",
    "render_waterfall": "obs",
    "render_attribution": "obs",
    "critical_path": "obs",
    "write_chrome_trace": "obs",
    "validate_chrome_trace": "obs",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
