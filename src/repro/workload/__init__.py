"""Workload generators and canned experiment testbeds."""

from .._lazy import lazy_exports

_EXPORTS = {
    "BurstClient": "clients",
    "ClosedLoopClient": "clients",
    "OpenLoopGenerator": "clients",
    "ModulatedOpenLoopGenerator": "clients",
    "DiurnalLoadGenerator": "clients",
    "FlashCrowdGenerator": "clients",
    "zipf_sampler": "clients",
    "OUTCOMES": "clients",
    "OutcomeTally": "clients",
    "ClusteringResult": "scenarios",
    "QosResult": "scenarios",
    "FailureRecoveryResult": "scenarios",
    "ShardedQosResult": "scenarios",
    "CacheTierResult": "scenarios",
    "OverloadResult": "chaos",
    "ChaosResult": "chaos",
    "ShardChaosResult": "chaos",
    "AutoscaleResult": "chaos",
    "ScaleChaosResult": "chaos",
    "InvariantCheck": "chaos",
    "run_clustering_experiment": "scenarios",
    "run_qos_experiment": "scenarios",
    "run_failure_recovery_experiment": "scenarios",
    "run_sharded_qos_experiment": "scenarios",
    "run_cache_tier_experiment": "scenarios",
    "run_overload_experiment": "chaos",
    "run_chaos_experiment": "chaos",
    "run_shard_chaos_experiment": "chaos",
    "run_autoscale_experiment": "chaos",
    "run_scale_chaos_experiment": "chaos",
    "QOS_SERVICE_TIMES": "scenarios",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
