"""Vertex-inclusion-probability (VIP) analysis and caching policies.

The paper's core contribution: an analytical model (Proposition 1) of which
vertices a machine's minibatches will touch during node-wise neighborhood
sampling, and the maximum-likelihood static caching policy it induces.  The
policy zoo also names the dynamic extensions (gated LRU replacement and
periodic VIP refresh, :mod:`repro.distributed.dynamic_cache`) for
non-stationary workloads the static analysis cannot serve.
"""

from repro.distributed.dynamic_cache import is_dynamic_policy
from repro.vip.analytic import (
    TransitionTable,
    VIPResult,
    expected_remote_volume,
    partitionwise_vip,
    transition_table,
    uniform_minibatch_probability,
    vip_for_training_set,
    vip_probabilities,
)
from repro.vip.incremental import (
    RefreshStats,
    VIPSnapshot,
    VIPTracker,
    incremental_vip,
    snapshot_vip,
)
from repro.vip.empirical import (
    montecarlo_inclusion_frequency,
    simulate_access_counts,
)
from repro.vip.policies import (
    CacheContext,
    CachePolicy,
    DegreePolicy,
    HaloPolicy,
    NoCachePolicy,
    NumPathsPolicy,
    OraclePolicy,
    STATIC_CACHE_POLICIES,
    SimulationPolicy,
    VIPAnalyticPolicy,
    WeightedReversePageRankPolicy,
    build_caches,
    cache_budget,
    default_policies,
)
from repro.vip.commvolume import (
    AccessTrace,
    PolicyVolume,
    evaluate_policies,
    geometric_mean_improvement,
    record_access_trace,
    remote_volume_for_caches,
)

__all__ = [
    "TransitionTable",
    "VIPResult",
    "expected_remote_volume",
    "partitionwise_vip",
    "transition_table",
    "uniform_minibatch_probability",
    "vip_for_training_set",
    "vip_probabilities",
    "RefreshStats",
    "VIPSnapshot",
    "VIPTracker",
    "incremental_vip",
    "snapshot_vip",
    "montecarlo_inclusion_frequency",
    "simulate_access_counts",
    "CacheContext",
    "CachePolicy",
    "DegreePolicy",
    "HaloPolicy",
    "NoCachePolicy",
    "NumPathsPolicy",
    "OraclePolicy",
    "STATIC_CACHE_POLICIES",
    "SimulationPolicy",
    "VIPAnalyticPolicy",
    "WeightedReversePageRankPolicy",
    "build_caches",
    "cache_budget",
    "default_policies",
    "is_dynamic_policy",
    "AccessTrace",
    "PolicyVolume",
    "evaluate_policies",
    "geometric_mean_improvement",
    "record_access_trace",
    "remote_volume_for_caches",
]
