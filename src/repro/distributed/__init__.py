"""Simulated distributed runtime: cluster specs, partitioned feature store
with CPU/GPU tiers and static or dynamic remote caches, byte-accounted
collectives, the bulk-synchronous data-parallel trainer, and the cluster
backends (in-process simulation, or one real worker process per machine
over shared memory)."""

from repro.distributed.cluster import (
    CLUSTER_BACKENDS,
    GBPS,
    ClusterBackend,
    ClusterSpec,
    MachineSpec,
    NetworkSpec,
    make_cluster_backend,
)
from repro.distributed.comm import (
    CommLedger,
    all_reduce_gradients,
    average_parameters,
    broadcast_state,
    gradient_nbytes,
)
from repro.distributed.engine import (
    ENGINES,
    AsyncEngine,
    BSPEngine,
    ExecutionEngine,
    PipelinedEngine,
    assemble_report,
    make_engine,
    train_batch,
)
from repro.distributed.dynamic_cache import (
    DYNAMIC_CACHE_POLICIES,
    CacheChurnStats,
    DynamicCache,
    DynamicCacheSpec,
    is_dynamic_policy,
)
from repro.distributed.feature_store import (
    CoalescedFetchPlan,
    FetchPlan,
    GatherArena,
    GatherStats,
    MachineStore,
    PartitionedFeatureStore,
    StaticCache,
)
from repro.distributed.executor import DistributedTrainer, InProcessBackend
from repro.distributed.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.distributed.multiproc import (
    WORKER_POOL,
    MultiprocBackend,
    WorkerFailedError,
    WorkerPool,
)
from repro.distributed.records import EpochReport, StepRecord
from repro.distributed.recovery import (
    RecoveryManager,
    RecoveryPolicy,
    load_checkpoint,
    save_checkpoint,
)
from repro.distributed.shm_plane import (
    GradientPlane,
    GradSlab,
    SlabLayout,
    SlabStateError,
    TornReadError,
)
from repro.distributed.wire import WireError

__all__ = [
    "CLUSTER_BACKENDS",
    "ClusterBackend",
    "make_cluster_backend",
    "InProcessBackend",
    "MultiprocBackend",
    "WorkerFailedError",
    "WorkerPool",
    "WORKER_POOL",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "RecoveryManager",
    "RecoveryPolicy",
    "load_checkpoint",
    "save_checkpoint",
    "GradientPlane",
    "GradSlab",
    "SlabLayout",
    "SlabStateError",
    "TornReadError",
    "WireError",
    "GBPS",
    "ClusterSpec",
    "MachineSpec",
    "NetworkSpec",
    "CommLedger",
    "all_reduce_gradients",
    "average_parameters",
    "broadcast_state",
    "gradient_nbytes",
    "ENGINES",
    "AsyncEngine",
    "BSPEngine",
    "ExecutionEngine",
    "PipelinedEngine",
    "assemble_report",
    "make_engine",
    "train_batch",
    "DYNAMIC_CACHE_POLICIES",
    "CacheChurnStats",
    "DynamicCache",
    "DynamicCacheSpec",
    "is_dynamic_policy",
    "CoalescedFetchPlan",
    "FetchPlan",
    "GatherArena",
    "GatherStats",
    "MachineStore",
    "PartitionedFeatureStore",
    "StaticCache",
    "DistributedTrainer",
    "EpochReport",
    "StepRecord",
]
