"""Run configuration for the SALIENT / SALIENT++ systems.

One :class:`RunConfig` captures everything that distinguishes the systems
compared in the paper's evaluation: replication strategy (full vs
partitioned), caching policy and replication factor α, local GPU fraction β,
VIP reordering, pipeline mode/depth, partitioner, cluster size, and network
bandwidth.  Table 1's progressive ladder and Figure 4's bars are just four
configs differing in three flags (see :func:`progressive_variants`).

Configs are validated *early*: :meth:`RunConfig.validate` (called by
:meth:`RunConfig.resolve`, i.e. at system construction) checks every name
against the partitioner / cache-policy registries and every numeric knob
against its legal range, so a typo'd policy fails with the full sorted list
of valid names instead of deep inside preprocessing stage 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.distributed.cluster import ClusterSpec, MachineSpec, NetworkSpec
from repro.distributed.dynamic_cache import is_dynamic_policy
from repro.pipeline.simulator import PipelineMode


@dataclass(frozen=True)
class ServingConfig:
    """Online-inference serving knobs (the ``config.serving`` slice).

    Consumed by :class:`repro.serving.InferenceService`; irrelevant to
    training, so no preprocessing stage fingerprints it — serving sweeps
    over batchers or SLOs reuse every partition/VIP/cache artifact.

    Attributes
    ----------
    batcher:
        Micro-batching policy name (see :data:`repro.serving.BATCHERS`):
        ``"fixed-size"`` flushes only full batches, ``"deadline"`` flushes
        when the oldest queued request has waited ``max_wait_ms``, and
        ``"cache-affinity"`` is deadline-triggered but packs micro-batches
        by feature-residency affinity.
    max_batch:
        Maximum requests per micro-batch (one MFG per micro-batch).
    max_wait_ms:
        Queueing SLO: no request waits longer than this (simulated
        milliseconds) for its micro-batch to form.  Ignored by
        ``fixed-size``.
    max_in_flight:
        Micro-batches per flush window; the window's fetch plans are
        coalesced (:meth:`FetchPlan.coalesce`) into one peer exchange.

    Requests route round-robin over the up machines, sample at the
    training fanouts, and meet a down partition with their SLO class's
    fixed action (:data:`repro.serving.service.SLO_ACTIONS`).
    """

    batcher: str = "deadline"
    max_batch: int = 16
    max_wait_ms: float = 20.0
    max_in_flight: int = 4

    def validate(self) -> "ServingConfig":
        """Fail fast on malformed serving knobs; returns ``self``."""
        from repro.serving.batcher import BATCHERS

        BATCHERS.get(self.batcher)  # raises with the sorted valid names
        if not 1 <= self.max_batch < math.inf:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not 0 < self.max_wait_ms < math.inf:
            raise ValueError(
                f"max_wait_ms must be positive and finite, got "
                f"{self.max_wait_ms}"
            )
        if not 1 <= self.max_in_flight < math.inf:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        return self

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1000.0


@dataclass(frozen=True)
class StreamingConfig:
    """Streaming-graph knobs (the ``config.streaming`` slice).

    A live system mutates through :func:`repro.graph.mutable.land_batch`
    and scores ``vip-refresh`` through a
    :class:`repro.vip.incremental.VIPTracker`, one full evaluation of the
    graph as sampled per refresh round; the overlay's compaction cutoff is
    that module's default, not configuration.  Like
    :class:`ServingConfig`, no preprocessing stage fingerprints this slice.

    Attributes
    ----------
    refresh_on_mutation:
        Serving only: point the service's tracker at the overlay when a
        mutation lands, so later refreshes score the mutated graph.
        ``False`` leaves it on the pre-churn graph — sampling follows the
        churn, cache rankings do not: the stale-cache baseline the
        streaming benchmark measures against.
    """

    refresh_on_mutation: bool = True


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one system variant on one cluster.

    The ``None``-defaulted model hyperparameters — ``fanouts``,
    ``batch_size``, and ``hidden_dim`` — are filled from the dataset's
    Table-3-analog metadata by :meth:`resolve`.  There is no ``num_layers``
    field: the layer count of the GNN (and the sampling depth) is always
    ``len(fanouts)``.
    """

    num_machines: int = 2
    fanouts: Optional[Tuple[int, ...]] = None
    batch_size: Optional[int] = None
    hidden_dim: Optional[int] = None
    lr: float = 1e-3

    # Storage strategy (§4.1, §4.2).
    full_replication: bool = False          # SALIENT baseline
    replication_factor: float = 0.0         # α — remote cache size ~ αN/K
    cache_policy: str = "vip"               # static or dynamic registry name
    gpu_fraction: float = 0.0               # β — local rows resident on GPU
    vip_reorder: bool = True                # §4.1 local ordering
    # Dynamic caching (cache_policy in {"lru", "lfu", "clock", "vip-refresh"}):
    # batches between vip-refresh cache swaps (ignored by other policies), and
    # batches between frequency-aging steps of the replacement policies.
    refresh_interval: int = 50
    cache_aging_interval: int = 64

    # Execution engine (§4.3 made functional): how the epoch actually runs.
    # "bsp" = lock-step (the paper's loop); "pipelined" = pipeline_depth
    # in-flight batches per machine with coalesced (deduplicated) remote
    # fetches; "async" = bounded-staleness local applies with parameter
    # re-convergence every `staleness + 1` steps.
    engine: str = "bsp"
    staleness: int = 0

    # Cluster backend: how the K machines actually execute.  "inprocess"
    # (default) simulates them inside this interpreter — the semantics every
    # other backend must reproduce bit-for-bit; "multiproc" runs one worker
    # process per machine over shared-memory feature segments (bsp/pipelined
    # engines with static caches and partitioned storage only).
    backend: str = "inprocess"

    # Pipeline (§4.3): simulated overlap mode, and the in-flight depth used
    # both by the simulator's gating and by the "pipelined" engine.
    pipeline: PipelineMode = PipelineMode.FULL
    pipeline_depth: int = 10

    # Online inference serving (consumed by repro.serving.InferenceService;
    # does not enter any preprocessing-stage fingerprint).
    serving: ServingConfig = field(default_factory=ServingConfig)

    # Streaming-graph mutation (delta-CSR overlay + incremental VIP; see
    # repro.graph.mutable / repro.vip.incremental).  Serving- and
    # continual-training-time only, so also outside stage fingerprints.
    streaming: StreamingConfig = field(default_factory=StreamingConfig)

    # Substrate.
    partitioner: str = "metis"              # see repro.partition.PARTITIONERS
    network_gbps: float = 25.0
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    seed: int = 0

    def cluster(self) -> ClusterSpec:
        return ClusterSpec(
            num_machines=self.num_machines,
            machine=self.machine_spec,
            network=NetworkSpec().with_bandwidth(self.network_gbps),
        )

    def validate(self) -> "RunConfig":
        """Fail fast on malformed configs; returns ``self`` for chaining.

        Registry names (``partitioner``, ``engine``, ``backend``,
        ``cache_policy``) are checked against the live registries, so the
        error for an unknown name lists every valid (including
        plugin-registered) alternative, sorted.
        Numeric knobs are range-checked: α ≥ 0, β ∈ [0, 1], positive
        intervals and depths.  Every range is finite, so NaN and ±inf
        fail with the field's name.
        """
        # Local imports: the registries live in packages that are heavier
        # than this module and must stay importable without repro.core.
        from repro.distributed import CLUSTER_BACKENDS  # registers backends
        from repro.distributed.dynamic_cache import DYNAMIC_CACHE_POLICIES
        from repro.distributed.engine import ENGINES
        from repro.partition.registry import PARTITIONERS
        from repro.vip.policies import STATIC_CACHE_POLICIES

        if not 1 <= self.num_machines < math.inf:
            raise ValueError(f"num_machines must be >= 1, got {self.num_machines}")
        PARTITIONERS.get(self.partitioner)  # raises with the sorted valid names
        ENGINES.get(self.engine)            # ditto (execution engine names)
        CLUSTER_BACKENDS.get(self.backend)  # ditto (cluster backend names)
        if self.backend == "multiproc":
            from repro.distributed.multiproc import SUPPORTED_ENGINES

            if self.engine not in SUPPORTED_ENGINES:
                raise ValueError(
                    f"the multiproc backend supports engines "
                    f"{SUPPORTED_ENGINES}, got {self.engine!r}"
                )
            if is_dynamic_policy(self.cache_policy):
                raise ValueError(
                    f"the multiproc backend requires a static cache policy "
                    f"(workers attach feature segments read-only), got "
                    f"{self.cache_policy!r}"
                )
            if self.full_replication:
                raise ValueError(
                    "the multiproc backend requires partitioned storage; "
                    "full replication would copy the whole feature matrix "
                    "into every machine's segment"
                )
        if not 0 <= self.staleness < math.inf:
            raise ValueError(
                f"staleness must be non-negative, got {self.staleness}"
            )
        if self.engine == "pipelined" and self.pipeline is not PipelineMode.FULL:
            raise ValueError(
                "the pipelined engine is the functional §4.3 pipeline; "
                "simulating it serialized is contradictory — use "
                "pipeline=PipelineMode.FULL (or engine='bsp' for the "
                "OFF/BLOCKING_COMM ablations)"
            )
        if (self.cache_policy not in STATIC_CACHE_POLICIES
                and self.cache_policy not in DYNAMIC_CACHE_POLICIES):
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"static: {STATIC_CACHE_POLICIES.names()}, "
                f"dynamic: {DYNAMIC_CACHE_POLICIES.names()}"
            )
        if self.fanouts is not None:
            if len(self.fanouts) == 0 or any(
                    not 1 <= f < math.inf for f in self.fanouts):
                raise ValueError(
                    f"fanouts must be a non-empty tuple of positive ints, "
                    f"got {self.fanouts!r}"
                )
        if self.batch_size is not None and not 1 <= self.batch_size < math.inf:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_dim is not None and not 1 <= self.hidden_dim < math.inf:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.replication_factor < math.inf:
            raise ValueError(
                f"replication_factor (alpha) must be non-negative and "
                f"finite, got {self.replication_factor}"
            )
        if not 0.0 <= self.gpu_fraction <= 1.0:
            raise ValueError(
                f"gpu_fraction (beta) must be in [0, 1], got {self.gpu_fraction}"
            )
        if not 1 <= self.refresh_interval < math.inf:
            raise ValueError(
                f"refresh_interval must be >= 1 batch, got {self.refresh_interval}"
            )
        if not 0 <= self.cache_aging_interval < math.inf:
            raise ValueError(
                f"cache_aging_interval must be non-negative (0 disables "
                f"aging), got {self.cache_aging_interval}"
            )
        if not 1 <= self.pipeline_depth < math.inf:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if not 0 < self.network_gbps < math.inf:
            raise ValueError(
                f"network_gbps must be positive and finite, got "
                f"{self.network_gbps}"
            )
        self.serving.validate()
        return self

    def resolve(self, dataset) -> "RunConfig":
        """Fill the ``None`` hyperparameters — ``fanouts``, ``batch_size``,
        ``hidden_dim`` — from the dataset's default experiment metadata (the
        Table 3 analog), then :meth:`validate` the result."""
        defaults = dataset.metadata.get("default_experiment", {})
        updates = {}
        if self.fanouts is None:
            updates["fanouts"] = tuple(defaults.get("fanouts", (5, 4, 3)))
        if self.batch_size is None:
            updates["batch_size"] = int(defaults.get("batch_size", 64))
        if self.hidden_dim is None:
            updates["hidden_dim"] = int(defaults.get("hidden_dim", 64))
        cfg = replace(self, **updates) if updates else self
        return cfg.validate()

    def describe(self) -> str:
        if self.full_replication:
            storage = "full replication"
        elif self.replication_factor > 0:
            storage = f"partitioned + {self.cache_policy} cache (a={self.replication_factor:g})"
            if self.cache_policy == "vip-refresh":
                storage += f" every {self.refresh_interval} batches"
            elif is_dynamic_policy(self.cache_policy):  # replacement family
                if self.cache_aging_interval > 0:
                    storage += f", aging every {self.cache_aging_interval} batches"
                else:
                    storage += ", no aging"
        else:
            storage = "partitioned"
        engine = self.engine
        if engine == "pipelined":
            engine += f"(depth={self.pipeline_depth})"
        elif engine == "async":
            engine += f"(staleness={self.staleness})"
        backend = "" if self.backend == "inprocess" else f", backend={self.backend}"
        return (f"{storage}, engine={engine}, pipeline={self.pipeline.value}, "
                f"K={self.num_machines}, net={self.network_gbps:g}Gbps{backend}")


def progressive_variants(num_machines: int,
                         cache_alpha: float) -> List[Tuple[str, RunConfig]]:
    """The Table 1 / Figure 4 ladder of progressively optimized systems.

    ``cache_alpha`` follows the paper's per-K schedule for Table 1
    (8% at K=2, 16% at K=4, 32% at K=8).
    """
    base = RunConfig(num_machines=num_machines)
    return [
        ("SALIENT (full replication)",
         replace(base, full_replication=True, pipeline=PipelineMode.FULL)),
        ("+ Partitioned features",
         replace(base, pipeline=PipelineMode.BLOCKING_COMM)),
        ("+ Pipelined communication",
         replace(base, pipeline=PipelineMode.FULL)),
        ("+ Feature caching",
         replace(base, pipeline=PipelineMode.FULL,
                 replication_factor=cache_alpha, cache_policy="vip")),
    ]


def table1_alpha(num_machines: int) -> float:
    """Table 1's cache sizes: 8% (2 machines), 16% (4), 32% (8+)."""
    if num_machines <= 2:
        return 0.08
    if num_machines <= 4:
        return 0.16
    return 0.32
