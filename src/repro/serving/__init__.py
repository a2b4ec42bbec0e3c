"""Online inference serving: SLO-aware micro-batching over the partitioned
feature store (the ROADMAP's inference-workload half of the north star).

The subsystem layers four pieces over the existing store / cost-model /
event stack — nothing below it changed shape:

* :mod:`repro.serving.workload` — open-loop (Poisson / trace) and
  closed-loop load generators over drifting-popularity request streams;
* :mod:`repro.serving.batcher` — the :data:`BATCHERS` registry of
  micro-batching policies (``fixed-size``, ``deadline``,
  ``cache-affinity``);
* :mod:`repro.serving.service` — :class:`InferenceService`, the
  event-driven per-machine serving loop with coalesced feature fetches
  and a forward pass per micro-batch;
* :mod:`repro.serving.metrics` — the per-request latency ledger priced
  through :meth:`CostModel.event_duration` (p50/p95/p99, throughput,
  comm rows per request).
"""

from repro.serving.batcher import (
    BATCHERS,
    CacheAffinityBatcher,
    DeadlineBatcher,
    FixedSizeBatcher,
    MicroBatcher,
    make_batcher,
    one_hop_union,
)
from repro.serving.metrics import (
    AvailabilityLedger,
    RequestRecord,
    ServingReport,
)
from repro.serving.service import InferenceService, Outage, forward_flops
from repro.serving.workload import (
    ClosedLoopWorkload,
    Request,
    poisson_requests,
    trace_requests,
)

__all__ = [
    "BATCHERS",
    "CacheAffinityBatcher",
    "DeadlineBatcher",
    "FixedSizeBatcher",
    "MicroBatcher",
    "make_batcher",
    "one_hop_union",
    "AvailabilityLedger",
    "RequestRecord",
    "ServingReport",
    "InferenceService",
    "Outage",
    "forward_flops",
    "ClosedLoopWorkload",
    "Request",
    "poisson_requests",
    "trace_requests",
]
