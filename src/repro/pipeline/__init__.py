"""Performance model: cost model + discrete-event pipeline simulator.

Reproduces the paper's §4.3 deep-pipelining design and Appendix D stage
taxonomy: exact per-step workload volumes from the functional executor are
priced into stage durations and scheduled onto per-machine CPU/GPU/PCIe/NIC
resources, yielding deterministic epoch times and Figure-8-style
attributions.  Dynamic-cache maintenance (insertion memcpys, refresh
fetches) is charged on the same resources.
"""

from repro.pipeline.costmodel import CostModel, ModelDims
from repro.pipeline.events import (
    EventTrace,
    Stage,
    StageEvent,
)
from repro.pipeline.simulator import (
    PipelineMode,
    PipelineResult,
    simulate_trace,
)

__all__ = [
    "CostModel",
    "ModelDims",
    "EventTrace",
    "Stage",
    "StageEvent",
    "PipelineMode",
    "PipelineResult",
    "simulate_trace",
]
