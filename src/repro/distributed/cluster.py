"""Cluster hardware model and execution backends.

Hardware half: machine, network, and cluster specifications.

The paper's testbed is 16 AWS g5.8xlarge machines (16-core AMD CPU, 128 GB
DRAM, one NVIDIA A10G with 24 GB, 25 Gbps network SLA).  These dataclasses
encode that hardware as throughput/latency parameters consumed by the
discrete-event pipeline simulator; the *workload* quantities (vertices,
bytes, FLOPs) always come from the functional execution, so changing a spec
changes only timing, never behaviour.

Rates are calibrated so the mini datasets land in the same bottleneck regime
as the paper (communication-bound without caching at 25 Gbps; compute-bound
once VIP caching removes most remote traffic).  Figure 9's slow-network
experiments reuse :meth:`NetworkSpec.with_bandwidth` at 4 and 8 Gbps, the
paper's token-bucket-filter settings.

Backend half: *where* the K logical machines actually run.  A
:class:`ClusterBackend` executes training epochs for a built system —
``"inprocess"`` (the default; K simulated machines inside this
interpreter, see :mod:`repro.distributed.executor`) or ``"multiproc"``
(one worker process per machine over shared-memory feature segments, see
:mod:`repro.distributed.multiproc`).  Backends are registered in
:data:`CLUSTER_BACKENDS` and selected by ``RunConfig.backend``; whichever
backend runs, the functional results (losses, records, traces) are
bit-identical — the parity test suite holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.records import EpochReport


GBPS = 1e9 / 8  # bytes/s per Gbit/s


@dataclass(frozen=True)
class MachineSpec:
    """Per-machine throughput model (defaults ≈ g5.8xlarge + A10G).

    Attributes
    ----------
    sample_rate:
        Candidate adjacency entries/s the shared-memory sampler examines
        (SALIENT's C++ sampler on 16 cores processes on the order of 1e8
        edge-candidates/s).
    cpu_slice_rate:
        Bytes/s for CPU-side feature tensor slicing (memory-bandwidth bound).
    gpu_slice_rate:
        Bytes/s for GPU-side slicing (HBM-bandwidth bound; A10G ~600 GB/s,
        derated for gather granularity).
    pcie_bandwidth:
        Effective host-to-device copy bandwidth.  PCIe 4.0 x16 peaks near
        12 GB/s with large pinned buffers; the mini workload's small
        scattered batches sustain well under half of that, so the default is
        calibrated to the small-transfer regime.
    gpu_flops:
        Effective training FLOP/s for the GEMM mix of GraphSAGE forward +
        backward (A10G peaks at 31.2 TF32 TFLOP/s; small-batch GNN kernels
        sustain a modest fraction).
    overhead_per_batch:
        Fixed per-minibatch CPU overhead (Python/driver/queueing), seconds.
    """

    sample_rate: float = 6.0e8
    cpu_slice_rate: float = 1.6e10
    gpu_slice_rate: float = 1.5e11
    pcie_bandwidth: float = 5.0e9
    gpu_flops: float = 6.0e11
    overhead_per_batch: float = 2.0e-5
    cpu_workers: int = 4


@dataclass(frozen=True)
class NetworkSpec:
    """Network model: full-duplex per-NIC bandwidth plus per-round latency.

    ``bandwidth`` applies independently to each machine's ingress and egress
    (the 25 Gbps SLA of g5.8xlarge); ``efficiency`` derates it for protocol
    and incast overheads of scattered all-to-alls (TCP on EC2 sustains well
    under line rate for many-peer exchanges); ``latency`` is charged once per
    communication round (all-to-all metadata exchange, kernel launch, NCCL
    setup).
    """

    bandwidth: float = 25 * GBPS
    latency: float = 1.0e-5
    efficiency: float = 0.75

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.efficiency

    def with_bandwidth(self, gbps: float) -> "NetworkSpec":
        """The paper's slow-network (token-bucket) configurations."""
        return replace(self, bandwidth=gbps * GBPS)


def ring_all_reduce_bytes(num_machines: int, num_bytes: float) -> float:
    """Bytes each NIC moves in a ring all-reduce of a ``num_bytes``
    payload: 2(K-1)/K of it (zero for a single machine)."""
    return 2.0 * (num_machines - 1) / num_machines * num_bytes


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of single-GPU machines (the paper's setting:
    experiments with K GPUs use K separate machines)."""

    num_machines: int
    machine: MachineSpec = MachineSpec()
    network: NetworkSpec = NetworkSpec()

    def __post_init__(self):
        if self.num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {self.num_machines}")

    def all_reduce_time(self, num_bytes: float) -> float:
        """Ring all-reduce: each NIC moves ~2(K-1)/K of the payload.

        Priced at full line rate (no efficiency derate): a ring moves one
        steady point-to-point stream per direction, which — unlike the
        scattered feature all-to-alls — avoids incast and sustains the SLA
        bandwidth (NCCL's design point).
        """
        k = self.num_machines
        if k == 1:
            return 0.0
        wire_bytes = ring_all_reduce_bytes(k, num_bytes)
        return 2 * self.network.latency + wire_bytes / self.network.bandwidth


#: Cluster backend registry (``RunConfig.backend``).  Entries are backend
#: classes constructed as ``cls(system)``; use :func:`make_cluster_backend`.
CLUSTER_BACKENDS = Registry("cluster backend")


class ClusterBackend:
    """Executes training epochs for a built SALIENT++ system.

    A backend owns the *runtime placement* of the K logical machines —
    threads of this process, worker processes, eventually real hosts —
    while the system owns everything else (preprocessing artifacts, the
    feature store layout, config).  Contract:

    * :meth:`run_epoch` returns an
      :class:`~repro.distributed.records.EpochReport` that is functionally
      identical across backends: same per-step losses, same
      :class:`StepRecord` volumes, same ledger bytes, and an event trace
      with the same shape (the parity suite compares them with
      ``tests/invariants.py``'s ``assert_trace_shape_equal``);
    * :meth:`evaluate` returns the same accuracy on every backend: the
      machines that trained score the split ids they own, each with its
      own replica
      (:meth:`~repro.distributed.engine.ExecutionEngine.score_machines`
      over the machine set the backend places), and arguments are checked
      (:meth:`~repro.distributed.executor.DistributedTrainer.eval_shards`)
      before any of that work starts;
    * :meth:`close` releases every runtime resource (processes, shared
      memory, pipes) and is idempotent; backends with no external
      resources inherit the no-op.
    """

    name: str = "?"

    def __init__(self, system):
        self.system = system

    @property
    def is_live(self) -> bool:
        """True while the backend holds external runtime state (worker
        processes mid-training) that a system mutation would invalidate."""
        return False

    def run_epoch(self, epoch: int, *, dry_run: bool = False) -> "EpochReport":
        raise NotImplementedError

    def evaluate(self, split: str, *,
                 fanouts: Optional[Sequence[int]] = None) -> float:
        raise NotImplementedError

    def close(self) -> None:
        """Release runtime resources; idempotent."""

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def make_cluster_backend(name: str, system) -> ClusterBackend:
    """Build the named backend for a system; unknown names raise with the
    sorted list of registered backends."""
    return CLUSTER_BACKENDS.get(name)(system)
