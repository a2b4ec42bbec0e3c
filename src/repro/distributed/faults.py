"""Chaos-injection harness: declarative fault schedules for worker clusters.

Real clusters fail in more ways than a clean process death, and the
recovery subsystem (:mod:`repro.distributed.recovery`) has to be exercised
against all of them.  A :class:`FaultPlan` is a validated schedule of
:class:`FaultSpec` entries, each naming a machine, an injection point
``(epoch, step)``, and one of four fault kinds:

``kill``
    Hard process death (``os._exit``) mid-epoch, before the step is
    reported — no cleanup, no goodbye.
``hang``
    The worker sleeps ``duration_s`` seconds at the injection point — past
    any reasonable coordinator ``timeout_s`` — modeling a wedged process,
    a GC pause, or a dead NIC.  Detection must come from the coordinator's
    receive deadline, and teardown must reap the sleeping process.
``corrupt``
    The worker's next outgoing pipe message has one payload byte flipped
    after encoding — a torn or bit-flipped wire frame.  The CRC32 trailers
    (:mod:`repro.distributed.wire`) must reject it machine-attributed;
    it must never garbage-decode.
``torn``
    After publishing its gradient slab for the step, the worker bumps the
    slab's seqlock back to *odd* (a write left in flight) before sending
    its step token — a crash mid-write in shared memory.  The
    coordinator's :meth:`GradientPlane.average` must surface it as a
    machine-attributed :class:`SlabStateError`.

Plans are plain data: each machine's :class:`FaultSpec` slice rides inside
its :class:`~repro.distributed.multiproc.WorkerSpec` through the wire
format's dataclass codec, validated before a
cluster starts, and usable identically from tests, benchmarks, and the CI
chaos-smoke job.  A plan never enters the cluster fingerprint (the
checkpoint key) — workers are generic until bound — but a backend with a
non-empty plan is never parked into the warm pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

#: Valid fault kinds, in documentation order.
FAULT_KINDS = ("kill", "hang", "corrupt", "torn")

#: Default hang duration: far past any coordinator timeout, short enough
#: that a reaped test process cannot linger for hours if SIGTERM is lost.
_DEFAULT_HANG_S = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` on ``machine`` at ``(epoch, step)``.

    ``step`` indexes the machine's local step stream; for the pipelined
    engine the fault fires in the window containing ``step``.  ``duration_s`` only
    applies to ``hang``.
    """

    kind: str
    machine: int
    epoch: int
    step: int
    duration_s: float = _DEFAULT_HANG_S

    def validate(self, num_machines: Optional[int] = None) -> "FaultSpec":
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}"
            )
        if self.machine < 0:
            raise ValueError(f"fault machine must be >= 0, got {self.machine}")
        if num_machines is not None and self.machine >= num_machines:
            raise ValueError(
                f"fault names machine {self.machine}, cluster has "
                f"{num_machines} machines"
            )
        if self.epoch < 0 or self.step < 0:
            raise ValueError(
                f"fault injection point must be non-negative, got "
                f"(epoch={self.epoch}, step={self.step})"
            )
        if self.duration_s <= 0:
            raise ValueError(
                f"hang duration_s must be positive, got {self.duration_s}"
            )
        return self


class FaultPlan:
    """A validated, immutable schedule of :class:`FaultSpec` entries.

    Construct directly from specs or with :meth:`single`.  Iteration order
    is deterministic: sorted by ``(epoch, step, machine, kind)``.
    """

    def __init__(self, faults: Iterable[FaultSpec] = ()):
        specs = sorted(faults,
                       key=lambda f: (f.epoch, f.step, f.machine, f.kind))
        self.faults: Tuple[FaultSpec, ...] = tuple(specs)

    # -- constructors ---------------------------------------------------
    @classmethod
    def single(cls, kind: str, machine: int, epoch: int, step: int,
               duration_s: float = _DEFAULT_HANG_S) -> "FaultPlan":
        """Convenience: a one-fault plan."""
        return cls([FaultSpec(kind=kind, machine=machine, epoch=epoch,
                              step=step, duration_s=duration_s)])

    # -- validation -----------------------------------------------------
    def validate(self, num_machines: Optional[int] = None,
                 steps_per_epoch: Optional[int] = None) -> "FaultPlan":
        """Check every spec; fail fast before any worker spawns."""
        seen = set()
        for fault in self.faults:
            fault.validate(num_machines)
            key = (fault.machine, fault.epoch, fault.step)
            if key in seen:
                raise ValueError(
                    f"multiple faults scheduled for machine {fault.machine} "
                    f"at (epoch={fault.epoch}, step={fault.step}); "
                    f"one injection point takes one fault"
                )
            seen.add(key)
            if steps_per_epoch is not None and fault.step >= steps_per_epoch:
                raise ValueError(
                    f"fault at step {fault.step} can never fire: the epoch "
                    f"has {steps_per_epoch} steps"
                )
        return self

    # -- views ----------------------------------------------------------
    def for_machine(self, machine: int) -> List[FaultSpec]:
        return [f for f in self.faults if f.machine == machine]

    def machines(self) -> List[int]:
        """Machines with at least one scheduled fault, ascending."""
        return sorted({f.machine for f in self.faults})

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.faults == other.faults

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{f.kind}@m{f.machine}(e{f.epoch},s{f.step})" for f in self.faults
        )
        return f"FaultPlan([{inner}])"
