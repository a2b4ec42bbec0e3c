"""Simulated collectives with exact byte accounting.

Gradient synchronization really averages the per-machine gradient arrays
(so distributed training is bit-identical across machines), and every
collective reports the bytes it would move, which the performance model
prices using the :class:`~repro.distributed.cluster.NetworkSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.distributed.cluster import ring_all_reduce_bytes
from repro.nn.module import Module, Parameter


@dataclass
class CommLedger:
    """Cumulative communication volumes (bytes) for one epoch/run.

    ``feature_bytes[k, j]`` — feature payload machine ``k`` received from
    machine ``j``; ``request_bytes`` — vertex-id request lists (8 bytes/id);
    ``gradient_bytes[k]`` — all-reduce wire bytes per machine.
    """

    num_machines: int
    feature_bytes: np.ndarray = field(default=None)
    request_bytes: np.ndarray = field(default=None)
    gradient_bytes: np.ndarray = field(default=None)

    def __post_init__(self):
        k = self.num_machines
        if self.feature_bytes is None:
            self.feature_bytes = np.zeros((k, k), dtype=np.float64)
        if self.request_bytes is None:
            self.request_bytes = np.zeros((k, k), dtype=np.float64)
        if self.gradient_bytes is None:
            self.gradient_bytes = np.zeros(k, dtype=np.float64)

    def record_feature_fetch(self, machine: int, remote_per_peer: np.ndarray,
                             bytes_per_row: int) -> None:
        rows = np.asarray(remote_per_peer, dtype=np.float64)
        self.feature_bytes[machine] += rows * bytes_per_row
        self.request_bytes[machine] += rows * 8  # one int64 id per requested row

    def record_all_reduce(self, wire_bytes_per_machine: float) -> None:
        self.gradient_bytes += wire_bytes_per_machine

    def total_feature_bytes(self) -> float:
        return float(self.feature_bytes.sum())

    def total_bytes(self) -> float:
        return float(self.feature_bytes.sum() + self.request_bytes.sum()
                     + self.gradient_bytes.sum())

    def merged(self, other: "CommLedger") -> "CommLedger":
        out = CommLedger(self.num_machines)
        out.feature_bytes = self.feature_bytes + other.feature_bytes
        out.request_bytes = self.request_bytes + other.request_bytes
        out.gradient_bytes = self.gradient_bytes + other.gradient_bytes
        return out


def gradient_nbytes(model: Module) -> int:
    """Wire size of one full gradient: the bytes of its parameters, which
    gradients and the all-reduce share (``nn.module.DTYPE``)."""
    return int(sum(p.data.nbytes for p in model.parameters()))


def average_into(per_machine: List[List[np.ndarray]],
                 out: List[np.ndarray]) -> None:
    """Average per-machine arrays field by field, into ``out``.

    ``per_machine[k][i]`` is machine ``k``'s array for field ``i`` (dense,
    the shape of ``out[i]``); ``out[i]`` receives machine 0's array, then
    ``+= a_1 ... += a_{K-1}``, then one ``/= K``.  That sequence is the
    *single* definition of the collective's floating-point semantics: the
    in-process gradient all-reduce, parameter averaging and the multiproc
    :class:`~repro.distributed.shm_plane.GradientPlane` all call this, which
    is what keeps their losses bit-identical.
    """
    k = len(per_machine)
    if k == 0:
        raise ValueError("no arrays to average")
    for i, acc in enumerate(out):
        acc[...] = per_machine[0][i]
        for fields in per_machine[1:]:
            acc += fields[i]
        acc /= k


def replica_params(models: List[Module]) -> List[List[Parameter]]:
    """Each parameter's K replicas, in ``named_parameters()`` order: the
    table a reduce walks.  A caller reducing the same replicas every step
    builds it once and passes it as ``table=`` (the :class:`Parameter`
    objects stay; what a step or a restore rebinds is their ``data``)."""
    if not models:
        raise ValueError("no model replicas")
    named = [dict(m.named_parameters()) for m in models]
    keys = list(named[0])
    for nd in named[1:]:
        if list(nd) != keys or any(
            nd[key].data.shape != named[0][key].data.shape for key in keys
        ):
            raise ValueError("model replicas have mismatched parameters")
    return [[nd[key] for nd in named] for key in keys]


def bind_replicas(table: List[List[Parameter]]) -> None:
    """Rebind every replica's parameters to the first replica's arrays
    (``table`` as :func:`replica_params` builds it): after a gradient
    all-reduce and one optimizer step over the first replica, the update
    every other replica would compute, without computing it."""
    for params in table:
        for p in params[1:]:
            p.data = params[0].data


def _record_ring(models: List[Module], ledger: Optional[CommLedger]) -> None:
    """Charge ``ledger`` one ring all-reduce of a model-sized payload."""
    if ledger is not None and len(models) > 1:
        ledger.record_all_reduce(
            ring_all_reduce_bytes(len(models), gradient_nbytes(models[0])))


def all_reduce_gradients(
    models: List[Module],
    ledger: Optional[CommLedger] = None,
    *,
    table: Optional[List[List[Parameter]]] = None,
) -> None:
    """Average gradients across per-machine model replicas, in place.

    Parameters missing a gradient on some machine contribute zeros (that
    machine's batch never touched them), matching DDP semantics.  After this
    call every replica holds identical averaged gradients — the *same*
    arrays, shared: nothing under ``src/repro`` writes a gradient in place
    (``tests/nn/test_grad_aliasing.py``) — so one optimizer step over one
    replica computes every replica's update: the epoch loop steps its
    first machine's optimizer once and binds the other replicas to the
    stepped weights (:meth:`~repro.distributed.engine.ExecutionEngine.run_machines`).
    """
    for params in table or replica_params(models):
        grads = [p.grad for p in params]
        like = next((g for g in grads if g is not None), params[0].data)
        avg = np.empty_like(like)
        average_into([[np.zeros_like(like) if g is None else g]
                      for g in grads], [avg])
        for p in params:
            p.grad = avg
    _record_ring(models, ledger)


def average_parameters(
    models: List[Module],
    ledger: Optional[CommLedger] = None,
    *,
    table: Optional[List[List[Parameter]]] = None,
) -> None:
    """Average model *parameters* (not gradients) across replicas, in place.

    The synchronization point of the bounded-staleness ``async`` execution
    engine: replicas apply their local gradients immediately and re-converge
    by parameter averaging every ``staleness + 1`` steps.  The wire cost is
    the same ring all-reduce as a gradient reduction (parameters and
    gradients have identical shapes), which the ledger records.
    """
    for params in table or replica_params(models):
        avg = np.empty_like(params[0].data)
        average_into([[p.data] for p in params], [avg])
        for p in params:
            p.data[...] = avg
    _record_ring(models, ledger)


def broadcast_state(models: List[Module], source: int = 0) -> None:
    """Copy machine ``source``'s weights to all replicas (training start)."""
    state = models[source].state_dict()
    for i, m in enumerate(models):
        if i != source:
            m.load_state_dict(state)
