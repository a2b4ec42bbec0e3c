"""Checkpoint/replay recovery for the multiproc backend.

The multiproc backend's original failure contract was fail-fast: any worker
death, hang, or protocol violation tore the whole cluster down and raised a
machine-attributed :class:`~repro.distributed.multiproc.WorkerFailedError`.
This module adds the other half of fault tolerance — *continuing* — without
giving up the backend's bit-identity guarantee:

- :class:`RecoveryPolicy` bounds how hard to try (``max_restarts``) and how
  fast (backoff doubling per attempt, with deterministic jitter: the jitter
  draw is a pure function of ``(seed, attempt)``, so recovery timing is
  reproducible run-to-run like everything else here).
- :class:`RecoveryManager` drives multi-epoch training on a *recoverable*
  :class:`~repro.distributed.multiproc.MultiprocBackend`: after every
  successful epoch it captures an epoch-boundary checkpoint (model and
  optimizer state, every sampler's RNG cursor, and a fingerprint of the
  cluster's cache selection); on a worker failure — mid-epoch or
  mid-capture — it backs off, calls :meth:`MultiprocBackend.recover` to
  respawn only the failed ranks (parked workers first), and replays the
  interrupted epoch from the last checkpoint.  Because the checkpoint
  restores the exact sampler cursors, the replayed epoch's losses are
  bit-identical to a fault-free run's.
- :func:`save_checkpoint` / :func:`load_checkpoint` persist checkpoints
  through the existing :class:`~repro.core.planner.ArtifactCache` as its
  ``"checkpoint"`` kind.  The checkpoint dict is plain wire data, so the
  disk entry is one :mod:`~repro.distributed.wire` frame (CRC32 per array
  and over the whole frame) published by a single atomic rename: weights,
  epoch, Adam step and RNG cursors can only ever come from the same epoch,
  and a damaged file is a miss, not a wrong restore.  A run killed
  outright — coordinator and all, even mid-persist — can warm-start from
  disk.

Every recovery is logged in :attr:`RecoveryManager.recoveries` with its
detection / backoff / respawn / replay walls, which is what the perf
harness's ``recovery.mttr`` stage reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.distributed.multiproc import MultiprocBackend, WorkerFailedError
from repro.obs import OBS
from repro.utils.rng import as_generator, derive_seed


# ----------------------------------------------------------------------
# Policy.

@dataclass(frozen=True)
class RecoveryPolicy:
    """How many restarts to attempt and how to pace them.

    Attempt ``i`` (0-based, counted across the whole run) sleeps
    ``min(backoff_max_s, backoff_base_s * 2**i)`` scaled by a
    deterministic jitter in ``[1 - jitter, 1 + jitter]`` before recovering.
    A checkpoint is taken after every epoch.
    """

    max_restarts: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def validate(self) -> "RecoveryPolicy":
        if not 0 <= self.max_restarts < math.inf:
            raise ValueError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if not 0 < self.backoff_base_s < math.inf:
            raise ValueError(
                f"backoff_base_s must be positive and finite, got "
                f"{self.backoff_base_s}"
            )
        if not self.backoff_base_s <= self.backoff_max_s < math.inf:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be finite and "
                f">= backoff_base_s ({self.backoff_base_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        return self

    def backoff_s(self, attempt: int) -> float:
        """Backoff before restart ``attempt`` (0-based).  Deterministic in
        ``(seed, attempt)``: reruns back off identically."""
        base = min(self.backoff_max_s, self.backoff_base_s * 2.0 ** attempt)
        r = as_generator(derive_seed(self.seed, "recovery-backoff",
                                     attempt)).random()
        return base * (1.0 + self.jitter * (2.0 * r - 1.0))


# ----------------------------------------------------------------------
# Checkpoint persistence through the ArtifactCache.

def save_checkpoint(cache, fingerprint: str, ckpt: dict) -> None:
    """Persist a checkpoint through an :class:`ArtifactCache` (both tiers).

    ``fingerprint`` addresses the run — :class:`RecoveryManager` uses the
    cluster fingerprint, so a checkpoint can only ever be restored into a
    cluster with the identical topology, training set, and cache layout.
    Successive epochs overwrite the same entry: only the newest checkpoint
    is ever needed, and the disk entry is one wire frame swapped in by a
    single rename — a crash mid-persist leaves the previous epoch's
    checkpoint whole.
    """
    cache.put_memory("checkpoint", fingerprint, ckpt)
    cache.save_disk("checkpoint", fingerprint, ckpt)


def load_checkpoint(cache, fingerprint: str) -> Optional[dict]:
    """The newest persisted checkpoint for ``fingerprint``, or ``None``
    (no entry, disk disabled, or a corrupt file — the cache degrades to a
    miss, and training starts from epoch 0)."""
    hit = cache.get_memory("checkpoint", fingerprint)
    if hit is not None:
        return hit
    return cache.load_disk("checkpoint", fingerprint)


# ----------------------------------------------------------------------
# The manager.

class RecoveryManager:
    """Drive multi-epoch training with checkpoint/replay fault recovery.

    Wraps a :class:`MultiprocBackend` constructed with ``recoverable=True``
    (anything else fails fast on the first fault before the manager can
    act).  :meth:`train` is the whole loop: run an epoch and checkpoint it;
    on success, advance; on :class:`WorkerFailedError` from either, back
    off per the policy, :meth:`~MultiprocBackend.recover` the failed ranks,
    and replay the interrupted epoch from the last checkpoint.  The backend restores
    every RNG cursor from the checkpoint, so the replayed epoch — and all
    later ones — produce bit-identical losses to a fault-free run.

    Parameters
    ----------
    backend:
        A recoverable multiproc backend (live or not-yet-started).
    policy:
        Restart budget and backoff pacing; defaults to
        ``RecoveryPolicy()``.
    cache:
        Optional :class:`~repro.core.planner.ArtifactCache`.  When given,
        every checkpoint is also persisted (kind ``"checkpoint"``, keyed by
        the cluster fingerprint) and :meth:`train` warm-starts from the
        newest persisted checkpoint if the in-memory one is absent.
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    """

    def __init__(self, backend: MultiprocBackend,
                 policy: Optional[RecoveryPolicy] = None, *,
                 cache=None,
                 sleep: Callable[[float], None] = time.sleep):
        if not backend.recoverable:
            raise ValueError(
                "RecoveryManager requires a backend constructed with "
                "recoverable=True (a fail-fast backend tears the cluster "
                "down before recover() can run)"
            )
        self.backend = backend
        self.policy = (policy if policy is not None
                       else RecoveryPolicy()).validate()
        self.cache = cache
        self._sleep = sleep
        self.checkpoint: Optional[dict] = None
        self.restarts = 0
        #: One dict per recovery: ``epoch``, ``machine`` (the attributed
        #: rank), ``error``, ``detect_s`` (epoch start -> failure raised),
        #: ``backoff_s``, ``recover_s`` (respawn + restore), ``replay_s``
        #: (the successful rerun of that epoch).  MTTR per event is
        #: ``detect_s + backoff_s + recover_s + replay_s``.
        self.recoveries: List[dict] = []

    # -- checkpoint plumbing -------------------------------------------
    def _persist(self) -> None:
        if self.cache is not None and self.checkpoint is not None:
            fp = self.backend.fingerprint
            if fp is not None:
                save_checkpoint(self.cache, fp, self.checkpoint)

    def load_persisted(self) -> Optional[int]:
        """Adopt the newest persisted checkpoint for this cluster, if any.

        Returns the epoch to resume from (checkpoint epoch + 1), or
        ``None`` when there is nothing to adopt.  The backend must be live
        (started) so the cluster fingerprint exists; call
        :meth:`MultiprocBackend.start` first, then this, then feed the
        returned epoch to :meth:`train` as ``start_epoch``.
        """
        if self.cache is None:
            return None
        self.backend.start()
        fp = self.backend.fingerprint
        if fp is None:
            return None
        ckpt = load_checkpoint(self.cache, fp)
        if ckpt is None:
            return None
        self.checkpoint = ckpt
        self.backend.recover(ckpt)
        return int(ckpt["epoch"]) + 1

    # -- the loop -------------------------------------------------------
    def train(self, epochs: int, *, start_epoch: int = 0) -> List:
        """Run ``[start_epoch, epochs)``; recover and replay on failures.

        Returns the per-epoch :class:`~repro.distributed.executor.
        EpochReport` list (replayed epochs appear once, with their final —
        successful — report).  Exhausting ``policy.max_restarts`` closes
        the backend and re-raises the machine-attributed failure.
        """
        reports: List = []
        epoch = start_epoch
        while epoch < epochs:
            t_epoch = time.monotonic()
            try:
                report = self.backend.run_epoch(epoch)
                t_done = time.monotonic()
                checkpoint = self.backend.capture_checkpoint(epoch)
            except WorkerFailedError as exc:
                detect_s = time.monotonic() - t_epoch
                if self.restarts >= self.policy.max_restarts:
                    if OBS.enabled:
                        OBS.metrics.counter("mp.recovery_exhausted").inc()
                    self.backend.close()
                    raise
                attempt = self.restarts
                self.restarts += 1
                delay = self.policy.backoff_s(attempt)
                self._sleep(delay)
                t_recover = time.monotonic()
                self.backend.recover(self.checkpoint)
                recover_s = time.monotonic() - t_recover
                self.recoveries.append({
                    "epoch": epoch,
                    "machine": exc.machine,
                    "error": str(exc),
                    "detect_s": detect_s,
                    "backoff_s": delay,
                    "recover_s": recover_s,
                    "replay_s": None,  # filled when the replay succeeds
                    "_t_resume": time.monotonic(),
                })
                continue
            last = self.recoveries[-1] if self.recoveries else None
            if last is not None and last["replay_s"] is None \
                    and epoch == last["epoch"]:
                last["replay_s"] = t_done - last.pop("_t_resume")
            reports.append(report)
            self.checkpoint = checkpoint
            self._persist()
            epoch += 1
        return reports

    # -- MTTR -----------------------------------------------------------
    def mttr_s(self) -> Optional[float]:
        """Mean time-to-recovery over completed recoveries (detection +
        backoff + respawn/restore + replay), or ``None`` if none."""
        done = [r for r in self.recoveries if r["replay_s"] is not None]
        if not done:
            return None
        total = sum(r["detect_s"] + r["backoff_s"] + r["recover_s"]
                    + r["replay_s"] for r in done)
        return total / len(done)
