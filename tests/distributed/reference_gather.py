"""The one-plan gather as it stood before every gather became a comm window.

Frozen at ``2c446c4``: ``PartitionedFeatureStore.execute`` — its all-local
early return included — and everything it called (``_output_for``,
``_rows_into`` / ``_scatter_rows``, the boolean-mask ``_fetch_remote_rows``,
``_maintain_dynamic_cache``), copied verbatim as functions whose ``self`` is
the store.  ``test_gather_reference.py`` (beside this file) holds
``execute_coalesced`` — the only place ``src/repro`` assembles rows now — to
it for every id mix, cache kind and output mode.  Never edit: a parity oracle
is the written reason this second implementation exists.
"""

from typing import Optional

import numpy as np

from repro.distributed.dynamic_cache import DynamicCache
from repro.distributed.feature_store import FetchPlan, GatherStats, MachineStore


def _is_run(pos: np.ndarray) -> bool:
    """True when ``pos`` is one contiguous run of row indices.

    Plan positions come from ``np.flatnonzero`` and are strictly
    increasing, so spanning exactly ``len - 1`` means consecutive."""
    n = len(pos)
    return n > 0 and int(pos[n - 1]) - int(pos[0]) == n - 1


def _scatter_rows(out: np.ndarray, pos: np.ndarray, rows: np.ndarray) -> None:
    """``out[pos] = rows``, as a plain slice store when ``pos`` is one
    contiguous run — fancy-index scatter walks an index array per row."""
    if len(pos) == 0:
        return
    if _is_run(pos):
        lo = int(pos[0])
        out[lo:lo + len(pos)] = rows
    else:
        out[pos] = rows


def _rows_into(out: np.ndarray, pos: np.ndarray, src: np.ndarray,
               idx: np.ndarray) -> None:
    """``out[pos] = src[idx]`` without materializing ``src[idx]`` when
    ``pos`` is one contiguous run into a C-contiguous ``out`` — the
    gather then lands directly in the destination rows (``np.take`` with
    ``out=``), saving the intermediate row matrix the two-step spelling
    allocates per call."""
    if len(pos) == 0:
        return
    if _is_run(pos) and out.flags.c_contiguous:
        lo = int(pos[0])
        np.take(src, idx, axis=0, out=out[lo:lo + len(pos)])
    else:
        out[pos] = src[idx]


def _output_for(self, plan: FetchPlan, out: Optional[np.ndarray]):
    dtype = self.stores[plan.machine].local_features.dtype
    shape = (len(plan.ids), self.feature_dim)
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    if out.dtype != dtype:
        raise ValueError(f"out must have dtype {dtype}, got {out.dtype}")
    return out


def execute(self, plan: FetchPlan, *, out: Optional[np.ndarray] = None):
    """Execute one :class:`FetchPlan`: assemble the feature matrix, take
    :class:`GatherStats`, then run dynamic-cache maintenance.

    Bit-identical to the pre-split ``gather`` for any id mix (the parity
    property test in ``tests/distributed/test_engine.py`` asserts this).
    ``out``, when given, is the caller-owned output matrix to fill
    (every row is written) and becomes the returned feature matrix.
    """
    store = self.stores[plan.machine]
    if (out is None and not store.has_dynamic_cache
            and len(plan.local_ids) == len(plan.ids)):
        # All-local plan with no caller buffer: the fancy-indexed local
        # rows are already the full output in plan order (local_pos is
        # then arange(len(ids))) — skip the second matrix entirely.
        stats = GatherStats(
            total_rows=len(plan.ids),
            gpu_rows=plan.gpu_rows,
            cpu_rows=plan.cpu_rows,
            cached_rows=0,
            remote_rows=0,
            remote_per_peer=np.zeros(self.num_machines, dtype=np.int64),
        )
        return store.local_rows(plan.local_ids), stats
    out = _output_for(self, plan, out)
    _rows_into(out, plan.local_pos, store.local_features,
               plan.local_ids - store.lo)
    _scatter_rows(out, plan.cached_pos, store.cached_rows(plan.cached_ids))
    remote_rows, remote_per_peer = _fetch_remote_rows(
        self, plan.machine, plan.remote_ids
    )
    _scatter_rows(out, plan.remote_pos, remote_rows)

    stats = GatherStats(
        total_rows=len(plan.ids),
        gpu_rows=plan.gpu_rows,
        cpu_rows=plan.cpu_rows,
        cached_rows=len(plan.cached_ids),
        remote_rows=len(plan.remote_ids),
        remote_per_peer=remote_per_peer,
    )
    if store.has_dynamic_cache:
        _maintain_dynamic_cache(self, store, stats, plan, out)
    return out, stats


def _maintain_dynamic_cache(
    self,
    store: MachineStore,
    stats: GatherStats,
    plan: FetchPlan,
    out: np.ndarray,
) -> None:
    """Post-gather cache update for one plan: hits, admissions, and
    due refreshes.

    Inside a coalesced window the plan's classification may be stale by
    now (an earlier sub-plan's maintenance can admit or evict), so
    membership is re-checked against the *current* cache: still-cached
    planned hits and since-admitted planned misses count as hits; the
    rest of the planned misses are admission candidates.  For a plan
    executed on its own the re-checks change nothing.
    """
    cache: DynamicCache = store.cache
    evictions_before = cache.churn.evictions
    still_cached = store.is_cached(plan.cached_ids)
    cache.note_hits(plan.cached_ids[still_cached])
    now_cached = store.is_cached(plan.remote_ids)
    cache.note_hits(plan.remote_ids[now_cached])
    stats.cache_insertions += cache.admit(
        plan.remote_ids[~now_cached], out[plan.remote_pos[~now_cached]]
    )
    if cache.end_batch(plan.nonlocal_ids):
        if self._refresh_score_fn is not None:
            scores = np.asarray(
                self._refresh_score_fn(store.part_id), dtype=np.float64
            ).copy()
        else:
            scores = cache.observed_scores()
        scores[store.lo:store.hi] = 0.0  # locals never need caching
        refresh_plan = cache.plan_refresh(
            scores, horizon=cache.spec.refresh_interval
        )
        new_rows, fetch_per_peer = _fetch_remote_rows(
            self, store.part_id, refresh_plan.new_ids
        )
        cache.commit_refresh(refresh_plan, new_rows)
        stats.refresh_fetch_per_peer = fetch_per_peer
        stats.cache_insertions += len(refresh_plan.new_ids)
    stats.cache_evictions = cache.churn.evictions - evictions_before


def _fetch_remote_rows(self, machine: int, ids: np.ndarray):
    """Copy rows for remote ``ids`` from their owners (refresh traffic)."""
    rows = np.empty((len(ids), self.feature_dim),
                    dtype=self.stores[machine].local_features.dtype)
    per_peer = np.zeros(self.num_machines, dtype=np.int64)
    if len(ids):
        owners = self.reordered.owner_of(ids)
        for peer in np.unique(owners):
            sel = owners == peer
            rows[sel] = self.stores[peer].local_rows(ids[sel])
            per_peer[peer] = int(sel.sum())
    return rows, per_peer
