"""Streaming graphs walkthrough: mutate, refresh, train, and serve.

The paper's pipeline assumes a frozen graph; this example exercises the
streaming extension that lifts that assumption:

1. **Delta-CSR overlay** — wrap a CSR graph in a
   :class:`~repro.graph.mutable.MutableGraph`, land edge-churn batches,
   and read rows through the overlay without rebuilding anything.
2. **Incremental VIP** — take a :func:`~repro.vip.incremental.snapshot_vip`
   once, then refresh it per churn window with
   :func:`~repro.vip.incremental.incremental_vip`, comparing wall time and
   verifying **bit-identity** against a full Proposition-1 sweep on the
   rebuilt (materialized) graph every window.
3. **Continual training** — push churn into a built ``vip-refresh`` system
   with :meth:`SalientPP.apply_graph_updates`; the next epoch samples the
   mutated topology and its caches re-rank on Proposition 1 evaluated on
   that same overlay (``system.tracker``: one batched full evaluation on
   the overlay's ``materialize()`` per refresh round).
4. **Serving under churn** — play the same mutation stream against an
   ``InferenceService`` between request windows.

Run:  python examples/streaming_vip.py   (finishes in well under a minute)
"""

import time

import numpy as np

from repro.core import RunConfig, SalientPP, ServingConfig, StreamingConfig
from repro.graph.datasets import make_synthetic_dataset
from repro.graph.generators import edge_stream
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.serving import InferenceService, poisson_requests
from repro.utils import Table
from repro.vip import incremental_vip, snapshot_vip, vip_probabilities
from repro.vip.analytic import uniform_minibatch_probability

K = 4
FANOUTS = (5, 4, 3)


def build_dataset():
    return make_synthetic_dataset(
        "stream-demo", num_vertices=20_000, avg_degree=12.0, feature_dim=32,
        num_classes=8, num_communities=16, intra_fraction=0.95, power=2.6,
        train_frac=0.3, seed=1,
    )


def overlay_basics(ds):
    print("== Delta-CSR overlay ==")
    mg = MutableGraph(ds.graph, compact_cutoff=None)
    before = int(mg.degrees[0])
    mg.add_edges([0, 0], [100, 200])
    print(f"vertex 0 degree: {before} -> {int(mg.degrees[0])} "
          f"(version {mg.version}, {mg.overlay_entries} overlay entries)")
    print(f"dirty frontier since v0: {mg.dirty_frontier(0)}")
    mg.compact()
    print(f"compacted: version {mg.version}, "
          f"overlay entries {mg.overlay_entries}")
    return mg


def incremental_refresh(ds):
    print("\n== Incremental VIP under churn ==")
    n = ds.num_vertices
    big = int(np.argmax(np.bincount(ds.community)))
    train = np.intersect1d(ds.train_idx, np.flatnonzero(ds.community == big))
    p0 = uniform_minibatch_probability(n, train, 256)
    remote = np.flatnonzero(ds.community != big)

    mg = MutableGraph(ds.graph, compact_cutoff=None)
    snap = snapshot_vip(mg, p0, FANOUTS)
    table = Table(["window", "inc ms", "full ms", "speedup", "rows", "exact"],
                  title="incremental_vip vs rebuild + vip_probabilities",
                  float_fmt="{:.1f}")
    for w, batch in enumerate(edge_stream(mg, num_batches=4, batch_edges=60,
                                          pool=remote, delete_fraction=0.3,
                                          seed=7)):
        mg.apply(batch)
        t0 = time.perf_counter()
        snap = incremental_vip(mg, snap, churn_cutoff=1.0)
        inc = time.perf_counter() - t0
        mg._csr, mg._csr_version = None, -1  # charge the rebuild honestly
        t0 = time.perf_counter()
        ref = vip_probabilities(mg.materialize(), p0, FANOUTS)
        full = time.perf_counter() - t0
        table.add_row([w, inc * 1e3, full * 1e3, f"{full / inc:.1f}x",
                       snap.stats.rows_recomputed,
                       bool(np.array_equal(snap.result.total, ref.total))])
    print(table.render())


def continual_training(ds):
    print("\n== Continual training across churn ==")
    cfg = RunConfig(num_machines=K, replication_factor=0.1,
                    cache_policy="vip-refresh", batch_size=32,
                    fanouts=FANOUTS, seed=0)
    system = SalientPP.build(ds, cfg)
    rng = np.random.default_rng(7)
    n = ds.num_vertices
    for epoch in range(3):
        result = system.train_epoch(epoch, dry_run=True)
        graph = system.tracker.graph
        print(f"epoch {epoch}: comm rows {result.report.total_comm_rows()}, "
              f"{sum(c.refreshes for c in result.report.cache_churn)} cache "
              f"re-ranks scored on {type(graph).__name__} "
              f"v{graph.version} ({graph.num_edges} edges)")
        rec = system.apply_graph_updates(EdgeBatch(
            add_src=rng.integers(0, n, 300),
            add_dst=rng.integers(0, n, 300)))
        print(f"  churn -> overlay v{rec.version} (+{rec.edges_added} "
              "entries); caches re-rank on it at their next gather")


def serving_under_churn(ds):
    print("\n== Serving with mutations between windows ==")
    cfg = RunConfig(
        num_machines=K, partitioner="random", fanouts=FANOUTS, batch_size=32,
        replication_factor=0.1, cache_policy="vip-refresh",
        refresh_interval=8, network_gbps=0.5, seed=0,
        serving=ServingConfig(batcher="deadline", max_batch=8,
                              max_wait_ms=15.0, max_in_flight=4),
        streaming=StreamingConfig(refresh_on_mutation=True),
    )
    svc = InferenceService.from_system(SalientPP.build(ds, cfg))
    rng = np.random.default_rng(3)
    n = ds.num_vertices
    workload = poisson_requests(np.arange(n), 400, 8, rate_rps=2_000.0,
                                hot_fraction=0.01, hot_mass=0.9, seed=11)
    muts = [(0.03 + 0.05 * i, EdgeBatch(add_src=rng.integers(0, n, 500),
                                        add_dst=rng.integers(0, n, 500)))
            for i in range(3)]
    report = svc.run(workload, mutations=muts)
    summary = report.summary()
    print(f"served {len(report.records)} requests across "
          f"{svc.mutations_applied} mutation batches: "
          f"p50 {summary['p50_ms']:.2f} ms, p99 {summary['p99_ms']:.2f} ms, "
          f"comm rows {report.gather.comm_rows()}")


def main():
    ds = build_dataset()
    overlay_basics(ds)
    incremental_refresh(ds)
    continual_training(ds)
    serving_under_churn(ds)


if __name__ == "__main__":
    main()
