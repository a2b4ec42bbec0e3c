"""End-to-end streaming wiring: config, generator, serving, and training.

The overlay and the incremental refresh are exercised in isolation by their
own suites; this file checks the seams — the :func:`edge_stream`
live-mutation contract, and that after a mutation lands
(``InferenceService.run(..., mutations=...)`` in both refresh modes,
:meth:`SalientPP.apply_graph_updates` in training) the scores a
``vip-refresh`` cache re-ranks on are Proposition 1 on the graph being
sampled, while the planner-cached artifacts sibling systems share stay
untouched.
"""

import numpy as np
import pytest

from repro.core import Planner, RunConfig, StreamingConfig
from repro.graph import CSRGraph, erdos_renyi
from repro.graph.generators import edge_stream
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.vip.analytic import uniform_minibatch_probability
from vip_cases import full_access  # full Proposition 1, held to the oracle


class TestStreamingConfig:
    def test_defaults_validate(self):
        RunConfig(streaming=StreamingConfig()).validate()


class TestEdgeStream:
    def test_live_apply_contract(self):
        """Batches are generated against the *current* graph: applying each
        one before drawing the next never references missing vertices, and
        deletions name edges that exist at generation time."""
        g = erdos_renyi(200, 6.0, seed=0)
        mg = MutableGraph(g, compact_cutoff=None)
        n_ops = 0
        for batch in edge_stream(mg, num_batches=5, batch_edges=20, seed=1):
            for s, d in zip(batch.del_src, batch.del_dst):
                assert d in mg.neighbors(int(s))
            mg.apply(batch)
            n_ops += batch.num_ops
        assert n_ops > 0
        assert mg.version == 5

    def test_pool_restricted(self):
        g = erdos_renyi(100, 5.0, seed=4)
        mg = MutableGraph(g, compact_cutoff=None)
        pool = np.arange(20)
        for batch in edge_stream(mg, num_batches=3, batch_edges=10,
                                 pool=pool, seed=5):
            for arr in (batch.add_src, batch.add_dst, batch.del_src):
                assert len(arr) == 0 or arr.max() < 20
            mg.apply(batch)

    @pytest.mark.parametrize("pool", [[-1, 5, 7], [3, 60]])
    def test_pool_outside_the_graph_rejected(self, pool):
        g = erdos_renyi(50, 4.0, seed=6)
        with pytest.raises(ValueError, match=r"pool vertex .* outside \[0, 50\)"):
            next(edge_stream(g, num_batches=1, batch_edges=5, pool=pool,
                             seed=0))


@pytest.fixture(scope="module")
def planner():
    """Shared by every build below: a system mutating its graph must leave
    the cached artifacts clean for the builds that follow."""
    return Planner()


def build_system(planner, ds, *, refresh_on_mutation=True):
    cfg = RunConfig(num_machines=2, replication_factor=0.2, batch_size=16,
                    cache_policy="vip-refresh", refresh_interval=4,
                    streaming=StreamingConfig(
                        refresh_on_mutation=refresh_on_mutation))
    return planner.build(ds, cfg)


def random_batch(rng, n, adds, dels=0):
    return EdgeBatch(add_src=rng.integers(0, n, adds),
                     add_dst=rng.integers(0, n, adds),
                     del_src=rng.integers(0, n, dels),
                     del_dst=rng.integers(0, n, dels))


def spy_on_plan_refresh(cache):
    """Record (a copy of) every score vector the store hands ``cache``."""
    seen, plan_refresh = [], cache.plan_refresh

    def recording(scores, **kwargs):
        seen.append(scores.copy())
        return plan_refresh(scores, **kwargs)

    cache.plan_refresh = recording
    return seen


def sampled_csr(graph):
    return (graph.materialize() if isinstance(graph, MutableGraph)
            else graph)


class TestServingMutations:
    def _run(self, system):
        """Serve across three mutation batches, recording every score
        vector the refresh provider returned with the p0 it was asked for
        and the graph the samplers read at that moment."""
        from repro.serving import InferenceService
        from repro.serving.workload import poisson_requests

        svc = InferenceService.from_system(system)
        base = svc.graph
        calls = []
        access = svc.tracker.access

        def recording_access(p0s):
            scored = access(p0s)
            for consumer, p0 in p0s.items():
                calls.append((svc.mutations_applied, sampled_csr(svc.graph),
                              p0, scored[consumer]))
            return scored

        svc.tracker.access = recording_access
        N = system.dataset.graph.num_vertices
        wl = poisson_requests(np.arange(N), 60, 4, rate_rps=50.0, seed=3)
        rng = np.random.default_rng(0)
        muts = [(0.1 + 0.2 * i, random_batch(rng, N, 60)) for i in range(3)]
        report = svc.run(wl, mutations=muts)
        assert svc.mutations_applied == 3
        assert isinstance(svc.graph, MutableGraph)
        assert len(report.records) == 60
        post_churn = [c for c in calls if c[0] > 0]
        assert post_churn, "no refresh was scored after a mutation landed"
        return svc, base, calls, post_churn

    def test_wired_mode_scores_the_mutated_graph(self, planner, tiny_dataset):
        svc, _, calls, _ = self._run(build_system(planner, tiny_dataset))
        for _, sampled, p0, scores in calls:
            ref = full_access(sampled, p0, svc.fanouts)
            assert np.array_equal(scores, ref)

    def test_stale_mode_scores_the_prechurn_graph(self, planner, tiny_dataset):
        svc, base, calls, post_churn = self._run(
            build_system(planner, tiny_dataset, refresh_on_mutation=False))
        assert isinstance(base, CSRGraph)
        for _, _, p0, scores in calls:
            ref = full_access(base, p0, svc.fanouts)
            assert np.array_equal(scores, ref)
        # ...which is not what the samplers read any more.
        assert any(
            not np.array_equal(
                scores, full_access(sampled, p0, svc.fanouts))
            for _, sampled, p0, scores in post_churn)

    def test_out_of_range_mutation_rejected(self, planner, tiny_dataset):
        from repro.serving import InferenceService
        from repro.serving.workload import poisson_requests

        svc = InferenceService.from_system(build_system(planner, tiny_dataset))
        N = tiny_dataset.graph.num_vertices
        wl = poisson_requests(np.arange(N), 5, 4, rate_rps=50.0, seed=3)
        with pytest.raises(ValueError, match="must name existing vertices"):
            svc.run(wl, mutations=[
                (0.1, EdgeBatch(add_src=[0], add_dst=[N + 7]))])


class TestTrainingMutations:
    def test_refresh_scores_the_mutated_graph(self, planner, tiny_dataset):
        """After graph churn and a training-set swap, what each machine's
        cache re-ranks on is Proposition 1 on the overlay its sampler reads
        — not the build-time graph, and not the build-time matrix."""
        system = build_system(planner, tiny_dataset)
        built_matrix = system.vip_matrix.copy()
        tr = system.trainer
        N = system.reordered.dataset.graph.num_vertices
        rng = np.random.default_rng(7)
        for _ in range(2):
            rec = system.apply_graph_updates(random_batch(rng, N, 40, 5))
        assert rec.version == 2
        system.update_training_set(
            np.concatenate([ids[: len(ids) // 2] for ids in tr.local_train]))
        mg = system.reordered.dataset.graph
        assert isinstance(mg, MutableGraph)
        assert all(s.graph is mg for s in tr.samplers)

        handed = [spy_on_plan_refresh(s.cache) for s in system.store.stores]
        result = system.train_epoch(0, dry_run=True)
        assert result.epoch_time > 0
        mat = mg.materialize()
        for k, store in enumerate(system.store.stores):
            p0 = uniform_minibatch_probability(
                mat.num_vertices, tr.local_train[k], tr.batch_size)
            ref = full_access(mat, p0, tr.fanouts)
            ref[store.lo:store.hi] = 0.0  # the store blanks local vertices
            assert handed[k], f"machine {k} never refreshed"
            for scores in handed[k]:
                assert np.array_equal(scores, ref)
        # The preprocessing artifact is not a live view.
        assert np.array_equal(system.vip_matrix, built_matrix)

    def test_boundary_is_scored_in_one_round(self, tiny_dataset, monkeypatch):
        """The K providers of a phase boundary share one round: the first
        call scores every machine, one evaluation each, and the others get
        the stored scores back."""
        from repro.vip import incremental

        cfg = RunConfig(num_machines=4, replication_factor=0.2,
                        batch_size=8, cache_policy="vip-refresh",
                        refresh_interval=4)
        system = Planner().build(tiny_dataset, cfg)
        tr = system.trainer
        N = system.reordered.dataset.graph.num_vertices
        system.apply_graph_updates(random_batch(np.random.default_rng(3), N, 30))
        calls = []
        evaluate = incremental.vip_probabilities
        monkeypatch.setattr(incremental, "vip_probabilities",
                            lambda *a, **k: calls.append(np.shape(a[1]))
                            or evaluate(*a, **k))
        scores = [system.training_vip_scores(k) for k in range(4)]
        assert calls == [(N,)] * 4
        mat = system.tracker.graph.materialize()
        for k in range(4):
            p0 = uniform_minibatch_probability(N, tr.local_train[k],
                                               tr.batch_size)
            assert np.array_equal(scores[k], full_access(mat, p0, tr.fanouts))
        assert all(system.training_vip_scores(k) is scores[k]
                   for k in range(4))
        assert calls == [(N,)] * 4

    def test_mutating_one_system_leaves_its_siblings_alone(self, tiny_dataset):
        planner = Planner()
        a = build_system(planner, tiny_dataset)
        b = build_system(planner, tiny_dataset)
        untouched = build_system(Planner(), tiny_dataset)
        base = b.trainer.ds.graph
        N = base.num_vertices
        a.apply_graph_updates(random_batch(np.random.default_rng(1), N, 200))
        assert isinstance(a.trainer.ds.graph, MutableGraph)
        assert b.trainer.ds.graph is base
        assert all(s.graph is base for s in b.trainer.samplers)
        edges = [
            [r.candidate_edges
             for r in s.train_epoch(0, dry_run=True).report.records]
            for s in (b, untouched)]
        assert edges[0] == edges[1]
        c = build_system(planner, tiny_dataset)
        assert c.trainer.ds.graph is base

    def test_out_of_range_batch_rejected_before_rewiring(self, planner, tiny_dataset):
        system = build_system(planner, tiny_dataset)
        base = system.trainer.ds.graph
        with pytest.raises(ValueError, match="must name existing vertices"):
            system.apply_graph_updates(
                EdgeBatch(add_src=[0], add_dst=[base.num_vertices]))
        assert system.trainer.ds.graph is base
        assert system.tracker.graph is base

    def test_live_backend_guard(self, planner, tiny_dataset):
        system = build_system(planner, tiny_dataset)

        class FakeLive:
            is_live = True

            def close(self):
                pass

        system._backend = FakeLive()
        try:
            with pytest.raises(RuntimeError, match="live cluster backend"):
                system.apply_graph_updates(
                    EdgeBatch(add_src=[0], add_dst=[1]))
        finally:
            system._backend = None


@pytest.fixture
def no_materialize_in_rounds(monkeypatch):
    """Make ``MutableGraph.materialize`` raise inside every tracker round
    (compaction outside a round may still call it).  Yields the list of
    graphs the rounds scored, so a test can show it scored an overlay."""
    from repro.vip.incremental import VIPTracker

    def refuse(self):
        raise AssertionError("a tracker round materialized the overlay")

    access, scored = VIPTracker.access, []

    def guarded(self, p0s):
        scored.append(self.graph)
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(MutableGraph, "materialize", refuse)
            return access(self, p0s)

    monkeypatch.setattr(VIPTracker, "access", guarded)
    return scored


class TestRoundsReadTheOverlay:
    """A refresh round scores a mutated graph through its overlay: no
    tracker round calls ``materialize()``, on training's
    ``apply_graph_updates`` path or on a serving run that lands churn."""

    def test_training_rounds(self, planner, tiny_dataset,
                             no_materialize_in_rounds):
        system = build_system(planner, tiny_dataset)
        N = system.reordered.dataset.graph.num_vertices
        rng = np.random.default_rng(5)
        for epoch in range(2):
            system.apply_graph_updates(random_batch(rng, N, 20, 5))
            system.train_epoch(epoch, dry_run=True)
        assert any(isinstance(g, MutableGraph)
                   for g in no_materialize_in_rounds)

    def test_serving_churn_rounds(self, planner, tiny_dataset,
                                  no_materialize_in_rounds):
        from repro.serving import InferenceService
        from repro.serving.workload import poisson_requests

        svc = InferenceService.from_system(build_system(planner,
                                                        tiny_dataset))
        N = svc.graph.num_vertices
        rng = np.random.default_rng(0)
        svc.run(poisson_requests(np.arange(N), 60, 4, rate_rps=50.0, seed=3),
                mutations=[(0.1 + 0.2 * i, random_batch(rng, N, 60))
                           for i in range(3)])
        assert svc.mutations_applied == 3
        assert any(isinstance(g, MutableGraph)
                   for g in no_materialize_in_rounds)
