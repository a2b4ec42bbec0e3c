"""Planner, plan fingerprints, artifact cache, and serialization tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ARTIFACT_KINDS,
    ArtifactCache,
    PREPROCESS_STAGES,
    Planner,
    RunConfig,
    SalientPP,
    load_artifact,
    make_partition,
    progressive_variants,
    save_artifact,
)
from repro.core.planner import _DEFAULT_MEMORY_CAPS
from repro.distributed.recovery import load_checkpoint, save_checkpoint
from repro.distributed.wire import MAGIC, pack_message, pack_obj, unpack_message


@pytest.fixture()
def cfg():
    return RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                     hidden_dim=16, replication_factor=0.2, gpu_fraction=0.5)


def _flip(raw, offset):
    out = bytearray(raw)
    out[offset] ^= 0x01
    return bytes(out)


def _as_other_kind(raw):
    kind, payload = unpack_message(raw)
    return pack_message("vip" if kind != "vip" else "reorder", payload)


#: Ways a disk entry can be damaged: bytes of a good frame -> bad bytes.
_DAMAGE = {
    "truncated-to-nothing": lambda raw: b"",
    "truncated-in-magic": lambda raw: raw[:3],
    "truncated-in-header": lambda raw: raw[:len(MAGIC) + 3],
    "truncated-mid-payload": lambda raw: raw[:len(raw) // 2],
    "truncated-before-trailer": lambda raw: raw[:-4],
    "truncated-in-trailer": lambda raw: raw[:-1],
    "flip-in-header": lambda raw: _flip(raw, len(MAGIC)),  # version byte
    # Every artifact is dominated by its arrays, so the midpoint of the
    # frame is inside an ndarray payload.
    "flip-in-array-payload": lambda raw: _flip(raw, len(raw) // 2),
    "flip-in-trailer": lambda raw: _flip(raw, len(raw) - 1),
    "frame-of-another-kind": _as_other_kind,
}


def _volumes(report):
    """Per-step workload volumes — the EpochReport identity the planner must
    preserve across cache tiers."""
    return [
        (r.machine, r.step, r.batch_size, r.mfg_vertices, r.mfg_edges,
         r.gather.gpu_rows, r.gather.cpu_rows, r.gather.cached_rows,
         r.gather.remote_rows, tuple(r.gather.remote_per_peer))
        for r in report.records
    ]


class TestPlan:
    def test_deterministic_fingerprints(self, tiny_dataset, cfg):
        p = Planner()
        a, b = p.plan(tiny_dataset, cfg), p.plan(tiny_dataset, cfg)
        for s in a.stages:
            assert a.fingerprint(s) == b.fingerprint(s)

    def test_seed_changes_all_preprocessing(self, tiny_dataset, cfg):
        p = Planner()
        a = p.plan(tiny_dataset, cfg)
        b = p.plan(tiny_dataset, replace(cfg, seed=1))
        assert a.fingerprint("partition") != b.fingerprint("partition")

    def test_unread_field_preserves_upstream_stages(self, tiny_dataset, cfg):
        """An α/β-style sweep re-keys only the stages that read the field."""
        p = Planner()
        a = p.plan(tiny_dataset, cfg)
        b = p.plan(tiny_dataset, replace(cfg, gpu_fraction=0.1))
        for s in PREPROCESS_STAGES:
            assert a.fingerprint(s) == b.fingerprint(s)
        assert a.fingerprint("store") != b.fingerprint("store")

        c = p.plan(tiny_dataset, replace(cfg, replication_factor=0.3))
        for s in ("partition", "vip", "reorder"):
            assert a.fingerprint(s) == c.fingerprint(s)
        assert a.fingerprint("cache-select") != c.fingerprint("cache-select")

    def test_summation_rule_keys_the_vip_artifact(self, tiny_dataset, cfg,
                                                  monkeypatch):
        """A VIP matrix summed under another rule (one persisted before
        equation (3) became a left-to-right product) is a cache miss for
        ``vip`` and everything downstream; ``partition`` is untouched."""
        from repro.core import planner

        a = Planner().plan(tiny_dataset, cfg)
        monkeypatch.setattr(planner, "STAGE_NUMERICS",
                            {"vip": ("summation", "pairwise-reduceat")})
        b = Planner().plan(tiny_dataset, cfg)
        assert a.fingerprint("partition") == b.fingerprint("partition")
        for s in ("vip", "reorder", "cache-select"):
            assert a.fingerprint(s) != b.fingerprint(s)

    def test_describe_lists_stages(self, tiny_dataset, cfg):
        text = Planner().plan(tiny_dataset, cfg).describe()
        for s in ("partition", "vip", "reorder", "cache-select", "store",
                  "trainer"):
            assert s in text

    def test_plan_validates_config(self, tiny_dataset, cfg):
        with pytest.raises(ValueError, match="partitioner"):
            Planner().plan(tiny_dataset, replace(cfg, partitioner="nope"))


class TestLadderReuse:
    def test_ladder_recomputes_each_heavy_stage_once(self, tiny_dataset):
        """The Table-1 acceptance criterion: 4 variants, partition / VIP /
        reorder computed at most once each."""
        p = Planner()
        for _, cfg in progressive_variants(2, 0.3):
            cfg = replace(cfg, fanouts=(4, 3), batch_size=16, hidden_dim=16)
            p.build(tiny_dataset, cfg)
        for stage in ("partition", "vip", "reorder"):
            assert p.stats[stage].computed == 1, stage
            assert p.stats[stage].memory_hits == 3, stage
        assert p.stats["cache-select"].computed == 1  # only "+ Feature caching"
        assert p.stats["store"].computed == 4
        assert p.stats["trainer"].computed == 4

    def test_policy_sweep_shares_vip_selection(self, tiny_dataset, cfg):
        """Static 'vip' and every dynamic policy warm-start from the same
        analytic-VIP selection, so a policy sweep selects caches once."""
        p = Planner()
        for pol in ("vip", "lru", "vip-refresh"):
            p.build(tiny_dataset, replace(cfg, cache_policy=pol))
        assert p.stats["cache-select"].computed == 1
        assert p.stats["cache-select"].memory_hits == 2
        # A differently-scored policy still gets its own selection.
        p.build(tiny_dataset, replace(cfg, cache_policy="degree"))
        assert p.stats["cache-select"].computed == 2

    def test_memory_tier_caps_heavy_artifacts(self, tiny_dataset, cfg):
        cache = ArtifactCache()
        p = Planner(cache)
        cap = _DEFAULT_MEMORY_CAPS["reorder"]
        for f in range(1, cap + 3):  # each fanout re-keys vip, so reorder
            p.artifact(tiny_dataset, replace(cfg, fanouts=(f, 3)), "reorder")
        held = [k for k in cache._memory if k[0] == "reorder"]
        assert p.stats["reorder"].computed == cap + 2
        assert len(held) == cap  # FIFO-evicted down to the cap

    def test_injected_partition_is_content_addressed(self, tiny_dataset, cfg):
        part = make_partition(tiny_dataset, cfg.resolve(tiny_dataset))
        p = Planner()
        p.build(tiny_dataset, cfg, partition=part)
        p.build(tiny_dataset, cfg, partition=part)
        assert p.stats["partition"].computed == 0
        assert p.stats["partition"].memory_hits == 2

    def test_injected_partition_machine_mismatch(self, tiny_dataset, cfg):
        part = make_partition(tiny_dataset, cfg.resolve(tiny_dataset))
        with pytest.raises(ValueError, match="parts"):
            Planner().build(tiny_dataset, replace(cfg, num_machines=4),
                            partition=part)

    def test_execute_rejects_artifact_not_in_plan(self, tiny_dataset, cfg):
        """Injecting into execute() an artifact the plan was not made with
        must raise, not poison the shared cache."""
        p = Planner()
        plan = p.plan(tiny_dataset, cfg)  # no injection: config-derived fp
        part = make_partition(tiny_dataset, cfg.resolve(tiny_dataset))
        with pytest.raises(ValueError, match="fingerprint"):
            p.execute(plan, partition=part)


class TestWarmDiskRebuild:
    def test_identical_epoch_volumes(self, tiny_dataset, cfg, tmp_path):
        """Acceptance criterion: a warm on-disk rebuild skips every
        preprocessing stage and yields identical EpochReport volumes."""
        cold = Planner(ArtifactCache(str(tmp_path)))
        rep_cold = cold.build(tiny_dataset, cfg).train_epoch(0).report

        warm = Planner(ArtifactCache(str(tmp_path)))
        rep_warm = warm.build(tiny_dataset, cfg).train_epoch(0).report

        for stage in PREPROCESS_STAGES:
            assert warm.stats[stage].computed == 0, stage
            assert warm.stats[stage].disk_hits == 1, stage
        assert _volumes(rep_cold) == _volumes(rep_warm)
        assert rep_cold.mean_loss == rep_warm.mean_loss

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    @pytest.mark.parametrize("kind", ARTIFACT_KINDS)
    def test_damaged_disk_entry_is_a_miss(self, tiny_dataset, cfg, tmp_path,
                                          make_checkpoint, kind, damage):
        """A truncated, bit-flipped, or wrong-kind entry of any kind is a
        miss: the stage recomputes, its save heals the entry, and the next
        planner hits it.  Never an error, never a wrong artifact."""
        cache_dir = str(tmp_path)
        if kind == "checkpoint":
            fp, ckpt = "f" * 64, make_checkpoint(3)
            save_checkpoint(ArtifactCache(cache_dir), fp, ckpt)
        else:
            cold = Planner(ArtifactCache(cache_dir))
            cold.build(tiny_dataset, cfg)
            fp = cold.plan(tiny_dataset, cfg).fingerprint(kind)
        (entry,) = tmp_path.glob(f"{kind}-*")
        good = entry.read_bytes()
        entry.write_bytes(_DAMAGE[damage](good))

        assert ArtifactCache(cache_dir).load_disk(kind, fp) is None
        if kind == "checkpoint":
            assert load_checkpoint(ArtifactCache(cache_dir), fp) is None
            save_checkpoint(ArtifactCache(cache_dir), fp, ckpt)
            healed = load_checkpoint(ArtifactCache(cache_dir), fp)
            assert pack_obj(healed) == pack_obj(ckpt)
        else:
            redo = Planner(ArtifactCache(cache_dir))
            redo.build(tiny_dataset, cfg)
            for stage in PREPROCESS_STAGES:
                assert redo.stats[stage].computed == (stage == kind), stage
                assert redo.stats[stage].disk_hits == (stage != kind), stage
            warm = Planner(ArtifactCache(cache_dir))
            warm.build(tiny_dataset, cfg)
            assert warm.stats[kind].computed == 0
            assert warm.stats[kind].disk_hits == 1
        assert entry.read_bytes() == good  # healed byte for byte
        assert [f.name for f in tmp_path.iterdir()
                if not f.name.endswith(".rpwf")] == []  # no tmp left behind

    def test_build_wrapper_matches_planner(self, tiny_dataset, cfg):
        """SalientPP.build stays a thin, equivalent wrapper."""
        rep_a = SalientPP.build(tiny_dataset, cfg).train_epoch(0).report
        rep_b = Planner().build(tiny_dataset, cfg).train_epoch(0).report
        assert _volumes(rep_a) == _volumes(rep_b)


class TestArtifactRoundTrip:
    def test_partition_roundtrip(self, tiny_dataset, cfg, tmp_path):
        p = Planner()
        part = p.artifact(tiny_dataset, cfg, "partition")
        path = str(tmp_path / "part")
        save_artifact(path, "partition", part)
        back = load_artifact(path, "partition")
        assert back.num_parts == part.num_parts
        assert back.assignment.dtype == part.assignment.dtype
        assert back.assignment.tobytes() == part.assignment.tobytes()

    def test_vip_roundtrip(self, tiny_dataset, cfg, tmp_path):
        p = Planner()
        vip = p.artifact(tiny_dataset, cfg, "vip")
        path = str(tmp_path / "vip")
        save_artifact(path, "vip", vip)
        back = load_artifact(path, "vip")
        assert back.dtype == vip.dtype and back.shape == vip.shape
        assert back.tobytes() == vip.tobytes()

    def test_reorder_roundtrip(self, tiny_dataset, cfg, tmp_path):
        p = Planner()
        reordered = p.artifact(tiny_dataset, cfg, "reorder")
        path = str(tmp_path / "order")
        save_artifact(path, "reorder", reordered.old_of_new)
        back = load_artifact(path, "reorder")
        assert back.tobytes() == reordered.old_of_new.tobytes()

    def test_cache_selection_roundtrip(self, tiny_dataset, cfg, tmp_path):
        p = Planner()
        caches = p.artifact(tiny_dataset, cfg, "cache-select")
        path = str(tmp_path / "caches")
        save_artifact(path, "cache-select", caches)
        back = load_artifact(path, "cache-select")
        assert len(back) == len(caches)
        for a, b in zip(caches, back):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_store_exposes_serializable_selection(self, tiny_dataset, cfg):
        system = SalientPP.build(tiny_dataset, cfg)
        sel = system.store.cache_selection()
        assert len(sel) == cfg.num_machines
        for ids, built in zip(sel, system.store.build_cache_selection):
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, built)

    def test_kind_mismatch_rejected(self, tiny_dataset, cfg, tmp_path):
        p = Planner()
        part = p.artifact(tiny_dataset, cfg, "partition")
        path = str(tmp_path / "part")
        save_artifact(path, "partition", part)
        with pytest.raises(ValueError, match="not"):
            load_artifact(path, "vip")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="artifact kind"):
            save_artifact(str(tmp_path / "x"), "frobnicate", None)

    def test_artifact_unknown_stage(self, tiny_dataset, cfg):
        with pytest.raises(ValueError, match="stage"):
            Planner().artifact(tiny_dataset, cfg, "store")
