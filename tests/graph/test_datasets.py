"""Dataset factory tests."""

import hashlib

import numpy as np
import pytest

from repro.graph import (
    DATASET_REGISTRY,
    GraphDataset,
    load_dataset,
    make_splits,
    make_synthetic_dataset,
)


class TestSplits:
    def test_disjoint_and_sized(self):
        tr, va, te = make_splits(1000, 0.5, 0.2, 0.1, seed=0)
        assert len(tr) == 500 and len(va) == 200 and len(te) == 100
        allv = np.concatenate([tr, va, te])
        assert len(np.unique(allv)) == len(allv)

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError, match="sum"):
            make_splits(10, 0.6, 0.3, 0.2)

    def test_sorted_outputs(self):
        tr, va, te = make_splits(100, 0.3, 0.1, 0.1, seed=1)
        for arr in (tr, va, te):
            assert np.all(np.diff(arr) > 0)


class TestFeatures:
    def test_homophily_signal(self, tiny_dataset):
        """Features of same-class neighbors are closer than random pairs —
        the structural signal GNN aggregation exploits."""
        ds = tiny_dataset
        src, dst = ds.graph.edges()
        rng = np.random.default_rng(0)
        rnd = rng.permutation(len(src))
        d_edge = np.linalg.norm(ds.features[src] - ds.features[dst], axis=1).mean()
        d_rand = np.linalg.norm(ds.features[src] - ds.features[dst[rnd]], axis=1).mean()
        assert d_edge < d_rand

    def test_shapes_and_dtype(self, tiny_dataset):
        assert tiny_dataset.features.dtype == np.float32
        assert tiny_dataset.features.shape == (tiny_dataset.num_vertices,
                                               tiny_dataset.feature_dim)


class TestDatasetValidation:
    def test_rejects_misaligned_features(self, tiny_dataset):
        with pytest.raises(ValueError, match="features"):
            GraphDataset(
                name="bad", graph=tiny_dataset.graph,
                features=tiny_dataset.features[:-1],
                labels=tiny_dataset.labels,
                train_idx=tiny_dataset.train_idx,
                val_idx=tiny_dataset.val_idx,
                test_idx=tiny_dataset.test_idx,
                num_classes=4,
            )

    def test_rejects_overlapping_splits(self, tiny_dataset):
        with pytest.raises(ValueError, match="disjoint"):
            GraphDataset(
                name="bad", graph=tiny_dataset.graph,
                features=tiny_dataset.features,
                labels=tiny_dataset.labels,
                train_idx=np.array([0, 1]),
                val_idx=np.array([1, 2]),
                test_idx=np.array([3]),
                num_classes=4,
            )


class TestRegistry:
    def test_registry_contents(self):
        for name in ("products-mini", "papers-mini", "mag240c-mini", "tiny"):
            assert name in DATASET_REGISTRY

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("ogbn-nonexistent")

    def test_tiny_deterministic(self):
        a = load_dataset("tiny", seed=3)
        b = load_dataset("tiny", seed=3)
        assert a.graph == b.graph
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_split_role(self, tiny_dataset):
        role = tiny_dataset.split_role()
        assert np.all(role[tiny_dataset.train_idx] == 1)
        assert np.all(role[tiny_dataset.val_idx] == 2)
        assert np.all(role[tiny_dataset.test_idx] == 3)

    def test_default_experiment_metadata(self):
        # The Table-3 analogs carry their experiment defaults.
        ds = load_dataset("tiny")
        assert ds.num_classes == 4
        for name in ("products-mini",):
            pass  # heavyweight datasets are exercised in benchmarks only


class TestSyntheticDataset:
    def test_label_community_alignment(self):
        ds = make_synthetic_dataset("t", num_vertices=400, avg_degree=8.0,
                                    feature_dim=8, num_classes=4,
                                    num_communities=8, label_noise=0.0, seed=0)
        assert np.array_equal(ds.labels, ds.community % 4)

    def test_label_noise_flips_labels(self):
        clean = make_synthetic_dataset("t", num_vertices=400, avg_degree=8.0,
                                       feature_dim=8, num_classes=4,
                                       num_communities=8, label_noise=0.0, seed=0)
        noisy = make_synthetic_dataset("t", num_vertices=400, avg_degree=8.0,
                                       feature_dim=8, num_classes=4,
                                       num_communities=8, label_noise=0.5, seed=0)
        assert np.mean(clean.labels != noisy.labels) > 0.2

    def test_summary_row(self, tiny_dataset):
        row = tiny_dataset.summary_row()
        assert row[0] == "tiny"
        assert row[1] == tiny_dataset.num_vertices


# sha1 over indptr, indices, features, labels and the train / val / test
# splits of load_dataset(name, seed=0): the bundled datasets are content,
# and every exact number downstream (partition, comm rows, losses) reads it.
DATASET_DIGESTS = {
    "papers-mini": "dc686181224c9696bd90935ad9c0fa22b91aed2f",
    "mag240c-mini": "d56ab32d1a6adcb7b6fd7a3749056fbdccd6d21a",
    "products-mini": "a054df74ae4baffb79503eda4de983aefe89dd0e",
}


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_bundled_dataset_keeps_its_digest(name):
    ds = load_dataset(name, seed=0)
    digest = hashlib.sha1()
    for array in (ds.graph.indptr, ds.graph.indices, ds.features, ds.labels,
                  ds.train_idx, ds.val_idx, ds.test_idx):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == DATASET_DIGESTS[name]
