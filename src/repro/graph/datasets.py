"""Benchmark datasets: scaled-down stand-ins for the paper's OGB graphs.

The paper's Table 2 datasets and their stand-ins (see docs/architecture.md,
"Datasets and calibration", for the substitution rationale):

======================  ==========================  ============================
Paper dataset           Size (V / E / D / train)    Stand-in (V / E~ / D / train)
======================  ==========================  ============================
ogbn-products           2.4M / 123M / 100 / 8.2%    products-mini  24K / ~1.2M / 50 / 8%
ogbn-papers100M         111M / 3.2B / 128 / 1.1%    papers-mini    120K / ~3.8M / 64 / 10%
lsc-mag240 (papers)     121M / 2.6B / 768 / 0.9%    mag240c-mini   64K / ~1.8M / 384 / 10%
======================  ==========================  ============================

The stand-ins keep: the power-law degree skew; community structure (so a
METIS-like partitioner finds a meaningful cut); the *relative* feature
dimensionality (mag240c's features are 6x wider than papers', which is what
makes its communication throughput-bound — Figure 4 discussion); and labeled
fractions large enough to give the training pipeline a realistic number of
minibatch steps per epoch.

Features are class-conditional Gaussians smoothed over the graph (one round
of mean aggregation), so message passing carries real signal and the accuracy
experiments in §5.3 are meaningful rather than decorative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph, sorted_unique
from repro.graph.generators import power_law_community_graph
from repro.utils.rng import SeedLike, as_generator, spawn_generators


@dataclass
class GraphDataset:
    """A node-classification dataset over an undirected graph.

    Attributes
    ----------
    graph:
        Undirected :class:`CSRGraph` (each edge stored in both directions).
    features:
        ``float32`` array of shape ``(num_vertices, feature_dim)``.
    labels:
        ``int64`` class ids per vertex.
    train_idx / val_idx / test_idx:
        Disjoint vertex-id arrays; remaining vertices are unlabeled context.
    community:
        Ground-truth generator community per vertex (``None`` for graphs
        without planted structure); used only for diagnostics.
    """

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    num_classes: int
    community: Optional[np.ndarray] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        n = self.graph.num_vertices
        if self.features.shape[0] != n:
            raise ValueError(f"features rows ({self.features.shape[0]}) != vertices ({n})")
        if self.labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {self.labels.shape}")
        for nm, idx in (("train_idx", self.train_idx), ("val_idx", self.val_idx),
                        ("test_idx", self.test_idx)):
            idx = np.asarray(idx)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"{nm} out of range")
        splits = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if len(sorted_unique(splits)) != len(splits):
            raise ValueError("train/val/test splits must be disjoint")

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def split_role(self) -> np.ndarray:
        """Per-vertex role code: 0=unlabeled, 1=train, 2=val, 3=test."""
        role = np.zeros(self.num_vertices, dtype=np.int8)
        role[self.train_idx] = 1
        role[self.val_idx] = 2
        role[self.test_idx] = 3
        return role

    def summary_row(self):
        """Row for the Table 2 reproduction."""
        return [
            self.name,
            self.num_vertices,
            self.graph.num_edges // 2,
            self.feature_dim,
            f"{len(self.train_idx)} / {len(self.val_idx)} / {len(self.test_idx)}",
        ]

    def __repr__(self) -> str:
        return (f"GraphDataset({self.name!r}, V={self.num_vertices}, "
                f"E={self.graph.num_edges // 2}, D={self.feature_dim}, "
                f"classes={self.num_classes})")


def make_features(
    graph: CSRGraph,
    labels: np.ndarray,
    feature_dim: int,
    num_classes: int,
    seed: SeedLike = None,
    *,
    class_separation: float = 1.0,
    smoothing: float = 0.5,
    noise: float = 1.0,
) -> np.ndarray:
    """Class-conditional Gaussian features with one hop of graph smoothing.

    ``x_v = (1 - smoothing) * (mu[y_v] + eps_v) + smoothing * mean_{u~v} x_u``
    where ``mu`` are random class centroids with pairwise distance controlled
    by ``class_separation``.  Smoothing gives neighbors correlated features,
    which is the structural signal GNN aggregation exploits.
    """
    rng = as_generator(seed)
    n = graph.num_vertices
    centroids = rng.normal(0.0, class_separation, size=(num_classes, feature_dim))
    # Built in place: addition is commutative, so ``noise += centroid`` is
    # bit for bit ``centroid + noise``, and at most two N x D float64 arrays
    # are ever alive.
    x = rng.normal(0.0, noise, size=(n, feature_dim))
    x += centroids[labels]
    if smoothing > 0 and graph.num_edges:
        adj = graph.to_scipy(dtype=np.float32)
        inv_deg = 1.0 / np.maximum(graph.degrees, 1)
        norm_adj = sp.diags(inv_deg.astype(np.float32)) @ adj
        smoothed = norm_adj @ x
        smoothed *= smoothing
        x *= 1.0 - smoothing
        x += smoothed
        del smoothed  # gone before the float32 copy below is made
    return x.astype(np.float32)


def make_splits(
    num_vertices: int,
    train_frac: float,
    val_frac: float,
    test_frac: float,
    seed: SeedLike = None,
):
    """Random disjoint train/val/test vertex splits."""
    total = train_frac + val_frac + test_frac
    if total > 1.0 + 1e-9:
        raise ValueError(f"split fractions sum to {total} > 1")
    rng = as_generator(seed)
    perm = rng.permutation(num_vertices)
    n_train = int(round(num_vertices * train_frac))
    n_val = int(round(num_vertices * val_frac))
    n_test = int(round(num_vertices * test_frac))
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train:n_train + n_val])
    test = np.sort(perm[n_train + n_val:n_train + n_val + n_test])
    return train.astype(np.int64), val.astype(np.int64), test.astype(np.int64)


def make_synthetic_dataset(
    name: str,
    num_vertices: int,
    avg_degree: float,
    feature_dim: int,
    num_classes: int,
    *,
    num_communities: int = 64,
    intra_fraction: float = 0.9,
    label_noise: float = 0.1,
    train_frac: float = 0.1,
    val_frac: float = 0.02,
    test_frac: float = 0.05,
    power: float = 2.5,
    seed: SeedLike = 0,
) -> GraphDataset:
    """Generate a full node-classification dataset with planted structure.

    Labels follow the planted community (mod ``num_classes``) with
    ``label_noise`` random flips, so both graph structure and features are
    predictive and minibatch GNN training converges on realistic curves.
    """
    rng_graph, rng_label, rng_feat, rng_split = spawn_generators(seed, 4)
    graph, community = power_law_community_graph(
        num_vertices, avg_degree,
        num_communities=num_communities,
        intra_fraction=intra_fraction,
        power=power,
        seed=rng_graph,
    )
    labels = (community % num_classes).astype(np.int64)
    flip = rng_label.random(num_vertices) < label_noise
    labels[flip] = rng_label.integers(0, num_classes, size=int(flip.sum()))
    features = make_features(graph, labels, feature_dim, num_classes, seed=rng_feat)
    train, val, test = make_splits(num_vertices, train_frac, val_frac, test_frac, seed=rng_split)
    return GraphDataset(
        name=name,
        graph=graph,
        features=features,
        labels=labels,
        train_idx=train,
        val_idx=val,
        test_idx=test,
        num_classes=num_classes,
        community=community,
        metadata={
            "avg_degree": avg_degree,
            "num_communities": num_communities,
            "intra_fraction": intra_fraction,
            "seed": seed,
        },
    )


def make_products_mini(seed: SeedLike = 0, scale: float = 1.0) -> GraphDataset:
    """Stand-in for ogbn-products: dense co-purchase-like graph.

    The ``default_experiment`` metadata mirrors Table 3 of the paper scaled
    ~1000x: fanout (5,4,3) for (15,10,5), batch 64 per machine for 1024.
    """
    ds = make_synthetic_dataset(
        "products-mini",
        num_vertices=int(24_000 * scale),
        avg_degree=25.0,
        power=1.9,
        feature_dim=50,
        num_classes=16,
        num_communities=40,
        train_frac=0.10,
        val_frac=0.02,
        test_frac=0.30,
        seed=seed,
    )
    ds.metadata["default_experiment"] = {
        "fanouts": (5, 4, 3), "batch_size": 64, "hidden_dim": 64,
        "num_layers": 3, "inference_fanouts": (7, 7, 7), "num_parts": 4,
        "replication_factor": 0.16,
    }
    return ds


def make_papers_mini(seed: SeedLike = 0, scale: float = 1.0) -> GraphDataset:
    """Stand-in for ogbn-papers100M: large sparse citation-like graph with
    heavy-tailed degrees (power-law exponent 1.8), the main benchmark of the
    paper's Table 1 / Figures 2, 6, 7, 8, 9."""
    ds = make_synthetic_dataset(
        "papers-mini",
        num_vertices=int(120_000 * scale),
        avg_degree=16.0,
        power=1.8,
        feature_dim=64,
        num_classes=32,
        num_communities=96,
        train_frac=0.08,
        val_frac=0.02,
        test_frac=0.02,
        seed=seed,
    )
    ds.metadata["default_experiment"] = {
        "fanouts": (5, 4, 3), "batch_size": 64, "hidden_dim": 64,
        "num_layers": 3, "inference_fanouts": (7, 7, 7), "num_parts": 8,
        "replication_factor": 0.32,
    }
    return ds


def make_mag240c_mini(seed: SeedLike = 0, scale: float = 1.0) -> GraphDataset:
    """Stand-in for the mag240c papers-to-papers subgraph: 6x wider features
    than papers (768 vs 128 in the paper; 384 vs 64 here), which is what makes
    its remote-feature communication throughput-bound (Figure 4 discussion).

    2-layer architecture with fanout (8,5), the scaled analog of (25,15)."""
    ds = make_synthetic_dataset(
        "mag240c-mini",
        num_vertices=int(64_000 * scale),
        avg_degree=14.0,
        power=1.8,
        feature_dim=384,
        num_classes=32,
        num_communities=64,
        # Weaker community structure than papers/products: the real mag240c
        # citation graph yields markedly worse 16-way cuts than co-purchase
        # graphs, which is what makes its remote-feature traffic dominant.
        intra_fraction=0.75,
        # Train fraction is inflated (the real mag240c labels ~0.9% of
        # vertices) so 16-machine runs still execute enough minibatch steps
        # per epoch for pipeline behaviour to be observable at mini scale.
        train_frac=0.20,
        val_frac=0.02,
        test_frac=0.02,
        seed=seed,
    )
    ds.metadata["default_experiment"] = {
        "fanouts": (8, 5), "batch_size": 64, "hidden_dim": 128,
        "num_layers": 2, "inference_fanouts": (8, 5), "num_parts": 16,
        "replication_factor": 0.32,
    }
    return ds


def make_tiny(seed: SeedLike = 0, num_vertices: int = 400) -> GraphDataset:
    """A small dataset for tests and the quickstart example."""
    return make_synthetic_dataset(
        "tiny",
        num_vertices=num_vertices,
        avg_degree=8.0,
        feature_dim=16,
        num_classes=4,
        num_communities=8,
        train_frac=0.3,
        val_frac=0.1,
        test_frac=0.2,
        seed=seed,
    )


DATASET_REGISTRY: Dict[str, Callable[..., GraphDataset]] = {
    "products-mini": make_products_mini,
    "papers-mini": make_papers_mini,
    "mag240c-mini": make_mag240c_mini,
    "tiny": make_tiny,
}


def load_dataset(name: str, seed: SeedLike = 0, **kwargs) -> GraphDataset:
    """Load a registered dataset by name (deterministic for a given seed)."""
    try:
        factory = DATASET_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}"
        ) from None
    return factory(seed=seed, **kwargs)
