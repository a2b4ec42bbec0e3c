"""Graph substrate: CSR storage, synthetic generators, benchmark datasets."""

from repro.graph.csr import CSRGraph
from repro.graph.mutable import DeltaRecord, EdgeBatch, MutableGraph
from repro.graph.generators import (
    chung_lu,
    drifting_training_sets,
    edge_stream,
    erdos_renyi,
    pareto_degree_weights,
    power_law_community_graph,
    streaming_request_stream,
)
from repro.graph.datasets import (
    DATASET_REGISTRY,
    GraphDataset,
    load_dataset,
    make_features,
    make_mag240c_mini,
    make_papers_mini,
    make_products_mini,
    make_splits,
    make_synthetic_dataset,
    make_tiny,
)

__all__ = [
    "CSRGraph",
    "DeltaRecord",
    "EdgeBatch",
    "MutableGraph",
    "chung_lu",
    "edge_stream",
    "erdos_renyi",
    "pareto_degree_weights",
    "drifting_training_sets",
    "power_law_community_graph",
    "streaming_request_stream",
    "DATASET_REGISTRY",
    "GraphDataset",
    "load_dataset",
    "make_features",
    "make_mag240c_mini",
    "make_papers_mini",
    "make_products_mini",
    "make_splits",
    "make_synthetic_dataset",
    "make_tiny",
]
