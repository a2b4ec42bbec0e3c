"""SALIENT++ reproduction.

A from-scratch Python implementation of *Communication-Efficient Graph Neural
Networks with Probabilistic Neighborhood Expansion Analysis and Caching*
(MLSys 2023): vertex-inclusion-probability (VIP) analysis, VIP-driven feature
caching, and a simulated distributed multi-GPU training system (SALIENT++)
with a deep minibatch-preparation pipeline — plus every substrate it needs
(CSR graphs, a METIS-like partitioner, a node-wise neighborhood sampler, a
numpy GNN stack, and a discrete-event performance model), and a dynamic
cache subsystem (gated LRU + periodic VIP refresh) for non-stationary
workloads beyond the paper.

Quickstart
----------
>>> from repro import load_dataset, RunConfig, SalientPP
>>> ds = load_dataset("tiny")
>>> cfg = RunConfig(num_machines=2, replication_factor=0.1)
>>> system = SalientPP.build(ds, cfg)
>>> report = system.train(epochs=1)
"""

from repro.graph import CSRGraph, GraphDataset, load_dataset

__version__ = "1.0.0"

__all__ = ["CSRGraph", "GraphDataset", "load_dataset", "__version__"]


def __getattr__(name):
    # Lazy re-exports of the heavier subsystems keep `import repro` cheap.
    if name in ("ArtifactCache", "Plan", "Planner", "RunConfig", "Salient",
                "SalientPP", "ServingConfig", "StreamingConfig",
                "SystemVariant"):
        import repro.core as _core

        return getattr(_core, name)
    if name == "InferenceService":
        from repro.serving import InferenceService

        return InferenceService
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
