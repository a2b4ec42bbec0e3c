"""SALIENT / SALIENT++ system layer: configuration, staged preprocessing
planner, and end-to-end systems."""

from repro.core.config import (
    RunConfig,
    ServingConfig,
    StreamingConfig,
    progressive_variants,
    table1_alpha,
)
from repro.core.planner import (
    ARTIFACT_KINDS,
    ArtifactCache,
    PREPROCESS_STAGES,
    Plan,
    Planner,
    STAGE_CONFIG_FIELDS,
    STAGE_ORDER,
    StageNode,
    StageStats,
    dataset_fingerprint,
    load_artifact,
    save_artifact,
)
from repro.core.system import EpochResult, Salient, SalientPP
from repro.partition.registry import make_partition

__all__ = [
    "RunConfig",
    "ServingConfig",
    "StreamingConfig",
    "progressive_variants",
    "table1_alpha",
    "ARTIFACT_KINDS",
    "ArtifactCache",
    "PREPROCESS_STAGES",
    "Plan",
    "Planner",
    "STAGE_CONFIG_FIELDS",
    "STAGE_ORDER",
    "StageNode",
    "StageStats",
    "dataset_fingerprint",
    "load_artifact",
    "save_artifact",
    "EpochResult",
    "Salient",
    "SalientPP",
    "make_partition",
]
