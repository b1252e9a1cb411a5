"""Resolution-scalable semantic segmentation for 3D point clouds.

A cloud is split into disjoint resolution scales; each scale is encoded by
its own network while earlier scales' features are fused in through nearest
neighbors. Predictions stream out scale by scale instead of waiting for the
whole cloud.

Importing the package sets each BLAS thread variable that is not already
set to 1, which takes effect when numpy is not loaded yet: the scale
workers and the neighbor search's span split already share the cores
through one count, and BLAS threads of their own would compete with
them. A value set beforehand wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .backbone import (
    BackboneConfig,
    FeatureMatrix,
    Prediction,
    ScaleModel,
    decode,
    encode,
    init_params,
    plan_interp,
    plan_stages,
)
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .cloud import (
    CloudExtentError,
    PartitionConfig,
    PartitionSet,
    PointCloud,
    build_partitions,
    gather,
    voxel_keys,
)
from .fusion import FeatureStore, fuse
from .io import CloudFormatError, read_cloud, write_cloud
from .knn import EvalCounter, NeighborIndex, counted_knn
from .metrics import ConfusionMatrix, compute_metrics
from .pipeline import (
    ComplexityEstimate,
    PipelineConfig,
    ScaleTiming,
    TimingReport,
    estimate_gain,
    run_pipeline,
    simulate_schedule,
)
from .scene import SceneSpec, generate_scene
from .training import TrainConfig, evaluate, train_scale

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "CheckpointFormatError",
    "CloudExtentError",
    "CloudFormatError",
    "ComplexityEstimate",
    "ConfusionMatrix",
    "EvalCounter",
    "FeatureMatrix",
    "FeatureStore",
    "NeighborIndex",
    "PartitionConfig",
    "PartitionSet",
    "PipelineConfig",
    "PointCloud",
    "Prediction",
    "ScaleModel",
    "ScaleTiming",
    "SceneSpec",
    "TimingReport",
    "TrainConfig",
    "build_partitions",
    "compute_metrics",
    "counted_knn",
    "decode",
    "encode",
    "estimate_gain",
    "evaluate",
    "fuse",
    "gather",
    "generate_scene",
    "init_params",
    "plan_interp",
    "plan_stages",
    "load_checkpoint",
    "read_cloud",
    "run_pipeline",
    "save_checkpoint",
    "simulate_schedule",
    "train_scale",
    "voxel_keys",
    "write_cloud",
    "__version__",
]
