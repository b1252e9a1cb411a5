"""Resolution-scalable semantic segmentation for 3D point clouds.

A cloud is split into disjoint resolution scales; each scale is encoded by
its own network while earlier scales' features are fused in through nearest
neighbors. Predictions stream out scale by scale instead of waiting for the
whole cloud.
"""

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
    BaselineResult,
    ComplexityEstimate,
    PipelineConfig,
    ScaleTiming,
    TimingReport,
    estimate_gain,
    run_baseline,
    run_pipeline,
    simulate_schedule,
)
from .scene import SceneSpec, generate_scene
from .training import TrainConfig, evaluate, train_scale

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "BaselineResult",
    "CheckpointFormatError",
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
    "run_baseline",
    "run_pipeline",
    "save_checkpoint",
    "simulate_schedule",
    "train_scale",
    "voxel_keys",
    "write_cloud",
    "__version__",
]
