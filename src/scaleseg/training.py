"""Scale-by-scale training with frozen lower scales, plus evaluation.

Training one scale never touches the others: lower scales are required
to be frozen and are only executed forward (their fused features are a
fixed input to the trained scale), so their parameters are bit-identical
before and after. The loss is softmax cross-entropy over the current
scale's partition points only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .backbone import (decode, decode_bwd, encode, encode_bwd, plan_interp,
                       plan_stages)
from .fusion import FeatureStore, fuse, fuse_bwd, fusion_neighbors
from .layers import softmax_cross_entropy
from .metrics import ConfusionMatrix, compute_metrics
from .pipeline import PipelineConfig, _store_scale, run_pipeline


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 34
    batch_size: int = 4
    learning_rate: float = 0.02
    momentum: float = 0.9
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


def _build_store(models, scene_cloud, parts, upto, cfg: PipelineConfig):
    """The store inference holds after scales 1..upto (frozen): each
    with points, in order, through the pipeline's `_store_scale`."""
    store = FeatureStore(cfg.backbone.feature_dim)
    feats_all = scene_cloud.xyzrgb()
    for j in range(upto):
        idx = parts.partitions[j]
        if idx.size:
            _store_scale(j, models[j], scene_cloud.positions[idx],
                         feats_all[idx], parts.voxel_sizes[j], store, cfg)
    return store


def _scene_forward_backward(model, sample, cfg: PipelineConfig):
    """Loss and parameter gradients for one scene at the trained scale."""
    positions, feats, labels, store, scale_id, stages, interp, neighbors = sample
    fm, ecache = encode(model, positions, feats, stages, scale_id=scale_id)
    fcache = None
    fused = fm
    if store.size > 0:
        fused, fcache = fuse(fm, store, model.params, cfg.k_fuse,
                             neighbors=neighbors)
    pred, dcache = decode(model, fused, positions, cfg.backbone, interp)
    loss, dlogits = softmax_cross_entropy(pred.logits, labels)

    dfused, grads = decode_bwd(dlogits, dcache, model)
    if fcache is not None:
        dcur, fgrads = fuse_bwd(dfused, fcache, model.params)
        grads.update(fgrads)
    else:
        dcur = dfused
    grads.update(encode_bwd(dcur, ecache, model))
    return loss, grads


def train_scale(models, scale_id, scenes, cfg: PipelineConfig,
                tcfg: TrainConfig):
    """Momentum-SGD training of exactly one scale; returns epoch losses.

    models: list of ScaleModel, 1-based scale_id selects the trainee.
    scenes: list of (PointCloud, PartitionSet) with labels present.
    Lower scales must already be frozen; the trainee must not be.
    Raises FloatingPointError once an epoch's mean loss is not finite.
    """
    if not 1 <= scale_id <= len(models):
        raise ValueError("scale_id out of range")
    model = models[scale_id - 1]
    if model.frozen:
        raise ValueError("cannot train a frozen scale")
    for j in range(scale_id - 1):
        if not models[j].frozen:
            raise ValueError(f"scale {j + 1} must be frozen before "
                             f"training scale {scale_id}")
    if not scenes:
        raise ValueError("no training scenes")
    for cloud, _ in scenes:
        if cloud.labels is None:
            raise ValueError("training scenes must carry labels")

    # lower scales are frozen, so their store entries are constants, and
    # positions never change, so neither does any neighbor search:
    # compute both once per scene instead of once per epoch
    samples = []
    for cloud, parts in scenes:
        idx = parts.partitions[scale_id - 1]
        if idx.size == 0:
            continue
        # with k_fuse = 0 the trainee fuses nothing: no frozen forward
        store = _build_store(models, cloud, parts,
                             scale_id - 1 if cfg.k_fuse else 0, cfg)
        positions = cloud.positions[idx]
        stages = plan_stages(positions, parts.voxel_sizes[scale_id - 1],
                             cfg.backbone)
        coarse = stages[-1].positions
        interp = plan_interp(coarse, positions, cfg.backbone)
        neighbors = (fusion_neighbors(store.merged()[0], coarse, cfg.k_fuse)
                     if store.size > 0 else None)
        samples.append((positions, cloud.xyzrgb()[idx], cloud.labels[idx],
                        store, scale_id, stages, interp, neighbors))
    if not samples:
        raise ValueError("every scene has an empty partition at this scale")

    rng = np.random.default_rng(tcfg.rng_seed)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    epoch_losses = []
    for _ in range(tcfg.epochs):
        order = rng.permutation(len(samples))
        losses = []
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            acc = None
            for si in batch:
                loss, grads = _scene_forward_backward(model, samples[si], cfg)
                losses.append(loss)
                if acc is None:
                    acc = grads
                else:
                    for k, g in grads.items():
                        acc[k] += g
            inv = 1.0 / len(batch)
            deltas = {}
            for k, g in acc.items():
                velocity[k] = tcfg.momentum * velocity[k] + g * inv
                deltas[k] = -tcfg.learning_rate * velocity[k]
            model.apply_update(deltas)
        epoch_losses.append(float(np.mean(losses)))
        if not math.isfinite(epoch_losses[-1]):
            raise FloatingPointError(f"training diverged: epoch {len(epoch_losses)}"
                                     f" mean loss is {epoch_losses[-1]}")
    return epoch_losses


def evaluate(models, scenes, cfg: PipelineConfig):
    """Per-scale confusion matrices and metrics over labeled scenes.

    Returns (rows, matrices): one row dict per scale with oAcc/mAcc/
    mIoU and the mean cumulative latency, mirroring the per-scale
    results table of the scalable method.
    """
    if not scenes:
        raise ValueError("no evaluation scenes")
    num_scales = scenes[0][1].num_scales
    num_classes = cfg.backbone.num_classes
    matrices = [ConfusionMatrix(num_classes) for _ in range(num_scales)]
    cumulative = np.zeros(num_scales)
    for cloud, parts in scenes:
        if cloud.labels is None:
            raise ValueError("evaluation scenes must carry labels")
        if parts.num_scales != num_scales:
            raise ValueError("scenes disagree on the number of scales")
        preds, report = run_pipeline(models, cloud, parts, cfg)
        for i in range(num_scales):
            idx = parts.partitions[i]
            if idx.size:
                matrices[i].update(cloud.labels[idx], preds[i].labels)
        cumulative += [r["cumulative_ms"] for r in report.records()]

    method = "fusion" if cfg.k_fuse else "no-fusion"
    rows = []
    for i, cm in enumerate(matrices):
        oacc, macc, miou = compute_metrics(cm)
        rows.append({"scale": i + 1, "method": method, "oacc": oacc,
                     "macc": macc, "miou": miou,
                     "cumulative_ms": float(cumulative[i] / len(scenes))})
    return rows, matrices
