"""Per-scale segmentation network with analytic gradients.

The network is a deliberately small point-transformer-style model:

  encode:  embedding MLP on xyzrgb, one vector-attention block at the
           input resolution, then per extra stage a grid-pool downsample
           (voxel = base_voxel * DOWNSAMPLE_FACTOR**stage) followed by
           another attention block. Output features live on the final
           (coarsest) point set.
  decode:  inverse-distance interpolation of the INTERP_NEIGHBORS nearest
           (possibly fused) coarse features onto every partition point, a
           stack of linear+rectifier layers, and a linear classification head.

Geometry, which depends on positions only, is planned by the caller:
plan_stages for encode, plan_interp for decode. Forwards then run only
the dense layers and return (result, cache); backwards consume the
cache and emit parameter gradients. Inputs (positions, colors) are
constants of the graph and receive no gradient. Both halves require
>= 1 input point.
"""

from dataclasses import dataclass

import numpy as np

from .knn import counted_knn
from .layers import (
    attention_bwd,
    attention_fwd,
    grid_pool_bwd,
    grid_pool_fwd,
    grid_pool_groups,
    interp_apply_bwd,
    interp_apply_fwd,
    interp_weights,
    linear_bwd,
    linear_fwd,
    mlp2_bwd,
    mlp2_fwd,
)


# fixed parts of the network that no caller varies
DOWNSAMPLE_FACTOR = 2.0
INTERP_NEIGHBORS = 3


@dataclass(frozen=True)
class BackboneConfig:
    """Shape of the per-scale network.

    Stage 0 attends at the input resolution (a partition already has
    one point per base voxel, so pooling there would be a no-op); each
    later stage s pools at base_voxel * DOWNSAMPLE_FACTOR**s first. The
    decoder interpolates from the INTERP_NEIGHBORS nearest coarse points.
    """

    num_classes: int
    feature_dim: int = 32
    attention_neighbors: int = 8
    encoder_stages: int = 2

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.encoder_stages < 1:
            raise ValueError("encoder_stages must be >= 1")
        if self.attention_neighbors < 1:
            raise ValueError("attention_neighbors must be >= 1")


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-point features at some (possibly downsampled) resolution."""

    positions: np.ndarray  # (N', 3)
    features: np.ndarray   # (N', F)
    scale_id: int

    def __post_init__(self):
        if self.positions.shape[0] != self.features.shape[0]:
            raise ValueError("positions and features row counts differ")

    @property
    def n(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class Prediction:
    """Logits plus argmax labels (ties -> lowest class id)."""

    logits: np.ndarray  # (N, C)

    @property
    def labels(self):
        return np.argmax(self.logits, axis=1)

    @property
    def n(self):
        return self.logits.shape[0]


class ScaleModel:
    """Named parameter tensors for one scale, with a freeze latch.

    Frozen models refuse in-place parameter updates; freezing is one-way
    (lower scales never thaw while later ones train, and only run
    forward).
    """

    def __init__(self, params, frozen=False):
        for name, value in params.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"parameter {name} contains non-finite values")
        self.params = dict(params)
        self.frozen = bool(frozen)

    def freeze(self):
        self.frozen = True

    def apply_update(self, deltas):
        """p += delta for every named delta; rejected when frozen."""
        if self.frozen:
            raise ValueError("frozen model rejects parameter updates")
        for name, delta in deltas.items():
            self.params[name] += delta

    def copy(self):
        return ScaleModel({k: v.copy() for k, v in self.params.items()}, self.frozen)


# Input feature width: xyz followed by rgb, as PointCloud.xyzrgb() gives.
XYZRGB_WIDTH = 6

# Weights drawn with variance 1/fan-in; every other matrix has 2/fan-in.
_UNIT_INIT = ("_wq", "_wk", "_wv", "head_w", "fuse_fw")


def param_shapes(cfg: BackboneConfig, with_fusion: bool = False):
    """Name -> shape of every parameter tensor, in `init_params`' draw
    order."""
    f = cfg.feature_dim
    shapes = {"embed_w1": (XYZRGB_WIDTH, f), "embed_b1": (f,),
              "embed_w2": (f, f), "embed_b2": (f,)}
    for t in range(cfg.encoder_stages):
        shapes.update({
            f"att{t}_wq": (f, f), f"att{t}_wk": (f, f), f"att{t}_wv": (f, f),
            f"att{t}_pw1": (3, f), f"att{t}_pb1": (f,),
            f"att{t}_pw2": (f, f), f"att{t}_pb2": (f,),
            f"att{t}_aw1": (f, f), f"att{t}_ab1": (f,),
            f"att{t}_aw2": (f, f), f"att{t}_ab2": (f,)})
    for t in range(cfg.encoder_stages):
        shapes.update({f"dec{t}_w": (f, f), f"dec{t}_b": (f,)})
    shapes.update({"head_w": (f, cfg.num_classes),
                   "head_b": (cfg.num_classes,)})
    if with_fusion:
        shapes.update({"fuse_cw": (f, f), "fuse_cb": (f,),
                       "fuse_fw": (2 * f, f), "fuse_fb": (f,)})
    return shapes


def init_params(cfg: BackboneConfig, seed: int = 0, with_fusion: bool = False):
    """Fresh parameter dict, name -> float64 array, fan-in scaled; biases
    start at zero."""
    rng = np.random.default_rng(seed)
    p = {}
    for name, shape in param_shapes(cfg, with_fusion).items():
        if len(shape) == 1:
            p[name] = np.zeros(shape)
        else:
            gain = 1.0 if name.endswith(_UNIT_INIT) else 2.0
            p[name] = rng.standard_normal(shape) * np.sqrt(gain / shape[0])
    return p


# ---------------------------------------------------------------------------
# geometry: everything that depends on positions only, never on parameters

@dataclass(frozen=True)
class StagePlan:
    """Geometry of one encoder stage."""

    positions: np.ndarray  # (N_t, 3) points the stage attends over
    pool: tuple            # grid_pool_groups from the previous stage; None at stage 0
    neighbors: np.ndarray  # (N_t, k) attention KNN ids


def plan_stages(positions, base_voxel, cfg, counter=None):
    """Pooled positions, pooling groups and attention KNN ids per stage.

    positions (N, 3), N >= 1. base_voxel is the partition's own voxel
    size; stage t pools at base_voxel * DOWNSAMPLE_FACTOR**t.
    """
    if positions.shape[0] < 1:
        raise ValueError("plan_stages requires a non-empty partition")
    stages = []
    cur, pool = positions, None
    for t in range(cfg.encoder_stages):
        if t:
            pool = grid_pool_groups(cur, base_voxel * DOWNSAMPLE_FACTOR ** t)
            cur = pool[0]
        idx, _ = counted_knn(cur, cur, min(cfg.attention_neighbors, cur.shape[0]),
                             counter)
        stages.append(StagePlan(cur, pool, idx))
    return tuple(stages)


def plan_interp(src_positions, positions, counter=None):
    """Decode interpolation (ids, weights) from src_positions onto positions."""
    idx, d2 = counted_knn(src_positions, positions,
                          min(INTERP_NEIGHBORS, src_positions.shape[0]), counter)
    return idx, interp_weights(np.sqrt(d2))


# ---------------------------------------------------------------------------
# encode

def encode(model, positions, feats_in, stages, scale_id=1, need_cache=True):
    """Partition points -> FeatureMatrix at the coarsest stage.

    positions (N, 3), feats_in (N, 6) xyzrgb, N >= 1. stages:
    plan_stages(positions, ...), one StagePlan per encoder stage.
    """
    n = positions.shape[0]
    if n < 1:
        raise ValueError("encode requires a non-empty partition")
    if stages[0].positions.shape[0] != n:
        raise ValueError("stages were planned for a different point set")
    p = model.params
    # Center the coordinate features on the bounding-box midpoint so the
    # embedding never sees raw scene offsets. min/max (unlike a mean)
    # give the same midpoint for any input point order.
    mid = 0.5 * (positions.min(axis=0) + positions.max(axis=0))
    feats_in = feats_in.copy()
    feats_in[:, :3] -= mid
    h, ec = mlp2_fwd(feats_in, p["embed_w1"], p["embed_b1"],
                     p["embed_w2"], p["embed_b2"])
    cur, ac = attention_fwd(positions, h, stages[0].neighbors, p, "att0", need_cache)
    cur += h
    pooled = []
    for t, st in enumerate(stages[1:], start=1):
        pf, pc = grid_pool_fwd(cur, st.pool)
        cur, sac = attention_fwd(st.positions, pf, st.neighbors, p, f"att{t}",
                                 need_cache)
        cur += pf
        pooled.append((pc, sac))
    fm = FeatureMatrix(stages[-1].positions, cur, scale_id)
    cache = (ec, ac, pooled) if need_cache else None
    return fm, cache


def encode_bwd(g, cache, model):
    """Gradient of encode wrt parameters."""
    ec, ac, stages = cache
    p = model.params
    grads = {}
    cur = g
    for t in range(len(stages), 0, -1):
        pc, sac = stages[t - 1]
        da, ag = attention_bwd(cur, sac, p, f"att{t}")
        grads.update(ag)
        da += cur
        cur = grid_pool_bwd(da, pc)
    da, ag = attention_bwd(cur, ac, p, "att0")
    grads.update(ag)
    da += cur
    # the inputs are constants of the graph, so no input gradient
    _, (dw1, db1, dw2, db2) = mlp2_bwd(da, ec, need_dx=False)
    grads["embed_w1"] = dw1
    grads["embed_b1"] = db1
    grads["embed_w2"] = dw2
    grads["embed_b2"] = db2
    return grads


# ---------------------------------------------------------------------------
# decode

def decode(model, fused: FeatureMatrix, positions, cfg, interp):
    """Coarse features -> Prediction for every partition point.

    positions: (N, 3) of the full partition; every row receives logits.
    interp: plan_interp(fused.positions, positions), one row per
    position.
    """
    if fused.n < 1:
        raise ValueError("decode requires non-empty fused features")
    if positions.shape[0] < 1:
        raise ValueError("decode requires at least one query point")
    idx, w = interp
    if idx.shape[0] != positions.shape[0]:
        raise ValueError("interp was planned for a different point set")
    p = model.params
    cur, ic = interp_apply_fwd(fused.features, idx, w)
    lcaches = []
    for t in range(cfg.encoder_stages):
        cur, lc = linear_fwd(cur, p[f"dec{t}_w"], p[f"dec{t}_b"])
        np.maximum(cur, 0.0, out=cur)
        lcaches.append(lc)
    logits, hc = linear_fwd(cur, p["head_w"], p["head_b"])
    return Prediction(logits), (ic, lcaches, hc)


def decode_bwd(g, cache, model):
    """Returns (dfused_features, grads)."""
    ic, lcaches, hc = cache
    p = model.params
    grads = {}
    dcur, dhw, dhb = linear_bwd(g, hc)
    grads["head_w"] = dhw
    grads["head_b"] = dhb
    # each rectified output is the next layer's cached input, and
    # relu(x) > 0 exactly where x > 0, so it gives the rectifier's mask
    rectified = hc[0]
    for t in range(len(lcaches) - 1, -1, -1):
        dcur *= rectified > 0.0
        dcur, dw, db = linear_bwd(dcur, lcaches[t])
        rectified = lcaches[t][0]
        grads[f"dec{t}_w"] = dw
        grads[f"dec{t}_b"] = db
    return interp_apply_bwd(dcur, ic), grads
