"""Per-scale segmentation network with analytic gradients.

The network is a deliberately small point-transformer-style model:

  encode:  embedding MLP on xyzrgb, one vector-attention block at the
           input resolution, then per extra stage a grid-pool downsample
           (voxel = base_voxel * downsample_factor**stage) followed by
           another attention block. Output features live on the final
           (coarsest) point set.
  decode:  inverse-distance interpolation of the (possibly fused)
           coarse features back onto every partition point, a stack of
           linear+rectifier layers, and a linear classification head.

Geometry, which depends on positions only, is planned by the caller:
plan_stages for encode, plan_interp for decode. Forwards then run only
the dense layers and return (result, cache); backwards consume the
cache and emit parameter gradients. Inputs (positions, colors) are
constants of the graph and receive no gradient. Both halves require
>= 1 input point.
"""

from dataclasses import dataclass, field

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
    relu_bwd,
    relu_fwd,
)


@dataclass(frozen=True)
class BackboneConfig:
    """Shape of the per-scale network.

    Stage 0 attends at the input resolution (a partition already has
    one point per base voxel, so pooling there would be a no-op); each
    later stage s pools at base_voxel * downsample_factor**s first.
    """

    num_classes: int
    feature_dim: int = 32
    attention_neighbors: int = 8
    encoder_stages: int = 2
    downsample_factor: float = 2.0
    interp_neighbors: int = 3
    in_dim: int = 6

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.feature_dim < 1 or self.in_dim < 1:
            raise ValueError("feature_dim and in_dim must be >= 1")
        if self.encoder_stages < 1:
            raise ValueError("encoder_stages must be >= 1")
        if self.attention_neighbors < 1 or self.interp_neighbors < 1:
            raise ValueError("neighbor counts must be >= 1")
        if self.downsample_factor < 1.0:
            raise ValueError("downsample_factor must be >= 1")


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
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", np.argmax(self.logits, axis=1))

    @property
    def n(self):
        return self.logits.shape[0]


class ScaleModel:
    """Named parameter tensors for one scale, with a freeze latch.

    Frozen models refuse in-place parameter updates and report no
    gradients; freezing is one-way (lower scales never thaw while later
    ones train).
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


def _attention_param_shapes(f):
    return {
        "_wq": (f, f), "_wk": (f, f), "_wv": (f, f),
        "_pw1": (3, f), "_pb1": (f,), "_pw2": (f, f), "_pb2": (f,),
        "_aw1": (f, f), "_ab1": (f,), "_aw2": (f, f), "_ab2": (f,),
    }


def init_params(cfg: BackboneConfig, seed: int = 0, with_fusion: bool = False):
    """Fresh parameter dict, name -> float64 array, fan-in scaled."""
    rng = np.random.default_rng(seed)
    f = cfg.feature_dim

    def he(shape):
        return rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])

    def unit(shape):
        return rng.standard_normal(shape) * np.sqrt(1.0 / shape[0])

    p = {
        "embed_w1": he((cfg.in_dim, f)), "embed_b1": np.zeros(f),
        "embed_w2": he((f, f)), "embed_b2": np.zeros(f),
    }
    for t in range(cfg.encoder_stages):
        for suffix, shape in _attention_param_shapes(f).items():
            name = f"att{t}{suffix}"
            if suffix in ("_wq", "_wk", "_wv"):
                p[name] = unit(shape)
            elif len(shape) == 1:
                p[name] = np.zeros(shape)
            else:
                p[name] = he(shape)
    for t in range(cfg.encoder_stages):
        p[f"dec{t}_w"] = he((f, f))
        p[f"dec{t}_b"] = np.zeros(f)
    p["head_w"] = unit((f, cfg.num_classes))
    p["head_b"] = np.zeros(cfg.num_classes)
    if with_fusion:
        p["fuse_cw"] = he((f, f))
        p["fuse_cb"] = np.zeros(f)
        p["fuse_fw"] = unit((2 * f, f))
        p["fuse_fb"] = np.zeros(f)
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
    size; stage t pools at base_voxel * downsample_factor**t.
    """
    if positions.shape[0] < 1:
        raise ValueError("plan_stages requires a non-empty partition")
    stages = []
    cur, pool = positions, None
    for t in range(cfg.encoder_stages):
        if t:
            pool = grid_pool_groups(cur, base_voxel * cfg.downsample_factor ** t)
            cur = pool[0]
        idx, _ = counted_knn(cur, cur, min(cfg.attention_neighbors, cur.shape[0]),
                             counter)
        stages.append(StagePlan(cur, pool, idx))
    return tuple(stages)


def plan_interp(src_positions, positions, cfg, counter=None):
    """Decode interpolation (ids, weights) from src_positions onto positions."""
    idx, d2 = counted_knn(src_positions, positions,
                          min(cfg.interp_neighbors, src_positions.shape[0]), counter)
    return idx, interp_weights(np.sqrt(d2))


# ---------------------------------------------------------------------------
# encode

def encode(model, positions, feats_in, stages, scale_id=1, need_cache=True):
    """Partition points -> FeatureMatrix at the coarsest stage.

    positions (N, 3), feats_in (N, in_dim), N >= 1. stages:
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
    a, ac = attention_fwd(positions, h, stages[0].neighbors, p, "att0", need_cache)
    cur = h + a
    pooled = []
    for t, st in enumerate(stages[1:], start=1):
        pf, pc = grid_pool_fwd(cur, st.pool)
        a, sac = attention_fwd(st.positions, pf, st.neighbors, p, f"att{t}",
                               need_cache)
        cur = pf + a
        pooled.append((pc, sac))
    fm = FeatureMatrix(stages[-1].positions, cur, scale_id)
    cache = (ec, ac, pooled) if need_cache else None
    return fm, cache


def encode_bwd(g, cache, model):
    """Gradient of encode wrt parameters; empty dict when frozen."""
    if model.frozen:
        return {}
    ec, ac, stages = cache
    p = model.params
    grads = {}
    cur = g
    for t in range(len(stages), 0, -1):
        pc, sac = stages[t - 1]
        da, ag = attention_bwd(cur, sac, p, f"att{t}")
        grads.update(ag)
        cur = grid_pool_bwd(cur + da, pc)
    da, ag = attention_bwd(cur, ac, p, "att0")
    grads.update(ag)
    _, (dw1, db1, dw2, db2) = mlp2_bwd(cur + da, ec)
    grads["embed_w1"] = dw1
    grads["embed_b1"] = db1
    grads["embed_w2"] = dw2
    grads["embed_b2"] = db2
    return grads


# ---------------------------------------------------------------------------
# decode

def decode(model, fused: FeatureMatrix, positions, cfg, interp, need_cache=True):
    """Coarse features -> Prediction for every partition point.

    positions: (N, 3) of the full partition; every row receives logits.
    interp: plan_interp(fused.positions, positions, cfg), one row per
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
        z, lc = linear_fwd(cur, p[f"dec{t}_w"], p[f"dec{t}_b"])
        cur, rm = relu_fwd(z)
        lcaches.append((lc, rm))
    logits, hc = linear_fwd(cur, p["head_w"], p["head_b"])
    cache = (ic, lcaches, hc) if need_cache else None
    return Prediction(logits), cache


def decode_bwd(g, cache, model):
    """Returns (dfused_features, grads); grads empty when frozen."""
    ic, lcaches, hc = cache
    p = model.params
    grads = {}
    dcur, dhw, dhb = linear_bwd(g, hc)
    grads["head_w"] = dhw
    grads["head_b"] = dhb
    for t in range(len(lcaches) - 1, -1, -1):
        lc, rm = lcaches[t]
        dz = relu_bwd(dcur, rm)
        dcur, dw, db = linear_bwd(dz, lc)
        grads[f"dec{t}_w"] = dw
        grads[f"dec{t}_b"] = db
    dfused = interp_apply_bwd(dcur, ic)
    if model.frozen:
        return dfused, {}
    return dfused, grads
