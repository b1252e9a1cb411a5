"""Point-cloud container, voxel-grid subsampling, and the disjoint
multi-resolution partitioning.

A cloud is split into s non-overlapping partitions by voxelizing the
not-yet-selected pool at each configured voxel size (coarsest first) and
keeping one random point per occupied voxel. The random pick is driven
by a counter-style hash of (seed, scale, voxel key), so the result does
not depend on point order and is reproducible.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# Voxel coordinates are packed into a single int64 (21 bits per axis).
_KEY_BOUND = 1 << 20
# Voxel coordinates past this magnitude do not fit an int64 with room to
# subtract another; no real cloud comes near it.
_COORD_BOUND = 2.0 ** 62


class CloudExtentError(ValueError):
    """A valid cloud too large, or too far from the origin, for the packed
    voxel keys."""


def _as_f64(arr, name, cols):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != cols:
        raise ValueError(f"{name} must have shape (N, {cols}), got {a.shape}")
    return a


@dataclass(frozen=True)
class PointCloud:
    """N points with positions (meters), colors in [0, 1], optional labels."""

    positions: np.ndarray
    colors: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int = 0

    def __post_init__(self):
        pos = _as_f64(self.positions, "positions", 3)
        col = _as_f64(self.colors, "colors", 3)
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if col.shape[0] != pos.shape[0]:
            raise ValueError("positions and colors row counts differ")
        if col.size and (col.min() < 0.0 or col.max() > 1.0):
            raise ValueError("colors must lie in [0, 1]")
        lab = self.labels
        if lab is not None:
            lab = np.ascontiguousarray(lab, dtype=np.int64).reshape(-1)
            if lab.shape[0] != pos.shape[0]:
                raise ValueError("labels length does not match point count")
            if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
                raise ValueError("labels must lie in [0, num_classes)")
        for a in (pos, col) + ((lab,) if lab is not None else ()):
            a.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def xyzrgb(self) -> np.ndarray:
        """The (N, 6) per-point input features."""
        return np.concatenate([self.positions, self.colors], axis=1)


@dataclass(frozen=True)
class PartitionConfig:
    """Voxel sizes per scale (strictly decreasing, coarsest first)."""

    voxel_sizes: tuple = (0.16, 0.12, 0.08, 0.06)
    rng_seed: int = 0

    def __post_init__(self):
        sizes = tuple(float(v) for v in self.voxel_sizes)
        if len(sizes) < 1:
            raise ValueError("need at least one voxel size")
        if not all(math.isfinite(v) and v > 0 for v in sizes):
            raise ValueError("voxel sizes must be positive and finite")
        if any(b >= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("voxel sizes must be strictly decreasing")
        object.__setattr__(self, "voxel_sizes", sizes)

    @property
    def num_scales(self) -> int:
        return len(self.voxel_sizes)


@dataclass(frozen=True)
class PartitionSet:
    """s pairwise-disjoint index arrays into the source cloud."""

    partitions: tuple
    voxel_sizes: tuple

    def __post_init__(self):
        parts = tuple(np.ascontiguousarray(p, dtype=np.int64) for p in self.partitions)
        for p in parts:
            p.setflags(write=False)
        object.__setattr__(self, "partitions", parts)
        object.__setattr__(self, "voxel_sizes", tuple(float(v) for v in self.voxel_sizes))

    @property
    def num_scales(self) -> int:
        return len(self.partitions)

    @property
    def sizes(self) -> tuple:
        return tuple(len(p) for p in self.partitions)

    def union(self, upto=None) -> "PartitionSet":
        """Partitions 1..upto (default: all) merged into one sorted
        partition at the finest voxel size among them."""
        upto = self.num_scales if upto is None else upto
        if not 1 <= upto <= self.num_scales:
            raise ValueError("upto_scale out of range")
        merged = np.sort(np.concatenate(self.partitions[:upto]))
        return PartitionSet((merged,), (min(self.voxel_sizes[:upto]),))


def voxel_keys(cloud: PointCloud, voxel_size: float) -> np.ndarray:
    """Integer voxel coordinates floor(p / voxel_size), shape (N, 3)."""
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    return _voxel_keys_raw(cloud.positions, float(voxel_size))


def _voxel_keys_raw(positions, voxel_size):
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    scaled = np.floor(positions / voxel_size)
    if scaled.size and np.abs(scaled).max() >= _COORD_BOUND:
        raise CloudExtentError(
            f"cloud lies 2^62 or more voxels from the origin at voxel size "
            f"{voxel_size:g} m")
    return scaled.astype(np.int64)


def _keys_in_range(keys):
    return not keys.size or (keys.min() >= -_KEY_BOUND and keys.max() < _KEY_BOUND)


def pack_voxel_keys(keys: np.ndarray) -> np.ndarray:
    """Pack (N, 3) integer voxel coords into one int64 per point."""
    if not _keys_in_range(keys):
        raise ValueError("voxel grid coordinates exceed the supported +/-2^20 range")
    return _pack(keys)


def _pack(keys):
    k = keys + _KEY_BOUND
    return (k[:, 0] << 42) | (k[:, 1] << 21) | k[:, 2]


def voxel_groups(positions, voxel_size):
    """Points grouped by voxel: (order, starts, group_keys).

    order sorts the points by voxel coordinates (x, y, z) and, inside a
    voxel, by position (x, y, z), so the grouping is independent of input
    point order (up to duplicate coordinates). Group g holds the points
    order[starts[g]:starts[g + 1]]. Voxels are packed relative to the
    cloud's lowest voxel coordinate on each axis, so a cloud far from the
    origin groups like the same cloud moved to it. group_keys[g] is the
    voxel's absolute packed key when every voxel lies within +/-2^20 of
    the origin, else a 64-bit mix of its absolute coordinates.
    Raises CloudExtentError when the cloud spans 2^21 or more voxels
    along an axis.
    """
    keys = _voxel_keys_raw(positions, voxel_size)
    lo = keys.min(axis=0) if len(keys) else 0
    rel = keys - (lo + _KEY_BOUND)
    if not _keys_in_range(rel):
        raise CloudExtentError(
            f"cloud spans {rel.max() + _KEY_BOUND + 1} voxels along one axis "
            f"at voxel size {voxel_size:g} m; packed voxel keys hold 2^21 "
            f"per axis (+/-2^20 around the cloud)")
    packed = _pack(rel)
    order = np.lexsort((positions[:, 2], positions[:, 1], positions[:, 0], packed))
    sorted_keys = packed[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    first = keys[order[starts]]
    group_keys = _pack(first) if _keys_in_range(keys) else _mix_coords(first)
    return order, starts, group_keys


def _mix_coords(keys):
    """One uint64 per row of (N, 3) int64 voxel coordinates: a
    multiply-xor chain over x, y, z, for keys too far out to pack."""
    u = keys.astype(np.uint64)
    with np.errstate(over="ignore"):
        h = u[:, 0] * np.uint64(0x9E3779B97F4A7C15)
        h = (h ^ u[:, 1]) * np.uint64(0xC2B2AE3D27D4EB4F)
        h = (h ^ u[:, 2]) * np.uint64(0x165667B19E3779F9)
    return h


def _mix_seed(rng_seed: int, scale_index: int) -> int:
    # splitmix64-style scalar avalanche over (seed, scale), python ints mod 2^64.
    mask = (1 << 64) - 1
    x = ((rng_seed & mask) * 0x9E3779B97F4A7C15 + (scale_index + 1) * 0xD1B54A32D192ED03) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


def _hash_unit(packed: np.ndarray, salt: int) -> np.ndarray:
    """Map packed voxel keys to uniform floats in [0, 1), order-independent."""
    with np.errstate(over="ignore"):
        x = packed.astype(np.uint64) ^ np.uint64(salt)
        x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def build_partitions(cloud: PointCloud, cfg: PartitionConfig) -> PartitionSet:
    """Select s disjoint partitions, one random point per occupied voxel.

    Scale i voxelizes only the points not claimed by scales < i, so no
    point appears in two partitions. A scale with an empty remaining
    pool yields an empty partition. Raises CloudExtentError when the
    remaining pool spans 2^21 or more voxels along an axis at its
    scale's voxel size.
    """
    pool = np.arange(cloud.n, dtype=np.int64)
    partitions = []
    for i, vsize in enumerate(cfg.voxel_sizes):
        if pool.size == 0:
            partitions.append(np.empty(0, dtype=np.int64))
            continue
        order, starts, group_keys = voxel_groups(cloud.positions[pool], vsize)
        sizes = np.diff(np.r_[starts, order.size])
        u = _hash_unit(group_keys, _mix_seed(cfg.rng_seed, i))
        offsets = np.minimum((u * sizes).astype(np.int64), sizes - 1)
        chosen = pool[order[starts + offsets]]
        partitions.append(np.sort(chosen))
        pool = np.setdiff1d(pool, chosen, assume_unique=True)
    sizes = [len(p) for p in partitions]
    if cloud.n > 0 and any(b <= a for a, b in zip(sizes, sizes[1:])):
        warnings.warn(
            f"partition sizes {sizes} are not strictly increasing; "
            "input cloud is too sparse for the configured voxel sizes",
            stacklevel=2,
        )
    return PartitionSet(tuple(partitions), cfg.voxel_sizes)


def gather(cloud: PointCloud, indices) -> PointCloud:
    """Sub-cloud at the given indices, in index order; labels carried."""
    idx = np.ascontiguousarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= cloud.n):
        raise ValueError("gather index out of range")
    return PointCloud(
        positions=cloud.positions[idx],
        colors=cloud.colors[idx],
        labels=None if cloud.labels is None else cloud.labels[idx],
        num_classes=cloud.num_classes,
    )
