"""Point-cloud container, voxel-grid subsampling, and the disjoint
multi-resolution partitioning.

A cloud is split into s non-overlapping partitions by voxelizing the
not-yet-selected pool at each configured voxel size (coarsest first) and
keeping one random point per occupied voxel. The random pick is driven
by a counter-style hash of (seed, scale, voxel key), so the result does
not depend on point order and is reproducible.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

# Voxel coordinates are packed into a single int64 (21 bits per axis).
_KEY_BOUND = 1 << 20


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
        if any(v <= 0 for v in sizes):
            raise ValueError("voxel sizes must be positive")
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
    source_point_count: int
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


def voxel_keys(cloud: PointCloud, voxel_size: float) -> np.ndarray:
    """Integer voxel coordinates floor(p / voxel_size), shape (N, 3)."""
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    return _voxel_keys_raw(cloud.positions, float(voxel_size))


def _voxel_keys_raw(positions, voxel_size):
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    return np.floor(positions / voxel_size).astype(np.int64)


def pack_voxel_keys(keys: np.ndarray) -> np.ndarray:
    """Pack (N, 3) integer voxel coords into one int64 per point."""
    if keys.size and (keys.min() < -_KEY_BOUND or keys.max() >= _KEY_BOUND):
        raise ValueError("voxel grid coordinates exceed the supported +/-2^20 range")
    k = keys + _KEY_BOUND
    return (k[:, 0] << 42) | (k[:, 1] << 21) | k[:, 2]


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
    pool yields an empty partition.
    """
    pool = np.arange(cloud.n, dtype=np.int64)
    partitions = []
    for i, vsize in enumerate(cfg.voxel_sizes):
        if pool.size == 0:
            partitions.append(np.empty(0, dtype=np.int64))
            continue
        pool_pos = cloud.positions[pool]
        keys = _voxel_keys_raw(pool_pos, vsize)
        packed = pack_voxel_keys(keys)
        # canonical (x, y, z) order inside each voxel makes the pick
        # independent of input point order (up to duplicate coordinates)
        order = np.lexsort((pool_pos[:, 2], pool_pos[:, 1], pool_pos[:, 0], packed))
        sorted_keys = packed[order]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        sizes = np.diff(np.r_[starts, sorted_keys.size])
        u = _hash_unit(sorted_keys[starts], _mix_seed(cfg.rng_seed, i))
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
    return PartitionSet(tuple(partitions), cloud.n, cfg.voxel_sizes)


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
