"""Synthetic labeled indoor scenes.

A scene is a floor plane, up to four wall planes, and a set of
axis-aligned boxes resting on the floor. Objects are sampled uniformly
by surface area; every point is labeled with its object's class
(object index modulo num_classes) and colored with a per-class base
color plus Gaussian noise, quantized to the 8-bit grid so files
round-trip exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene; fully determined by rng_seed.
    num_objects counts the floor, then up to four walls, then boxes."""

    extents: tuple = (8.0, 8.0, 3.0)
    num_objects: int = 8
    num_classes: int = 13
    num_points: int = 100_000
    noise_sigma: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        ext = tuple(float(e) for e in self.extents)
        if len(ext) != 3 or not all(math.isfinite(e) and e > 0 for e in ext):
            raise ValueError("extents must be three positive finite reals")
        # face areas are products of two extents, and their norms square
        # them: an overflow or an underflow to zero breaks the allocation
        if not all(0.0 < (a * b) * (a * b) < math.inf
                   for i, a in enumerate(ext) for b in ext[i + 1:]):
            raise ValueError("extents out of range: each product of two "
                             "extents must square to a positive finite value")
        if self.num_points < 1:
            raise ValueError("num_points must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.num_objects < 1:
            raise ValueError("num_objects must be >= 1")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and >= 0")
        object.__setattr__(self, "extents", ext)


def class_color(c):
    """Fixed, well-separated base color for class c, on the 8-bit grid."""
    r = (37 * c + 29) % 256
    g = (97 * c + 71) % 256
    b = (157 * c + 113) % 256
    return np.array([r, g, b], dtype=np.float64) / 255.0


def _box_faces(lo, hi):
    """Five visible faces of an axis-aligned box (no bottom)."""
    lx, ly, lz = hi - lo
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    return [
        ((x0, y0, z1), (lx, 0, 0), (0, ly, 0)),  # top
        ((x0, y0, z0), (lx, 0, 0), (0, 0, lz)),  # y = y0 side
        ((x0, y1, z0), (lx, 0, 0), (0, 0, lz)),  # y = y1 side
        ((x0, y0, z0), (0, ly, 0), (0, 0, lz)),  # x = x0 side
        ((x1, y0, z0), (0, ly, 0), (0, 0, lz)),  # x = x1 side
    ]


def generate_scene(spec: SceneSpec) -> PointCloud:
    """Build the labeled cloud for a spec; identical output per seed."""
    rng = np.random.default_rng(spec.rng_seed)
    lx, ly, lz = spec.extents

    # objects[i] = list of rectangles (origin, u edge, v edge); class i % C
    objects = [[((0.0, 0.0, 0.0), (lx, 0, 0), (0, ly, 0))]]  # floor
    walls = [
        ((0.0, 0.0, 0.0), (lx, 0, 0), (0, 0, lz)),
        ((0.0, ly, 0.0), (lx, 0, 0), (0, 0, lz)),
        ((0.0, 0.0, 0.0), (0, ly, 0), (0, 0, lz)),
        ((lx, 0.0, 0.0), (0, ly, 0), (0, 0, lz)),
    ]
    objects.extend([w] for w in walls[: spec.num_objects - 1])
    n_boxes = spec.num_objects - len(objects)
    for _ in range(n_boxes):
        size = rng.uniform(0.10, 0.22, 3) * spec.extents
        size[2] = rng.uniform(0.15, 0.40) * lz
        cx = rng.uniform(size[0] / 2, lx - size[0] / 2)
        cy = rng.uniform(size[1] / 2, ly - size[1] / 2)
        lo = np.array([cx - size[0] / 2, cy - size[1] / 2, 0.0])
        hi = np.array([cx + size[0] / 2, cy + size[1] / 2, size[2]])
        objects.append(_box_faces(lo, hi))

    rects = []
    for obj_id, faces in enumerate(objects):
        for origin, u, v in faces:
            u = np.asarray(u, dtype=np.float64)
            v = np.asarray(v, dtype=np.float64)
            area = np.linalg.norm(np.cross(u, v))
            rects.append((np.asarray(origin, dtype=np.float64), u, v, area, obj_id))

    # area-proportional allocation, largest remainder, exact total
    areas = np.array([r[3] for r in rects])
    exact = spec.num_points * areas / areas.sum()
    counts = np.floor(exact).astype(np.int64)
    short = spec.num_points - counts.sum()
    for i in np.argsort(-(exact - counts), kind="stable")[:short]:
        counts[i] += 1
    # keep every object represented when the budget allows
    per_obj = np.zeros(len(objects), dtype=np.int64)
    for (_, _, _, _, obj_id), c in zip(rects, counts):
        per_obj[obj_id] += c
    if spec.num_points >= len(objects):
        for obj_id in np.flatnonzero(per_obj == 0):
            first = next(i for i, r in enumerate(rects) if r[4] == obj_id)
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[first] += 1

    positions = np.empty((spec.num_points, 3), dtype=np.float64)
    labels = np.empty(spec.num_points, dtype=np.int64)
    at = 0
    for (origin, u, v, _, obj_id), cnt in zip(rects, counts):
        if cnt == 0:
            continue
        t = rng.random((cnt, 2))
        positions[at:at + cnt] = origin + t[:, :1] * u + t[:, 1:] * v
        labels[at:at + cnt] = obj_id % spec.num_classes
        at += cnt

    palette = np.stack([class_color(c) for c in range(spec.num_classes)])
    colors = palette[labels]
    colors += spec.noise_sigma * rng.standard_normal(colors.shape)
    colors = np.rint(np.clip(colors, 0.0, 1.0) * 255.0) / 255.0

    perm = rng.permutation(spec.num_points)
    return PointCloud(positions=positions[perm], colors=colors[perm],
                      labels=labels[perm], num_classes=spec.num_classes)
