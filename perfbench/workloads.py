"""The benchmark's workloads, each a closed loop with one client.

A workload builds its inputs from a seed, then serves requests one at a
time. `prepare` picks the next request's inputs (untimed), `call` is the
timed request, `check` validates its outputs (untimed) and `finish`
runs the checks that need every request done, such as the sequential
reference. Requests go through scaleseg's public package names so the
span recorder can wrap them.
"""

import hashlib
import time

import numpy as np

import scaleseg
from scaleseg import pipeline, training
from scaleseg import (BackboneConfig, PartitionConfig, PipelineConfig,
                      SceneSpec, ScaleModel, TrainConfig, generate_scene,
                      init_params)

NUM_CLASSES = 13
BACKBONE = BackboneConfig(num_classes=NUM_CLASSES, feature_dim=16)
PIPELINE = PipelineConfig(BACKBONE, k_fuse=8)
PARTITION = PartitionConfig()  # default voxel sizes (0.16, 0.12, 0.08, 0.06)
# Five epochs keep a train_scale call near 4.5 s (2 cores, numpy KNN), so
# a run holds several calls, and every KNN still reruns once per epoch.
TRAIN_EPOCHS = 5
TRAIN_SCALE = 2
# Tiles cycle through a pool, so each tile is seen several times per run
# and its outputs can be compared across visits.
TILE_POOL = 24

# Spans every workload must produce when traced.
_FORWARD_SPANS = {"knn", "layers.attention_fwd", "layers.grid_pool",
                  "layers.interp", "backbone.encode", "backbone.decode",
                  "fusion.fuse", "fusion.store_merge"}


def fresh_models():
    """One untrained model per scale; scales 2.. carry fusion weights."""
    return [ScaleModel(init_params(BACKBONE, seed=i, with_fusion=i > 0))
            for i in range(PARTITION.num_scales)]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def prediction_digest(preds):
    return digest(*[a for p in preds for a in (p.labels, p.logits)])


class DecodeHook:
    """Notes when each `decode` call looked up in `owner` returns.

    This is the only hook of an untraced run: it yields the time at which
    a request's first labels exist, read from outside the program.
    Each call is recorded as (scale id, return time, Prediction).
    """

    def __init__(self, owner):
        self.owner = owner
        self.calls = []
        self._original = None

    def install(self):
        fn = self._original = self.owner.__dict__["decode"]
        calls = self.calls

        def decode(model, fused, *args, **kwargs):
            out = fn(model, fused, *args, **kwargs)
            calls.append((fused.scale_id, time.perf_counter(), out[0]))
            return out

        self.owner.decode = decode

    def reset(self):
        self.calls.clear()

    def uninstall(self):
        self.owner.decode = self._original


def _last_by_scale(calls):
    """Last decode result per scale; the pipeline's warm-up decode comes first."""
    return {sid: (t, pred) for sid, t, pred in calls}


class Stream:
    """stream-30k: partition a 30k-point room, then the threaded pipeline."""

    name = "stream-30k"
    hook_owner = pipeline
    expected_spans = _FORWARD_SPANS | {"cloud.build_partitions", "pipeline.run"}

    def __init__(self, seed, tiny=False):
        self.cloud = generate_scene(SceneSpec(
            num_points=3000 if tiny else 30_000, rng_seed=seed))
        self.models = fresh_models()
        self.digests = []
        self.parts = None
        self.reference = None

    def prepare(self):
        return None

    def call(self, _):
        parts = scaleseg.build_partitions(self.cloud, PARTITION)
        preds, _ = scaleseg.run_pipeline(self.models, self.cloud, parts,
                                         PIPELINE, threaded=True)
        return parts, preds

    def check(self, _, out, calls):
        parts, preds = out
        if self.parts is None:
            self.parts = parts
        self.digests.append((digest(*parts.partitions), prediction_digest(preds)))
        first = _last_by_scale(calls).get(1)
        if first is None:
            raise RuntimeError("decode hook never saw scale 1 return")
        return [], first[0], parts.sizes

    def finish(self):
        """Threaded labels must equal a sequential run on the same inputs."""
        if self.parts is None:
            return []
        preds, _ = scaleseg.run_pipeline(self.models, self.cloud, self.parts,
                                         PIPELINE, threaded=False)
        self.reference = (digest(*self.parts.partitions), prediction_digest(preds))
        return [f"request {i + 1}: partition/prediction digest {d} != "
                f"sequential reference {self.reference}"
                for i, d in enumerate(self.digests) if d != self.reference]

    def record(self):
        if self.reference is None:
            return {}
        return {"partition_sizes": list(self.parts.sizes),
                "prediction_digest": self.reference[1]}


class Train:
    """train-8k: one train_scale call on scale 2 with scale 1 frozen."""

    name = "train-8k"
    hook_owner = training
    expected_spans = _FORWARD_SPANS | {
        "training.train_scale", "backbone.encode_bwd", "backbone.decode_bwd",
        "fusion.fuse_bwd", "layers.loss", "layers.attention_bwd",
        "layers.scatter_rows"}

    def __init__(self, seed, tiny=False):
        self.cloud = generate_scene(SceneSpec(
            num_points=1500 if tiny else 8000, rng_seed=seed))
        self.parts = scaleseg.build_partitions(self.cloud, PARTITION)
        self.models = fresh_models()
        self.models[0].freeze()
        self.frozen_digest = digest(*self.models[0].params.values())
        self.tcfg = TrainConfig(epochs=1 if tiny else TRAIN_EPOCHS, batch_size=1)
        self.losses = None

    def prepare(self):
        models = list(self.models)
        models[TRAIN_SCALE - 1] = models[TRAIN_SCALE - 1].copy()
        return models

    def call(self, models):
        return scaleseg.train_scale(models, TRAIN_SCALE, [(self.cloud, self.parts)],
                                    PIPELINE, self.tcfg)

    def check(self, models, losses, calls):
        problems = []
        arr = np.asarray(losses, dtype=np.float64)
        if arr.shape != (self.tcfg.epochs,) or not np.all(np.isfinite(arr)):
            problems.append(f"epoch losses not {self.tcfg.epochs} finite values: {losses}")
        if self.losses is None:
            self.losses = arr
        elif arr.tobytes() != self.losses.tobytes():
            problems.append(f"epoch losses {losses} differ from the first "
                            f"request's {self.losses.tolist()}")
        if digest(*self.models[0].params.values()) != self.frozen_digest:
            problems.append("frozen scale 1 parameters changed")
        if not calls:
            raise RuntimeError("decode hook never fired during training")
        return problems, min(t for _, t, _ in calls), self.parts.sizes

    def finish(self):
        return []

    def record(self):
        if self.losses is None:
            return {}
        return {"partition_sizes": list(self.parts.sizes),
                "epoch_losses": self.losses.tolist(),
                "loss_digest": digest(self.losses)}


class Tiles:
    """tiles: many small rooms, each partitioned then evaluated."""

    name = "tiles"
    hook_owner = pipeline
    expected_spans = _FORWARD_SPANS | {"cloud.build_partitions", "pipeline.run",
                                       "request.evaluate", "metrics.update"}

    def __init__(self, seed, tiny=False):
        self.pool = [generate_scene(SceneSpec(
            extents=(4.0, 4.0, 2.5), num_points=3000, rng_seed=seed + i))
            for i in range(2 if tiny else TILE_POOL)]
        self.models = fresh_models()
        self.digests = {}
        self.next = 0

    def prepare(self):
        i = self.next % len(self.pool)
        self.next += 1
        return i

    def call(self, i):
        tile = self.pool[i]
        parts = scaleseg.build_partitions(tile, PARTITION)
        _, matrices = scaleseg.evaluate(self.models, [(tile, parts)], PIPELINE)
        return parts, matrices

    def check(self, i, out, calls):
        parts, matrices = out
        got = _last_by_scale(calls)
        problems, arrays = [], []
        for s, n in enumerate(parts.sizes, start=1):
            if n == 0:
                continue
            if s not in got:
                problems.append(f"tile {i}: scale {s} produced no labels")
                continue
            labels = got[s][1].labels
            if labels.shape != (n,) or labels.min() < 0 or labels.max() >= NUM_CLASSES:
                problems.append(f"tile {i}: scale {s} labels have shape "
                                f"{labels.shape} or range outside [0, {NUM_CLASSES})")
            if matrices[s - 1].total != n:
                problems.append(f"tile {i}: scale {s} confusion total "
                                f"{matrices[s - 1].total} != {n} points")
            arrays += [labels, got[s][1].logits, matrices[s - 1].counts]
        d = digest(*arrays)
        if self.digests.setdefault(i, d) != d:
            problems.append(f"tile {i}: digest {d} differs from its first "
                            f"visit's {self.digests[i]}")
        if 1 not in got:
            raise RuntimeError("decode hook never saw scale 1 return")
        return problems, got[1][0], parts.sizes

    def finish(self):
        return []

    def record(self):
        seen = sorted(self.digests)
        joined = "".join(self.digests[i] for i in seen).encode()
        return {"tiles_digested": len(seen),
                "prediction_digest": hashlib.sha256(joined).hexdigest()[:16]}


WORKLOADS = {w.name: w for w in (Stream, Train, Tiles)}
