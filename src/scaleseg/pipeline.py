"""Multi-scale inference orchestration, latency bounds, and the
complexity accounting that motivates partitioned processing.

Scale 1 runs encode -> decode; every later scale runs encode ->
fuse(store) -> extend store -> decode. The store extension happens
before decode so the next scale's fusion can overlap the current
scale's decoder when threaded. Predictions are bit-identical whether
scales run sequentially or on threads: all stages are pure functions
and the store contents seen by scale i are exactly scales 1..i-1 under
either schedule.
"""

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .backbone import (BackboneConfig, Prediction, decode, encode, plan_interp,
                       plan_stages)
from .cloud import PartitionSet, PointCloud
from .fusion import FeatureStore, fuse
from .knn import EvalCounter
from .report import format_records, format_table


@dataclass(frozen=True)
class PipelineConfig:
    backbone: BackboneConfig
    k_fuse: int = 8

    def __post_init__(self):
        if self.k_fuse < 1:
            raise ValueError("k_fuse must be >= 1")


# ---------------------------------------------------------------------------
# complexity accounting

@dataclass(frozen=True)
class ComplexityEstimate:
    """Exact pairwise-work bookkeeping for partitioned processing.

    whole_cost is N^2 with N = sum of sizes; scalable_cost is the sum
    of per-partition squares; gain counts every ordered cross-partition
    pair N_k * N_p (k != p). The identity whole = scalable + gain is
    verified on construction.
    """

    sizes: tuple
    whole_cost: int
    scalable_cost: int
    gain: int

    def __post_init__(self):
        if self.whole_cost != self.scalable_cost + self.gain:
            raise ValueError("complexity identity N^2 = sum N_i^2 + gain violated")

    @property
    def reduction_ratio(self):
        """Scalable fraction of the whole-cloud pairwise work."""
        return self.scalable_cost / self.whole_cost


def estimate_gain(sizes) -> ComplexityEstimate:
    """Exact integer evaluation of the cross-partition work saved."""
    ns = [int(s) for s in sizes]
    if not ns:
        raise ValueError("need at least one partition size")
    if any(s <= 0 for s in ns):
        raise ValueError("partition sizes must be positive")
    total = sum(ns)
    # the double sum is evaluated literally; the dataclass re-checks it
    # against N^2 - sum of squares, so both routes must agree
    gain = sum(nk * np_ for k, nk in enumerate(ns)
               for p, np_ in enumerate(ns) if p != k)
    return ComplexityEstimate(tuple(ns), total * total,
                              sum(s * s for s in ns), gain)


# ---------------------------------------------------------------------------
# latency bounds

def simulate_schedule(durations_ms, arrivals_ms=None):
    """Sequential-schedule bounds for per-scale durations.

    cumulative[i]: completion when all data is present at t=0 (upper
    bound). completion[i]: scale i starts at max(arrival[i], previous
    completion). induced[i] = completion[i] - arrival[i] is the latency
    attributable to processing (lower bound); induced <= cumulative for
    non-decreasing arrivals.
    """
    d = [float(x) for x in durations_ms]
    if not d:
        raise ValueError("need at least one scale duration")
    if any(x < 0 for x in d):
        raise ValueError("durations must be >= 0")
    if arrivals_ms is None:
        a = [0.0] * len(d)
    else:
        a = [float(x) for x in arrivals_ms]
        if len(a) != len(d):
            raise ValueError("arrival count does not match scale count")
        if any(x < 0 for x in a):
            raise ValueError("arrival times must be >= 0")
        if any(y < x for x, y in zip(a, a[1:])):
            raise ValueError("arrival times must be non-decreasing")
    cumulative, completion, induced = [], [], []
    cum = 0.0
    finish = 0.0
    for dur, arr in zip(d, a):
        cum += dur
        finish = max(arr, finish) + dur
        cumulative.append(cum)
        completion.append(finish)
        induced.append(finish - arr)
    return cumulative, completion, induced


@dataclass
class ScaleTiming:
    scale: int
    n_points: int
    n_coarse: int
    encode_ms: float
    fuse_ms: float
    decode_ms: float
    distance_evals: int
    arrival_ms: float = 0.0
    cumulative_ms: float = 0.0
    completion_ms: float = 0.0
    pipelined_ms: float = 0.0

    @property
    def duration_ms(self):
        return self.encode_ms + self.fuse_ms + self.decode_ms


@dataclass
class TimingReport:
    scales: list = field(default_factory=list)

    def finalize(self, arrivals_ms=None):
        """Fill the schedule-bound fields from the measured durations."""
        cum, comp, ind = simulate_schedule(
            [s.duration_ms for s in self.scales], arrivals_ms)
        for s, a, c, f, i in zip(self.scales,
                                 arrivals_ms or [0.0] * len(cum), cum, comp, ind):
            s.arrival_ms = float(a)
            s.cumulative_ms = c
            s.completion_ms = f
            s.pipelined_ms = i
        return self

    @property
    def total_ms(self):
        return self.scales[-1].cumulative_ms if self.scales else 0.0

    @property
    def total_distance_evals(self):
        return sum(s.distance_evals for s in self.scales)

    def records(self):
        return [{"scale": s.scale, "n_points": s.n_points,
                 "encode_ms": s.encode_ms, "fuse_ms": s.fuse_ms,
                 "decode_ms": s.decode_ms, "cumulative_ms": s.cumulative_ms,
                 "pipelined_ms": s.pipelined_ms,
                 "distance_evals": s.distance_evals} for s in self.scales]

    def record_lines(self):
        return format_records(self.records())

    def table_lines(self):
        headers = ["Scale", "Points", "Coarse", "Encode(ms)", "Fuse(ms)",
                   "Decode(ms)", "Cumulative(ms)", "Pipelined(ms)", "Evals"]
        rows = [[s.scale, s.n_points, s.n_coarse, s.encode_ms, s.fuse_ms,
                 s.decode_ms, s.cumulative_ms, s.pipelined_ms, s.distance_evals]
                for s in self.scales]
        return format_table(headers, rows)


# ---------------------------------------------------------------------------
# execution

def _empty_prediction(num_classes):
    return Prediction(np.zeros((0, num_classes), dtype=np.float64))


def _run_scale(i, model, part_pos, part_feats, base_voxel, store, ready,
               failed, cfg: PipelineConfig, fusion_enabled, out_preds,
               out_timings):
    """Execute one scale; `ready[i]` is set once the store holds scale i.

    A scale that fails or has no points still sets `ready[i]`, after
    `ready[i - 1]`, so the store-ready chain stays in scale order and no
    later scale waits forever. A failing scale sets `failed` first, so
    every later scale sees it once its wait returns and stops before
    fusing into a store that lacks the failed scale.
    """
    try:
        backbone_cfg = cfg.backbone
        counter = EvalCounter()
        n = part_pos.shape[0]
        if n == 0:
            out_preds[i] = _empty_prediction(backbone_cfg.num_classes)
            out_timings[i] = ScaleTiming(i + 1, 0, 0, 0.0, 0.0, 0.0, 0)
            return
        t0 = time.perf_counter()
        stages = plan_stages(part_pos, base_voxel, backbone_cfg, counter)
        fm, _ = encode(model, part_pos, part_feats, stages, scale_id=i + 1,
                       need_cache=False)
        t1 = time.perf_counter()
        if ready is not None and i > 0:
            ready[i - 1].wait()
            if failed.is_set():
                return
        fuse_ms = 0.0
        fused = fm
        if i > 0 and fusion_enabled:
            tf = time.perf_counter()
            fused, _ = fuse(fm, store, model.params, cfg.k_fuse,
                            counter=counter, need_cache=False)
            fuse_ms = (time.perf_counter() - tf) * 1e3
        store.add_scale(fused)
        if ready is not None:
            ready[i].set()
        t2 = time.perf_counter()
        interp = plan_interp(fused.positions, part_pos, backbone_cfg, counter)
        pred, _ = decode(model, fused, part_pos, backbone_cfg, interp,
                         need_cache=False)
        t3 = time.perf_counter()
        out_preds[i] = pred
        out_timings[i] = ScaleTiming(i + 1, n, fm.n, (t1 - t0) * 1e3, fuse_ms,
                                     (t3 - t2) * 1e3, counter.count)
    except Exception:
        if failed is not None:
            failed.set()
        raise
    finally:
        if ready is not None and not ready[i].is_set():
            if i > 0:
                ready[i - 1].wait()
            ready[i].set()


def run_pipeline(models, cloud: PointCloud, parts: PartitionSet,
                 cfg: PipelineConfig, arrival_times=None, threaded=False,
                 fusion_enabled=True):
    """Run all scales; returns (predictions, TimingReport).

    arrival_times (ms, non-decreasing, one per scale) only affect the
    reported pipelined bounds, never the computation itself.
    """
    s = parts.num_scales
    if len(models) != s:
        raise ValueError(f"{len(models)} models for {s} scales")
    if arrival_times is not None and len(arrival_times) != s:
        raise ValueError("arrival time count does not match scale count")

    feats_all = cloud.xyzrgb()
    scale_inputs = []
    for i in range(s):
        idx = parts.partitions[i]
        scale_inputs.append((cloud.positions[idx], feats_all[idx]))

    store = FeatureStore(cfg.backbone.feature_dim)
    preds = [None] * s
    timings = [None] * s
    if threaded:
        ready = [threading.Event() for _ in range(s)]
        failed = threading.Event()
        errors = [None] * s

        def work(i):
            try:
                _run_scale(i, models[i], scale_inputs[i][0], scale_inputs[i][1],
                           parts.voxel_sizes[i], store, ready, failed, cfg,
                           fusion_enabled, preds, timings)
            except Exception as exc:  # re-raised below, in the caller
                errors[i] = exc

        workers = [threading.Thread(target=work, args=(i,), name=f"scale-{i + 1}")
                   for i in range(s)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        # the lowest failed scale's error is the root cause
        for exc in errors:
            if exc is not None:
                raise exc
    else:
        for i in range(s):
            _run_scale(i, models[i], scale_inputs[i][0], scale_inputs[i][1],
                       parts.voxel_sizes[i], store, None, None, cfg,
                       fusion_enabled, preds, timings)

    report = TimingReport(timings).finalize(arrival_times)
    return preds, report


@dataclass
class BaselineResult:
    prediction: Prediction
    n_points: int
    wall_ms: float
    distance_evals: int
    upto_scale: int


def run_baseline(model, cloud: PointCloud, parts: PartitionSet, upto_scale,
                 cfg: PipelineConfig) -> BaselineResult:
    """Whole-cloud single pass over the union of partitions 1..upto_scale.

    The union is processed with the finest merged voxel size as the
    pooling base. No fusion is involved; this is the "wait for all
    data" reference the scalable pipeline is compared against.
    """
    if not 1 <= upto_scale <= parts.num_scales:
        raise ValueError("upto_scale out of range")
    union = np.sort(np.concatenate(parts.partitions[:upto_scale]))
    if union.size == 0:
        return BaselineResult(_empty_prediction(cfg.backbone.num_classes),
                              0, 0.0, 0, upto_scale)
    pos = cloud.positions[union]
    feats = cloud.xyzrgb()[union]
    base_voxel = parts.voxel_sizes[upto_scale - 1]
    counter = EvalCounter()
    t0 = time.perf_counter()
    stages = plan_stages(pos, base_voxel, cfg.backbone, counter)
    fm, _ = encode(model, pos, feats, stages, need_cache=False)
    interp = plan_interp(fm.positions, pos, cfg.backbone, counter)
    pred, _ = decode(model, fm, pos, cfg.backbone, interp, need_cache=False)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return BaselineResult(pred, int(union.size), wall_ms, counter.count,
                          upto_scale)
