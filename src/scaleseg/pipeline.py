"""Multi-scale inference orchestration, latency bounds, and the
complexity accounting that motivates partitioned processing.

Scale 1 runs encode -> decode; every later scale runs encode ->
fuse(store) -> extend store -> decode. The store extension happens
before decode so the next scale's fusion can overlap the current
scale's decoder when threaded.

Every run goes through one worker loop. A threaded run starts one
worker per core, at most one per scale; a sequential run is one worker,
the calling thread. Scale 1 runs alone first: the first worker takes
it, and every other worker waits until scale 1 has its prediction or
has failed, lending its core to scale 1's neighbor searches meanwhile,
so the first labels come with every core behind them. After that each
worker takes the lowest scale not yet started, runs it, and takes the
next. It cannot deadlock: a scale waits only on the scale before it,
which was taken earlier and so is running or done. Predictions are
bit-identical under any schedule: all stages are pure functions and the
store contents seen by scale i are exactly scales 1..i-1.

Cores left over go to neighbor search: each brute-force KNN call splits
its query rows over the cores that `_kernels.idle_cores` counts as idle.
A threaded run reserves one core per worker before any worker starts,
and the calling thread, which only waits, lends its core. A worker gives
its core back when it exits and lends it while it blocks, on scale 1 or
on the scale before its own, so a split never takes a core from a
computing scale. A sequential run never touches the count: its one
worker never blocks.
"""

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import _cores
from .backbone import (BackboneConfig, Prediction, decode, encode, plan_interp,
                       plan_stages)
from .cloud import PartitionSet, PointCloud
from .fusion import FeatureStore, fuse
from .knn import EvalCounter


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
    if not all(math.isfinite(x) and x >= 0 for x in d):
        raise ValueError("durations must be finite and >= 0")
    if arrivals_ms is None:
        a = [0.0] * len(d)
    else:
        a = [float(x) for x in arrivals_ms]
        if len(a) != len(d):
            raise ValueError("arrival count does not match scale count")
        if not all(math.isfinite(x) and x >= 0 for x in a):
            raise ValueError("arrival times must be finite and >= 0")
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
    """What one scale's run measured."""

    scale: int
    n_points: int
    n_coarse: int
    plan_ms: float
    encode_ms: float
    fuse_ms: float
    decode_ms: float
    knn_queries: int
    distance_evals: int
    labels_ms: float  # run start until this scale's prediction existed

    @property
    def duration_ms(self):
        return self.plan_ms + self.encode_ms + self.fuse_ms + self.decode_ms


@dataclass
class TimingReport:
    scales: list = field(default_factory=list)

    @property
    def total_ms(self):
        return sum((s.duration_ms for s in self.scales), 0.0)

    @property
    def total_distance_evals(self):
        return sum(s.distance_evals for s in self.scales)

    def records(self, arrivals_ms=None):
        """One dict per scale: the measured fields plus the schedule
        bounds that `simulate_schedule` derives from the durations and
        `arrivals_ms` (ms, one per scale; all 0 when None)."""
        cum, comp, ind = simulate_schedule(
            [s.duration_ms for s in self.scales], arrivals_ms)
        arrivals = [0.0] * len(cum) if arrivals_ms is None else arrivals_ms
        return [{"scale": s.scale, "n_points": s.n_points,
                 "n_coarse": s.n_coarse, "arrival_ms": float(a),
                 "plan_ms": s.plan_ms, "encode_ms": s.encode_ms,
                 "fuse_ms": s.fuse_ms, "decode_ms": s.decode_ms,
                 "cumulative_ms": c, "completion_ms": f,
                 "labels_ms": s.labels_ms, "pipelined_ms": i,
                 "knn_queries": s.knn_queries,
                 "distance_evals": s.distance_evals}
                for s, a, c, f, i in zip(self.scales, arrivals, cum, comp, ind)]


# ---------------------------------------------------------------------------
# execution

def _wait_lending(event):
    """Wait for `event`; a wait that blocks lends this thread's core to
    the KNN splits of other threads until it returns."""
    if event.is_set():
        return
    _kernels.idle_cores.release(1)
    try:
        event.wait()
    finally:
        _kernels.idle_cores.reserve(1)


def _run_scale(i, model, part_pos, part_feats, base_voxel, store, ready,
               failed, cfg: PipelineConfig, fusion_enabled, out_preds,
               out_timings, t_start):
    """Execute one scale; `ready[i]` is set once the store holds scale i.

    Sequential and threaded runs share this event chain; they differ only
    in which thread calls each scale. A scale that fails or has no points
    still sets `ready[i]`, after `ready[i - 1]`, so the store-ready chain
    stays in scale order and no later scale waits forever. A failing
    scale sets `failed` first, so every later scale sees it once its wait
    returns and stops before fusing into a store that lacks the failed
    scale. In a sequential run `ready[i - 1]` is always set already, so
    no wait blocks and the idle-core count is never touched. `t_start`
    is the run's start on the perf_counter clock.
    """
    try:
        backbone_cfg = cfg.backbone
        counter = EvalCounter()
        n = part_pos.shape[0]
        if n == 0:
            out_preds[i] = Prediction(np.zeros((0, backbone_cfg.num_classes)))
            out_timings[i] = ScaleTiming(
                i + 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0,
                (time.perf_counter() - t_start) * 1e3)
            return
        t0 = time.perf_counter()
        stages = plan_stages(part_pos, base_voxel, backbone_cfg, counter)
        tp = time.perf_counter()
        fm, _ = encode(model, part_pos, part_feats, stages, scale_id=i + 1,
                       need_cache=False)
        t1 = time.perf_counter()
        if i > 0:
            _wait_lending(ready[i - 1])
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
        ready[i].set()
        t2 = time.perf_counter()
        interp = plan_interp(fused.positions, part_pos, backbone_cfg, counter)
        ti = time.perf_counter()
        pred, _ = decode(model, fused, part_pos, backbone_cfg, interp,
                         need_cache=False)
        t3 = time.perf_counter()
        out_preds[i] = pred
        out_timings[i] = ScaleTiming(
            i + 1, n, fm.n, (tp - t0 + ti - t2) * 1e3, (t1 - tp) * 1e3,
            fuse_ms, (t3 - ti) * 1e3, counter.queries, counter.count,
            (t3 - t_start) * 1e3)
    except Exception:
        failed.set()
        raise
    finally:
        if not ready[i].is_set():
            if i > 0:
                _wait_lending(ready[i - 1])
            ready[i].set()


def run_pipeline(models, cloud: PointCloud, parts: PartitionSet,
                 cfg: PipelineConfig, threaded=False, fusion_enabled=True):
    """Run all scales; returns (predictions, TimingReport).

    threaded only chooses the worker count: min(num_scales, cores) when
    set, else 1. One worker is the calling thread itself; with more, the
    calling thread only waits for them and lends its core to their KNN
    splits. Every worker's core is reserved before the first starts. The
    first worker takes scale 1, and every other worker waits, lending its
    core, until scale 1 has its prediction or has failed; scale 1 thus
    runs alone with every core free for its KNN splits. On 4 or more
    cores this also holds scales 2.. back until scale 1 ends, a
    schedule not yet measured on such a machine. After
    scale 1, each worker takes the lowest scale not yet started and
    runs it to the end, lending its core while it blocks on the scale
    before it and giving it back when it exits. Once any scale has
    failed, no worker takes another, and the lowest failed scale's error
    is raised here. The store that scale i fuses with is exactly scales
    1..i-1 under any worker count, so the predictions are bit-identical
    to a sequential run. Each scale's `labels_ms` is the wall time from
    this call's start until its prediction existed.
    """
    t_start = time.perf_counter()
    s = parts.num_scales
    if len(models) != s:
        raise ValueError(f"{len(models)} models for {s} scales")

    feats_all = cloud.xyzrgb()
    scale_inputs = [(cloud.positions[idx], feats_all[idx])
                    for idx in parts.partitions]

    store = FeatureStore(cfg.backbone.feature_dim)
    preds = [None] * s
    timings = [None] * s
    ready = [threading.Event() for _ in range(s)]
    failed = threading.Event()
    errors = [None] * s
    pending = iter(range(s))
    take = threading.Lock()
    first_done = threading.Event()  # scale 1 has its prediction or failed

    def work(first=True):
        if not first:
            _wait_lending(first_done)
        while not failed.is_set():
            with take:
                i = next(pending, None)
            if i is None:
                return
            try:
                _run_scale(i, models[i], *scale_inputs[i], parts.voxel_sizes[i],
                           store, ready, failed, cfg, fusion_enabled, preds,
                           timings, t_start)
            except Exception as exc:  # re-raised below, in the caller
                errors[i] = exc
            finally:
                if i == 0:
                    first_done.set()

    def work_on_own_core(first):
        try:
            work(first)
        finally:
            _kernels.idle_cores.release(1)

    num_workers = min(s, _cores()) if threaded else 1
    if num_workers <= 1:
        work()
    else:
        # The caller only waits, so it lends its core, and each worker
        # holds one until it exits. Every worker's core is reserved before
        # the first starts, so no KNN splits onto a core a later worker
        # is about to need.
        _kernels.idle_cores.reserve(num_workers - 1)
        workers = [threading.Thread(target=work_on_own_core, args=(k == 0,),
                                    name=f"scaleseg-worker-{k + 1}")
                   for k in range(num_workers)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        _kernels.idle_cores.reserve(1)
    # the lowest failed scale's error is the root cause
    for exc in errors:
        if exc is not None:
            raise exc
    return preds, TimingReport(timings)

