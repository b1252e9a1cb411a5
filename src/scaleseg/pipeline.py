"""Multi-scale inference orchestration, latency bounds, and the
complexity accounting that motivates partitioned processing.

Every scale with points enters the FeatureStore by one chain,
`_store_scale`: plan -> encode -> wait for the previous scale -> fuse
with the store -> append (the first meets an empty store and fuses
nothing; with k_fuse = 0 none fuses). `run_pipeline` decodes each
scale after it; training runs it for the frozen scales below the
trained one, so that scale fuses with exactly the store inference
builds. The store grows before decode, so the next scale's fusion can
overlap this scale's decoder.

Every run follows one ready chain, linking each scale that has points
to the previous one. The first of them runs on the calling thread
before any worker exists, so the first labels come with every core
behind them; the rest go to one worker loop. A sequential run, or a
threaded one with one worker, runs that loop on the calling thread; a
threaded run with more starts up to one worker thread per core, at most
one per scale left, while the calling thread only waits for them, so
no worker's work nests inside another's on one thread. Each worker
takes the lowest scale not yet started, runs it, and takes the next.
It cannot deadlock: a scale waits only on the previous scale with
points, which was taken earlier and so is running or done. Predictions
are bit-identical under any schedule: all stages are pure functions
and the store contents seen by scale i are exactly scales 1..i-1.

Cores left over go to neighbor search: each brute-force KNN call splits
its query rows over the cores that `_kernels.idle_cores` counts as idle,
every core but the caller's while the first scale runs. The cores of
all workers but one are reserved before the first starts (that one
takes the core the waiting caller lends), and each worker gives its
core back once it finds no scale left; the caller takes its own back
after the join. So the count changes only when a worker starts or ends,
and a split never takes a core from a scale that still has work.
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
    k_fuse: int = 8  # 0: no scale fuses

    def __post_init__(self):
        if self.k_fuse < 0:
            raise ValueError("k_fuse must be >= 0")


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

def _store_scale(i, model, positions, feats, voxel_size, store, cfg,
                 counter=None, after=None, failed=None):
    """Plan and encode scale i + 1, wait for `after`, fuse with the store
    unless cfg.k_fuse is 0, and append: the only chain that adds a scale
    to a store. Returns (fused, plan_ms, encode_ms, fuse_ms), or None once
    `failed` is set; training's frozen scales pass no `after`, `failed`
    or counter.
    """
    t0 = time.perf_counter()
    stages = plan_stages(positions, voxel_size, cfg.backbone, counter)
    tp = time.perf_counter()
    fm, _ = encode(model, positions, feats, stages, scale_id=i + 1,
                   need_cache=False)
    t1 = time.perf_counter()
    if after is not None:
        after.wait()
        if failed.is_set():
            return None
    fuse_ms = 0.0
    fused = fm
    if cfg.k_fuse and store.size > 0:
        tf = time.perf_counter()
        fused = fuse(fm, store, model.params, cfg.k_fuse, counter=counter)[0]
        fuse_ms = (time.perf_counter() - tf) * 1e3
    store.add_scale(fused)
    return fused, (tp - t0) * 1e3, (t1 - tp) * 1e3, fuse_ms


def run_pipeline(models, cloud: PointCloud, parts: PartitionSet,
                 cfg: PipelineConfig, threaded=False):
    """Run all scales; returns (predictions, TimingReport).

    The schedule is the module docstring's; threaded only chooses the
    worker count, min(scales left, cores) when set, else 1. If the first
    scale with points fails, no other starts; once any scale has failed,
    no worker takes another, and the lowest failed scale's error is
    raised here. On 4 or more cores the later scales wait for scale 1 to
    end, a schedule not yet measured there. A scale with no points never
    runs: its empty prediction exists from the start, so its ScaleTiming
    is all zero, `labels_ms` included. Scale i fuses with exactly scales
    1..i-1 under any worker count (with none when cfg.k_fuse is 0), so
    the predictions are bit-identical to a sequential run. `labels_ms`
    is the wall time from this call's start until a prediction existed.
    """
    t_start = time.perf_counter()
    s = parts.num_scales
    if len(models) != s:
        raise ValueError(f"{len(models)} models for {s} scales")

    feats_all = cloud.xyzrgb()
    store = FeatureStore(cfg.backbone.feature_dim)
    preds = [Prediction(np.zeros((0, cfg.backbone.num_classes)))
             for _ in range(s)]
    timings = [ScaleTiming(i + 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0)
               for i in range(s)]
    scales = [i for i in range(s) if parts.partitions[i].size]
    events = [threading.Event() for _ in scales]
    # each scale with points: (the previous one's event, its own)
    links = dict(zip(scales, zip([None] + events[:-1], events)))
    failed = threading.Event()
    errors = {}

    def run(i):
        # a failing scale sets `failed` before its own event, so a later
        # scale stops before fusing into a store that lacks it
        after, ready = links[i]
        idx = parts.partitions[i]
        positions, counter = cloud.positions[idx], EvalCounter()
        try:
            stored = _store_scale(i, models[i], positions, feats_all[idx],
                                  parts.voxel_sizes[i], store, cfg, counter,
                                  after, failed)
            if stored is None:
                return
            fused, plan_ms, encode_ms, fuse_ms = stored
            ready.set()
            t2 = time.perf_counter()
            interp = plan_interp(fused.positions, positions, cfg.backbone,
                                 counter)
            ti = time.perf_counter()
            preds[i] = decode(models[i], fused, positions, cfg.backbone,
                              interp)[0]
            t3 = time.perf_counter()
            timings[i] = ScaleTiming(
                i + 1, positions.shape[0], fused.n, plan_ms + (ti - t2) * 1e3,
                encode_ms, fuse_ms, (t3 - ti) * 1e3, counter.queries,
                counter.count, (t3 - t_start) * 1e3)
        except Exception:
            failed.set()
            raise
        finally:
            ready.set()

    if scales:
        run(scales[0])
    pending = iter(scales[1:])
    take = threading.Lock()

    def work():
        try:
            while not failed.is_set():
                with take:
                    i = next(pending, None)
                if i is None:
                    return
                try:
                    run(i)
                except Exception as exc:  # re-raised below, in the caller
                    errors[i] = exc
        finally:
            _kernels.idle_cores.release(1)

    # the cores of all workers but one are reserved before the first
    # starts, so no KNN call splits onto one of them; the one takes the
    # caller's core, since the caller runs no scale beside them
    num_workers = max(1, min(len(scales) - 1, _cores())) if threaded else 1
    _kernels.idle_cores.reserve(num_workers - 1)
    workers = [threading.Thread(target=work, name=f"scaleseg-worker-{k}")
               for k in range(num_workers)] if num_workers > 1 else []
    for w in workers:
        w.start()
    try:
        if not workers:
            work()
    finally:
        for w in workers:
            w.join()
        _kernels.idle_cores.reserve(1)
    if errors:  # the lowest failed scale's error is the root cause
        raise errors[min(errors)]
    return preds, TimingReport(timings)
