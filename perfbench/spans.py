"""Span recorder that wraps scaleseg's public names from outside.

A span is (id, name, start, end, parent, thread, request, info). Spans
stay in memory; the benchmark turns them into per-layer metrics when its
run ends. Nothing inside scaleseg is edited: each hook replaces a module
or class attribute with a wrapper and puts the original back afterwards.
A hook whose target name is missing raises at install time, and a hook a
workload needs that never fired raises when the metrics are computed, so
a renamed function shows up as an error rather than as zeros.
"""

import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import scaleseg
from scaleseg import backbone, fusion, knn, layers, metrics, pipeline, training


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    request: int
    info: dict = field(default_factory=dict)

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _knn_info(args, kwargs, out):
    return {"points": _arg(args, kwargs, 0, "points").shape[0],
            "queries": _arg(args, kwargs, 1, "queries").shape[0]}


def _knn_batch_info(args, kwargs, out):
    return {"points": len(args[0]),
            "queries": _arg(args, kwargs, 1, "queries").shape[0]}


def _encode_info(args, kwargs, out):
    return {"scale": out[0].scale_id,
            "n_in": _arg(args, kwargs, 1, "positions").shape[0],
            "n_coarse": out[0].n}


def _decode_info(args, kwargs, out):
    return {"scale": _arg(args, kwargs, 1, "fused").scale_id,
            "n_in": _arg(args, kwargs, 2, "positions").shape[0]}


def _fuse_info(args, kwargs, out):
    return {"scale": _arg(args, kwargs, 0, "current").scale_id}


def _merged_info(args, kwargs, out):
    return {"rows": out[0].shape[0]}


def _train_info(args, kwargs, out):
    return {"scale": _arg(args, kwargs, 1, "scale_id")}


# (owner, attribute, span name, info function). The owner is the namespace
# the caller looks the name up in, so every call passes exactly one hook.
SITES = [
    (scaleseg, "build_partitions", "cloud.build_partitions", None),
    (scaleseg, "run_pipeline", "pipeline.run", None),
    (scaleseg, "evaluate", "request.evaluate", None),
    (scaleseg, "train_scale", "training.train_scale", _train_info),
    (training, "run_pipeline", "pipeline.run", None),
    (pipeline, "encode", "backbone.encode", _encode_info),
    (pipeline, "fuse", "fusion.fuse", _fuse_info),
    (pipeline, "decode", "backbone.decode", _decode_info),
    (training, "encode", "backbone.encode", _encode_info),
    (training, "fuse", "fusion.fuse", _fuse_info),
    (training, "decode", "backbone.decode", _decode_info),
    (training, "encode_bwd", "backbone.encode_bwd", None),
    (training, "decode_bwd", "backbone.decode_bwd", None),
    (training, "fuse_bwd", "fusion.fuse_bwd", None),
    (training, "softmax_cross_entropy", "layers.loss", None),
    (backbone, "counted_knn", "knn", _knn_info),
    (knn.NeighborIndex, "knn_batch", "knn", _knn_batch_info),
    (backbone, "attention_fwd", "layers.attention_fwd", None),
    (backbone, "attention_bwd", "layers.attention_bwd", None),
    (backbone, "grid_pool_fwd", "layers.grid_pool", None),
    (backbone, "interp_weights", "layers.interp", None),
    (backbone, "interp_apply_fwd", "layers.interp", None),
    (layers, "scatter_rows", "layers.scatter_rows", None),
    (fusion.FeatureStore, "merged", "fusion.store_merge", _merged_info),
    (metrics.ConfusionMatrix, "update", "metrics.update", None),
]


class ReconcileError(RuntimeError):
    """A scale's child spans do not add up to the scale's span."""


class Tracer:
    """Thread-safe in-memory span recorder around wrapped call sites."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []
        self._request_stack = []
        self.request = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span is caused by whatever the
            # request's own thread has open, e.g. run_pipeline.
            parent = stack[-1] if stack else tracer._request_stack[-1]
            sid = next(tracer._ids)
            request = tracer.request
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            tracer.spans.append(Span(sid, name, t0, t1, parent,
                                     threading.get_ident(), request,
                                     info(args, kwargs, out) if info else {}))
            return out

        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer hooks are already installed")
        for owner, attr, name, info in SITES:
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.uninstall()
                raise RuntimeError(
                    f"trace hook target {owner.__name__}.{attr} does not exist")
            setattr(owner, attr, self._wrap(fn, name, info))
            self._installed.append((owner, attr, fn))

    def uninstall(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def begin_request(self, request_id):
        """Open the root span of one request; returns its start time."""
        self.request = request_id
        self._request_stack = self._stack()
        self._request_stack.append(next(self._ids))
        return time.perf_counter()

    def end_request(self, t0):
        t1 = time.perf_counter()
        root = self._request_stack.pop()
        self.spans.append(Span(root, "request", t0, t1, 0,
                               threading.get_ident(), self.request))


# ---------------------------------------------------------------------------
# per-layer metrics

# A scale's encode, fuse, fuse wait and decode must cover its span up to
# this much; the rest is interpreter glue between the wrapped calls, plus
# waits for the interpreter lock when scales run on threads.
RECONCILE_ABS_MS = 5.0
RECONCILE_REL = 0.02

# Every metric is a mean per traced request. Derived ones:
#   knn.{encode,decode,fuse}_ms   KNN time split by the calling span
#   backbone.*_self_ms            encode/decode minus their child spans
#   pipeline.scaleN_ms            scale N's span in its thread, from its
#                                 encode start to its decode end
#   pipeline.fuse_wait_ms         gaps between a scale's encode and fuse
#   pipeline.overlap              scale busy time (span minus wait) over
#                                 request wall time
#   pipeline.self_ms              request wall time not covered by scales
#   pipeline.unaccounted_ms       scale spans minus children and waits
#   training.store_build_ms       train_scale start to the trainee's first
#                                 encode (the frozen scales' forwards)
#   training.update_ms            the rest of train_scale after that, less
#                                 forwards, loss and backwards
#   complexity.*_pairs            sum N_i^2 and N^2 from estimate_gain
LAYER_UNITS = {
    "knn.calls": "count",
    "knn.queries": "count",
    "knn.candidates": "count",
    "knn.candidates_per_query": "ratio",
    "knn.ms": "ms",
    "knn.encode_ms": "ms",
    "knn.decode_ms": "ms",
    "knn.fuse_ms": "ms",
    "complexity.partitioned_pairs": "count",
    "complexity.whole_pairs": "count",
    "layers.attention_fwd_ms": "ms",
    "layers.grid_pool_ms": "ms",
    "layers.interp_ms": "ms",
    "layers.attention_bwd_ms": "ms",
    "layers.scatter_rows_ms": "ms",
    "layers.loss_ms": "ms",
    "backbone.encode_ms": "ms",
    "backbone.decode_ms": "ms",
    "backbone.encode_self_ms": "ms",
    "backbone.decode_self_ms": "ms",
    "backbone.encode_bwd_ms": "ms",
    "backbone.decode_bwd_ms": "ms",
    **{f"backbone.coarse_points.s{s}": "count" for s in range(1, 5)},
    "fusion.fuse_ms": "ms",
    "fusion.store_merge_ms": "ms",
    "fusion.fuse_bwd_ms": "ms",
    "fusion.store_rows": "count",
    **{f"pipeline.scale{s}_ms": "ms" for s in range(1, 5)},
    "pipeline.fuse_wait_ms": "ms",
    "pipeline.overlap": "ratio",
    "pipeline.self_ms": "ms",
    "pipeline.unaccounted_ms": "ms",
    "cloud.build_partitions_ms": "ms",
    **{f"cloud.partition_points.s{s}": "count" for s in range(1, 5)},
    "training.store_build_ms": "ms",
    "training.fwd_ms": "ms",
    "training.bwd_ms": "ms",
    "training.update_ms": "ms",
    "metrics.update_ms": "ms",
    "memory.peak_rss_mb": "MB",
    "memory.mean_rss_mb": "MB",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# span name -> metric that sums its duration
_SUMMED = {
    "knn": "knn.ms",
    "layers.attention_fwd": "layers.attention_fwd_ms",
    "layers.grid_pool": "layers.grid_pool_ms",
    "layers.interp": "layers.interp_ms",
    "layers.attention_bwd": "layers.attention_bwd_ms",
    "layers.scatter_rows": "layers.scatter_rows_ms",
    "layers.loss": "layers.loss_ms",
    "backbone.encode": "backbone.encode_ms",
    "backbone.decode": "backbone.decode_ms",
    "backbone.encode_bwd": "backbone.encode_bwd_ms",
    "backbone.decode_bwd": "backbone.decode_bwd_ms",
    "fusion.fuse": "fusion.fuse_ms",
    "fusion.store_merge": "fusion.store_merge_ms",
    "fusion.fuse_bwd": "fusion.fuse_bwd_ms",
    "cloud.build_partitions": "cloud.build_partitions_ms",
    "metrics.update": "metrics.update_ms",
}

_KNN_CALLER = {"backbone.encode": "knn.encode_ms",
               "backbone.decode": "knn.decode_ms",
               "fusion.fuse": "knn.fuse_ms"}
_FORWARD = ("backbone.encode", "fusion.fuse", "backbone.decode")
_BACKWARD = ("backbone.encode_bwd", "fusion.fuse_bwd", "backbone.decode_bwd")


def _covered_ms(intervals):
    """Length of the union of (start, end) intervals, in ms."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total * 1e3


def _scale_windows(run, children, sizes):
    """Per-scale (scale, start, end, wait_ms, unaccounted_ms) of one run.

    A scale starts at the encode of its own partition (the pipeline's
    warm-up pass encodes other points) and ends when the next decode of
    that scale on the same thread returns.
    """
    by_thread = defaultdict(list)
    for c in children.get(run.id, ()):
        by_thread[c.thread].append(c)
    windows = []
    for spans in by_thread.values():
        spans.sort(key=lambda s: s.start)
        for i, enc in enumerate(spans):
            s = enc.info.get("scale")
            if (enc.name != "backbone.encode" or s is None or s > len(sizes)
                    or enc.info["n_in"] != sizes[s - 1]):
                continue
            dec = next((d for d in spans[i + 1:] if d.name == "backbone.decode"
                        and d.info["scale"] == s), None)
            if dec is None:
                raise ReconcileError(f"scale {s} encode has no matching decode")
            inside = [c for c in spans[i:] if c.end <= dec.end]
            fuse = next((c for c in inside if c.name == "fusion.fuse"), None)
            wait = (fuse.start - enc.end) * 1e3 if fuse else 0.0
            span_ms = (dec.end - enc.start) * 1e3
            rest = span_ms - sum(c.ms for c in inside) - wait
            if not -1.0 <= rest <= RECONCILE_ABS_MS + RECONCILE_REL * span_ms:
                raise ReconcileError(
                    f"scale {s}: children cover {span_ms - rest:.3f} ms of a "
                    f"{span_ms:.3f} ms span (tolerance {RECONCILE_ABS_MS} ms + "
                    f"{RECONCILE_REL:.0%})")
            windows.append((s, enc.start, dec.end, wait, rest))
    return windows


def layer_metrics(spans, sizes_by_request, expected):
    """Per-request means of every LAYER_UNITS metric over traced requests.

    expected: span names the workload must produce; one that never
    appears means a hook missed its target and raises.
    """
    seen = {s.name for s in spans}
    missing = sorted(set(expected) - seen)
    if missing:
        raise RuntimeError(f"trace hooks never fired: {', '.join(missing)}")
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    roots = [s for s in spans
             if s.name == "request" and s.request in sizes_by_request]
    if not roots:
        raise RuntimeError("no traced request completed")
    total = Counter()
    queries = candidates = 0
    for s in spans:
        if s.name in _SUMMED:
            total[_SUMMED[s.name]] += s.ms
        if s.name == "knn":
            total["knn.calls"] += 1
            queries += s.info["queries"]
            candidates += s.info["queries"] * s.info["points"]
            caller = _KNN_CALLER.get(by_id[s.parent].name) if s.parent in by_id else None
            if caller:
                total[caller] += s.ms
        elif s.name in ("backbone.encode", "backbone.decode"):
            own = s.ms - sum(c.ms for c in children.get(s.id, ()))
            total[s.name + "_self_ms"] += own
        elif s.name == "fusion.store_merge":
            total["fusion.store_rows"] += s.info["rows"]
    total["knn.queries"] = queries
    total["knn.candidates"] = candidates

    for root in roots:
        sizes = sizes_by_request[root.request]
        for i, n in enumerate(sizes[:4]):
            total[f"cloud.partition_points.s{i + 1}"] += n
        gain = scaleseg.estimate_gain([n for n in sizes if n > 0])
        total["complexity.partitioned_pairs"] += gain.scalable_cost
        total["complexity.whole_pairs"] += gain.whole_cost
        mine = [s for s in spans if s.request == root.request]
        for s in range(1, 5):
            enc = [e for e in mine if e.name == "backbone.encode"
                   and e.info["scale"] == s and s <= len(sizes)
                   and e.info["n_in"] == sizes[s - 1]]
            if enc:
                total[f"backbone.coarse_points.s{s}"] += enc[-1].info["n_coarse"]
        windows = []
        for run in (s for s in mine if s.name == "pipeline.run"):
            windows += _scale_windows(run, children, sizes)
        for s, a, b, wait, rest in windows:
            total[f"pipeline.scale{s}_ms"] += (b - a) * 1e3
            total["pipeline.fuse_wait_ms"] += wait
            total["pipeline.unaccounted_ms"] += rest
        if windows:
            busy = sum((b - a) * 1e3 - wait for _, a, b, wait, _ in windows)
            total["pipeline.overlap"] += busy / root.ms
            total["pipeline.self_ms"] += root.ms - _covered_ms(
                [(a, b) for _, a, b, _, _ in windows])
        for ts in (s for s in mine if s.name == "training.train_scale"):
            kids = sorted(children.get(ts.id, ()), key=lambda c: c.start)
            first = next(c for c in kids if c.name == "backbone.encode"
                         and c.info["scale"] == ts.info["scale"])
            after = [c for c in kids if c.start >= first.start]
            fwd = sum(c.ms for c in after if c.name in _FORWARD)
            bwd = sum(c.ms for c in after if c.name in _BACKWARD)
            loss = sum(c.ms for c in after if c.name == "layers.loss")
            total["training.store_build_ms"] += (first.start - ts.start) * 1e3
            total["training.fwd_ms"] += fwd
            total["training.bwd_ms"] += bwd
            total["training.update_ms"] += (ts.end - first.start) * 1e3 - fwd - bwd - loss

    n = len(roots)
    out = {name: total[name] / n for name in LAYER_UNITS}
    out["knn.candidates_per_query"] = candidates / queries if queries else 0.0
    return out
