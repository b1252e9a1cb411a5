"""The benchmark's trace hooks against the program they wrap.

perfbench/spans.py wraps scaleseg functions by name and reads some of
their arguments by position. One small pipeline request and one small
training request run here under its tracer, so a renamed function, a
moved argument or a neighbor search between a scale's encode and its
fuse fails in the unit tests, not only in a traced benchmark run.
Threaded pipeline requests run under it too: the tracer gives a worker
thread's first span the innermost span the request's thread has open,
so scale spans reconcile only while that thread runs no scale beside
the workers. Nothing in perfbench/ is modified.
"""

import importlib
from pathlib import Path

import pytest

import scaleseg
from scaleseg import SceneSpec, TrainConfig, _kernels, generate_scene, pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

pytestmark = pytest.mark.filterwarnings(
    "ignore:partition sizes .* are not strictly increasing")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def _traced_requests(spans, workloads):
    """Request 1: a sequential pipeline run; request 2: one training epoch."""
    cloud = generate_scene(SceneSpec(num_points=3000, rng_seed=11))
    train_cloud = generate_scene(SceneSpec(num_points=1500, rng_seed=11))
    train_parts = scaleseg.build_partitions(train_cloud, workloads.PARTITION)
    models = workloads.fresh_models()
    trainees = workloads.fresh_models()
    trainees[0].freeze()
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = tracer.begin_request(1)
        try:
            parts = scaleseg.build_partitions(cloud, workloads.PARTITION)
            _, report = scaleseg.run_pipeline(models, cloud, parts,
                                              workloads.PIPELINE)
        finally:
            tracer.end_request(t0)
        t0 = tracer.begin_request(2)
        try:
            scaleseg.train_scale(trainees, workloads.TRAIN_SCALE,
                                 [(train_cloud, train_parts)], workloads.PIPELINE,
                                 TrainConfig(epochs=1, batch_size=1))
        finally:
            tracer.end_request(t0)
    finally:
        tracer.uninstall()
    return tracer.spans, {1: parts.sizes, 2: train_parts.sizes}, report


def test_trace_hooks_fire_and_read_the_right_arguments(bench):
    spans, workloads = bench
    recorded, sizes, report = _traced_requests(spans, workloads)
    expected = workloads.Stream.expected_spans | workloads.Train.expected_spans
    metrics = spans.layer_metrics(recorded, sizes, expected)
    assert set(metrics) == set(spans.LAYER_UNITS)
    for name in ("knn.calls", "pipeline.scale1_ms", "fusion.fuse_ms",
                 "training.store_build_ms", "training.fwd_ms",
                 "training.bwd_ms", "backbone.coarse_points.s1"):
        assert metrics[name] > 0, name
    # the frozen scale's forward hangs directly under train_scale, so
    # training.store_build_ms measures it
    train = [s for s in recorded if s.request == 2]
    (train_span,) = [s for s in train if s.name == "training.train_scale"]
    frozen = [s for s in train
              if s.name == "backbone.encode" and s.info["scale"] == 1]
    assert frozen and all(s.parent == train_span.id for s in frozen)

    run = [s for s in recorded if s.request == 1]
    # the KNN hooks read (points, queries) by position: their pair count
    # must equal what the pipeline itself counted
    knn = [s for s in run if s.name == "knn"]
    assert (sum(s.info["points"] * s.info["queries"] for s in knn)
            == report.total_distance_evals)
    # encode and decode hooks read positions, fused and current by position
    for s in run:
        if s.name in ("backbone.encode", "backbone.decode"):
            assert s.info["n_in"] == sizes[1][s.info["scale"] - 1], s
    scales = [s.info["scale"] for s in run if s.name == "fusion.fuse"]
    assert scales == [2, 3, 4]


def test_no_neighbor_search_between_encode_and_fuse(bench):
    # spans.py counts any time between a scale's encode and its fuse as
    # the wait for the previous scale, so a search there is misreported
    spans, workloads = bench
    recorded, _, _ = _traced_requests(spans, workloads)
    run = [s for s in recorded if s.request == 1]
    fused = 0
    for enc in (s for s in run if s.name == "backbone.encode"):
        fuse = next((s for s in run if s.name == "fusion.fuse"
                     and s.info["scale"] == enc.info["scale"]), None)
        if fuse is None:
            continue
        fused += 1
        between = [s for s in run
                   if s.name == "knn" and enc.end <= s.start < fuse.start]
        assert not between, f"scale {enc.info['scale']}: {between}"
    assert fused == 3


@pytest.mark.parametrize("seed", [11, 12, 13, 2023])
def test_traced_threaded_requests_reconcile(bench, monkeypatch, seed):
    # two workers on two cores, as in the stream-30k benchmark: every
    # scale's spans must hang under the run and add up to its span
    spans, workloads = bench
    monkeypatch.setattr(pipeline, "_cores", lambda: 2)
    monkeypatch.setattr(_kernels, "idle_cores", _kernels.CorePool(1))
    cloud = generate_scene(SceneSpec(num_points=12_000, rng_seed=seed))
    models = workloads.fresh_models()
    tracer = spans.Tracer()
    sizes = {}
    tracer.install()
    try:
        for request in (1, 2, 3):
            t0 = tracer.begin_request(request)
            try:
                parts = scaleseg.build_partitions(cloud, workloads.PARTITION)
                scaleseg.run_pipeline(models, cloud, parts, workloads.PIPELINE,
                                      threaded=True)
            finally:
                tracer.end_request(t0)
            sizes[request] = parts.sizes
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, sizes,
                                  workloads.Stream.expected_spans)
    for s, n in enumerate(parts.sizes, start=1):
        if n:
            assert metrics[f"pipeline.scale{s}_ms"] > 0, s
