import hashlib
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from scaleseg import _kernels, pipeline
from scaleseg.backbone import BackboneConfig, ScaleModel, init_params
from scaleseg.cloud import (PartitionConfig, PartitionSet, PointCloud,
                            build_partitions, gather, voxel_keys)
from scaleseg.pipeline import (
    ComplexityEstimate,
    PipelineConfig,
    estimate_gain,
    run_pipeline,
    simulate_schedule,
)
from scaleseg.scene import SceneSpec, generate_scene

VOXELS = (0.45, 0.3, 0.2, 0.14)


def make_setup(n_points=2500, seed=0, num_classes=5, feature_dim=6):
    cloud = generate_scene(SceneSpec(num_points=n_points, num_classes=num_classes,
                                     rng_seed=seed))
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=VOXELS,
                                                    rng_seed=seed))
    bcfg = BackboneConfig(num_classes=num_classes, feature_dim=feature_dim,
                          attention_neighbors=4, encoder_stages=2)
    pcfg = PipelineConfig(backbone=bcfg, k_fuse=4)
    models = [ScaleModel(init_params(bcfg, seed=seed + i, with_fusion=(i > 0)))
              for i in range(len(VOXELS))]
    return cloud, parts, pcfg, models


def test_gain_oracles():
    est = estimate_gain([2, 3])
    assert (est.whole_cost, est.scalable_cost, est.gain) == (25, 13, 12)
    est = estimate_gain([1000, 2000, 3000, 4000])
    assert est.whole_cost == 10 ** 8
    assert est.scalable_cost == 3 * 10 ** 7
    assert est.gain == 7 * 10 ** 7
    assert estimate_gain([12345]).gain == 0  # single scale


def test_gain_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sizes = rng.integers(1, 10 ** 6, size=rng.integers(1, 8)).tolist()
        est = estimate_gain(sizes)
        assert est.whole_cost == est.scalable_cost + est.gain
        assert est.whole_cost == sum(sizes) ** 2
        assert isinstance(est.gain, int)


def test_gain_rejects_bad_sizes():
    with pytest.raises(ValueError):
        estimate_gain([])
    with pytest.raises(ValueError):
        estimate_gain([5, 0])
    with pytest.raises(ValueError):
        estimate_gain([5, -2])


def test_complexity_estimate_identity_enforced():
    with pytest.raises(ValueError):
        ComplexityEstimate(sizes=(2, 3), whole_cost=25, scalable_cost=13, gain=11)


def test_schedule_hand_example():
    cumulative, completion, induced = simulate_schedule(
        [10.0, 20.0, 30.0], [0.0, 15.0, 50.0])
    assert cumulative == [10.0, 30.0, 60.0]
    assert completion == [10.0, 35.0, 80.0]
    assert induced == [10.0, 20.0, 30.0]


def test_schedule_all_data_at_zero():
    cumulative, completion, induced = simulate_schedule([5.0, 7.0, 1.0])
    assert cumulative == completion == [5.0, 12.0, 13.0]
    assert induced == cumulative


def test_schedule_induced_never_exceeds_cumulative():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = int(rng.integers(1, 8))
        durations = rng.uniform(0.1, 30.0, size=s).tolist()
        arrivals = np.sort(rng.uniform(0.0, 60.0, size=s)).tolist()
        cumulative, completion, induced = simulate_schedule(durations, arrivals)
        for c, i in zip(cumulative, induced):
            assert i <= c + 1e-12
        # completions are feasible: never before arrival + own duration
        for a, d, f in zip(arrivals, durations, completion):
            assert f >= a + d - 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        simulate_schedule([])
    with pytest.raises(ValueError):
        simulate_schedule([1.0, -2.0])
    with pytest.raises(ValueError):
        simulate_schedule([1.0, 1.0], [5.0, 2.0])  # decreasing arrivals
    with pytest.raises(ValueError):
        simulate_schedule([1.0], [0.0, 1.0])  # length mismatch
    nan, inf = float("nan"), float("inf")
    for durations, arrivals in [([1.0, 1.0], [nan, 1.0]), ([1.0, 1.0], [0.0, inf]),
                                ([nan, 1.0], None), ([1.0, inf], [0.0, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            simulate_schedule(durations, arrivals)


def test_run_pipeline_report_fields_and_coverage():
    cloud, parts, pcfg, models = make_setup()
    preds, report = run_pipeline(models, cloud, parts, pcfg)
    assert len(preds) == parts.num_scales
    for pred, size in zip(preds, parts.sizes):
        assert pred.labels.shape == (size,)
    records = report.records()
    assert len(records) == parts.num_scales
    expected_keys = ["scale", "n_points", "n_coarse", "arrival_ms", "plan_ms",
                     "encode_ms", "fuse_ms", "decode_ms", "cumulative_ms",
                     "completion_ms", "labels_ms", "pipelined_ms",
                     "knn_queries", "distance_evals"]
    for rec in records:
        assert list(rec.keys()) == expected_keys
    assert [r["n_points"] for r in records] == list(parts.sizes)
    assert all(r["distance_evals"] > r["knn_queries"] > 0 for r in records)
    assert all(r["plan_ms"] > 0 for r in records)
    for s in report.scales:
        assert s.duration_ms == s.plan_ms + s.encode_ms + s.fuse_ms + s.decode_ms
    cms = [r["cumulative_ms"] for r in records]
    assert all(b >= a for a, b in zip(cms, cms[1:]))
    # a sequential run's labels come in scale order, each after its own work
    labels = [r["labels_ms"] for r in records]
    assert all(b >= a for a, b in zip(labels, labels[1:]))
    assert all(lab >= s.duration_ms for lab, s in zip(labels, report.scales))
    assert report.total_distance_evals == sum(r["distance_evals"] for r in records)


# worker counts a threaded run is tested with: one core, fewer cores than
# scales, and one worker per scale
CORES = [1, 2, 3, 4]


def _set_cores(monkeypatch, cores):
    monkeypatch.setattr(pipeline, "_cores", lambda: cores)


def _emptied(parts, i):
    """`parts` with scale i + 1 holding no points."""
    partitions = list(parts.partitions)
    partitions[i] = np.zeros(0, dtype=np.int64)
    return PartitionSet(tuple(partitions), parts.voxel_sizes)


@pytest.mark.parametrize("cores", CORES)
def test_run_pipeline_threaded_matches_sequential(monkeypatch, cores):
    _set_cores(monkeypatch, cores)
    cloud, full, pcfg, models = make_setup(seed=3)
    # the scenes' partitions, and the same with an empty middle scale
    for parts in (full, _emptied(full, 1)):
        idle = _kernels.idle_cores.idle
        seq, _ = run_pipeline(models, cloud, parts, pcfg)
        assert _kernels.idle_cores.idle == idle
        thr, _ = run_pipeline(models, cloud, parts, pcfg, threaded=True)
        # every core a run reserved or lent has come back
        assert _kernels.idle_cores.idle == idle
        assert [p.n for p in thr] == list(parts.sizes)
        for a, b in zip(seq, thr):
            assert np.array_equal(a.logits, b.logits)
            assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("threaded", [False, True])
def test_threaded_empty_first_scale_fuses_nothing(monkeypatch, threaded):
    # the first scale with points fuses nothing, as in training: with scale
    # 1 empty, scale 2 gives the logits of a run without fusion
    _set_cores(monkeypatch, 2)
    cloud, parts, pcfg, models = make_setup(seed=3)
    parts = _emptied(parts, 0)
    preds, report = run_pipeline(models, cloud, parts, pcfg, threaded=threaded)
    bypass, _ = run_pipeline(models, cloud, parts, replace(pcfg, k_fuse=0))
    assert preds[0].logits.shape == (0, pcfg.backbone.num_classes)
    assert report.scales[0] == pipeline.ScaleTiming(
        1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0)
    assert report.scales[1].fuse_ms == 0.0
    assert np.array_equal(preds[1].logits, bypass[1].logits)
    assert not np.array_equal(preds[2].logits, bypass[2].logits)


def _threaded_run(models, cloud, parts, pcfg):
    """A threaded run's result, or the exception it raises; fails on a hang."""
    outcome = []

    def call():
        try:
            outcome.append(run_pipeline(models, cloud, parts, pcfg, threaded=True))
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive(), "threaded run hung on a failed scale"
    assert len(outcome) == 1
    return outcome[0]


def test_run_pipeline_failing_scale_raises_not_hangs():
    cloud, parts, pcfg, models = make_setup(seed=4)
    broken = ScaleModel(dict(models[0].params))
    del broken.params["att0_wq"]
    models = [broken] + models[1:]
    with pytest.raises(KeyError):
        run_pipeline(models, cloud, parts, pcfg)
    assert isinstance(_threaded_run(models, cloud, parts, pcfg), KeyError)


def _spy_stages(monkeypatch):
    """Record the scale id of every encode, fuse and decode the pipeline
    starts."""
    calls = []
    encode, fuse, decode = pipeline.encode, pipeline.fuse, pipeline.decode

    def spy_encode(*args, scale_id, **kwargs):
        calls.append(("encode", scale_id))
        return encode(*args, scale_id=scale_id, **kwargs)

    def spy_fuse(current, *args, **kwargs):
        calls.append(("fuse", current.scale_id))
        return fuse(current, *args, **kwargs)

    def spy_decode(model, fused, *args, **kwargs):
        calls.append(("decode", fused.scale_id))
        return decode(model, fused, *args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", spy_encode)
    monkeypatch.setattr(pipeline, "fuse", spy_fuse)
    monkeypatch.setattr(pipeline, "decode", spy_decode)
    return calls


def _encoded(calls):
    return sorted(scale for kind, scale in calls if kind == "encode")


@pytest.mark.parametrize("cores", CORES)
def test_threaded_failure_stops_later_scales(monkeypatch, cores):
    _set_cores(monkeypatch, cores)
    cloud, parts, pcfg, models = make_setup(seed=4)
    calls = _spy_stages(monkeypatch)
    idle = _kernels.idle_cores.idle
    broken = ScaleModel(dict(models[0].params))
    del broken.params["att0_wq"]
    error = _threaded_run([broken] + models[1:], cloud, parts, pcfg)
    assert isinstance(error, KeyError)
    assert _kernels.idle_cores.idle == idle
    assert [c for c in calls if c[0] == "fuse"] == []
    # scale 1 runs alone, so a failed scale 1 starts no other scale
    assert _encoded(calls) == [1]

    calls.clear()
    broken = ScaleModel(dict(models[1].params))
    del broken.params["fuse_cw"]
    error = _threaded_run([models[0], broken] + models[2:], cloud, parts, pcfg)
    assert isinstance(error, KeyError)
    assert [c for c in calls if c[0] == "decode"] == [("decode", 1)]
    assert _kernels.idle_cores.idle == idle


@pytest.mark.parametrize("cores", [2, 4])
def test_threaded_failing_first_scale_starts_no_thread(monkeypatch, cores):
    # the first scale runs on the calling thread before any worker exists,
    # so its failure is raised with no worker started and no core reserved
    _set_cores(monkeypatch, cores)
    cloud, parts, pcfg, models = make_setup(seed=4)
    calls = _spy_stages(monkeypatch)
    started = []
    thread = threading.Thread

    def spy_thread(*args, name=None, **kwargs):
        started.append(name)
        return thread(*args, name=name, **kwargs)

    monkeypatch.setattr(pipeline.threading, "Thread", spy_thread)
    idle = _kernels.idle_cores.idle
    broken = ScaleModel(dict(models[0].params))
    del broken.params["att0_wq"]
    with pytest.raises(KeyError):
        run_pipeline([broken] + models[1:], cloud, parts, pcfg, threaded=True)
    # KNN splits may start their helpers; no scale worker starts
    assert [n for n in started if n != "scaleseg-knn"] == []
    assert _encoded(calls) == [1]
    assert _kernels.idle_cores.idle == idle


def test_sequential_failure_stops_later_scales(monkeypatch):
    # a sequential run follows the same ready chain: scale 1 fails, no
    # later scale starts, and scale 1's error is raised
    cloud, parts, pcfg, models = make_setup(seed=4)
    calls = _spy_stages(monkeypatch)
    idle = _kernels.idle_cores.idle
    broken = ScaleModel(dict(models[0].params))
    del broken.params["att0_wq"]
    with pytest.raises(KeyError):
        run_pipeline([broken] + models[1:], cloud, parts, pcfg)
    assert _encoded(calls) == [1]
    assert _kernels.idle_cores.idle == idle

    calls.clear()
    broken = ScaleModel(dict(models[1].params))
    del broken.params["fuse_cw"]
    with pytest.raises(KeyError):
        run_pipeline([models[0], broken] + models[2:], cloud, parts, pcfg)
    assert _encoded(calls) == [1, 2]
    assert [c for c in calls if c[0] == "decode"] == [("decode", 1)]


@pytest.mark.parametrize("threaded, cores", [(False, 4), (True, 1)])
def test_one_worker_runs_on_the_calling_thread(monkeypatch, threaded, cores):
    # sequential, or threaded on one core: the caller runs every scale
    # itself, no worker thread starts, and every KNN call sees the idle
    # cores the run started with
    _set_cores(monkeypatch, cores)
    pool = _kernels.CorePool(2)
    monkeypatch.setattr(_kernels, "idle_cores", pool)
    cloud, parts, pcfg, models = make_setup(seed=3)
    threads, started, seen = set(), [], []
    encode, thread, claim = pipeline.encode, threading.Thread, pool.claim

    def spy_encode(*args, **kwargs):
        threads.add(threading.current_thread())
        return encode(*args, **kwargs)

    def spy_thread(*args, name=None, **kwargs):
        started.append(name)
        return thread(*args, name=name, **kwargs)

    def spy_claim(want):
        seen.append(pool.idle)
        return claim(want)

    monkeypatch.setattr(pipeline, "encode", spy_encode)
    monkeypatch.setattr(pipeline.threading, "Thread", spy_thread)
    monkeypatch.setattr(pool, "claim", spy_claim)
    preds, report = run_pipeline(models, cloud, parts, pcfg, threaded=threaded)
    assert threads == {threading.current_thread()}
    # KNN splits may start their helpers; no scale worker starts
    assert [n for n in started if n != "scaleseg-knn"] == []
    assert seen and set(seen) == {2}
    assert pool.idle == 2
    assert len(preds) == len(report.scales) == parts.num_scales


def test_no_thread_reserves_a_core_mid_scale(monkeypatch):
    # scale 2's fuse sleeps, so the worker of scale 3 blocks on it; cores
    # are reserved only before the workers start and after they end, never
    # by a thread inside a scale
    _set_cores(monkeypatch, 2)
    pool = _kernels.CorePool(1)
    monkeypatch.setattr(_kernels, "idle_cores", pool)
    cloud, parts, pcfg, models = make_setup(seed=3)
    running, mid_scale = {}, []
    store_scale, fuse, reserve = pipeline._store_scale, pipeline.fuse, pool.reserve

    def spy_store_scale(i, *args):
        me = threading.current_thread()
        running[me] = i + 1
        try:
            return store_scale(i, *args)
        finally:
            del running[me]

    def spy_fuse(current, *args, **kwargs):
        if current.scale_id == 2:
            time.sleep(0.3)
        return fuse(current, *args, **kwargs)

    def spy_reserve(n):
        scale = running.get(threading.current_thread())
        if scale is not None:
            mid_scale.append((scale, n))
        reserve(n)

    monkeypatch.setattr(pipeline, "_store_scale", spy_store_scale)
    monkeypatch.setattr(pipeline, "fuse", spy_fuse)
    monkeypatch.setattr(pool, "reserve", spy_reserve)
    run_pipeline(models, cloud, parts, pcfg, threaded=True)
    assert mid_scale == []
    assert pool.idle == 1


def test_threaded_stress_runs_each_scale_once(monkeypatch):
    # more workers than cores, and a thread switch every microsecond: a
    # scale taken twice or never shows as a wrong encode list or a hang,
    # and a lost update to the idle-core count as a count that does not
    # come back, while every KNN call with a core to claim splits
    voxels = (0.6, 0.45, 0.35, 0.25, 0.18, 0.12)
    cloud, _, pcfg, _ = make_setup(n_points=3000, seed=5)
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=voxels,
                                                    rng_seed=5))
    models = [ScaleModel(init_params(pcfg.backbone, seed=i, with_fusion=(i > 0)))
              for i in range(len(voxels))]
    assert min(parts.sizes) > 0
    seq, _ = run_pipeline(models, cloud, parts, pcfg)
    _set_cores(monkeypatch, len(voxels))
    monkeypatch.setattr(_kernels, "_SPLIT_PAIRS", 1)
    monkeypatch.setattr(_kernels, "idle_cores", _kernels.CorePool(2))
    calls = _spy_stages(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            calls.clear()
            thr, _ = _threaded_run(models, cloud, parts, pcfg)
            assert _encoded(calls) == list(range(1, len(voxels) + 1))
            for a, b in zip(seq, thr):
                assert np.array_equal(a.logits, b.logits)
            assert _kernels.idle_cores.idle == 2
    finally:
        sys.setswitchinterval(interval)


def test_threaded_worker_count_follows_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert pipeline._cores() == len(os.sched_getaffinity(0))
    cloud, parts, pcfg, models = make_setup(seed=3)
    names = set()
    encode = pipeline.encode

    def spy_encode(*args, **kwargs):
        names.add(threading.current_thread().name)
        return encode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", spy_encode)
    run_pipeline(models, cloud, parts, pcfg, threaded=True)
    # the calling thread runs scale 1, and the workers the scales left
    assert threading.current_thread().name in names
    with_points = sum(1 for n in parts.sizes if n)
    assert len(names) <= 1 + min(with_points - 1, pipeline._cores())


def test_threaded_runs_at_most_one_scale_per_worker(monkeypatch):
    _set_cores(monkeypatch, 2)
    cloud, parts, pcfg, models = make_setup(seed=3)
    lock = threading.Lock()
    running, peak = set(), []
    encode, decode = pipeline.encode, pipeline.decode

    def spy_encode(*args, scale_id, **kwargs):
        with lock:
            running.add(scale_id)
            peak.append(len(running))
        return encode(*args, scale_id=scale_id, **kwargs)

    def spy_decode(model, fused, *args, **kwargs):
        out = decode(model, fused, *args, **kwargs)
        with lock:
            running.discard(fused.scale_id)
        return out

    monkeypatch.setattr(pipeline, "encode", spy_encode)
    monkeypatch.setattr(pipeline, "decode", spy_decode)
    run_pipeline(models, cloud, parts, pcfg, threaded=True)
    assert len(peak) == parts.num_scales
    assert max(peak) <= 2
    assert not running


def test_threaded_knn_splits_only_onto_a_lent_core(monkeypatch):
    # on 2 cores scale 1 runs before any worker exists and splits onto
    # the idle core; then both workers hold a core, so no KNN call may
    # split while two scales plan and encode, however large
    _set_cores(monkeypatch, 2)
    pool = _kernels.CorePool(1)
    monkeypatch.setattr(_kernels, "idle_cores", pool)
    monkeypatch.setattr(_kernels, "_SPLIT_PAIRS", 1)
    cloud, parts, pcfg, models = make_setup(seed=3)
    lock = threading.Lock()
    encoding, claims = set(), []
    store_scale, encode, claim = pipeline._store_scale, pipeline.encode, pool.claim

    def spy_store_scale(i, *args):
        with lock:
            encoding.add(i + 1)
        return store_scale(i, *args)

    def spy_encode(*args, scale_id, **kwargs):
        try:
            return encode(*args, scale_id=scale_id, **kwargs)
        finally:
            with lock:
                encoding.discard(scale_id)

    def spy_claim(want):
        got = claim(want)
        with lock:
            claims.append((frozenset(encoding), got))
        return got

    monkeypatch.setattr(pipeline, "_store_scale", spy_store_scale)
    monkeypatch.setattr(pipeline, "encode", spy_encode)
    monkeypatch.setattr(pool, "claim", spy_claim)
    run_pipeline(models, cloud, parts, pcfg, threaded=True)
    shared = [got for running, got in claims if len(running) >= 2]
    assert shared and not any(shared)
    assert any(got for running, got in claims if running == {1})
    assert pool.idle == 1


def test_threaded_scale_1_runs_alone(monkeypatch):
    # on 2 cores no other scale starts to encode before scale 1's decode
    # has returned, and the predictions still equal a sequential run's
    _set_cores(monkeypatch, 2)
    cloud, parts, pcfg, models = make_setup(seed=3)
    seq, _ = run_pipeline(models, cloud, parts, pcfg)
    events = []
    encode, decode = pipeline.encode, pipeline.decode

    def spy_encode(*args, scale_id, **kwargs):
        events.append(("encode", scale_id))
        return encode(*args, scale_id=scale_id, **kwargs)

    def spy_decode(model, fused, *args, **kwargs):
        out = decode(model, fused, *args, **kwargs)
        events.append(("decoded", fused.scale_id))
        return out

    monkeypatch.setattr(pipeline, "encode", spy_encode)
    monkeypatch.setattr(pipeline, "decode", spy_decode)
    thr, report = run_pipeline(models, cloud, parts, pcfg, threaded=True)
    assert events[:2] == [("encode", 1), ("decoded", 1)]
    assert sorted(events[2:]) == sorted(
        [(kind, i) for i in range(2, parts.num_scales + 1)
         for kind in ("decoded", "encode")])
    first = report.scales[0].labels_ms
    assert all(first <= t.labels_ms for t in report.scales[1:])
    for a, b in zip(seq, thr):
        assert np.array_equal(a.logits, b.logits)


def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


# sha256 prefixes of each scale's (labels, logits): any change in the
# arithmetic or the neighbor order of a forward pass shows up in the bits
GOLDEN_PREDICTIONS = [
    ("04ecee78a77eb69e", "f58d222d3ed17075"),
    ("6ed92dfa83dac2ed", "54239668e36d9e8f"),
    ("4cd5558bed2d58be", "e3be15662fd995dd"),
    ("1c9eba1e2d67d7bf", "898a6e9023add568"),
]


@pytest.mark.parametrize("threaded, cores", [pytest.param(False, None, id="False")]
                         + [pytest.param(True, c, id=f"True-{c}") for c in CORES])
def test_run_pipeline_predictions_golden(monkeypatch, threaded, cores):
    if threaded:
        _set_cores(monkeypatch, cores)
    cloud, parts, pcfg, models = make_setup(seed=9)
    preds, _ = run_pipeline(models, cloud, parts, pcfg, threaded=threaded)
    assert [(_sha(p.labels), _sha(p.logits)) for p in preds] == GOLDEN_PREDICTIONS


def test_run_pipeline_fusion_bypass_differs():
    cloud, parts, pcfg, models = make_setup(seed=4)
    with_f, _ = run_pipeline(models, cloud, parts, pcfg)
    bypass = run_pipeline(models, cloud, parts, replace(pcfg, k_fuse=0))[0]
    assert np.array_equal(with_f[0].logits, bypass[0].logits)  # scale 1 has no fusion
    assert not np.array_equal(with_f[1].logits, bypass[1].logits)


def test_run_pipeline_arrival_times():
    cloud, parts, pcfg, models = make_setup(seed=5, n_points=1500)
    arrivals = [0.0, 5.0, 10.0, 15.0]
    _, report = run_pipeline(models, cloud, parts, pcfg)
    records = report.records(arrivals)
    for rec in records:
        assert rec["pipelined_ms"] <= rec["cumulative_ms"] + 1e-9
    # records carry arrival, completion and coarse-point counts
    durations = [r["plan_ms"] + r["encode_ms"] + r["fuse_ms"] + r["decode_ms"]
                 for r in records]
    _, completion, _ = simulate_schedule(durations, arrivals)
    assert [r["arrival_ms"] for r in records] == arrivals
    assert [r["completion_ms"] for r in records] == completion
    assert [r["n_coarse"] for r in records] == [s.n_coarse for s in report.scales]
    assert all(r["n_coarse"] > 0 for r in records)
    # the arrivals change only the derived bounds, never the measurements
    assert [r["cumulative_ms"] for r in report.records()] == \
        [r["cumulative_ms"] for r in records]
    with pytest.raises(ValueError):
        report.records([0.0])
    with pytest.raises(ValueError):
        report.records([0.0, 3.0, 2.0, 4.0])


def test_run_pipeline_model_count_checked():
    cloud, parts, pcfg, models = make_setup(seed=6, n_points=1200)
    with pytest.raises(ValueError):
        run_pipeline(models[:2], cloud, parts, pcfg)


def test_run_baseline_union():
    # the whole-cloud baseline is a one-scale run on the union of the scales
    cloud, parts, pcfg, models = make_setup(seed=7)
    [pred], report = run_pipeline([models[-1]], cloud, parts.union(), pcfg)
    [base] = report.scales
    assert base.n_points == sum(parts.sizes)
    assert pred.labels.shape == (base.n_points,)
    assert base.distance_evals > base.knn_queries > 0
    assert 0 < base.plan_ms < base.duration_ms == report.total_ms
    assert base.fuse_ms == 0.0
    # upto=1 processes exactly the scale-1 partition
    _, r1 = run_pipeline([models[0]], cloud, parts.union(1), pcfg)
    assert r1.scales[0].n_points == parts.sizes[0]


# (n_points, distance_evals, sha256 prefixes of labels and logits) of the
# whole-cloud baseline over partitions 1..upto
GOLDEN_BASELINE = [
    (7, 1, (726, 686907, "f52f4a4c057c3cda", "7f16a6e980cc199b")),
    (7, 4, (2495, 11832421, "a24c303ba147a209", "a14e6a17a4113106")),
    (9, 2, (1814, 4268911, "7ae3e24f972bf3f8", "405a7315e88635f5")),
]


@pytest.mark.parametrize("seed,upto,expected", GOLDEN_BASELINE)
def test_run_baseline_predictions_golden(seed, upto, expected):
    cloud, parts, pcfg, models = make_setup(seed=seed)
    [pred], report = run_pipeline([models[-1]], cloud, parts.union(upto), pcfg)
    [base] = report.scales
    assert (base.n_points, base.distance_evals, _sha(pred.labels),
            _sha(pred.logits)) == expected


def test_pipeline_on_real_world_coordinates():
    # a UTM-like tile: seed 11's scene moved 500 km east lies 3-8M voxels
    # from the origin at the default voxel sizes, but spans few of them
    _, _, pcfg, models = make_setup()
    scene = generate_scene(SceneSpec(num_points=3000, num_classes=5, rng_seed=11))
    cloud = PointCloud(scene.positions + [500_000.0, 0.0, 0.0], scene.colors,
                       scene.labels, scene.num_classes)
    cfg = PartitionConfig(rng_seed=11)
    with pytest.warns(UserWarning, match="not strictly increasing"):
        parts = build_partitions(cloud, cfg)
    allidx = np.concatenate(parts.partitions)
    assert len(np.unique(allidx)) == len(allidx)
    for p, v in zip(parts.partitions, cfg.voxel_sizes):
        keys = voxel_keys(gather(cloud, p), v)
        assert keys[:, 0].min() > 1 << 20
        assert len(np.unique(keys, axis=0)) == len(keys)
    preds, _ = run_pipeline(models, cloud, parts, pcfg)
    for pred, size in zip(preds, parts.sizes):
        assert pred.labels.shape == (size,)
        assert np.all(np.isfinite(pred.logits))


def test_single_scale_pipeline_degenerate():
    cloud = generate_scene(SceneSpec(num_points=800, num_classes=4, rng_seed=8))
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=(0.3,),
                                                    rng_seed=8))
    bcfg = BackboneConfig(num_classes=4, feature_dim=4, attention_neighbors=4,
                          encoder_stages=2)
    pcfg = PipelineConfig(backbone=bcfg, k_fuse=4)
    models = [ScaleModel(init_params(bcfg, seed=0))]
    preds, report = run_pipeline(models, cloud, parts, pcfg)
    rec = report.records()[0]
    assert rec["cumulative_ms"] == rec["pipelined_ms"]
    assert len(preds) == 1
