"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Criteria 3 and 4 share one 100k-point benchmark run (module fixture).
Every tolerance is written into the assertion next to its check.
"""

import hashlib
import time
import warnings

import numpy as np
import pytest

from scaleseg.backbone import (
    BackboneConfig,
    FeatureMatrix,
    ScaleModel,
    decode,
    decode_bwd,
    encode,
    encode_bwd,
    init_params,
    plan_interp,
    plan_stages,
)
from scaleseg.checkpoint import save_checkpoint
from scaleseg.cloud import (
    PartitionConfig,
    PointCloud,
    build_partitions,
    gather,
    pack_voxel_keys,
    voxel_keys,
)
from scaleseg.fusion import FeatureStore, fuse, fuse_bwd
from scaleseg.layers import softmax_cross_entropy
from scaleseg.metrics import ConfusionMatrix, compute_metrics
from scaleseg.pipeline import (
    PipelineConfig,
    estimate_gain,
    run_pipeline,
    simulate_schedule,
)
from scaleseg.scene import SceneSpec, generate_scene
from scaleseg.training import TrainConfig, train_scale


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def checkpoint_digest(tmp_path, tag, model, cfg):
    path = tmp_path / f"{tag}.ckpt"
    save_checkpoint(path, model.params, cfg, frozen=model.frozen)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared 100k-point benchmark run (criteria 3 and 4)

@pytest.fixture(scope="module")
def bench_run():
    cloud = generate_scene(SceneSpec(num_points=100_000, rng_seed=11))
    parts = build_partitions(cloud, PartitionConfig(rng_seed=11))  # defaults, s=4
    bcfg = BackboneConfig(num_classes=13, feature_dim=16, attention_neighbors=8,
                          encoder_stages=2)
    pcfg = PipelineConfig(backbone=bcfg, k_fuse=8)
    models = [ScaleModel(init_params(bcfg, seed=i, with_fusion=(i > 0)))
              for i in range(parts.num_scales)]
    baseline_model = ScaleModel(init_params(bcfg, seed=99))
    t0 = time.perf_counter()
    _, report = run_pipeline(models, cloud, parts, pcfg)
    _, base_report = run_pipeline([baseline_model], cloud, parts.union(), pcfg)
    [base] = base_report.scales
    elapsed = time.perf_counter() - t0
    return parts, report, base, elapsed


def test_criterion_1_partition_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cfg = PartitionConfig(rng_seed=5)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for trial in range(100):
            if trial % 5 == 4:
                cloud = generate_scene(SceneSpec(
                    num_points=int(rng.integers(1500, 4000)),
                    rng_seed=trial))
            else:
                n = int(rng.integers(500, 3000))
                extent = float(rng.uniform(2.0, 6.0))
                cloud = PointCloud(rng.uniform(0, extent, size=(n, 3)),
                                   rng.uniform(0, 1, size=(n, 3)))
            parts = build_partitions(cloud, cfg)
            allidx = np.concatenate(parts.partitions)
            assert len(np.unique(allidx)) == len(allidx)  # pairwise disjoint
            for p, v in zip(parts.partitions, cfg.voxel_sizes):
                if len(p) == 0:
                    continue
                packed = pack_voxel_keys(voxel_keys(gather(cloud, p), v))
                assert len(np.unique(packed)) == len(packed)  # voxel-unique
            if trial % 10 == 0:  # deterministic per seed
                again = build_partitions(cloud, cfg)
                for a, b in zip(parts.partitions, again.partitions):
                    assert np.array_equal(a, b)
            checked += 1
    corners = np.array([[x, y, z] for x in (0.0, 1.0)
                        for y in (0.0, 1.0) for z in (0.0, 1.0)])
    eight = build_partitions(PointCloud(corners, np.zeros((8, 3))),
                             PartitionConfig(voxel_sizes=(2.0, 0.5)))
    assert eight.sizes == (1, 7)
    elapsed = time.perf_counter() - t0
    assert checked == 100
    assert elapsed < 10.0
    announce(capsys, f"[PASS] criterion 1: 100 clouds partitioned cleanly, "
                     f"8-corner sizes (1, 7), {elapsed:.2f}s < 10s")


def test_criterion_2_gain_identity(capsys):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        sizes = [int(x) for x in rng.integers(1, 10 ** 7,
                                              size=rng.integers(1, 10))]
        est = estimate_gain(sizes)
        assert est.whole_cost == sum(sizes) ** 2           # exact ints
        assert est.whole_cost == est.scalable_cost + est.gain  # zero tolerance
    a = estimate_gain([2, 3])
    assert (a.whole_cost, a.scalable_cost, a.gain) == (25, 13, 12)
    b = estimate_gain([1000, 2000, 3000, 4000])
    assert (b.whole_cost, b.scalable_cost, b.gain) == (10 ** 8, 3 * 10 ** 7,
                                                       7 * 10 ** 7)
    announce(capsys, "[PASS] criterion 2: N^2 = sum(N_i^2) + gain exact on "
                     "1000 random size lists; [2,3] and [1k,2k,3k,4k] oracles hit")


def test_criterion_3_measured_complexity(capsys, bench_run):
    parts, report, base, elapsed = bench_run
    assert sum(parts.sizes) >= 50_000
    scalable = report.total_distance_evals
    baseline = base.distance_evals
    assert scalable < baseline  # strict
    measured = scalable / baseline
    predicted = estimate_gain(parts.sizes).reduction_ratio
    factor = measured / predicted
    assert 0.5 < factor < 2.0
    assert elapsed < 300.0
    announce(capsys, f"[PASS] criterion 3: scalable {scalable:.3e} < baseline "
                     f"{baseline:.3e} evals; measured ratio {measured:.3f} vs "
                     f"predicted {predicted:.3f} (factor {factor:.2f} in (0.5, 2)); "
                     f"{elapsed:.0f}s < 300s")


def test_criterion_4_latency_bounds(capsys, bench_run):
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = int(rng.integers(1, 9))
        durations = rng.uniform(0.0, 40.0, size=s).tolist()
        arrivals = np.sort(rng.uniform(0.0, 80.0, size=s)).tolist()
        cumulative, completion, induced = simulate_schedule(durations, arrivals)
        for c, i in zip(cumulative, induced):
            # the two sides accumulate in different orders, so allow
            # rounding headroom of 1e-9 relative on the exact inequality
            assert i <= c * (1.0 + 1e-9) + 1e-9
    cumulative, completion, induced = simulate_schedule([10.0, 20.0, 30.0],
                                                        [0.0, 15.0, 50.0])
    assert cumulative == [10.0, 30.0, 60.0]
    assert completion == [10.0, 35.0, 80.0]
    # time-to-first-prediction on the 100k scene
    _, report, _, _ = bench_run
    records = report.records()
    first = records[0]["cumulative_ms"]
    total = report.total_ms
    assert len(records) >= 2
    assert first < total
    announce(capsys, f"[PASS] criterion 4: induced <= cumulative on 100 random "
                     f"schedules; hand example exact; first prediction "
                     f"{first:.0f}ms < total {total:.0f}ms")


def test_criterion_5_gradient_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    bcfg = BackboneConfig(num_classes=3, feature_dim=4, attention_neighbors=3,
                          encoder_stages=2)
    n1, n2 = 25, 20  # 45 points total, <= 50
    pos1 = rng.uniform(0, 2, size=(n1, 3))
    feats1 = np.concatenate([pos1, rng.uniform(0, 1, size=(n1, 3))], axis=1)
    pos2 = rng.uniform(0, 2, size=(n2, 3))
    feats2 = np.concatenate([pos2, rng.uniform(0, 1, size=(n2, 3))], axis=1)
    labels = rng.integers(0, 3, size=n2)
    frozen = ScaleModel(init_params(bcfg, seed=10))
    frozen.freeze()
    fm1, _ = encode(frozen, pos1, feats1, plan_stages(pos1, 0.5, bcfg),
                    scale_id=1, need_cache=False)
    model = ScaleModel(init_params(bcfg, seed=11, with_fusion=True))
    for v in model.params.values():  # move zero biases off relu kinks
        v += rng.normal(size=v.shape) * 0.05

    stages2 = plan_stages(pos2, 0.3, bcfg)
    interp2 = plan_interp(stages2[-1].positions, pos2)

    def forward(need_cache=False):
        store = FeatureStore(bcfg.feature_dim)
        store.add_scale(fm1)
        fm2, ec = encode(model, pos2, feats2, stages2, scale_id=2,
                         need_cache=need_cache)
        fused, fc = fuse(fm2, store, model.params, 4)
        pred, dc = decode(model, fused, pos2, bcfg, interp2)
        loss, dlogits = softmax_cross_entropy(pred.logits, labels)
        return loss, dlogits, ec, fc, dc

    loss, dlogits, ec, fc, dc = forward(need_cache=True)
    dfused, dgrads = decode_bwd(dlogits, dc, model)
    dfeats, fgrads = fuse_bwd(dfused, fc, model.params)
    egrads = encode_bwd(dfeats, ec, model)
    grads = {**egrads, **fgrads, **dgrads}
    assert sorted(grads) == sorted(model.params)

    h = 1e-5
    worst = 0.0
    for name in sorted(model.params):
        p = model.params[name]
        numeric = np.zeros_like(p)
        flat, nflat = p.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = forward()[0]
            flat[i] = keep - h
            fm = forward()[0]
            flat[i] = keep
            nflat[i] = (fp - fm) / (2 * h)
        err = np.linalg.norm(grads[name] - numeric) / max(
            np.linalg.norm(grads[name]) + np.linalg.norm(numeric), 1e-6)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: relative error {err:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(capsys, f"[PASS] criterion 5: full scale-2 path gradcheck, worst "
                     f"relative error {worst:.2e} < 1e-4 over "
                     f"{len(model.params)} tensors; {elapsed:.1f}s < 60s")


def test_criterion_6_frozen_scale_training(capsys, tmp_path):
    voxels = (0.55, 0.4, 0.28, 0.2)
    cloud = generate_scene(SceneSpec(extents=(5.0, 5.0, 2.5), num_points=2500,
                                     num_classes=4, rng_seed=21))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        parts = build_partitions(cloud, PartitionConfig(voxel_sizes=voxels,
                                                        rng_seed=21))
    assert all(s > 0 for s in parts.sizes)
    bcfg = BackboneConfig(num_classes=4, feature_dim=8, attention_neighbors=4,
                          encoder_stages=2)
    pcfg = PipelineConfig(backbone=bcfg, k_fuse=4)
    tcfg = TrainConfig(epochs=2, batch_size=1, learning_rate=0.02, rng_seed=0)
    scenes = [(cloud, parts)]
    models = []
    digests = {}
    for i in range(1, 5):
        trainee = ScaleModel(init_params(bcfg, seed=i, with_fusion=(i > 1)))
        models.append(trainee)
        train_scale(models, i, scenes, pcfg, tcfg)
        if i >= 2:
            for j in range(1, i):
                after = checkpoint_digest(tmp_path, f"after_{i}_{j}",
                                          models[j - 1], bcfg)
                assert after == digests[j], \
                    f"scale {j} checkpoint changed while training scale {i}"
        trainee.freeze()
        digests[i] = checkpoint_digest(tmp_path, f"frozen_{i}", trainee, bcfg)
    announce(capsys, "[PASS] criterion 6: scales < i checksum-identical after "
                     "train_scale(i) for i = 2, 3, 4")


def test_criterion_7_fusion_properties(capsys):
    rng = np.random.default_rng(4)
    f = 4
    spos = rng.uniform(0, 4, size=(18, 3))
    sfeat = rng.normal(size=(18, f))
    current = FeatureMatrix(rng.uniform(0, 4, size=(9, 3)),
                            rng.normal(size=(9, f)), 2)
    params = {
        "fuse_cw": rng.normal(size=(f, f)), "fuse_cb": rng.normal(size=f),
        "fuse_fw": rng.normal(size=(2 * f, f)), "fuse_fb": rng.normal(size=f),
    }
    store = FeatureStore(f)
    store.add_scale(FeatureMatrix(spos, sfeat, 1))
    out, _ = fuse(current, store, params, k_fuse=5)
    # shape contract + position preservation
    assert out.features.shape == (9, f)
    assert out.positions is current.positions
    # store row shuffle leaves the output bit-identical
    perm = rng.permutation(18)
    store_p = FeatureStore(f)
    store_p.add_scale(FeatureMatrix(spos[perm], sfeat[perm], 1))
    out_p, _ = fuse(current, store_p, params, k_fuse=5)
    assert np.array_equal(out.features, out_p.features)
    # identity reduction: project onto the own-feature half of the concat
    ident = dict(params, fuse_fw=np.concatenate([np.eye(f), np.zeros((f, f))]),
                 fuse_fb=np.zeros(f))
    red, _ = fuse(current, store, ident, k_fuse=5)
    assert np.array_equal(red.features, current.features)
    # k_fuse=1 hand example: identity conv, averaging head -> [2, 3.5]
    cur1 = FeatureMatrix(np.zeros((1, 3)), np.array([[1.0, 2.0]]), 2)
    st1 = FeatureStore(2)
    st1.add_scale(FeatureMatrix(np.array([[0.1, 0.0, 0.0], [5.0, 5.0, 5.0]]),
                                np.array([[3.0, 5.0], [100.0, 200.0]]), 1))
    hand = {"fuse_cw": np.eye(2), "fuse_cb": np.zeros(2),
            "fuse_fw": np.array([[0.5, 0.0], [0.0, 0.5],
                                 [0.5, 0.0], [0.0, 0.5]]),
            "fuse_fb": np.zeros(2)}
    got, _ = fuse(cur1, st1, hand, k_fuse=1)
    assert np.max(np.abs(got.features - np.array([[2.0, 3.5]]))) < 1e-12
    announce(capsys, "[PASS] criterion 7: shuffle invariance, position/shape "
                     "contracts, identity reduction, k_fuse=1 example to 1e-12")


def test_criterion_8_metrics_oracle(capsys):
    cm = ConfusionMatrix(2, counts=np.array([[3, 1], [2, 4]]))
    oacc, macc, miou = compute_metrics(cm)
    assert abs(oacc - 0.7) < 1e-9
    assert abs(macc - 17.0 / 24.0) < 1e-9      # 0.708333...
    assert abs(miou - 15.0 / 28.0) < 1e-9      # 0.535714...
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 6, size=500)
    perfect = ConfusionMatrix(6)
    perfect.update(labels, labels)
    assert compute_metrics(perfect) == (1.0, 1.0, 1.0)
    announce(capsys, "[PASS] criterion 8: confusion-matrix oracle matched to "
                     "1e-9; perfect prediction gives (1, 1, 1)")


def test_criterion_9_learning_sanity(capsys):
    t0 = time.perf_counter()
    bcfg = BackboneConfig(num_classes=3, feature_dim=16, attention_neighbors=8,
                          encoder_stages=2)
    pcfg = PipelineConfig(backbone=bcfg, k_fuse=8)
    voxels = (0.35, 0.18)

    def make_scene(seed):
        cloud = generate_scene(SceneSpec(extents=(6.0, 6.0, 3.0), num_objects=6,
                                         num_classes=3, num_points=3000,
                                         noise_sigma=0.03, rng_seed=seed))
        parts = build_partitions(cloud, PartitionConfig(voxel_sizes=voxels,
                                                        rng_seed=seed))
        return cloud, parts

    def partition_miou(model, cloud, parts, scale_id, store=None,
                       fusion_on=False):
        sub = gather(cloud, parts.partitions[scale_id - 1])
        stages = plan_stages(sub.positions, parts.voxel_sizes[scale_id - 1], bcfg)
        fm, _ = encode(model, sub.positions, sub.xyzrgb(), stages, scale_id,
                       need_cache=False)
        if fusion_on:
            fm, _ = fuse(fm, store, model.params, pcfg.k_fuse)
        interp = plan_interp(fm.positions, sub.positions)
        pred, _ = decode(model, fm, sub.positions, bcfg, interp)
        cm = ConfusionMatrix(3)
        cm.update(sub.labels, pred.labels)
        return compute_metrics(cm)[2]

    # part A: scale-1 reaches mIoU >= 0.8 within 30 epochs on one seed
    cloud, parts = make_scene(100)
    m1 = ScaleModel(init_params(bcfg, seed=1))
    train_scale([m1], 1, [(cloud, parts)], pcfg,
                TrainConfig(epochs=30, batch_size=1, learning_rate=0.05,
                            rng_seed=0))
    miou1 = partition_miou(m1, cloud, parts, 1)
    assert miou1 >= 0.8, f"scale-1 mIoU {miou1:.3f} < 0.8"

    # part B: fusion >= fusion-bypass on the scale-2 partition, 10 seeds
    wins = 0
    details = []
    for s in range(10):
        cloud, parts = make_scene(100 + s)
        m1 = ScaleModel(init_params(bcfg, seed=s + 1))
        train_scale([m1], 1, [(cloud, parts)], pcfg,
                    TrainConfig(epochs=30, batch_size=1, learning_rate=0.05,
                                rng_seed=0))
        m1.freeze()
        m2 = ScaleModel(init_params(bcfg, seed=s + 50, with_fusion=True))
        train_scale([m1, m2], 2, [(cloud, parts)], pcfg,
                    TrainConfig(epochs=30, batch_size=1, learning_rate=0.01,
                                rng_seed=0))
        sub1 = gather(cloud, parts.partitions[0])
        fm1, _ = encode(m1, sub1.positions, sub1.xyzrgb(),
                        plan_stages(sub1.positions, voxels[0], bcfg), 1,
                        need_cache=False)
        store = FeatureStore(bcfg.feature_dim)
        store.add_scale(fm1)
        with_f = partition_miou(m2, cloud, parts, 2, store, fusion_on=True)
        without = partition_miou(m2, cloud, parts, 2)
        wins += with_f >= without
        details.append(f"{with_f:.2f}/{without:.2f}")
    elapsed = time.perf_counter() - t0
    assert wins >= 7, f"fusion won only {wins}/10 seeds ({details})"
    assert elapsed < 900.0
    announce(capsys, f"[PASS] criterion 9: scale-1 mIoU {miou1:.3f} >= 0.8 in "
                     f"30 epochs; fusion >= bypass on {wins}/10 seeds; "
                     f"{elapsed:.0f}s < 900s")


def test_criterion_10_scheduling_determinism(capsys):
    bcfg = BackboneConfig(num_classes=5, feature_dim=8, attention_neighbors=4,
                          encoder_stages=2)
    pcfg = PipelineConfig(backbone=bcfg, k_fuse=4)
    voxels = (0.5, 0.35, 0.25, 0.18)
    models = [ScaleModel(init_params(bcfg, seed=i, with_fusion=(i > 0)))
              for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for seed in range(20):
            cloud = generate_scene(SceneSpec(num_points=1600, num_classes=5,
                                             rng_seed=seed))
            parts = build_partitions(cloud, PartitionConfig(voxel_sizes=voxels,
                                                            rng_seed=seed))
            seq, _ = run_pipeline(models, cloud, parts, pcfg)
            thr, _ = run_pipeline(models, cloud, parts, pcfg, threaded=True)
            for a, b in zip(seq, thr):
                assert np.array_equal(a.logits, b.logits)
                assert np.array_equal(a.labels, b.labels)
    announce(capsys, "[PASS] criterion 10: threaded predictions bit-identical "
                     "to sequential on 20 random scenes")
