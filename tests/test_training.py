from dataclasses import replace

import numpy as np
import pytest

from scaleseg import backbone, knn, pipeline, training
from scaleseg.backbone import BackboneConfig, ScaleModel, init_params
from scaleseg.cloud import PartitionConfig, PointCloud, build_partitions
from scaleseg.fusion import FeatureStore
from scaleseg.pipeline import PipelineConfig, run_pipeline
from scaleseg.scene import SceneSpec, generate_scene
from scaleseg.training import TrainConfig, _build_store, evaluate, train_scale

VOXELS = (0.5, 0.3)


def make_scenes(count=2, n_points=1200, num_classes=3, seed=0):
    scenes = []
    for i in range(count):
        cloud = generate_scene(SceneSpec(extents=(5.0, 5.0, 2.5), num_objects=5,
                                         num_classes=num_classes,
                                         num_points=n_points, noise_sigma=0.02,
                                         rng_seed=seed + i))
        parts = build_partitions(cloud, PartitionConfig(voxel_sizes=VOXELS,
                                                        rng_seed=seed))
        scenes.append((cloud, parts))
    return scenes


def make_cfg(num_classes=3):
    bcfg = BackboneConfig(num_classes=num_classes, feature_dim=8,
                          attention_neighbors=4, encoder_stages=2)
    return PipelineConfig(backbone=bcfg, k_fuse=4)


def test_train_scale1_loss_decreases():
    scenes = make_scenes()
    pcfg = make_cfg()
    model = ScaleModel(init_params(pcfg.backbone, seed=1))
    tcfg = TrainConfig(epochs=8, batch_size=2, learning_rate=0.05, rng_seed=0)
    losses = train_scale([model], 1, scenes, pcfg, tcfg)
    assert len(losses) == 8
    assert losses[-1] < losses[0]
    assert all(np.isfinite(losses))


def test_train_deterministic():
    scenes = make_scenes()
    pcfg = make_cfg()
    tcfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.05, rng_seed=7)
    m1 = ScaleModel(init_params(pcfg.backbone, seed=1))
    l1 = train_scale([m1], 1, scenes, pcfg, tcfg)
    m2 = ScaleModel(init_params(pcfg.backbone, seed=1))
    l2 = train_scale([m2], 1, scenes, pcfg, tcfg)
    assert l1 == l2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_zero_learning_rate_is_noop():
    scenes = make_scenes(count=1)
    pcfg = make_cfg()
    model = ScaleModel(init_params(pcfg.backbone, seed=2))
    before = {k: v.copy() for k, v in model.params.items()}
    tcfg = TrainConfig(epochs=2, batch_size=1, learning_rate=0.0, rng_seed=0)
    train_scale([model], 1, scenes, pcfg, tcfg)
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def test_frozen_lower_scale_untouched_by_scale2_training():
    scenes = make_scenes()
    pcfg = make_cfg()
    tcfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.05, rng_seed=1)
    m1 = ScaleModel(init_params(pcfg.backbone, seed=1))
    train_scale([m1], 1, scenes, pcfg, tcfg)
    m1.freeze()
    snapshot = {k: v.copy() for k, v in m1.params.items()}
    m2 = ScaleModel(init_params(pcfg.backbone, seed=2, with_fusion=True))
    losses = train_scale([m1, m2], 2, scenes, pcfg, tcfg)
    assert losses[-1] < losses[0] * 1.2  # it trains at all
    for k in snapshot:
        assert np.array_equal(m1.params[k], snapshot[k])


def _scale2_losses(epochs, n_points=900):
    scenes = make_scenes(count=2, n_points=n_points)
    pcfg = make_cfg()
    m1 = ScaleModel(init_params(pcfg.backbone, seed=1))
    m1.freeze()
    m2 = ScaleModel(init_params(pcfg.backbone, seed=2, with_fusion=True))
    tcfg = TrainConfig(epochs=epochs, batch_size=2, learning_rate=0.05,
                       rng_seed=3)
    return train_scale([m1, m2], 2, scenes, pcfg, tcfg)


def test_train_scale_epoch_losses_golden():
    # values produced by the per-epoch-geometry implementation this one
    # replaced; any change in per-row arithmetic shows up in the bits
    losses = _scale2_losses(epochs=3)
    assert [x.hex() for x in losses] == [
        "0x1.d85e57bbaa32ep+0", "0x1.1f126bec7f772p+0", "0x1.0b3ef4db529a8p+0"]


def test_train_scale_searches_neighbors_once_per_call(monkeypatch):
    calls = []
    counted_knn = backbone.counted_knn
    knn_batch = knn.NeighborIndex.knn_batch

    def counting_knn(*args, **kwargs):
        calls.append("knn")
        return counted_knn(*args, **kwargs)

    def counting_batch(self, *args, **kwargs):
        calls.append("fusion")
        return knn_batch(self, *args, **kwargs)

    monkeypatch.setattr(backbone, "counted_knn", counting_knn)
    monkeypatch.setattr(knn.NeighborIndex, "knn_batch", counting_batch)
    _scale2_losses(epochs=1, n_points=500)
    one_epoch = list(calls)
    calls.clear()
    _scale2_losses(epochs=4, n_points=500)
    assert calls == one_epoch
    # per scene: 2 stages of frozen scale 1, then the trainee's 2 stages,
    # its decode interpolation and its fusion search
    assert one_epoch.count("knn") == 2 * 5
    assert one_epoch.count("fusion") == 2


def test_train_scale_without_fusion_runs_no_frozen_forward(monkeypatch):
    # with k_fuse = 0 scale 2 fuses nothing, so the frozen scale 1 below it
    # is never encoded and the trainee needs no fusion weights
    scenes = make_scenes(count=2, n_points=500)
    pcfg = replace(make_cfg(), k_fuse=0)
    m1 = ScaleModel(init_params(pcfg.backbone, seed=1))
    m1.freeze()
    m2 = ScaleModel(init_params(pcfg.backbone, seed=2))
    encoded = []
    encode = backbone.encode

    def spy(*args, **kwargs):
        encoded.append(kwargs["scale_id"])
        return encode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", spy)
    monkeypatch.setattr(training, "encode", spy)
    tcfg = TrainConfig(epochs=2, batch_size=2, learning_rate=0.05, rng_seed=3)
    losses = train_scale([m1, m2], 2, scenes, pcfg, tcfg)
    assert all(np.isfinite(losses))
    assert encoded == [2] * 4  # two scenes, two epochs, only the trainee


def test_build_store_matches_pipeline_store(monkeypatch):
    # training feeds its scale the frozen lower scales' store; it must hold
    # the bytes that inference stores for those scales
    cloud = generate_scene(SceneSpec(extents=(5.0, 5.0, 2.5), num_objects=5,
                                     num_classes=3, num_points=4000,
                                     noise_sigma=0.02, rng_seed=4))
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=(0.5, 0.35, 0.25)))
    assert all(n > 0 for n in parts.sizes)
    pcfg = make_cfg()
    models = [ScaleModel(init_params(pcfg.backbone, seed=s, with_fusion=s > 1))
              for s in (1, 2, 3)]
    added = []
    add_scale = FeatureStore.add_scale

    def spy(self, fm):
        added.append((fm.scale_id, fm.positions.copy(), fm.features.copy()))
        return add_scale(self, fm)

    monkeypatch.setattr(FeatureStore, "add_scale", spy)
    run_pipeline(models, cloud, parts, pcfg)
    monkeypatch.undo()
    assert [a[0] for a in added] == [1, 2, 3]
    positions, features = _build_store(models, cloud, parts, 2, pcfg).merged()
    assert positions.tobytes() == np.concatenate([a[1] for a in added[:2]]).tobytes()
    assert features.tobytes() == np.concatenate([a[2] for a in added[:2]]).tobytes()


def test_train_scale_preconditions():
    scenes = make_scenes(count=1)
    pcfg = make_cfg()
    tcfg = TrainConfig(epochs=1, batch_size=1, learning_rate=0.01, rng_seed=0)
    frozen = ScaleModel(init_params(pcfg.backbone, seed=0))
    frozen.freeze()
    with pytest.raises(ValueError):
        train_scale([frozen], 1, scenes, pcfg, tcfg)  # trainee frozen
    unfrozen_low = ScaleModel(init_params(pcfg.backbone, seed=0))
    trainee = ScaleModel(init_params(pcfg.backbone, seed=1, with_fusion=True))
    with pytest.raises(ValueError):
        train_scale([unfrozen_low, trainee], 2, scenes, pcfg, tcfg)
    with pytest.raises(ValueError):
        train_scale([trainee], 5, scenes, pcfg, tcfg)  # scale out of range


def test_train_requires_labels():
    scenes = make_scenes(count=1)
    cloud, parts = scenes[0]
    bare = PointCloud(cloud.positions, cloud.colors)
    pcfg = make_cfg()
    tcfg = TrainConfig(epochs=1, batch_size=1, learning_rate=0.01, rng_seed=0)
    model = ScaleModel(init_params(pcfg.backbone, seed=0))
    with pytest.raises(ValueError):
        train_scale([model], 1, [(bare, parts)], pcfg, tcfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)


def test_evaluate_rows_and_matrices():
    scenes = make_scenes(count=2)
    pcfg = make_cfg()
    models = [ScaleModel(init_params(pcfg.backbone, seed=i, with_fusion=(i > 0)))
              for i in range(len(VOXELS))]
    rows, mats = evaluate(models, scenes, pcfg)
    assert len(rows) == len(VOXELS)
    assert len(mats) == len(VOXELS)
    for i, row in enumerate(rows):
        assert row["scale"] == i + 1
        assert row["method"] == "fusion"
        for key in ("oacc", "macc", "miou"):
            assert 0.0 <= row[key] <= 1.0
        assert row["cumulative_ms"] > 0
    off_rows, _ = evaluate(models, scenes, replace(pcfg, k_fuse=0))
    assert all(r["method"] == "no-fusion" for r in off_rows)
    # scale 1 never fuses, so its confusion counts agree either way
    assert rows[0]["oacc"] == off_rows[0]["oacc"]
