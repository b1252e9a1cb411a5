import numpy as np
import pytest

from scaleseg.backbone import (
    BackboneConfig,
    FeatureMatrix,
    Prediction,
    ScaleModel,
    decode,
    decode_bwd,
    encode,
    encode_bwd,
    init_params,
    plan_interp,
    plan_stages,
)
from scaleseg.knn import EvalCounter
from scaleseg.layers import softmax_cross_entropy


def small_cfg(**kw):
    base = dict(num_classes=4, feature_dim=6, attention_neighbors=4,
                encoder_stages=2, downsample_factor=2.0, interp_neighbors=3)
    base.update(kw)
    return BackboneConfig(**base)


def random_inputs(rng, n):
    positions = rng.uniform(0, 3, size=(n, 3))
    colors = rng.uniform(0, 1, size=(n, 3))
    return positions, np.concatenate([positions, colors], axis=1)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(num_classes=1)
    with pytest.raises(ValueError):
        small_cfg(feature_dim=0)
    with pytest.raises(ValueError):
        small_cfg(encoder_stages=0)
    with pytest.raises(ValueError):
        small_cfg(downsample_factor=0.9)
    with pytest.raises(ValueError):
        small_cfg(interp_neighbors=0)


def test_init_params_deterministic_and_fusion_keys():
    cfg = small_cfg()
    a = init_params(cfg, seed=3)
    b = init_params(cfg, seed=3)
    assert sorted(a) == sorted(b)
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = init_params(cfg, seed=4)
    assert any(not np.array_equal(a[k], c[k]) for k in a)
    withf = init_params(cfg, seed=3, with_fusion=True)
    extra = sorted(set(withf) - set(a))
    assert extra == ["fuse_cb", "fuse_cw", "fuse_fb", "fuse_fw"]
    assert withf["fuse_fw"].shape == (2 * cfg.feature_dim, cfg.feature_dim)


def test_encode_shapes_and_pooling():
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    positions, feats = random_inputs(rng, 120)
    model = ScaleModel(init_params(cfg, seed=0))
    fm, cache = encode(model, positions, feats, plan_stages(positions, 0.4, cfg),
                       scale_id=2)
    assert isinstance(fm, FeatureMatrix)
    assert fm.scale_id == 2
    assert fm.features.shape == (fm.n, cfg.feature_dim)
    assert fm.positions.shape == (fm.n, 3)
    assert 0 < fm.n <= 120  # pooled stages shrink the set
    # coarse count equals occupied voxels at base_voxel * factor
    from scaleseg.cloud import _voxel_keys_raw, pack_voxel_keys
    packed = pack_voxel_keys(_voxel_keys_raw(positions, 0.8))
    assert fm.n == len(np.unique(packed))


def test_encode_single_stage_keeps_resolution():
    rng = np.random.default_rng(1)
    cfg = small_cfg(encoder_stages=1)
    positions, feats = random_inputs(rng, 40)
    model = ScaleModel(init_params(cfg, seed=1))
    fm, _ = encode(model, positions, feats, plan_stages(positions, 0.3, cfg))
    assert fm.n == 40
    assert np.array_equal(fm.positions, positions)


def test_decode_covers_all_points():
    rng = np.random.default_rng(2)
    cfg = small_cfg()
    positions, feats = random_inputs(rng, 80)
    model = ScaleModel(init_params(cfg, seed=2))
    fm, _ = encode(model, positions, feats, plan_stages(positions, 0.5, cfg))
    pred, _ = decode(model, fm, positions, cfg,
                     plan_interp(fm.positions, positions, cfg))
    assert isinstance(pred, Prediction)
    assert pred.logits.shape == (80, cfg.num_classes)
    assert pred.labels.shape == (80,)
    assert np.all(np.isfinite(pred.logits))


def test_prediction_tie_breaks_to_lowest_class():
    logits = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [-1.0, -1.0, -1.0]])
    pred = Prediction(logits)
    assert pred.labels.tolist() == [0, 1, 0]


def test_point_order_equivariance():
    rng = np.random.default_rng(3)
    cfg = small_cfg()
    positions, feats = random_inputs(rng, 60)
    model = ScaleModel(init_params(cfg, seed=5))
    fm, _ = encode(model, positions, feats, plan_stages(positions, 0.5, cfg))
    pred, _ = decode(model, fm, positions, cfg,
                     plan_interp(fm.positions, positions, cfg))
    perm = rng.permutation(60)
    fm2, _ = encode(model, positions[perm], feats[perm],
                    plan_stages(positions[perm], 0.5, cfg))
    pred2, _ = decode(model, fm2, positions[perm], cfg,
                      plan_interp(fm2.positions, positions[perm], cfg))
    # coarse set is canonically ordered, so it is bit-identical; per-point
    # outputs follow the permutation
    assert np.array_equal(fm.positions, fm2.positions)
    assert np.array_equal(fm.features, fm2.features)
    assert np.array_equal(pred.logits[perm], pred2.logits)


def test_frozen_model_contract():
    rng = np.random.default_rng(4)
    cfg = small_cfg()
    positions, feats = random_inputs(rng, 30)
    model = ScaleModel(init_params(cfg, seed=6))
    fm, cache = encode(model, positions, feats, plan_stages(positions, 0.4, cfg))
    g = rng.normal(size=fm.features.shape)
    assert encode_bwd(g, cache, model)  # trainable: non-empty grads
    model.freeze()
    assert model.frozen
    assert encode_bwd(g, cache, model) == {}
    with pytest.raises(ValueError):
        model.apply_update({"head_b": np.zeros_like(model.params["head_b"])})


def test_encode_decode_loss_gradcheck_spot():
    # spot-check three tensors through the full path; the acceptance
    # suite covers every tensor including fusion
    rng = np.random.default_rng(5)
    cfg = small_cfg(feature_dim=4, attention_neighbors=3)
    positions, feats = random_inputs(rng, 14)
    labels = rng.integers(0, cfg.num_classes, size=14)
    model = ScaleModel(init_params(cfg, seed=7))
    stages = plan_stages(positions, 0.5, cfg)
    interp = plan_interp(stages[-1].positions, positions, cfg)

    def loss():
        fm, _ = encode(model, positions, feats, stages, need_cache=False)
        pred, _ = decode(model, fm, positions, cfg, interp, need_cache=False)
        return softmax_cross_entropy(pred.logits, labels)[0]

    fm, ec = encode(model, positions, feats, stages)
    pred, dc = decode(model, fm, positions, cfg, interp)
    _, dlogits = softmax_cross_entropy(pred.logits, labels)
    dfused, dgrads = decode_bwd(dlogits, dc, model)
    egrads = encode_bwd(dfused, ec, model)
    grads = {**egrads, **dgrads}
    h = 1e-6
    for name in ("head_w", "embed_w1", "att0_wv"):
        p = model.params[name]
        num = np.zeros_like(p)
        flat, nflat = p.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = loss()
            flat[i] = keep - h
            fm_ = loss()
            flat[i] = keep
            nflat[i] = (fp - fm_) / (2 * h)
        err = np.linalg.norm(grads[name] - num) / max(
            np.linalg.norm(num) + np.linalg.norm(grads[name]), 1e-10)
        assert err < 1e-6, f"{name}: {err}"


def test_plan_stages_rejects_empty_partition():
    rng = np.random.default_rng(8)
    cfg = small_cfg(encoder_stages=3)
    positions, feats = random_inputs(rng, 40)
    model = ScaleModel(init_params(cfg, seed=9))
    counter = EvalCounter()
    stages = plan_stages(positions, 0.3, cfg, counter=counter)
    assert len(stages) == 3
    assert counter.count > 0
    with pytest.raises(ValueError):
        plan_stages(np.zeros((0, 3)), 0.3, cfg)
    # geometry planned for other points is refused, not silently misused
    with pytest.raises(ValueError):
        encode(model, positions[:30], feats[:30], stages)
    fm, _ = encode(model, positions, feats, stages)
    interp = plan_interp(fm.positions, positions, cfg)
    with pytest.raises(ValueError):
        decode(model, fm, positions[:30], cfg, interp)
