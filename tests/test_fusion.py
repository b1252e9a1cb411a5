import numpy as np
import pytest

from scaleseg.backbone import FeatureMatrix
from scaleseg.fusion import FeatureStore, fuse, fuse_bwd, fusion_neighbors
from scaleseg.knn import EvalCounter


def make_store(rng, feature_dim, counts, start_scale=1):
    store = FeatureStore(feature_dim)
    scale = start_scale
    for n in counts:
        fm = FeatureMatrix(rng.uniform(0, 4, size=(n, 3)),
                           rng.normal(size=(n, feature_dim)), scale)
        store.add_scale(fm)
        scale += 1
    return store


def fuse_params(rng, f):
    return {
        "fuse_cw": rng.normal(size=(f, f)),
        "fuse_cb": rng.normal(size=f),
        "fuse_fw": rng.normal(size=(2 * f, f)),
        "fuse_fb": rng.normal(size=f),
    }


def test_store_orders_scales_and_checks_width():
    rng = np.random.default_rng(0)
    store = make_store(rng, 3, [4, 6])
    assert store.size == 10
    pos, feat = store.merged()
    assert pos.shape == (10, 3) and feat.shape == (10, 3)
    with pytest.raises(ValueError):
        store.add_scale(FeatureMatrix(np.zeros((2, 3)), np.zeros((2, 3)), 2))
    with pytest.raises(ValueError):
        store.add_scale(FeatureMatrix(np.zeros((2, 3)), np.zeros((2, 5)), 3))
    with pytest.raises(ValueError):
        FeatureStore(3).merged()


def test_fuse_shape_and_position_preservation():
    rng = np.random.default_rng(1)
    f = 5
    store = make_store(rng, f, [8, 12])
    current = FeatureMatrix(rng.uniform(0, 4, size=(9, 3)),
                            rng.normal(size=(9, f)), 3)
    out, cache = fuse(current, store, fuse_params(rng, f), k_fuse=4)
    assert out.scale_id == 3
    assert out.features.shape == (9, f)
    assert out.positions is current.positions  # pass-through, not a copy


def test_fuse_k_clamped_to_store_size():
    rng = np.random.default_rng(2)
    f = 3
    store = make_store(rng, f, [2])
    current = FeatureMatrix(rng.uniform(0, 4, size=(5, 3)),
                            rng.normal(size=(5, f)), 2)
    out, _ = fuse(current, store, fuse_params(rng, f), k_fuse=16)
    assert out.features.shape == (5, f)


def test_fuse_counts_distance_evals():
    rng = np.random.default_rng(3)
    f = 3
    store = make_store(rng, f, [7, 5])
    current = FeatureMatrix(rng.uniform(0, 4, size=(6, 3)),
                            rng.normal(size=(6, f)), 3)
    counter = EvalCounter()
    fuse(current, store, fuse_params(rng, f), k_fuse=3, counter=counter)
    assert counter.count == 6 * 12


def test_fuse_store_row_shuffle_invariance():
    # shuffling rows inside one stored scale must not change the output:
    # the same point set wins the KNN and max-pool commutes
    rng = np.random.default_rng(4)
    f = 4
    pos = rng.uniform(0, 4, size=(20, 3))
    feat = rng.normal(size=(20, f))
    perm = rng.permutation(20)
    store_a = FeatureStore(f)
    store_a.add_scale(FeatureMatrix(pos, feat, 1))
    store_b = FeatureStore(f)
    store_b.add_scale(FeatureMatrix(pos[perm], feat[perm], 1))
    current = FeatureMatrix(rng.uniform(0, 4, size=(11, 3)),
                            rng.normal(size=(11, f)), 2)
    params = fuse_params(rng, f)
    out_a, _ = fuse(current, store_a, params, k_fuse=5)
    out_b, _ = fuse(current, store_b, params, k_fuse=5)
    assert np.array_equal(out_a.features, out_b.features)


def test_fuse_hand_example_k1():
    # one query with features [1, 2]; nearest stored point has [3, 5].
    # identity conv + averaging FC -> [(1+3)/2, (2+5)/2] = [2, 3.5]
    current = FeatureMatrix(np.zeros((1, 3)), np.array([[1.0, 2.0]]), 2)
    store = FeatureStore(2)
    store.add_scale(FeatureMatrix(
        np.array([[0.1, 0.0, 0.0], [5.0, 5.0, 5.0]]),
        np.array([[3.0, 5.0], [100.0, 200.0]]), 1))
    params = {
        "fuse_cw": np.eye(2), "fuse_cb": np.zeros(2),
        "fuse_fw": np.array([[0.5, 0.0], [0.0, 0.5],
                             [0.5, 0.0], [0.0, 0.5]]),
        "fuse_fb": np.zeros(2),
    }
    out, _ = fuse(current, store, params, k_fuse=1)
    assert np.allclose(out.features, [[2.0, 3.5]], atol=1e-12)


def test_fuse_identity_reduction():
    # fw projecting onto the own-feature half makes fusion a no-op, so
    # the block can always represent the fusion-free model
    rng = np.random.default_rng(5)
    f = 4
    store = make_store(rng, f, [10])
    current = FeatureMatrix(rng.uniform(0, 4, size=(7, 3)),
                            rng.normal(size=(7, f)), 2)
    params = fuse_params(rng, f)
    params["fuse_fw"] = np.concatenate([np.eye(f), np.zeros((f, f))], axis=0)
    params["fuse_fb"] = np.zeros(f)
    out, _ = fuse(current, store, params, k_fuse=3)
    assert np.array_equal(out.features, current.features)


def test_fusion_neighbors_reused_by_fuse():
    rng = np.random.default_rng(9)
    f = 4
    store = make_store(rng, f, [15, 9])
    current = FeatureMatrix(rng.uniform(0, 4, size=(12, 3)),
                            rng.normal(size=(12, f)), 3)
    params = fuse_params(rng, f)
    counter = EvalCounter()
    ids = fusion_neighbors(store.merged()[0], current.positions, 30,
                           counter=counter)
    assert ids.shape == (12, 24)  # k_fuse clamped to the store size
    assert counter.count == 12 * 24
    direct, _ = fuse(current, store, params, k_fuse=30)
    reused, _ = fuse(current, store, params, k_fuse=30, counter=counter,
                     neighbors=ids)
    assert counter.count == 12 * 24  # no second neighbor search
    assert np.array_equal(direct.features, reused.features)


def test_fuse_bwd_gradcheck_and_no_store_grad():
    rng = np.random.default_rng(7)
    f = 3
    store = make_store(rng, f, [6, 4])
    current = FeatureMatrix(rng.uniform(0, 4, size=(5, 3)),
                            rng.normal(size=(5, f)), 3)
    params = fuse_params(rng, f)
    r = rng.normal(size=(5, f))

    def loss():
        return float((fuse(current, store, params, k_fuse=3)[0].features * r).sum())

    out, cache = fuse(current, store, params, k_fuse=3)
    dfeats, grads = fuse_bwd(r, cache, params)
    assert sorted(grads) == ["fuse_cb", "fuse_cw", "fuse_fb", "fuse_fw"]

    h = 1e-6

    def numeric(x):
        num = np.zeros_like(x)
        flat, nflat = x.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = loss()
            flat[i] = keep - h
            fm = loss()
            flat[i] = keep
            nflat[i] = (fp - fm) / (2 * h)
        return num

    ncur = numeric(current.features)
    assert np.linalg.norm(dfeats - ncur) / max(np.linalg.norm(ncur), 1e-10) < 1e-6
    for name in grads:
        n = numeric(params[name])
        err = np.linalg.norm(grads[name] - n) / max(
            np.linalg.norm(n) + np.linalg.norm(grads[name]), 1e-10)
        assert err < 1e-6, name


def test_fuse_rejects_bad_inputs():
    rng = np.random.default_rng(8)
    store = make_store(rng, 3, [4])
    current = FeatureMatrix(np.zeros((2, 3)), np.zeros((2, 3)), 2)
    with pytest.raises(ValueError):
        fuse(current, store, fuse_params(rng, 3), k_fuse=0)
    with pytest.raises(ValueError):
        fuse(current, FeatureStore(3), fuse_params(rng, 3), k_fuse=1)
    wide = FeatureMatrix(np.zeros((2, 3)), np.zeros((2, 5)), 2)
    with pytest.raises(ValueError):
        fuse(wide, store, fuse_params(rng, 3), k_fuse=1)
