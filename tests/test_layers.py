import numpy as np
import pytest

from scaleseg import layers
from scaleseg.layers import (
    attention_bwd,
    attention_fwd,
    grid_pool_bwd,
    grid_pool_fwd,
    grid_pool_groups,
    interp_apply_bwd,
    interp_apply_fwd,
    interp_weights,
    linear_bwd,
    linear_fwd,
    mlp2_bwd,
    mlp2_fwd,
    neighbor_softmax_bwd,
    neighbor_softmax_fwd,
    scatter_rows,
    softmax_cross_entropy,
)


def num_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f() with respect to x (mutated in place)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_linear_gradcheck():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(5, 3))  # random projection -> scalar loss

    def loss():
        return float((linear_fwd(x, w, b)[0] * r).sum())

    y, cache = linear_fwd(x, w, b)
    dx, dw, db = linear_bwd(r, cache)
    assert rel_err(dx, num_grad(loss, x)) < 1e-8
    assert rel_err(dw, num_grad(loss, w)) < 1e-8
    assert rel_err(db, num_grad(loss, b)) < 1e-8


def test_mlp2_gradcheck():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    params = [rng.normal(size=(3, 5)), rng.normal(size=5),
              rng.normal(size=(5, 2)), rng.normal(size=2)]
    r = rng.normal(size=(6, 2))

    def loss():
        return float((mlp2_fwd(x, *params)[0] * r).sum())

    y, cache = mlp2_fwd(x, *params)
    dx, grads = mlp2_bwd(r, cache)
    assert rel_err(dx, num_grad(loss, x)) < 1e-7
    for p, g in zip(params, grads):
        assert rel_err(g, num_grad(loss, p)) < 1e-7


def test_neighbor_softmax_properties_and_gradcheck():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 5, 3))
    w, _ = neighbor_softmax_fwd(logits)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    shifted, _ = neighbor_softmax_fwd(logits + 7.5)  # shift along all channels
    assert np.allclose(w, shifted, atol=1e-12)

    r = rng.normal(size=w.shape)

    def loss():
        return float((neighbor_softmax_fwd(logits)[0] * r).sum())

    g = neighbor_softmax_bwd(r, w)
    assert rel_err(g, num_grad(loss, logits)) < 1e-7


def test_scatter_rows_is_gather_adjoint():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(7, 4))
    idx = rng.integers(0, 7, size=(5, 3))
    g = rng.normal(size=(5, 3, 4))
    lhs = (scatter_rows(g, idx, 7) * src).sum()
    rhs = (g * src[idx]).sum()
    assert abs(lhs - rhs) < 1e-12


def test_scatter_rows_matches_add_at_bitwise():
    rng = np.random.default_rng(13)
    n, k, f = 40, 8, 5
    idx = rng.integers(0, n, size=(n, k))
    g = rng.normal(size=(n, k, f)) * 10.0 ** rng.integers(-8, 8, size=(n, k, 1))
    ref = np.zeros((n, f))
    np.add.at(ref, idx.ravel(), g.reshape(-1, f))
    assert scatter_rows(g, idx, n).tobytes() == ref.tobytes()


def test_attention_gradcheck():
    rng = np.random.default_rng(4)
    n, k, f = 6, 3, 4
    positions = rng.normal(size=(n, 3))
    feats = rng.normal(size=(n, f))
    idx = np.stack([rng.permutation(n)[:k] for _ in range(n)])
    p = {
        "a_wq": rng.normal(size=(f, f)), "a_wk": rng.normal(size=(f, f)),
        "a_wv": rng.normal(size=(f, f)),
        "a_pw1": rng.normal(size=(3, f)), "a_pb1": rng.normal(size=f),
        "a_pw2": rng.normal(size=(f, f)), "a_pb2": rng.normal(size=f),
        "a_aw1": rng.normal(size=(f, f)), "a_ab1": rng.normal(size=f),
        "a_aw2": rng.normal(size=(f, f)), "a_ab2": rng.normal(size=f),
    }
    r = rng.normal(size=(n, f))

    def loss():
        return float((attention_fwd(positions, feats, idx, p, "a")[0] * r).sum())

    out, cache = attention_fwd(positions, feats, idx, p, "a")
    dfeats, grads = attention_bwd(r, cache, p, "a")
    assert rel_err(dfeats, num_grad(loss, feats)) < 1e-6
    for name in p:
        if name == "a_ab2":
            continue
        assert rel_err(grads[name], num_grad(loss, p[name])) < 1e-6, name
    # ab2 shifts every neighbor's logits equally; the softmax over
    # neighbors cancels it, so its gradient is exactly zero.
    assert np.allclose(grads["a_ab2"], 0.0, atol=1e-12)
    assert np.allclose(num_grad(loss, p["a_ab2"]), 0.0, atol=1e-8)


def test_attention_blocked_forward_identical():
    rng = np.random.default_rng(5)
    n, k, f = 50, 4, 3
    positions = rng.normal(size=(n, 3))
    feats = rng.normal(size=(n, f))
    idx = rng.integers(0, n, size=(n, k))
    p = {f"b_{s}": rng.normal(size=(3, f)) if s == "pw1" else
         rng.normal(size=f) if s.endswith("b1") or s.endswith("b2") else
         rng.normal(size=(f, f))
         for s in ("wq", "wk", "wv", "pw1", "pb1", "pw2", "pb2",
                   "aw1", "ab1", "aw2", "ab2")}
    cached, full_cache = attention_fwd(positions, feats, idx, p, "b",
                                       need_cache=True)
    old = layers._BLOCK
    layers._BLOCK = 7  # force many partial blocks
    try:
        blocked, cache = attention_fwd(positions, feats, idx, p, "b",
                                       need_cache=False)
        blocked_cached, block_cache = attention_fwd(positions, feats, idx, p, "b",
                                                    need_cache=True)
    finally:
        layers._BLOCK = old
    assert cache is None
    assert np.array_equal(cached, blocked)
    assert np.array_equal(cached, blocked_cached)
    g = rng.normal(size=cached.shape)
    d_full, grads_full = attention_bwd(g, full_cache, p, "b")
    d_block, grads_block = attention_bwd(g, block_cache, p, "b")
    assert np.array_equal(d_full, d_block)
    for name in grads_full:
        assert np.array_equal(grads_full[name], grads_block[name])


def test_grid_pool_means_and_order():
    positions = np.array([
        [0.1, 0.1, 0.1], [0.2, 0.2, 0.2],   # voxel (0,0,0)
        [1.1, 0.1, 0.1],                     # voxel (1,0,0)
    ])
    feats = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    groups = grid_pool_groups(positions, 1.0)
    pp = groups[0]
    pf, _ = grid_pool_fwd(feats, groups)
    assert pp.shape == (2, 3) and pf.shape == (2, 2)
    assert np.allclose(pp[0], [0.15, 0.15, 0.15])
    assert np.allclose(pf[0], [2.0, 1.0])
    assert np.allclose(pf[1], [5.0, 4.0])
    # input order must not matter
    perm = [2, 0, 1]
    groups2 = grid_pool_groups(positions[perm], 1.0)
    pp2 = groups2[0]
    pf2, _ = grid_pool_fwd(feats[perm], groups2)
    assert np.array_equal(pp, pp2)
    assert np.array_equal(pf, pf2)


def test_grid_pool_gradcheck():
    rng = np.random.default_rng(6)
    positions = rng.uniform(0, 2, size=(12, 3))
    feats = rng.normal(size=(12, 4))
    groups = grid_pool_groups(positions, 0.9)
    pf, cache = grid_pool_fwd(feats, groups)
    r = rng.normal(size=pf.shape)

    def loss():
        return float((grid_pool_fwd(feats, groups)[0] * r).sum())

    dfeats = grid_pool_bwd(r, cache)
    assert rel_err(dfeats, num_grad(loss, feats)) < 1e-8


def test_interp_weights_normalized_and_exact_hit():
    d = np.array([[0.0, 1.0, 2.0], [0.5, 0.5, 1.0]])
    w = interp_weights(d)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert w[0, 0] > 0.999999  # zero distance dominates
    assert w[1, 0] == w[1, 1]


def test_interp_apply_gradcheck():
    rng = np.random.default_rng(7)
    src = rng.normal(size=(9, 3))
    idx = rng.integers(0, 9, size=(6, 3))
    w = interp_weights(rng.uniform(0.1, 2.0, size=(6, 3)))
    r = rng.normal(size=(6, 3))

    def loss():
        return float((interp_apply_fwd(src, idx, w)[0] * r).sum())

    out, cache = interp_apply_fwd(src, idx, w)
    dsrc = interp_apply_bwd(r, cache)
    assert rel_err(dsrc, num_grad(loss, src)) < 1e-8


def test_softmax_cross_entropy_value_and_grad():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(10, 4))
    labels = rng.integers(0, 4, size=10)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    # direct reference value
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    ref = -np.log(p[np.arange(10), labels]).mean()
    assert abs(loss - ref) < 1e-12

    def f():
        return softmax_cross_entropy(logits, labels)[0]

    assert rel_err(dlogits, num_grad(f, logits)) < 1e-7
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
