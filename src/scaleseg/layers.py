"""Differentiable building blocks with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes
the upstream gradient plus the cache and returns input/parameter
gradients. Caches are plain tuples. Positions are never differentiated:
they depend only on the input cloud, not on any parameter, so relative
position encodings and interpolation weights are constants of the graph.

Array shape comments use N = points, k = neighbors, F = feature width.
"""

import numpy as np

from .cloud import _voxel_keys_raw, pack_voxel_keys

# Query block size for attention/fusion forwards; without a cache it
# keeps the transient (B, k, F) tensors small on big clouds. Blocking
# changes no per-row arithmetic.
_BLOCK = 8192


# ---------------------------------------------------------------------------
# dense primitives

def linear_fwd(x, w, b):
    return x @ w + b, (x, w)


def linear_bwd(g, cache):
    x, w = cache
    xm = x.reshape(-1, x.shape[-1])
    gm = g.reshape(-1, g.shape[-1])
    return g @ w.T, xm.T @ gm, gm.sum(axis=0)


def relu_fwd(x):
    return np.maximum(x, 0.0), x > 0.0


def relu_bwd(g, mask):
    return g * mask


def mlp2_fwd(x, w1, b1, w2, b2):
    """linear -> relu -> linear"""
    h, c1 = linear_fwd(x, w1, b1)
    a, m = relu_fwd(h)
    y, c2 = linear_fwd(a, w2, b2)
    return y, (c1, m, c2)


def mlp2_bwd(g, cache):
    c1, m, c2 = cache
    da, dw2, db2 = linear_bwd(g, c2)
    dh = relu_bwd(da, m)
    dx, dw1, db1 = linear_bwd(dh, c1)
    return dx, (dw1, db1, dw2, db2)


def neighbor_softmax_fwd(logits):
    """Softmax over the neighbor axis of (N, k, F) per-channel logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    w = e / e.sum(axis=1, keepdims=True)
    return w, w


def neighbor_softmax_bwd(g, w):
    return w * (g - (w * g).sum(axis=1, keepdims=True))


def scatter_rows(grad_neighbors, idx, n_rows):
    """Accumulate (N, k, F) neighbor gradients back onto n_rows source rows.

    Each column is one bincount, which adds the rows in index order just
    like np.add.at, so the sums are bit-identical to it, only faster.
    """
    flat = idx.ravel()
    g = grad_neighbors.reshape(-1, grad_neighbors.shape[-1])
    out = np.empty((n_rows, g.shape[1]), dtype=np.float64)
    for c in range(g.shape[1]):
        out[:, c] = np.bincount(flat, weights=g[:, c], minlength=n_rows)
    return out


def _join_blocks(blocks):
    """Row-concatenate the caches of consecutive query blocks.

    Caches are nested tuples; arrays that every block shares (parameter
    matrices) pass through, per-row arrays are stacked. One block is
    returned as it is, without a copy.
    """
    first = blocks[0]
    if isinstance(first, tuple):
        return tuple(_join_blocks(list(parts)) for parts in zip(*blocks))
    if all(b is first for b in blocks):
        return first
    return np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# vector attention over KNN neighborhoods

def _attn_rows(positions, idx, q, kmat, v, sl, p, prefix):
    """Attention math for query rows sl; returns per-block tensors."""
    nb = idx[sl]
    kn = kmat[nb]  # (B, k, F)
    vn = v[nb]
    rel = positions[sl, None, :] - positions[nb]  # (B, k, 3)
    delta, pcache = mlp2_fwd(rel, p[prefix + "_pw1"], p[prefix + "_pb1"],
                             p[prefix + "_pw2"], p[prefix + "_pb2"])
    e = q[sl, None, :] - kn + delta
    logits, acache = mlp2_fwd(e, p[prefix + "_aw1"], p[prefix + "_ab1"],
                              p[prefix + "_aw2"], p[prefix + "_ab2"])
    w, _ = neighbor_softmax_fwd(logits)
    out = (w * vn).sum(axis=1)
    return out, (w, vn, pcache, acache)


def attention_fwd(positions, feats, idx, p, prefix, need_cache=True):
    """One vector-attention block.

    idx: (N, k) neighbor ids into the same point set (self included).
    Per query j and neighbor n: delta = mlp_p(pos_j - pos_n),
    logits = mlp_a(q_j - k_n + delta), w = softmax over n (per channel),
    out_j = sum_n w ⊙ v_n. The query/key/value maps carry no bias.
    """
    n = feats.shape[0]
    q = feats @ p[prefix + "_wq"]  # (N, F)
    kmat = feats @ p[prefix + "_wk"]
    v = feats @ p[prefix + "_wv"]
    out = np.empty((n, q.shape[1]), dtype=np.float64)
    blocks = []
    for s in range(0, n, _BLOCK):
        sl = slice(s, min(s + _BLOCK, n))
        out[sl], block_cache = _attn_rows(positions, idx, q, kmat, v, sl, p, prefix)
        if need_cache:
            blocks.append(block_cache)
    if not need_cache:
        return out, None
    return out, (feats, idx) + _join_blocks(blocks)


def attention_bwd(g, cache, p, prefix):
    """Backward of attention_fwd; returns (dfeats, grads dict)."""
    feats, idx, w, vn, pcache, acache = cache
    n = feats.shape[0]
    dw = g[:, None, :] * vn  # (N, k, F)
    dvn = g[:, None, :] * w
    dlogits = neighbor_softmax_bwd(dw, w)
    de, (daw1, dab1, daw2, dab2) = mlp2_bwd(dlogits, acache)
    _, (dpw1, dpb1, dpw2, dpb2) = mlp2_bwd(de, pcache)  # ddelta = de
    dq = de.sum(axis=1)  # (N, F)
    dkmat = scatter_rows(-de, idx, n)
    dv = scatter_rows(dvn, idx, n)
    wq, wk, wv = p[prefix + "_wq"], p[prefix + "_wk"], p[prefix + "_wv"]
    grads = {
        prefix + "_wq": feats.T @ dq,
        prefix + "_wk": feats.T @ dkmat,
        prefix + "_wv": feats.T @ dv,
        prefix + "_pw1": dpw1, prefix + "_pb1": dpb1,
        prefix + "_pw2": dpw2, prefix + "_pb2": dpb2,
        prefix + "_aw1": daw1, prefix + "_ab1": dab1,
        prefix + "_aw2": daw2, prefix + "_ab2": dab2,
    }
    dfeats = dq @ wq.T + dkmat @ wk.T + dv @ wv.T
    return dfeats, grads


# ---------------------------------------------------------------------------
# voxel-mean pooling

def grid_pool_groups(positions, voxel_size):
    """Parameter-free half of grid pooling: (pooled_pos, order, starts, counts).

    Output rows are ordered by packed voxel key, and group members are
    taken in coordinate-sorted order, so the result is independent of
    input point order.
    """
    packed = pack_voxel_keys(_voxel_keys_raw(positions, voxel_size))
    order = np.lexsort((positions[:, 2], positions[:, 1], positions[:, 0], packed))
    sk = packed[order]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    counts = np.diff(np.r_[starts, sk.size]).astype(np.float64)
    pooled_pos = np.add.reduceat(positions[order], starts, axis=0) / counts[:, None]
    return pooled_pos, order, starts, counts


def grid_pool_fwd(feats, groups):
    """Mean features per occupied voxel; groups from grid_pool_groups."""
    _, order, starts, counts = groups
    pooled_feats = np.add.reduceat(feats[order], starts, axis=0) / counts[:, None]
    return pooled_feats, (order, starts, counts)


def grid_pool_bwd(g, cache):
    order, starts, counts = cache
    n = order.size
    group_of_sorted = np.zeros(n, dtype=np.int64)
    group_of_sorted[starts] = 1
    group_of_sorted = np.cumsum(group_of_sorted) - 1
    scaled = g / counts[:, None]
    dfeats = np.empty((n, g.shape[1]), dtype=np.float64)
    dfeats[order] = scaled[group_of_sorted]
    return dfeats


# ---------------------------------------------------------------------------
# inverse-distance interpolation

INTERP_EPS = 1e-8


def interp_weights(dists):
    """Normalized 1/(d+eps) weights over the neighbor axis of (N, m) dists."""
    w = 1.0 / (dists + INTERP_EPS)
    return w / w.sum(axis=1, keepdims=True)


def interp_apply_fwd(src_feats, idx, w):
    """out_j = sum_m w[j, m] * src_feats[idx[j, m]]; weights are constants."""
    out = (w[:, :, None] * src_feats[idx]).sum(axis=1)
    return out, (idx, w, src_feats.shape[0])


def interp_apply_bwd(g, cache):
    idx, w, n_src = cache
    return scatter_rows(w[:, :, None] * g[:, None, :], idx, n_src)


# ---------------------------------------------------------------------------
# loss

def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy; returns (loss, dlogits)."""
    n = logits.shape[0]
    if n == 0:
        raise ValueError("cross-entropy over zero points")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(sez)
    loss = -logp[np.arange(n), labels].mean()
    dlogits = ez / sez
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n
