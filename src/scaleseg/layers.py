"""Differentiable building blocks with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes
the upstream gradient plus the cache and returns input/parameter
gradients. Caches are plain tuples. Positions are never differentiated:
they depend only on the input cloud, not on any parameter, so relative
position encodings and interpolation weights are constants of the graph.

Array shape comments use N = points, k = neighbors, F = feature width.

In-place rule: a function may overwrite an array it allocated itself
(`+=`, `*=`, `out=`) instead of allocating the next (N, k, F) temporary,
but never an argument or a cache it receives: callers pass the same
inputs again (gradient checks, every training epoch) and FeatureStore
arrays are read-only. The exception is a buffer the caller allocated
for the purpose and passes down (`out=`, `hidden=`, `_attn_rows`' block
buffers): the function writes into it. Each in-place step performs the
same floating-point operation in the same order as the expression it
replaces, so results are bit-identical to the allocating form.
"""

import numpy as np

from .cloud import voxel_groups

# Rows per attention block, with or without a cache. Each forward walks
# its rows in blocks of this size through per-neighbour (B, k, F) buffers
# it allocates once per call, so a block's temporaries stay in a core's
# cache instead of page-faulting fresh multi-megabyte arrays. Requests
# alternated between sizes in one process (2 vCPUs, 2 MB L2 per core,
# F = 16, k = 8) read 256 rows as fast as 512 on stream-30k and train-8k
# and 10% faster on tiles, where 1,024 was slower still; 128 was slower
# on stream-30k. Blocking changes no per-row arithmetic.
_BLOCK = 256


# ---------------------------------------------------------------------------
# dense primitives

def linear_fwd(x, w, b, out=None):
    """x @ w + b, written into out when given."""
    y = np.matmul(x, w, out=out)
    y += b
    return y, (x, w)


def linear_bwd(g, cache, need_dx=True):
    """(dx, dw, db); dx is None when need_dx is false."""
    x, w = cache
    xm = x.reshape(-1, x.shape[-1])
    gm = g.reshape(-1, g.shape[-1])
    # one (N·k, F) product, not a stack of (k, F) ones: twice as fast on
    # an 8192x8x16 block, with equal bits
    dx = (gm @ w.T).reshape(*g.shape[:-1], w.shape[0]) if need_dx else None
    return dx, xm.T @ gm, gm.sum(axis=0)


def mlp2_fwd(x, w1, b1, w2, b2, hidden=None, out=None):
    """linear -> relu -> linear; the hidden layer and the output are
    written into hidden and out when given."""
    h, c1 = linear_fwd(x, w1, b1, hidden)
    np.maximum(h, 0.0, out=h)
    y, c2 = linear_fwd(h, w2, b2, out)
    return y, (c1, c2)


def mlp2_bwd(g, cache, need_dx=True):
    """(dx, (dw1, db1, dw2, db2)); dx is None when need_dx is false."""
    c1, c2 = cache
    dh, dw2, db2 = linear_bwd(g, c2)
    # relu(h) > 0 exactly where h > 0 (NaN and -0.0 included), so the
    # cached hidden output gives the relu mask
    dh *= c2[0] > 0.0
    dx, dw1, db1 = linear_bwd(dh, c1, need_dx)
    return dx, (dw1, db1, dw2, db2)


def neighbor_softmax_fwd(logits, out=None):
    """Softmax over the neighbor axis of (N, k, F) per-channel logits,
    written into out when given (out may be logits itself)."""
    w = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w, w


def neighbor_softmax_bwd(g, w):
    """w * (g - sum_n w * g), in one (N, k, F) array."""
    t = w * g
    np.subtract(g, t.sum(axis=1, keepdims=True), out=t)
    t *= w
    return t


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


# ---------------------------------------------------------------------------
# vector attention over KNN neighborhoods

def _attn_rows(positions, rows, nb, q, e, vn, bufs, p, prefix, out):
    """Attention math for the query rows `rows`, whose neighbour ids are
    nb and whose gathered k_n and v_n are e and vn (B, k, F).

    Writes every step into the block buffers bufs = (rel, h_p, h_a, w,
    spare), shaped like the block: rel takes the relative positions,
    h_p and h_a the two MLPs' hidden layers, w the logits and then the
    softmax weights, spare delta and then w ⊙ v_n. e becomes
    q_j - k_n + delta in place, and out (B, F) takes the rows' outputs.
    """
    rel, h_p, h_a, w, spare = bufs
    np.subtract(positions[rows, None, :], np.take(positions, nb, axis=0),
                out=rel)  # (B, k, 3)
    delta, _ = mlp2_fwd(rel, p[prefix + "_pw1"], p[prefix + "_pb1"],
                        p[prefix + "_pw2"], p[prefix + "_pb2"], h_p, spare)
    np.subtract(q[rows, None, :], e, out=e)  # e = q_j - k_n + delta
    e += delta
    logits, _ = mlp2_fwd(e, p[prefix + "_aw1"], p[prefix + "_ab1"],
                         p[prefix + "_aw2"], p[prefix + "_ab2"], h_a, w)
    neighbor_softmax_fwd(logits, out=w)
    np.multiply(w, vn, out=spare)  # the spent delta takes w ⊙ v_n
    np.sum(spare, axis=1, out=out)


def attention_fwd(positions, feats, idx, p, prefix, need_cache=True):
    """One vector-attention block.

    idx: (N, k) neighbor ids into the same point set (self included).
    Per query j and neighbor n: delta = mlp_p(pos_j - pos_n),
    logits = mlp_a(q_j - k_n + delta), w = softmax over n (per channel),
    out_j = sum_n w ⊙ v_n. The query/key/value maps carry no bias.

    Rows run in blocks of _BLOCK. Without a cache every block reuses one
    set of block buffers and gathers its own k_n and v_n; with one, the
    block buffers are row slices of the full-size cache arrays, and k_n
    and v_n are gathered for all rows at once.
    """
    n, k = idx.shape
    q = feats @ p[prefix + "_wq"]  # (N, F)
    kmat = feats @ p[prefix + "_wk"]
    v = feats @ p[prefix + "_wv"]
    f = q.shape[1]
    out = np.empty((n, f), dtype=np.float64)
    if need_cache:
        e_all = np.take(kmat, idx, axis=0)  # (N, k, F)
        vn_all = np.take(v, idx, axis=0)
    # rel, h_p, h_a and w hold every row when cached, one block's otherwise
    held_rows = n if need_cache else min(_BLOCK, n)
    held = [np.empty((held_rows, k, c), dtype=np.float64) for c in (3, f, f, f)]
    spare = np.empty((min(_BLOCK, n), k, f), dtype=np.float64)
    for s in range(0, n, _BLOCK):
        sl = slice(s, min(s + _BLOCK, n))
        nb = idx[sl]
        if need_cache:
            e, vn, held_sl = e_all[sl], vn_all[sl], sl
        else:
            e, vn = np.take(kmat, nb, axis=0), np.take(v, nb, axis=0)
            held_sl = slice(0, len(nb))
        bufs = [a[held_sl] for a in held] + [spare[:len(nb)]]
        _attn_rows(positions, sl, nb, q, e, vn, bufs, p, prefix, out[sl])
    if not need_cache:
        return out, None
    rel, h_p, h_a, w = held
    pcache = ((rel, p[prefix + "_pw1"]), (h_p, p[prefix + "_pw2"]))
    acache = ((e_all, p[prefix + "_aw1"]), (h_a, p[prefix + "_aw2"]))
    return out, (feats, idx, w, vn_all, pcache, acache)


def attention_bwd(g, cache, p, prefix):
    """Backward of attention_fwd; returns (dfeats, grads dict)."""
    feats, idx, w, vn, pcache, acache = cache
    n = feats.shape[0]
    dlogits = neighbor_softmax_bwd(g[:, None, :] * vn, w)  # (N, k, F)
    dv = scatter_rows(g[:, None, :] * w, idx, n)
    de, (daw1, dab1, daw2, dab2) = mlp2_bwd(dlogits, acache)
    # ddelta = de; the relative positions are constants, so no dx
    _, (dpw1, dpb1, dpw2, dpb2) = mlp2_bwd(de, pcache, need_dx=False)
    dq = de.sum(axis=1)  # (N, F)
    # dkmat = scatter_rows(-de): bincount's sums are sign-symmetric, and
    # 0.0 - s (not -s) keeps an exactly-zero row at +0.0 as it was
    dkmat = scatter_rows(de, idx, n)
    np.subtract(0.0, dkmat, out=dkmat)
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
    dfeats = dq @ wq.T
    dfeats += dkmat @ wk.T
    dfeats += dv @ wv.T
    return dfeats, grads


# ---------------------------------------------------------------------------
# voxel-mean pooling

def grid_pool_groups(positions, voxel_size):
    """Parameter-free half of grid pooling: (pooled_pos, order, starts, counts).

    Output rows and group members follow cloud.voxel_groups, so the
    result is independent of input point order.
    """
    order, starts, _ = voxel_groups(positions, voxel_size)
    counts = np.diff(np.r_[starts, order.size]).astype(np.float64)
    pooled_pos = np.add.reduceat(positions[order], starts, axis=0) / counts[:, None]
    return pooled_pos, order, starts, counts


def grid_pool_fwd(feats, groups):
    """Mean features per occupied voxel; groups from grid_pool_groups."""
    _, order, starts, counts = groups
    pooled_feats = np.add.reduceat(feats[order], starts, axis=0) / counts[:, None]
    return pooled_feats, (order, starts, counts)


def grid_pool_bwd(g, cache):
    order, starts, counts = cache
    dfeats = np.empty((order.size, g.shape[1]), dtype=np.float64)
    dfeats[order] = np.repeat(g / counts[:, None],
                              np.diff(np.r_[starts, order.size]), axis=0)
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
    gathered = src_feats[idx]  # (N, m, F)
    gathered *= w[:, :, None]
    return gathered.sum(axis=1), (idx, w, src_feats.shape[0])


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
