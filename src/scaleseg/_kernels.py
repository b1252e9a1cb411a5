"""Brute-force exact KNN kernel in pure numpy.

Squared distances are accumulated as (dx*dx + dy*dy) + dz*dz and
neighbor ties are broken by lower point id, so results are
deterministic and equal those of a plain per-query brute-force scan.

Queries run in blocks of _CHUNK_ROWS rows against contiguous copies of
the coordinate columns. Each block's distances are written into two
(_CHUNK_ROWS, M) buffers allocated once per call, so the working set
stays small enough to live in cache instead of streaming fresh
temporaries through memory on every block.
"""

import numpy as np


def backend() -> str:
    """Name of the KNN kernel, as run records report it."""
    return "numpy"


# Query rows per distance block.
_CHUNK_ROWS = 32


def knn_topk(points, queries, k):
    """Exact k nearest neighbors of each query among `points`.

    points, queries: contiguous float64 arrays of shape (M, 3) / (Q, 3),
    M >= 1.
    Returns (ids, d2), each (Q, min(k, M)), rows ascending by
    (squared distance, point id). Brute force, vectorized over query
    chunks: every call evaluates Q*M point distances.
    """
    m = points.shape[0]
    k = min(int(k), m)
    nq = queries.shape[0]
    out_idx = np.empty((nq, k), dtype=np.int64)
    out_d2 = np.empty((nq, k), dtype=np.float64)
    pcols = [np.ascontiguousarray(points[:, j]) for j in range(3)]
    qcols = [np.ascontiguousarray(queries[:, j : j + 1]) for j in range(3)]
    step = _CHUNK_ROWS
    d2_buf = np.empty((min(step, nq), m), dtype=np.float64)
    term_buf = np.empty_like(d2_buf)
    for lo in range(0, nq, step):
        hi = min(lo + step, nq)
        d2 = d2_buf[: hi - lo]
        term = term_buf[: hi - lo]
        # Accumulate in place in the term order (dx*dx + dy*dy) + dz*dz.
        np.subtract(qcols[0][lo:hi], pcols[0], out=d2)
        np.square(d2, out=d2)
        for qc, pc in zip(qcols[1:], pcols[1:]):
            np.subtract(qc[lo:hi], pc, out=term)
            np.square(term, out=term)
            d2 += term
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        pd2 = np.take_along_axis(d2, part, axis=1)
        # Order the k candidates by (distance, id).
        order = np.lexsort((part, pd2), axis=1)
        part = np.take_along_axis(part, order, axis=1)
        pd2 = np.take_along_axis(pd2, order, axis=1)
        # argpartition picks an arbitrary subset among ties straddling the
        # k-th distance; repair those rows so lower ids always win. With
        # k == M every point is a candidate and no row needs it.
        kth = pd2[:, -1]
        n_leq = np.count_nonzero(d2 <= kth[:, None], axis=1)
        for r in np.flatnonzero(n_leq > k):
            cand = np.flatnonzero(d2[r] <= kth[r])
            order = np.lexsort((cand, d2[r, cand]))[:k]
            part[r] = cand[order]
            pd2[r] = d2[r, cand[order]]
        out_idx[lo:hi] = part
        out_d2[lo:hi] = pd2
    return out_idx, out_d2
