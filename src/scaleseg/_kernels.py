"""Brute-force exact KNN kernel in pure numpy.

Squared distances are accumulated as (dx*dx + dy*dy) + dz*dz and
neighbor ties are broken by lower point id, so results are
deterministic and equal those of a plain per-query brute-force scan.

Queries run in blocks of _CHUNK_ROWS rows against contiguous copies of
the coordinate columns. Each block's distances are written into two
(_CHUNK_ROWS, M) buffers, so the working set stays small enough to live
in cache instead of streaming fresh temporaries through memory on every
block.

Each block then selects its rows' k nearest without sorting or
partitioning whole rows. A row's threshold tau is its k-th smallest
distance over a strided sample of about _SAMPLE columns (the whole row
when that sample holds fewer than k). The sample sets only the
threshold: tau is at least the row's true k-th distance, so the
candidates d2 <= tau hold every true neighbor, ties at the k-th distance
included, and one stable sort of the block's candidates by (row,
distance, id) yields each row's first k. A sample that misses a dense
cluster makes tau loose and the candidate list long, which costs time
but never changes a bit. The cost is still Q*M distance evaluations per
call; the sample only shrinks what is sorted.

A call big enough to pay for threads splits its query rows into
contiguous spans of whole blocks, one per core it can claim from
`idle_cores`. The calling thread runs the first span and short-lived
helper threads run the others, each with its own pair of block buffers
and writing disjoint rows of the output; numpy releases the interpreter
lock inside the distance, threshold and sort calls, so the spans run at
once.
No thread outlives the call, and a helper's error is raised in the
caller after every helper has joined. A row goes through the same
operations on the same inputs whichever span holds it, so a split call
returns exactly the bits of an unsplit one.

`idle_cores` is the one count of idle cores in the process. It starts at
one less than the cores the process may run on, since the calling
thread's core is busy. A call claims spare cores without blocking and
gives them back once its helpers have joined. Threaded `run_pipeline`
workers start after its first scale has run with every idle core, and
hold their cores from their start until they find no scale left, so a
split never takes a core from another scale.
"""

import os
import threading

import numpy as np


def backend() -> str:
    """Name of the KNN kernel, as run records report it."""
    return "numpy"


def _cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class CorePool:
    """A count of idle cores shared by threads. Reservations may take it
    below zero, while the cores are oversubscribed; claims then get
    nothing until enough cores are released."""

    def __init__(self, idle):
        self._idle = idle
        self._lock = threading.Lock()

    @property
    def idle(self):
        return self._idle

    def claim(self, want):
        """Take up to `want` idle cores without blocking; returns how many
        (none when `want` is 0 or less)."""
        with self._lock:
            got = max(0, min(want, self._idle))
            self._idle -= got
        return got

    def reserve(self, n):
        """Take n cores whether or not they are idle."""
        with self._lock:
            self._idle -= n

    def release(self, n):
        with self._lock:
            self._idle += n


idle_cores = CorePool(_cores() - 1)

# Query rows per distance block.
_CHUNK_ROWS = 32
# Columns of each distance row sampled for the selection threshold.
_SAMPLE = 1024
# Candidate pairs (query rows x points) per span below which a thread
# start and the interpreter-lock handoffs cost more than the span saves.
_SPLIT_PAIRS = 1 << 20


def knn_topk(points, queries, k):
    """Exact k nearest neighbors of each query among `points`.

    points, queries: contiguous float64 arrays of shape (M, 3) / (Q, 3),
    M >= 1.
    Returns (ids, d2), each (Q, min(k, M)), rows ascending by
    (squared distance, point id). Brute force, vectorized over query
    blocks: every call evaluates Q*M point distances. A strided sample
    of each distance row sets a threshold that every true neighbor
    meets; only the points within it are sorted, so the sample changes
    the time and never the result.
    """
    m = points.shape[0]
    k = min(int(k), m)
    nq = queries.shape[0]
    out = (np.empty((nq, k), dtype=np.int64), np.empty((nq, k), dtype=np.float64))
    cols = ([np.ascontiguousarray(points[:, j]) for j in range(3)],
            [np.ascontiguousarray(queries[:, j : j + 1]) for j in range(3)])
    blocks = -(-nq // _CHUNK_ROWS)
    # with no helper claimed there is one span, [0, nq), and no thread
    helpers = idle_cores.claim(min(blocks, nq * m // _SPLIT_PAIRS) - 1)
    edges = [min(blocks * s // (helpers + 1) * _CHUNK_ROWS, nq)
             for s in range(helpers + 2)]
    errors = []

    def run(lo, hi):
        try:
            _topk_rows(*cols, k, lo, hi, *out)
        except BaseException as exc:  # re-raised in the caller after the join
            errors.append(exc)

    started = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            t = threading.Thread(target=run, args=(lo, hi), name="scaleseg-knn")
            t.start()
            started.append(t)
        _topk_rows(*cols, k, edges[0], edges[1], *out)
    finally:
        for t in started:
            t.join()
        idle_cores.release(helpers)
    if errors:
        raise errors[0]
    return out


def _topk_rows(pcols, qcols, k, lo, hi, out_idx, out_d2):
    """Fill rows lo:hi of the outputs, one _CHUNK_ROWS block at a time."""
    m = pcols[0].shape[0]
    step = _CHUNK_ROWS
    stride = max(1, m // _SAMPLE)
    if -(-m // stride) < k:  # the sample holds fewer than k columns
        stride = 1
    d2_buf = np.empty((min(step, hi - lo), m), dtype=np.float64)
    term_buf = np.empty_like(d2_buf)
    for b_lo in range(lo, hi, step):
        b_hi = min(b_lo + step, hi)
        d2 = d2_buf[: b_hi - b_lo]
        term = term_buf[: b_hi - b_lo]
        # Accumulate in place in the term order (dx*dx + dy*dy) + dz*dz.
        np.subtract(qcols[0][b_lo:b_hi], pcols[0], out=d2)
        np.square(d2, out=d2)
        for qc, pc in zip(qcols[1:], pcols[1:]):
            np.subtract(qc[b_lo:b_hi], pc, out=term)
            np.square(term, out=term)
            d2 += term
        # tau bounds each row's true k-th distance from above
        tau = np.partition(d2[:, ::stride], k - 1, axis=1)[:, k - 1]
        cand = np.flatnonzero(d2 <= tau[:, None])
        row, col = np.divmod(cand, m)
        cd2 = d2.ravel()[cand]
        # Order the candidates by (row, distance, id) and keep each row's
        # first k; every row has at least k. flatnonzero lists a row's
        # candidates by ascending id and lexsort is stable, so the id
        # needs no key of its own.
        order = np.lexsort((cd2, row))
        starts = np.searchsorted(row, np.arange(b_hi - b_lo))
        take = order[starts[:, None] + np.arange(k)]
        out_idx[b_lo:b_hi] = col[take]
        out_d2[b_lo:b_hi] = cd2[take]
