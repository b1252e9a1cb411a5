"""Brute-force exact KNN kernel in pure numpy.

Squared distances are accumulated as (dx*dx + dy*dy) + dz*dz in float64
and neighbor ties are broken by lower point id, so results are
deterministic and equal those of a plain per-query brute-force scan.

Each call first makes float32 copies of the coordinates for a screen.
Points and queries are centred on their joint bounding-box midpoint in
float64 and scaled by 2**-e, with e chosen so that the half-extent lies
in [0.5, 1). A power-of-two scale is exact, and the scaled coordinates
are at most 1 in magnitude, so float32 cannot overflow whatever the
cloud's units or its distance from the origin; an underflowing value is
off by less than 2**-149, which the slack below covers.

Once per call every point and query gets a 30-bit Morton (Z-curve)
code, 10 bits per axis of its scaled coordinates, which lie in [-1, 1]
for any cloud, so the quantisation cannot overflow. Points and queries
are each sorted by (code, index), and the kernel works in that order:
queries run in blocks of _BLOCK_ROWS consecutive sorted rows, and the
sorted points are cut into chunks of _CHUNK_POINTS consecutive points.
Each block and each chunk gets the bounding box of its scaled float32
coordinates, held in float64. Results go straight to each query's own
output row.

Each call also builds two float32 factors from the scaled coordinates,
A (Q, 5) with query rows [x, y, z, |q|**2, 1] and B (5, M) with point
columns [-2x, -2y, -2z, 1, |p|**2], each squared norm summed in float64
and then rounded to float32. A row's screen threshold, its cut, is
T = t + 2*delta rounded up to float32, where t is the row's k-th
smallest float32 distance over its window (below). A block skips every
chunk whose box lies farther from the block's box than any of its rows'
cuts reach (the box test below) and screens the points of the chunks it
keeps: their float32 distances are one matrix product,
A[block] @ B[:, kept] = |q|**2 + |p|**2 - 2 q.p, written into a reused
float32 buffer, and only the points with a float32 distance <= T
survive. The survivors of _GROUP_BLOCKS consecutive blocks (fewer once
they reach _GROUP_PAIRS, which bounds the memory when many points
coincide) get their float64 distances from the original coordinates in
the kernel's term order and are sorted together by (row, distance, id);
each row keeps its first k. In the cost model every call still
evaluates Q*M distances, and `knn.EvalCounter` charges that count; the
box test only shrinks what is screened, and the window what is
recomputed and sorted.

A row's window is w = min(max(_WIN, k), M) distinct points that lie
next to the query in Morton order: the w sorted points around the
insertion point of the query's code. The window's distances are 5-term
dot products of the same A and B factors, for _WIN_ROWS rows at a time.
Z-order keeps most spatial neighbors close, but not all: a query just
beside one of the curve's large jumps gets a window of far points, a
loose t and a long survivor list, which costs time but never changes a
bit. The window is only a bound, never the answer.

Why the bits cannot change. Write s = 2**-e, u = 2**-24 (the float32
unit roundoff), R for the largest scaled float32 coordinate magnitude
(in [0.5, 1] up to rounding), and, for one query and point, D for the
exact squared distance, d64 for the float64 one the kernel returns and
d32 for the float32 one the screen compares. Let q and p be the query's
and the point's float32 coordinate vectors and h = q - p, taken
exactly, so |h|**2 = |q|**2 + |p|**2 - 2 q.p.
  - A scaled coordinate is within (u + 2**-53) * R / (1 - u) <= 1.001*u*R
    of s*(x - c), and the centre c is the same for queries and points,
    so each component of h is within 2.002*u*R of the exact scaled
    difference s*dx. With |h_i| <= 2R, |h_i**2 - (s*dx)**2| is at most
    2.002*u*R * (4R + 2.002*u*R) <= 8.01*u*R**2 per axis:
    |h|**2 is within 24.1*u*R**2 of s**2 * D.
  - Squares of float32 values are exact in float64, and a norm of at
    most 3R**2 takes two float64 additions and one float32 rounding, so
    each stored norm is within 3.001*u*R**2 of the exact one: the exact
    dot product of a row of A and a column of B is within 6.01*u*R**2 of
    |h|**2.
  - d32 is that 5-term dot product in float32, in the block's matrix
    product or in a window's multiply-adds. Whatever the order of its
    additions, with or without fused multiply-adds, and however many
    threads the matrix product runs on, its error is at most
    gamma_5 = 5u / (1 - 5u) times the sum of the terms' magnitudes,
    |q|**2 + |p|**2 + 2 sum_i |q_i p_i| <= 12.01*R**2: at most
    60.01*u*R**2.
  - d64 is within a relative 5 * 2**-53 of D, and s**2 * D <= 12.01*R**2:
    s**2 * |d64 - D| is below 1e-6*u*R**2.
So |d32 - s**2 * d64| <= 90.2*u*R**2, below delta = _SLACK*u*R**2 with
_SLACK = 96. The rest of the margin, at least 5.8*u*R**2 >= 2**-24, is
far above float32 underflow (less than 2**-149 for each of the fewer
than twenty float32 roundings behind one distance), float64 underflow
scaled by s**2, and the float64 rounding of t + 2*delta. The window
holds w >= k distinct points, and at least k of them have a window
distance d32 <= t, so at least k points have s**2 * d64 <= t + delta:
the row's true k-th float64 distance, scaled, is at most t + delta.
Every true neighbor, ties at the k-th distance included, then has a
block distance d32 <= t + 2*delta <= T and survives the screen. The
window's and the block's d32 of one pair may round apart, so a window
point need not survive its row's screen; the argument uses only the
bound, which holds for each.

The box test. A block skips a chunk when g2 - delta > T_max, where g2 is
the squared gap between their boxes and T_max the largest cut of the
block's rows. For a query of the block and a point of the chunk, each
|h_i| is at least the boxes' gap along axis i, so |h|**2 >= g**2, the
exact squared gap. The kernel sums g2 in float64 from float32 box
corners: each difference, square and addition rounds by a relative
2**-53 at most and g**2 <= 12R**2, so g2 exceeds g**2 by less than
1e-6*u*R**2, and subtracting delta rounds by as little again. From the
bounds above, d32 is within 66.02*u*R**2 of |h|**2 (6.01 for the stored
norms, 60.01 for the float32 sum). So every pair of a skipped chunk has
d32 >= g2 - 66.1*u*R**2 > T_max + delta - 66.1*u*R**2 > T_max: it would
fail its row's screen, and skipping it loses no survivor. The test
leaves delta - 66.1*u*R**2 >= 29.9*u*R**2 of slack. Chunks are cut from
the sorted points, so the last may be partial; no chunk reaches past
the last point. With an infinite delta the test keeps every chunk.

The argument needs a half-extent within 2**+-_EXP_LIMIT, where float64
squares cannot overflow and their underflow is negligible once scaled;
outside it (a cloud of one repeated point, or one wider than about
1e120) delta is infinite and every column survives.

A call big enough to pay for threads splits its sorted query rows into
contiguous spans of whole blocks, one per core it can claim from
`idle_cores`. The calling thread runs the first span and short-lived
helper threads run the others, each with its own block buffer and
writing disjoint rows of the output; numpy releases the interpreter
lock inside the matrix product and the threshold and sort calls, so the
spans run at once. The Morton order, the sorted factors and the boxes
are built before the split and shared; each span takes its own rows'
windows and box tests.
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

import math
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

# Query rows per block, consecutive in Morton order: the rows that share
# one box test and one matrix product.
_BLOCK_ROWS = 64
# Morton-consecutive points per chunk, the unit a block's box test keeps
# or skips.
_CHUNK_POINTS = 32
# Blocks whose survivors get their float64 distances and are sorted
# together, fewer once their survivors reach _GROUP_PAIRS.
_GROUP_BLOCKS = 16
_GROUP_PAIRS = 1 << 16
# Morton-adjacent points in each row's threshold window (k when larger).
_WIN = 32
# Query rows whose window distances are computed at a time.
_WIN_ROWS = 4096
# Query rows x points per span below which a thread start and the
# interpreter-lock handoffs cost about what the span saves: a call
# splits in two from 2 * _SPLIT_PAIRS pairs.
_SPLIT_PAIRS = 1 << 22
# Bits of a point or query index in a Morton sort key, below the code.
_ID_BITS = 33
# Float32 unit roundoff.
_U32 = 2.0 ** -24
# The screen's slack is delta = _SLACK * _U32 * R**2, R the largest scaled
# coordinate magnitude; 90.2 would do (see the module docstring).
_SLACK = 96.0
# Half-extents outside 2**+-_EXP_LIMIT get an infinite delta: float64
# squares there may overflow or underflow, which delta does not cover.
_EXP_LIMIT = 400


def knn_topk(points, queries, k):
    """Exact k nearest neighbors of each query among `points`.

    points, queries: contiguous float64 arrays of shape (M, 3) / (Q, 3),
    M >= 1.
    Returns (ids, d2), each (Q, min(k, M)), rows ascending by
    (squared distance, point id). Brute force, vectorized over query
    blocks: in the cost model every call evaluates Q*M point distances.
    A block screens in float32 only the point chunks its rows can reach,
    against a threshold, set by the points next to each query in Morton
    order, that every true neighbor meets; only the points that pass get
    their float64 distance and are sorted, so neither the skipped chunks
    nor the threshold change the result.
    """
    m = points.shape[0]
    k = min(int(k), m)
    nq = queries.shape[0]
    out = (np.empty((nq, k), dtype=np.int64), np.empty((nq, k), dtype=np.float64))
    # (3, M + Q) coordinate rows: the points, then the queries
    xyz = np.concatenate((points, queries)).T.copy()
    a, b, delta, codes = _screen(xyz, m)
    layout = _layout(xyz, a, b, codes, k)
    blocks = -(-nq // _BLOCK_ROWS)
    # with no helper claimed there is one span, [0, nq), and no thread
    helpers = idle_cores.claim(min(blocks, nq * m // _SPLIT_PAIRS) - 1)
    edges = [min(blocks * s // (helpers + 1) * _BLOCK_ROWS, nq)
             for s in range(helpers + 2)]
    errors = []

    def run(lo, hi):
        try:
            _topk_span(layout, delta, k, lo, hi, *out)
        except BaseException as exc:  # re-raised in the caller after the join
            errors.append(exc)

    started = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            t = threading.Thread(target=run, args=(lo, hi), name="scaleseg-knn")
            t.start()
            started.append(t)
        _topk_span(layout, delta, k, edges[0], edges[1], *out)
    finally:
        for t in started:
            t.join()
        idle_cores.release(helpers)
    if errors:
        raise errors[0]
    return out


def _screen(xyz, m):
    """The screen's matrix factors, its slack delta and the Morton codes.

    xyz: (3, M + Q) float64 coordinate rows, the M points first. They are
    centred on their bounding-box midpoint, scaled by 2**-e so that the
    half-extent lies in [0.5, 1) and rounded to float32; each squared
    norm is summed in float64 and rounded to float32. Returns (A, B,
    delta, codes): A is (Q, 5) float32 with query rows [x, y, z, |q|**2,
    1], B is (5, M) float32 with point columns [-2x, -2y, -2z, 1,
    |p|**2], so A @ B holds the screen distances. delta is infinite when
    the half-extent is outside [2**-_EXP_LIMIT, 2**_EXP_LIMIT]. codes
    holds the M + Q Morton codes of the scaled coordinates.
    """
    lo, hi = xyz.min(axis=1), xyz.max(axis=1)
    half = float(np.max(hi * 0.5 - lo * 0.5))
    _, e = math.frexp(half)
    scaled = np.ldexp(xyz - (lo * 0.5 + hi * 0.5)[:, None], -e).astype(np.float32)
    norms = np.square(scaled, dtype=np.float64).sum(axis=0).astype(np.float32)
    a = np.ones((xyz.shape[1] - m, 5), dtype=np.float32)
    a[:, :3] = scaled[:, m:].T
    a[:, 3] = norms[m:]
    b = np.ones((5, m), dtype=np.float32)
    np.multiply(scaled[:, :m], -2.0, out=b[:3])
    b[4] = norms[:m]
    if 2.0 ** -_EXP_LIMIT <= half <= 2.0 ** _EXP_LIMIT:
        delta = _SLACK * _U32 * float(np.abs(scaled).max()) ** 2
    else:
        delta = math.inf
    return a, b, delta, _morton(scaled)


def _morton(xyz):
    """30-bit Morton codes of (3, N) float32 coordinates in [-1, 1], 10
    bits per axis, x the most significant of each bit triple."""
    cells = np.minimum(((xyz + 1.0) * 512.0).astype(np.int64), 1023)
    code = np.zeros(xyz.shape[1], dtype=np.int64)
    for v in cells:
        v = (v | v << 16) & 0x030000FF
        v = (v | v << 8) & 0x0300F00F
        v = (v | v << 4) & 0x030C30C3
        v = (v | v << 2) & 0x09249249
        code = code << 1 | v
    return code


def _layout(xyz, a, b, codes, k):
    """One call's points and queries in Morton order, with their boxes.

    Points and queries are each stably sorted by code. Returns (qorder,
    az, bz, window, porder, cols, boxes): query row r of az is A's row
    qorder[r], point column j of bz is B's column porder[j], cols holds
    the float64 coordinate rows (points, queries), window = (bz, start,
    w) makes az row r's threshold window columns start[r]:start[r] + w
    of bz, the w points around the insertion point of the query's code,
    and boxes = (chunk_lo, chunk_hi, block_lo, block_hi) are float64
    bounding boxes of the scaled coordinates, (3, 1, chunks) for each
    _CHUNK_POINTS consecutive columns of bz and (3, blocks, 1) for each
    _BLOCK_ROWS consecutive rows of az.
    """
    m = b.shape[1]
    w = min(max(_WIN, k), m)
    # sort by (code, index), a unique key: the ids below _ID_BITS bits
    ids = (1 << _ID_BITS) - 1
    pkey = np.sort(codes[:m] << _ID_BITS | np.arange(m))
    qkey = np.sort(codes[m:] << _ID_BITS | np.arange(codes.size - m))
    porder, qorder = pkey & ids, qkey & ids
    pos = np.searchsorted(pkey >> _ID_BITS, qkey >> _ID_BITS)
    start = np.clip(pos - w // 2, 0, m - w)
    az, bz = a[qorder], b[:, porder]
    # B's coordinate rows are -2x, -2y, -2z: halved, the scaled points
    ps = bz[:3] * np.float32(-0.5)
    qs = az[:, :3].T
    chunks = np.arange(0, m, _CHUNK_POINTS)
    blocks = np.arange(0, qs.shape[1], _BLOCK_ROWS)
    boxes = (np.minimum.reduceat(ps, chunks, axis=1)[:, None, :],
             np.maximum.reduceat(ps, chunks, axis=1)[:, None, :],
             np.minimum.reduceat(qs, blocks, axis=1)[:, :, None],
             np.maximum.reduceat(qs, blocks, axis=1)[:, :, None])
    boxes = tuple(box.astype(np.float64) for box in boxes)
    cols = (xyz[:, :m], xyz[:, m:])
    return qorder, az, bz, (bz, start, w), porder, cols, boxes


def _window_kth(az, window, k, lo, hi):
    """Rows lo:hi's k-th smallest float32 screen distance over their
    windows, _WIN_ROWS rows at a time."""
    bz, start, w = window
    t = np.empty(hi - lo, dtype=np.float32)
    offsets = np.arange(w)
    for c_lo in range(lo, hi, _WIN_ROWS):
        c_hi = min(c_lo + _WIN_ROWS, hi)
        cols = start[c_lo:c_hi, None] + offsets
        ar = az[c_lo:c_hi]
        # the 5-term dot product of each row of A with a window column
        d = bz[0][cols] * ar[:, :1]
        for j in range(1, 5):
            d += bz[j][cols] * ar[:, j:j + 1]
        t[c_lo - lo:c_hi - lo] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return t


def _topk_span(layout, delta, k, lo, hi, out_idx, out_d2):
    """Fill the outputs of Morton-order query rows lo:hi, lo a multiple
    of _BLOCK_ROWS, one group of blocks at a time; returns how many
    (row, point) pairs the float32 screen compared."""
    qorder, az, bz, window, porder, cols, boxes = layout
    chunk_lo, chunk_hi, block_lo, block_hi = boxes
    m, step = bz.shape[1], _BLOCK_ROWS
    # t + delta bounds each row's scaled true k-th float64 distance, so
    # every true neighbor has a float32 distance <= t + 2*delta; the cut
    # is that bound rounded up to float32
    bound = _window_kth(az, window, k, lo, hi).astype(np.float64) + 2.0 * delta
    cuts = bound.astype(np.float32)
    np.nextafter(cuts, np.float32(np.inf), out=cuts, where=cuts < bound)
    block_cut = np.maximum.reduceat(cuts, np.arange(0, hi - lo, step))
    buf = np.empty(0, dtype=np.float32)
    screened = 0
    # survivors of rows s_lo onward, not yet selected
    rows, found, count, s_lo = [], [], 0, lo
    for g_lo in range(lo, hi, step * _GROUP_BLOCKS):
        g_hi = min(g_lo + step * _GROUP_BLOCKS, hi)
        j_lo, j_hi = g_lo // step, -(-g_hi // step)
        # A block skips each chunk that no row of it can reach: the
        # chunk holds none of its survivors (module docstring).
        gap = np.maximum(chunk_lo - block_hi[:, j_lo:j_hi],
                         block_lo[:, j_lo:j_hi] - chunk_hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        cut = block_cut[j_lo - lo // step:j_hi - lo // step, None]
        far = (gap[0] + gap[1] + gap[2]) - delta > cut
        # each block's kept columns of bz, none past the last point
        kept = np.repeat(~far, _CHUNK_POINTS, axis=1)[:, :m]
        for mask, b_lo in zip(kept, range(g_lo, g_hi, step)):
            b_hi = min(b_lo + step, g_hi)
            keep = np.flatnonzero(mask)
            size = (b_hi - b_lo) * keep.size
            screened += size
            if buf.size < size:
                buf = np.empty(size, dtype=np.float32)
            d2 = buf[:size].reshape(b_hi - b_lo, keep.size)
            np.matmul(az[b_lo:b_hi], bz.take(keep, axis=1), out=d2)
            cand = np.flatnonzero(d2 <= cuts[b_lo - lo:b_hi - lo, None])
            row, col = np.divmod(cand, keep.size)
            row += b_lo - s_lo
            rows.append(row)
            found.append(keep[col])
            count += cand.size
            if count >= _GROUP_PAIRS or b_hi == g_hi:
                _select(layout, k, s_lo, b_hi, np.concatenate(rows),
                        np.concatenate(found), out_idx, out_d2)
                rows, found, count, s_lo = [], [], 0, b_hi
    return screened


def _select(layout, k, lo, hi, row, col, out_idx, out_d2):
    """Write the first k survivors by (distance, id) of Morton-order
    query rows lo:hi. row (ascending, numbered from lo) and col (columns
    of bz) list the survivors, every row at least k of them, each (row,
    col) once."""
    qorder, _, _, _, porder, cols, _ = layout
    (px, py, pz), (qx, qy, qz) = cols
    col = porder[col]
    # the survivors' float64 distances, in the term order
    # (dx*dx + dy*dy) + dz*dz
    dest = qorder[lo:hi]
    qrow = dest[row]
    cd2 = qx[qrow] - px[col]
    cd2 *= cd2
    for qc, pc in ((qy, py), (qz, pz)):
        term64 = qc[qrow] - pc[col]
        term64 *= term64
        cd2 += term64
    # Order by distance, then stably by row, a radix sort on this type;
    # then put each run of equal (row, distance) in id order, by a
    # unique key. Ties are rare outside lattices and repeated points,
    # and without one the last sort is skipped.
    order = np.argsort(cd2)
    row_type = np.min_scalar_type(hi - lo - 1)
    order = order[np.argsort(row[order].astype(row_type), kind="stable")]
    sd2, srow = cd2[order], row[order]
    new = (sd2[1:] != sd2[:-1]) | (srow[1:] != srow[:-1])
    if not new.all():
        run = np.zeros(order.size, dtype=np.int64)
        np.cumsum(new, out=run[1:])
        run *= porder.size
        run += col[order]
        order = order[np.argsort(run)]
    starts = np.searchsorted(row, np.arange(hi - lo))
    take = order[starts[:, None] + np.arange(k)]
    out_idx[dest] = col[take]
    out_d2[dest] = cd2[take]
