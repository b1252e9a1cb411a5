import threading

import numpy as np
import pytest

from scaleseg import _kernels
from scaleseg._kernels import knn_topk
from scaleseg.knn import EvalCounter, NeighborIndex, counted_knn


def brute_reference(points, queries, k):
    """Oracle: full distance matrix + lexsort on (d2, id)."""
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    k = min(k, points.shape[0])
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    out = np.empty((queries.shape[0], k), dtype=np.float64)
    for q in range(queries.shape[0]):
        order = np.lexsort((np.arange(points.shape[0]), d2[q]))[:k]
        ids[q] = order
        out[q] = d2[q, order]
    return ids, out


SPARE = 3  # spare cores a forced split may claim


def _split_knn(mp, points, queries, k):
    """knn_topk with every call of two or more blocks split over
    min(blocks, 1 + SPARE) spans; checks the spans and the core count."""
    mp.setattr(_kernels, "_SPLIT_PAIRS", 1)
    mp.setattr(_kernels, "idle_cores", _kernels.CorePool(SPARE))
    span, spans = _kernels._topk_span, []

    def spy(layout, delta, k, lo, hi, *out):
        spans.append((lo, hi))
        return span(layout, delta, k, lo, hi, *out)

    mp.setattr(_kernels, "_topk_span", spy)
    result = knn_topk(points, queries, k)
    nq, step = queries.shape[0], _kernels._BLOCK_ROWS
    spans.sort()
    assert len(spans) == min(-(-nq // step), 1 + SPARE)
    assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
    assert spans[0][0] == 0 and spans[-1][1] == nq
    assert all(lo % step == 0 for lo, _ in spans)
    assert _kernels.idle_cores.idle == SPARE
    return result


def _assert_bytes_equal(got, want, label):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, label
        assert a.tobytes() == b.tobytes(), label


def _assert_matches_reference(points, queries, k, label, monkeypatch=None):
    ids, d2 = knn_topk(points, queries, k)
    _assert_bytes_equal((ids, d2), brute_reference(points, queries, k), label)
    if monkeypatch is not None:
        with monkeypatch.context() as mp:
            split = _split_knn(mp, points, queries, k)
        _assert_bytes_equal(split, (ids, d2), f"{label}, split")


def test_knn_matches_brute_reference(monkeypatch):
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = int(rng.integers(1, 60))
        q = int(rng.integers(1, 40))
        k = int(rng.integers(1, 10))
        points = rng.normal(size=(m, 3))
        queries = rng.normal(size=(q, 3))
        _assert_matches_reference(points, queries, k, f"normal trial {trial}",
                                  monkeypatch)
    # Coordinates on a 0.1 lattice make many distances tie exactly; up to
    # 129 queries span up to three query blocks, and every fourth trial
    # asks for k >= M. Each trial also runs split over up to four spans.
    for trial in range(40):
        m = int(rng.integers(1, 300))
        q = int(rng.integers(1, 130))
        k = m + int(rng.integers(0, 3)) if trial % 4 == 0 else int(rng.integers(1, 12))
        points = np.round(rng.uniform(-1.0, 1.0, size=(m, 3)), 1)
        queries = np.round(rng.uniform(-1.0, 1.0, size=(q, 3)), 1)
        _assert_matches_reference(points, queries, k, f"lattice trial {trial}",
                                  monkeypatch)


def _window_t(points, queries, k):
    """(t, w): each query's window threshold t, unscaled to the points'
    units, and the window width w."""
    k = min(k, points.shape[0])
    xyz = np.concatenate((points, queries)).T.copy()
    a, b, _, codes = _kernels._screen(xyz, points.shape[0])
    qorder, az, _, window, *_ = _kernels._layout(xyz, a, b, codes, k)
    t = np.empty(queries.shape[0], dtype=np.float32)
    t[qorder] = _kernels._window_kth(az, window, k, 0, queries.shape[0])
    lo, hi = xyz.min(axis=1), xyz.max(axis=1)
    _, e = np.frexp(np.max(hi * 0.5 - lo * 0.5))
    return np.ldexp(t.astype(np.float64), 2 * int(e)), window[2]


def _straddle(rng):
    """Points and queries beside the Z-order's top split, scaled x = 0.

    Eight corners fix the bounding box to [-10, 10]**3, so the split lies
    at x = 0. A tight cluster sits just right of it, the queries just
    left of it, and 300 far points fill the box outside a ball of radius
    5. Every x < 0 point precedes every x > 0 point in Z-order, so each
    query's window holds far points while its true neighbors are in the
    cluster a few hundredths away.
    """
    corners = np.array([[x, y, z] for x in (-10.0, 10.0)
                        for y in (-10.0, 10.0) for z in (-10.0, 10.0)])
    far = rng.uniform(-10.0, 10.0, size=(600, 3))
    far = far[np.linalg.norm(far, axis=1) > 5.0][:300]
    cluster = rng.uniform(0.0, 0.01, size=(20, 3))
    queries = rng.uniform(0.0, 0.01, size=(70, 3)) * np.array([-1.0, 1.0, 1.0])
    return np.concatenate([corners, far, cluster]), queries


def _sampled_case(name, rng):
    """(points, queries, k) of one case for the window threshold."""
    if name == "lattice-ties":
        # 6x6x6 integer lattice: a query on a lattice point has one point
        # at distance 0 and six at 1, so k = 5 cuts through a tie shell
        axis = np.arange(6.0)
        points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
        points = points.reshape(-1, 3)
        queries = np.concatenate([points[rng.choice(216, 40)],
                                  points[rng.choice(216, 30)] + 0.5])
        return points, queries, 5
    if name == "sorted-x":
        points = rng.uniform(-1.0, 1.0, size=(300, 3))
        points = points[np.argsort(points[:, 0], kind="stable")]
        return points, rng.uniform(-1.0, 1.0, size=(70, 3)), 6
    if name == "missed-cluster":
        # ids 1..20 hold a tight cluster far from the other points
        points = rng.uniform(10.0, 20.0, size=(400, 3))
        points[1:21] = rng.normal(scale=0.01, size=(20, 3))
        return points, rng.normal(scale=0.01, size=(70, 3)), 5
    if name == "straddle-split":
        return (*_straddle(rng), 5)
    if name == "shared-cell":
        # 400 points inside one Morton cell (1/512 of the half-extent per
        # axis) and 100 spread around it; every query's code equals the
        # cell's, so its window is the same points at the start of the
        # cell's run in id order, not its nearest ones
        dense = rng.uniform(0.0, 1e-4, size=(400, 3))
        spread = rng.uniform(-1.0, 1.0, size=(100, 3))
        return (np.concatenate([spread, dense]),
                rng.uniform(0.0, 1e-4, size=(70, 3)), 6)
    m, k = {"k-at-sample": (300, 8), "k-over-sample": (300, 10),
            "k-at-m": (50, 50), "k-over-m": (50, 53)}[name]
    points = np.round(rng.uniform(-1.0, 1.0, size=(m, 3)), 1)
    return points, np.round(rng.uniform(-1.0, 1.0, size=(70, 3)), 1), k


@pytest.mark.parametrize("name", [
    "lattice-ties", "sorted-x", "missed-cluster", "straddle-split",
    "shared-cell", "k-at-sample", "k-over-sample", "k-at-m", "k-over-m"])
def test_sampled_threshold_matches_brute_reference(monkeypatch, name):
    # The sample is each row's window of w = min(max(_WIN, k), M)
    # Morton-adjacent points. With _WIN = 8 the window is narrower than
    # the cloud on every case but k >= M; the k-th point of the window
    # bounds the selection and must never change it.
    monkeypatch.setattr(_kernels, "_WIN", 8)
    points, queries, k = _sampled_case(name, np.random.default_rng(10))
    m = points.shape[0]
    t, w = _window_t(points, queries, k)
    _, true_d2 = brute_reference(points, queries, k)
    assert w == min(max(8, k), m)
    assert w < m or name in ("k-at-m", "k-over-m")
    if name == "k-at-sample":
        assert w == k
    if name == "straddle-split":
        # the window misses every true neighbor: t is loose
        assert np.all(t > 1e4 * true_d2[:, -1])
    if name == "shared-cell":
        xyz = np.concatenate((points, queries)).T.copy()
        codes = _kernels._screen(xyz, m)[3]
        assert len(np.unique(codes[m:])) == 1
        assert len(np.unique(codes[100:m])) == 1
    # t is a k-th distance over w real points, so never below the true one
    assert np.all(t >= true_d2[:, -1] * (1 - 1e-5))
    _assert_matches_reference(points, queries, k, name, monkeypatch)


def _screen_case(name, rng):
    """(points, queries, k) of one case for the float32 screen."""
    if name == "duplicates":
        # 20 sites of 15 copies each; a query on a site has t = 0, and
        # k = 17 reaches past the copies into the next site
        sites = rng.uniform(-1.0, 1.0, size=(20, 3))
        points = np.repeat(sites, 15, axis=0)
        return points, np.concatenate([sites, sites + 1e-3]), 17
    if name == "lattice-straddle":
        # a 0.1 lattice far from the origin: equal lattice distances
        # round apart in float64 and again in float32, and k = 9 cuts
        # through the shell of distance 0.1
        axis = np.arange(8) * 0.1
        points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
        points = points.reshape(-1, 3) + 1234.5
        return points, points[rng.choice(len(points), 70)], 9
    if name == "one-point":
        return rng.normal(size=(1, 3)), rng.normal(size=(40, 3)), 3
    if name == "one-spot":
        # every point and query at one spot: a zero half-extent
        return np.full((30, 3), 7.25), np.full((40, 3), 7.25), 4
    if name == "k-over-m":
        return rng.normal(size=(50, 3)), rng.normal(size=(70, 3)), 54
    if name == "opposite-corners":
        return _corners(rng, 400), _corners(rng, 70), 8
    points = rng.uniform(0.0, 20.0, size=(400, 3))
    queries = rng.uniform(0.0, 20.0, size=(70, 3))
    shift, scale = {"utm-offset": (np.array([5e5, 4.2e6, 150.0]), 1.0),
                    "nanometre": (0.0, 5e-11), "terametre": (0.0, 5e10),
                    "beyond-limit": (0.0, 5e128)}[name]
    return points * scale + shift, queries * scale + shift, 8


def _corners(rng, n):
    """n points within 1% of the corners of the box [0, 20]**3: once
    centred, every squared norm is near 3R**2, so |q|**2 + |p|**2 - 2 q.p
    cancels the most."""
    corner = rng.integers(0, 2, size=(n, 3)) * 20.0
    return corner + rng.uniform(-0.2, 0.2, size=(n, 3)).clip(-corner, 20.0 - corner)


@pytest.mark.parametrize("name", [
    "duplicates", "lattice-straddle", "utm-offset", "nanometre",
    "terametre", "one-point", "k-over-m", "one-spot", "beyond-limit",
    "opposite-corners"])
def test_float32_screen_matches_brute_reference(monkeypatch, name):
    points, queries, k = _screen_case(name, np.random.default_rng(11))
    xyz = np.concatenate((points, queries)).T.copy()
    delta = _kernels._screen(xyz, points.shape[0])[2]
    if name in ("one-spot", "beyond-limit"):
        assert delta == np.inf  # outside the bound's range: all survive
    else:
        assert 0 < delta < 1e-4  # the screen is on, not bypassed
    _assert_matches_reference(points, queries, k, name, monkeypatch)


@pytest.mark.parametrize("name", ["random", "corners", "utm-offset"])
def test_screen_error_within_delta(name):
    # the bound the exactness argument rests on, pair by pair:
    # |A @ B - s**2 * d64| <= delta, s the power of two the call scales by
    rng = np.random.default_rng(14)
    if name == "corners":
        points, queries = _corners(rng, 2000), _corners(rng, 300)
    else:
        shift = np.array([5e5, 4.2e6, 150.0]) if name == "utm-offset" else 0.0
        points = rng.uniform(0.0, 20.0, size=(2000, 3)) + shift
        queries = rng.uniform(0.0, 20.0, size=(300, 3)) + shift
    xyz = np.concatenate((points, queries)).T.copy()
    a, b, delta, _ = _kernels._screen(xyz, points.shape[0])
    lo, hi = xyz.min(axis=1), xyz.max(axis=1)
    _, e = np.frexp(np.max(hi * 0.5 - lo * 0.5))
    d64 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    err = np.abs((a @ b).astype(np.float64) - np.ldexp(d64, -2 * int(e)))
    assert 0 < err.max() <= delta


def test_float32_screen_with_k_over_sample(monkeypatch):
    # 300 points 5e5 m from the origin with a window of 8 columns: k = 12
    # widens every row's window to 12, so the row's 12 Morton-adjacent
    # float32 distances set t
    monkeypatch.setattr(_kernels, "_WIN", 8)
    rng = np.random.default_rng(12)
    points = rng.uniform(-1.0, 1.0, size=(300, 3)) + 5e5
    queries = rng.uniform(-1.0, 1.0, size=(70, 3)) + 5e5
    assert _window_t(points, queries, 12)[1] == 12
    _assert_matches_reference(points, queries, 12, "k over sample", monkeypatch)


def test_zero_slack_loses_a_neighbor(monkeypatch):
    # The query sits at the origin, point 1 at distance 1 and point 0 at
    # 1 + 1e-9 in another direction. Float32 rounding orders the two at
    # random, so without slack the true nearest, point 1, sometimes fails
    # the screen; with it every trial is exact. The window's float32
    # distances round apart from the block's, so a zero-slack cut can
    # also fall below both points' block distances and leave the row
    # fewer than k survivors, an IndexError: that too loses the neighbor.
    rng = np.random.default_rng(13)
    query = np.zeros((1, 3))
    lost = 0
    for trial in range(100):
        unit = rng.normal(size=(2, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        points = unit * np.array([[1.0 + 1e-9], [1.0]])
        want = brute_reference(points, query, 1)
        assert want[0].tolist() == [[1]]
        _assert_bytes_equal(knn_topk(points, query, 1), want, f"trial {trial}")
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "_SLACK", 0.0)
            try:
                lost += knn_topk(points, query, 1)[0].tolist() != [[1]]
            except IndexError:
                lost += 1
    assert lost > 0


def test_collinear_oracle():
    # points at x = 0..4, query at 2.2: nearest two are ids 2 then 3
    points = np.zeros((5, 3))
    points[:, 0] = np.arange(5.0)
    query = np.array([[2.2, 0.0, 0.0]])
    ids, d2 = knn_topk(points, query, 2)
    assert ids.tolist() == [[2, 3]]
    assert np.allclose(d2, [[0.2 ** 2, 0.8 ** 2]], atol=1e-15)


def test_tie_breaks_prefer_lower_id():
    # 4 points equidistant from the origin query
    points = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    ids, d2 = knn_topk(points, np.zeros((1, 3)), 2)
    assert ids.tolist() == [[0, 1]]
    assert np.allclose(d2, 1.0)


def test_k_clamped_to_point_count():
    points = np.zeros((2, 3))
    points[1, 0] = 1.0
    ids, d2 = knn_topk(points, np.array([[0.9, 0.0, 0.0]]), 8)
    assert ids.shape == (1, 2)
    assert ids.tolist() == [[1, 0]]


def test_numpy_chunking_invariant(monkeypatch):
    # answers must not depend on the block or span boundaries
    rng = np.random.default_rng(5)
    points = rng.normal(size=(50, 3))
    for nq in (33, 70, 130):  # none is a multiple of either block size
        queries = rng.normal(size=(nq, 3))
        whole = knn_topk(points, queries, 4)
        for rows in (_kernels._BLOCK_ROWS, 3):
            with monkeypatch.context() as mp:
                mp.setattr(_kernels, "_BLOCK_ROWS", rows)
                small = knn_topk(points, queries, 4)
                split = _split_knn(mp, points, queries, 4)
            _assert_bytes_equal(small, whole, f"nq {nq}, rows {rows}")
            _assert_bytes_equal(split, whole, f"nq {nq}, rows {rows}, split")


@pytest.mark.parametrize("name", [
    "normal", "lattice", "lattice-ties", "one-spot", "beyond-limit", "k-over-m"])
def test_small_chunks_match_brute_reference(monkeypatch, name):
    # 4-point chunks, 8-row blocks and 2-block groups: each cloud spans
    # many of all three, most with a partial one at the end; on one-spot
    # and beyond-limit delta is infinite, so every chunk is kept
    monkeypatch.setattr(_kernels, "_CHUNK_POINTS", 4)
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(_kernels, "_GROUP_BLOCKS", 2)
    rng = np.random.default_rng(15)
    if name == "normal":
        points, queries, k = rng.normal(size=(59, 3)), rng.normal(size=(45, 3)), 5
    elif name == "lattice":
        points = np.round(rng.uniform(-1.0, 1.0, size=(137, 3)), 1)
        queries = np.round(rng.uniform(-1.0, 1.0, size=(61, 3)), 1)
        k = 7
    elif name == "lattice-ties":
        points, queries, k = _sampled_case(name, rng)
    else:
        points, queries, k = _screen_case(name, rng)
    _assert_matches_reference(points, queries, k, name, monkeypatch)


def test_far_chunks_are_not_screened(monkeypatch):
    # Two clusters 100 apart, each with half the points and queries: a
    # block of one cluster reaches no chunk of the other, so the screen
    # skips about half the Q*M pairs. A call that screened every chunk
    # would count Q*M.
    rng = np.random.default_rng(16)
    points = np.concatenate([rng.normal(size=(300, 3)),
                             rng.normal(size=(300, 3)) + 100.0])
    queries = np.concatenate([rng.normal(size=(200, 3)),
                              rng.normal(size=(200, 3)) + 100.0])
    span, screened = _kernels._topk_span, []

    def spy(*args):
        screened.append(span(*args))
        return screened[-1]

    monkeypatch.setattr(_kernels, "_topk_span", spy)
    got = knn_topk(points, queries, 6)
    _assert_bytes_equal(got, brute_reference(points, queries, 6), "two clusters")
    assert sum(screened) < 600 * 400 * 3 // 4


def test_coincident_points_select_a_block_at_a_time(monkeypatch):
    # 300 points and 200 queries at one spot: delta is infinite, so all
    # 300 points of every row survive. With _GROUP_PAIRS = 1000 each
    # block's 64 x 300 survivors are selected before the next block is
    # screened, not a whole group's.
    monkeypatch.setattr(_kernels, "_GROUP_PAIRS", 1000)
    select, sizes = _kernels._select, []

    def spy(layout, k, lo, hi, row, col, *out):
        sizes.append((hi - lo, row.size))
        return select(layout, k, lo, hi, row, col, *out)

    monkeypatch.setattr(_kernels, "_select", spy)
    points, queries = np.full((300, 3), -2.5), np.full((200, 3), -2.5)
    _assert_matches_reference(points, queries, 4, "one spot, 300 points")
    step = _kernels._BLOCK_ROWS
    assert [rows for rows, _ in sizes] == [step, step, step, 200 - 3 * step]
    assert all(n == rows * 300 for rows, n in sizes)


@pytest.mark.parametrize("failing_block", [0, 1], ids=["caller", "helper"])
def test_split_span_error_reaches_caller(monkeypatch, failing_block):
    # four spans of one block each; the failing one raises in the caller
    # only after every span has run, and the claimed cores come back
    monkeypatch.setattr(_kernels, "_SPLIT_PAIRS", 1)
    monkeypatch.setattr(_kernels, "idle_cores", _kernels.CorePool(SPARE))
    step = _kernels._BLOCK_ROWS
    failing_lo = failing_block * step
    span, ran = _kernels._topk_span, []

    def flaky(layout, delta, k, lo, hi, *out):
        ran.append(lo)
        if lo == failing_lo:
            raise RuntimeError(f"span at row {lo} failed")
        return span(layout, delta, k, lo, hi, *out)

    monkeypatch.setattr(_kernels, "_topk_span", flaky)
    rng = np.random.default_rng(6)
    with pytest.raises(RuntimeError, match=f"span at row {failing_lo} failed"):
        knn_topk(rng.normal(size=(40, 3)), rng.normal(size=(4 * step, 3)), 3)
    assert sorted(ran) == [0, step, 2 * step, 3 * step]
    assert _kernels.idle_cores.idle == SPARE
    assert not [t for t in threading.enumerate() if t.name == "scaleseg-knn"]


@pytest.mark.parametrize("split_pairs, idle, nq", [
    (1, 0, 100),
    (1, -2, 100),
    (_kernels._SPLIT_PAIRS, SPARE, 1000),  # 1000 x 1000 < 2^22 pairs
], ids=["no-spare-core", "oversubscribed", "too-few-pairs"])
def test_unsplit_call_starts_no_thread(monkeypatch, split_pairs, idle, nq):
    monkeypatch.setattr(_kernels, "_SPLIT_PAIRS", split_pairs)
    monkeypatch.setattr(_kernels, "idle_cores", _kernels.CorePool(idle))

    def no_thread(*args, **kwargs):
        raise AssertionError("an unsplit knn_topk call started a thread")

    monkeypatch.setattr(_kernels.threading, "Thread", no_thread)
    rng = np.random.default_rng(7)
    ids, _ = knn_topk(rng.normal(size=(1000, 3)), rng.normal(size=(nq, 3)), 4)
    assert ids.shape == (nq, 4)
    assert _kernels.idle_cores.idle == idle


def test_eval_counter_accounting():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(37, 3))
    queries = rng.normal(size=(21, 3))
    counter = EvalCounter()
    counted_knn(points, queries, 3, counter=counter)
    assert (counter.count, counter.queries) == (37 * 21, 21)
    counted_knn(points, queries, 3, counter=counter)
    assert (counter.count, counter.queries) == (2 * 37 * 21, 2 * 21)


def test_neighbor_index_mirrors_counter():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(40, 3))
    queries = rng.normal(size=(10, 3))
    shared = EvalCounter()
    index = NeighborIndex(points, counter=shared)
    ids, dist = index.knn_batch(queries, 4)
    assert ids.shape == (10, 4) and dist.shape == (10, 4)
    assert (shared.count, shared.queries) == (40 * 10, 10)
    # distances are euclidean, ascending
    assert np.all(np.diff(dist, axis=1) >= 0)
    ref_ids, ref_d2 = brute_reference(points, queries, 4)
    assert np.array_equal(ids, ref_ids)
    assert np.allclose(dist, np.sqrt(ref_d2), atol=1e-12)


def test_counter_thread_safety():
    import threading

    counter = EvalCounter()

    def bump():
        for _ in range(10_000):
            counter.add(3, 1)

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert (counter.count, counter.queries) == (120_000, 40_000)
