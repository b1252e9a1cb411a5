import numpy as np

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


def _assert_matches_reference(points, queries, k, label):
    ids, d2 = knn_topk(points, queries, k)
    ref_ids, ref_d2 = brute_reference(points, queries, k)
    assert np.array_equal(ids, ref_ids), label
    assert d2.dtype == ref_d2.dtype and d2.shape == ref_d2.shape, label
    assert d2.tobytes() == ref_d2.tobytes(), label


def test_knn_matches_brute_reference():
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = int(rng.integers(1, 60))
        q = int(rng.integers(1, 40))
        k = int(rng.integers(1, 10))
        points = rng.normal(size=(m, 3))
        queries = rng.normal(size=(q, 3))
        _assert_matches_reference(points, queries, k, f"normal trial {trial}")
    # Coordinates on a 0.1 lattice make many distances tie exactly; up to
    # 129 queries span up to five query chunks, and every fourth trial
    # asks for k >= M.
    for trial in range(40):
        m = int(rng.integers(1, 300))
        q = int(rng.integers(1, 130))
        k = m + int(rng.integers(0, 3)) if trial % 4 == 0 else int(rng.integers(1, 12))
        points = np.round(rng.uniform(-1.0, 1.0, size=(m, 3)), 1)
        queries = np.round(rng.uniform(-1.0, 1.0, size=(q, 3)), 1)
        _assert_matches_reference(points, queries, k, f"lattice trial {trial}")


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
    # answers must not depend on the chunk boundary
    rng = np.random.default_rng(5)
    points = rng.normal(size=(50, 3))
    for nq in (33, 70):  # neither is a multiple of either chunk size
        queries = rng.normal(size=(nq, 3))
        whole_ids, whole_d2 = knn_topk(points, queries, 4)
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "_CHUNK_ROWS", 3)
            small_ids, small_d2 = knn_topk(points, queries, 4)
        assert np.array_equal(whole_ids, small_ids)
        assert np.array_equal(whole_d2, small_d2)


def test_eval_counter_accounting():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(37, 3))
    queries = rng.normal(size=(21, 3))
    counter = EvalCounter()
    counted_knn(points, queries, 3, counter=counter)
    assert counter.count == 37 * 21
    counted_knn(points, queries, 3, counter=counter)
    assert counter.count == 2 * 37 * 21


def test_neighbor_index_mirrors_counter():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(40, 3))
    queries = rng.normal(size=(10, 3))
    shared = EvalCounter()
    index = NeighborIndex(points, counter=shared)
    ids, dist = index.knn_batch(queries, 4)
    assert ids.shape == (10, 4) and dist.shape == (10, 4)
    assert shared.count == 40 * 10
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
            counter.add(1)

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.count == 40_000
