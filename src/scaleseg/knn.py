"""Exact k-nearest-neighbor index over a fixed 3D point set.

The index is brute force: in its cost model every query evaluates the
distance to every stored point, and those Q * M evaluations are added
to an EvalCounter so pipeline runs can report measured pairwise work,
the count that acceptance criterion 3 compares with the whole-cloud
baseline's. The kernel does less: it skips the point chunks that no
query of a block can reach, screens the rest in float32 and computes
the float64 distance of only the points that pass, with a slack that
keeps every true neighbor, so ids and distances are those of a float64
scan (see `_kernels`).
Neighbor ties are broken by lower point id, which makes every query
deterministic.
"""

import threading

import numpy as np

from ._kernels import knn_topk


class EvalCounter:
    """Shared tally of KNN queries and candidate distance evaluations.

    One counter is threaded through every KNN call of a pipeline run so
    the total cost of a full pass can be read off afterwards. A call
    counts the brute-force Q * M, not the pairs its screen compares,
    which depend on the cloud's layout.
    """

    __slots__ = ("_count", "_queries", "_lock")

    def __init__(self):
        self._count = 0
        self._queries = 0
        self._lock = threading.Lock()

    def add(self, n, queries):
        """Add n candidate evaluations, made for `queries` query points."""
        with self._lock:
            self._count += int(n)
            self._queries += int(queries)

    @property
    def count(self):
        """Candidate distance evaluations."""
        return self._count

    @property
    def queries(self):
        return self._queries


def counted_knn(points, queries, k, counter=None):
    """Exact KNN without building an index object; still counted.

    Returns (ids, squared distances). Cost Q * M is added to counter
    when one is given.
    """
    idx, d2 = knn_topk(points, queries, k)
    if counter is not None:
        counter.add(queries.shape[0] * points.shape[0], queries.shape[0])
    return idx, d2


class NeighborIndex:
    """Immutable KNN index over an (M, 3) point set, M >= 1.

    Queries are exact Euclidean nearest neighbors, results ascending by
    (distance, point id). Safe for concurrent queries from multiple
    threads once built.
    """

    def __init__(self, points, counter=None):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (M, 3) points, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("cannot build a NeighborIndex over an empty point set")
        if not np.all(np.isfinite(pts)):
            raise ValueError("index points must be finite")
        pts.setflags(write=False)
        self._points = pts
        self._counter = counter

    def __len__(self):
        return self._points.shape[0]

    def knn_batch(self, queries, k):
        """KNN for a batch of queries.

        queries: (Q, 3). Returns (ids, dists) of shape (Q, min(k, M)),
        each row ascending by (distance, id). k > M returns all M points.
        """
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != 3:
            raise ValueError(f"expected (Q, 3) queries, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("query points must be finite")
        if int(k) < 1:
            raise ValueError("k must be >= 1")
        ids, d2 = counted_knn(self._points, q, int(k), self._counter)
        return ids, np.sqrt(d2)
