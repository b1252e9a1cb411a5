"""Cross-scale feature fusion.

Points of the current scale borrow features from the points of all
previously finished scales: for each current point, gather the features
of its k nearest stored points, transform each neighbor with a shared
pointwise (width-1 convolution) linear map plus rectifier, max-pool over
the neighbors, concatenate with the point's own feature and mix back to
width F with a fully connected layer.

Stored features are frozen inputs: the backward pass produces no
gradient for them, only for the current features and the fusion
parameters ("fuse_cw", "fuse_cb", "fuse_fw", "fuse_fb").
"""

import numpy as np

from .backbone import FeatureMatrix
from .knn import NeighborIndex


class FeatureStore:
    """Running concatenation of finished scales' (fused) features.

    Scale 1 contributes its raw encoder features (it has no fusion
    stage); every later scale appends its fused features. Entries are
    immutable and ordered by scale id, so stored row ids are stable.
    """

    def __init__(self, feature_dim):
        self.feature_dim = int(feature_dim)
        self._entries = []  # (scale_id, positions, features)

    @property
    def size(self):
        return sum(e[1].shape[0] for e in self._entries)

    def add_scale(self, fm: FeatureMatrix):
        """Append one finished scale; scale ids must strictly increase."""
        if self._entries and fm.scale_id <= self._entries[-1][0]:
            raise ValueError(
                f"scale {fm.scale_id} appended after scale {self._entries[-1][0]}")
        if fm.features.shape[1] != self.feature_dim:
            raise ValueError(
                f"feature width {fm.features.shape[1]} != store width {self.feature_dim}")
        pos = np.ascontiguousarray(fm.positions, dtype=np.float64)
        feat = np.ascontiguousarray(fm.features, dtype=np.float64)
        pos.setflags(write=False)
        feat.setflags(write=False)
        self._entries.append((int(fm.scale_id), pos, feat))

    def merged(self):
        """(positions, features) over all scales, in scale order."""
        if not self._entries:
            raise ValueError("feature store is empty")
        return (np.concatenate([e[1] for e in self._entries], axis=0),
                np.concatenate([e[2] for e in self._entries], axis=0))


def fusion_neighbors(store_positions, positions, k_fuse, counter=None):
    """Ids of each position's k_fuse nearest stored rows (clamped to the
    store); store_positions is `FeatureStore.merged()[0]`.

    Parameter-free, so it holds for as long as the store and the
    positions stay fixed, e.g. for every epoch of one training call.
    """
    index = NeighborIndex(store_positions, counter=counter)
    ids, _ = index.knn_batch(positions, min(int(k_fuse), store_positions.shape[0]))
    return ids


def fuse(current: FeatureMatrix, store: FeatureStore, params, k_fuse,
         counter=None, neighbors=None):
    """Enrich current features with the store; positions pass through.

    Returns (FeatureMatrix, cache). k_fuse is clamped to the store size.
    neighbors: fusion_neighbors of current.positions in this store, when
    the caller already holds them; otherwise they are computed here.
    """
    if int(k_fuse) < 1:
        raise ValueError("k_fuse must be >= 1")
    if store.size < 1:
        raise ValueError("fusion requires a non-empty store")
    feats = current.features
    if feats.shape[1] != store.feature_dim:
        raise ValueError("current feature width does not match the store")
    spos, sfeat = store.merged()
    idx = (neighbors if neighbors is not None
           else fusion_neighbors(spos, current.positions, k_fuse, counter))
    gathered = sfeat[idx]  # (N, k, F)
    r = gathered @ params["fuse_cw"]
    r += params["fuse_cb"]
    np.maximum(r, 0.0, out=r)  # in place: one (N, k, F) array less at peak
    arg = r.argmax(axis=1)  # (N, F), first max wins on ties
    pooled = np.take_along_axis(r, arg[:, None, :], axis=1)[:, 0, :]
    cat = np.concatenate([feats, pooled], axis=1)
    out = cat @ params["fuse_fw"]
    out += params["fuse_fb"]
    return (FeatureMatrix(current.positions, out, current.scale_id),
            (gathered, arg, cat, feats.shape[1]))


def fuse_bwd(g, cache, params):
    """Returns (dcurrent_features, grads). Stored features get no gradient."""
    gathered, arg, cat, f = cache
    n, k, _ = gathered.shape
    grads = {
        "fuse_fw": cat.T @ g,
        "fuse_fb": g.sum(axis=0),
    }
    dcat = g @ params["fuse_fw"].T
    dfeats = dcat[:, :f]
    dpooled = dcat[:, f:]
    dr = np.zeros((n, k, f), dtype=np.float64)
    # only the argmax rows get a gradient, and there relu(r) > 0 exactly
    # where r > 0 (NaN included), so the pooled half of cat gives the mask
    dpooled = dpooled * (cat[:, f:] > 0.0)
    np.put_along_axis(dr, arg[:, None, :], dpooled[:, None, :], axis=1)
    grads["fuse_cw"] = gathered.reshape(-1, f).T @ dr.reshape(-1, f)
    grads["fuse_cb"] = dr.reshape(-1, f).sum(axis=0)
    return dfeats, grads
