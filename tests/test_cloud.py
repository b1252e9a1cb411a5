import numpy as np
import pytest

from scaleseg.cloud import (
    CloudExtentError,
    PartitionConfig,
    PointCloud,
    build_partitions,
    gather,
    pack_voxel_keys,
    voxel_keys,
)


def random_cloud(rng, n, extent=4.0, num_classes=5):
    pos = rng.uniform(0.0, extent, size=(n, 3))
    col = rng.uniform(0.0, 1.0, size=(n, 3))
    lab = rng.integers(0, num_classes, size=n)
    return PointCloud(pos, col, lab, num_classes=num_classes)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.full((3, 3), 1.5))
    with pytest.raises(ValueError):
        PointCloud(np.full((2, 3), np.nan), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), np.zeros((2, 3)), labels=[0, 5], num_classes=3)


def test_xyzrgb_layout():
    rng = np.random.default_rng(0)
    c = random_cloud(rng, 10)
    feats = c.xyzrgb()
    assert feats.shape == (10, 6)
    assert np.array_equal(feats[:, :3], c.positions)
    assert np.array_equal(feats[:, 3:], c.colors)


def test_voxel_keys_floor_convention():
    pos = np.array([[0.0, 0.0, 0.0], [0.29, 0.3, -0.01], [-0.3, 0.61, 1.0]])
    c = PointCloud(pos, np.zeros((3, 3)))
    keys = voxel_keys(c, 0.3)
    expect = np.array([[0, 0, 0], [0, 1, -1], [-1, 2, 3]])
    assert np.array_equal(keys, expect)


def test_pack_voxel_keys_injective_sample():
    rng = np.random.default_rng(1)
    keys = rng.integers(-1000, 1000, size=(5000, 3))
    packed = pack_voxel_keys(keys)
    uniq_k = np.unique(keys, axis=0).shape[0]
    uniq_p = np.unique(packed).shape[0]
    assert uniq_k == uniq_p


def test_partition_config_rejects_bad_sizes():
    for sizes in [(), (0.1, 0.2), (0.1, 0.1), (-1.0,), (0.2, 0.0)]:
        with pytest.raises(ValueError):
            PartitionConfig(voxel_sizes=sizes)


def test_partitions_disjoint_and_voxel_unique():
    rng = np.random.default_rng(7)
    cfg = PartitionConfig(voxel_sizes=(0.8, 0.5, 0.3), rng_seed=11)
    for trial in range(10):
        cloud = random_cloud(rng, int(rng.integers(200, 2000)))
        parts = build_partitions(cloud, cfg)
        assert parts.num_scales == 3
        allidx = np.concatenate(parts.partitions)
        assert len(np.unique(allidx)) == len(allidx)  # pairwise disjoint
        assert allidx.min() >= 0 and allidx.max() < cloud.n
        for p, v in zip(parts.partitions, cfg.voxel_sizes):
            sub = gather(cloud, p)
            packed = pack_voxel_keys(voxel_keys(sub, v))
            # one selected point per occupied voxel at that scale
            assert len(np.unique(packed)) == len(packed)


def test_partition_union():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 1200)
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=(0.8, 0.5, 0.3),
                                                    rng_seed=2))
    for upto, want in [(1, 0.8), (2, 0.5), (3, 0.3), (None, 0.3)]:
        one = parts.union(upto)
        merged = parts.partitions[:upto or parts.num_scales]
        merged_ids = one.partitions[0]
        assert one.num_scales == 1
        assert np.all(np.diff(merged_ids) > 0)  # sorted, nothing repeated
        assert len(merged_ids) == sum(len(p) for p in merged)
        assert set(merged_ids.tolist()) == set(np.concatenate(merged).tolist())
        assert one.voxel_sizes == (want,)
    for upto in (0, parts.num_scales + 1):
        with pytest.raises(ValueError, match="upto_scale out of range"):
            parts.union(upto)


def test_partitions_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 1500)
    cfg = PartitionConfig(voxel_sizes=(0.7, 0.4), rng_seed=5)
    a = build_partitions(cloud, cfg)
    b = build_partitions(cloud, cfg)
    for pa, pb in zip(a.partitions, b.partitions):
        assert np.array_equal(pa, pb)
    c = build_partitions(cloud, PartitionConfig(voxel_sizes=(0.7, 0.4), rng_seed=6))
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(a.partitions, c.partitions))


def test_partitions_order_independent():
    # shuffling the input point order must select the same physical points
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, 800)
    perm = rng.permutation(cloud.n)
    shuffled = PointCloud(cloud.positions[perm], cloud.colors[perm],
                          cloud.labels[perm], num_classes=cloud.num_classes)
    cfg = PartitionConfig(voxel_sizes=(0.9, 0.5), rng_seed=2)
    a = build_partitions(cloud, cfg)
    b = build_partitions(shuffled, cfg)
    for pa, pb in zip(a.partitions, b.partitions):
        pts_a = cloud.positions[pa]
        pts_b = shuffled.positions[pb]
        order_a = np.lexsort(pts_a.T)
        order_b = np.lexsort(pts_b.T)
        assert np.array_equal(pts_a[order_a], pts_b[order_b])


def test_eight_corner_example():
    corners = np.array([[x, y, z] for x in (0.0, 1.0)
                        for y in (0.0, 1.0) for z in (0.0, 1.0)])
    cloud = PointCloud(corners, np.zeros((8, 3)))
    parts = build_partitions(cloud, PartitionConfig(voxel_sizes=(2.0, 0.5)))
    assert parts.sizes == (1, 7)


def test_sparse_cloud_warns():
    cloud = PointCloud(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.warns(UserWarning):
        parts = build_partitions(cloud, PartitionConfig(voxel_sizes=(1.0, 0.5)))
    assert parts.sizes == (1, 0)


def test_cloud_beyond_key_range_rejected():
    # 3M voxels across at 0.5 m; 1.5M at 1 m, where the far point lies
    # beyond 2^20 voxels from the origin but the extent fits 2^21
    pos = np.array([[0.0, 0.0, 0.0], [-1.5e6, 0.0, 0.0]])
    cloud = PointCloud(pos, np.zeros((2, 3)))
    with pytest.raises(CloudExtentError, match="voxel size 0.5 m"):
        build_partitions(cloud, PartitionConfig(voxel_sizes=(0.5,)))
    assert build_partitions(cloud, PartitionConfig(voxel_sizes=(1.0,))).sizes == (2,)
    # coordinates too large for int64 voxel keys are rejected, not wrapped
    huge = PointCloud(np.full((1, 3), 1e300), np.zeros((1, 3)))
    with pytest.raises(CloudExtentError, match="2\\^62"):
        build_partitions(huge, PartitionConfig(voxel_sizes=(1.0,)))


def test_gather_bounds_checked():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 20)
    sub = gather(cloud, np.array([3, 1, 7]))
    assert sub.n == 3
    assert np.array_equal(sub.positions, cloud.positions[[3, 1, 7]])
    assert np.array_equal(sub.labels, cloud.labels[[3, 1, 7]])
    with pytest.raises(ValueError):
        gather(cloud, np.array([20]))
    with pytest.raises(ValueError):
        gather(cloud, np.array([-1]))
