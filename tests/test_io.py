import numpy as np
import pytest

from scaleseg.cloud import PointCloud
from scaleseg.io import CloudFormatError, read_cloud, write_cloud
from scaleseg.scene import SceneSpec, generate_scene


@pytest.fixture
def labeled_cloud():
    return generate_scene(SceneSpec(num_points=500, rng_seed=0))


def unlabeled(cloud):
    return PointCloud(cloud.positions, cloud.colors)


def test_binary_round_trip(tmp_path, labeled_cloud):
    path = tmp_path / "c.rspc"
    write_cloud(labeled_cloud, path)
    back = read_cloud(path)
    assert np.array_equal(back.positions, labeled_cloud.positions)
    assert np.array_equal(back.colors, labeled_cloud.colors)
    assert np.array_equal(back.labels, labeled_cloud.labels)
    assert back.num_classes == labeled_cloud.num_classes


def test_binary_round_trip_unlabeled(tmp_path, labeled_cloud):
    path = tmp_path / "c.rspc"
    write_cloud(unlabeled(labeled_cloud), path)
    back = read_cloud(path)
    assert back.labels is None
    assert np.array_equal(back.positions, labeled_cloud.positions)


def test_ascii_round_trip(tmp_path, labeled_cloud):
    path = tmp_path / "c.xyz"
    write_cloud(labeled_cloud, path)
    text = path.read_text()
    first = text.splitlines()[0].split()
    assert len(first) == 7  # x y z r g b label
    back = read_cloud(path)
    # %.17g coordinates and 8-bit colors survive the text round trip exactly
    assert np.array_equal(back.positions, labeled_cloud.positions)
    assert np.array_equal(back.colors, labeled_cloud.colors)
    assert np.array_equal(back.labels, labeled_cloud.labels)


def test_format_sniffing_ignores_extension(tmp_path, labeled_cloud):
    # a binary payload under a name of no known format reads via magic sniff
    path = tmp_path / "weird.dat"
    write_cloud(labeled_cloud, path)
    back = read_cloud(path)
    assert back.n == labeled_cloud.n
    # ascii payload under a name that would be written as binary
    path2 = tmp_path / "plain.dat"
    write_cloud(labeled_cloud, tmp_path / "plain.xyz")
    (tmp_path / "plain.xyz").rename(path2)
    back2 = read_cloud(path2)
    assert np.array_equal(back2.positions, labeled_cloud.positions)


def test_bad_magic(tmp_path):
    # without the magic bytes a file is read as ASCII, and this is no
    # ASCII cloud either; the error names both readings
    path = tmp_path / "bad.rspc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CloudFormatError, match="fields") as info:
        read_cloud(path)
    assert "b'NOPE'" in str(info.value) and "RSPC" in str(info.value)


def test_truncated_header(tmp_path):
    path = tmp_path / "t.rspc"
    path.write_bytes(b"RS")
    with pytest.raises(CloudFormatError):
        read_cloud(path)
    path.write_bytes(b"RSPC" + b"\x01\x00\x00")
    with pytest.raises(CloudFormatError, match="truncated header"):
        read_cloud(path)


def test_truncated_records(tmp_path, labeled_cloud):
    path = tmp_path / "t.rspc"
    write_cloud(labeled_cloud, path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(CloudFormatError, match="truncat"):
        read_cloud(path)


def test_trailing_bytes(tmp_path, labeled_cloud):
    path = tmp_path / "t.rspc"
    write_cloud(labeled_cloud, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CloudFormatError, match="trailing"):
        read_cloud(path)


def test_unsupported_version(tmp_path, labeled_cloud):
    path = tmp_path / "t.rspc"
    write_cloud(labeled_cloud, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # version field follows the magic
    path.write_bytes(bytes(data))
    with pytest.raises(CloudFormatError, match="version"):
        read_cloud(path)


def test_ascii_bad_lines(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2 3 10 20\n")  # 5 tokens
    with pytest.raises(CloudFormatError):
        read_cloud(p)
    p.write_text("0 0 0 0 0 300\n")  # color out of range
    with pytest.raises(CloudFormatError):
        read_cloud(p)
    p.write_text("0 0 0 0 0 0 1\n0 0 0 0 0 0\n")  # inconsistent width
    with pytest.raises(CloudFormatError):
        read_cloud(p)
    p.write_text("0 0 x 0 0 0\n")
    with pytest.raises(CloudFormatError):
        read_cloud(p)
    p.write_text("nan 0 0 0 0 0\n")  # parses as a float, but not finite
    with pytest.raises(CloudFormatError, match="bad.xyz.*finite"):
        read_cloud(p)


def test_ascii_label_class_inference(tmp_path):
    p = tmp_path / "lab.xyz"
    p.write_text("0 0 0 10 10 10 2\n1 1 1 20 20 20 0\n")
    cloud = read_cloud(p)
    assert cloud.num_classes == 3  # max label + 1
    assert cloud.labels.tolist() == [2, 0]


def test_binary_label_range_check(tmp_path, labeled_cloud):
    path = tmp_path / "t.rspc"
    write_cloud(labeled_cloud, path)
    data = bytearray(path.read_bytes())
    # corrupt the first label (u16 after 3 f64 + 3 u8 of point 0)
    off = 19 + 27
    data[off:off + 2] = (60000).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CloudFormatError, match="label"):
        read_cloud(path)


def test_binary_non_finite_position(tmp_path, labeled_cloud):
    path = tmp_path / "t.rspc"
    write_cloud(labeled_cloud, path)
    data = bytearray(path.read_bytes())
    data[19:27] = np.float64(np.nan).tobytes()  # x of point 0, after the header
    path.write_bytes(bytes(data))
    with pytest.raises(CloudFormatError, match="t.rspc.*finite"):
        read_cloud(path)


def test_empty_cloud_round_trip(tmp_path):
    empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
    path = tmp_path / "e.rspc"
    write_cloud(empty, path)
    back = read_cloud(path)
    assert back.n == 0
