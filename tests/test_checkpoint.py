import hashlib
import struct

import numpy as np
import pytest

from scaleseg.backbone import BackboneConfig, init_params
from scaleseg.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)


def cfg():
    return BackboneConfig(num_classes=5, feature_dim=8, attention_neighbors=4,
                          encoder_stages=2)


def test_round_trip(tmp_path):
    c = cfg()
    params = init_params(c, seed=1, with_fusion=True)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, c, frozen=True, extras={"scale_id": 2})
    loaded, lc, frozen, extras = load_checkpoint(path)
    assert lc == c
    assert frozen is True
    assert extras["scale_id"] == "2"
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])
        assert loaded[k].dtype == np.float64


def test_old_in_dim_line_is_an_extra(tmp_path):
    # older files stored the input width, always 6, as a config field
    c = cfg()
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c, extras={"in_dim": 6})
    assert b"\nin_dim=6\n" in path.read_bytes()
    _, lc, _, extras = load_checkpoint(path)
    assert lc == c
    assert extras == {"in_dim": "6"}
    assert not hasattr(lc, "in_dim")


def test_recorded_constants_load(tmp_path):
    # files written before the pooling factor and the interpolation
    # neighbours became constants record them as config fields
    c = cfg()
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c,
                    extras={"downsample_factor": 2.0, "interp_neighbors": 3,
                            "scale_id": 1})
    _, lc, _, extras = load_checkpoint(path)
    assert lc == c
    assert extras == {"scale_id": "1"}


@pytest.mark.parametrize("key, value", [("interp_neighbors", 5),
                                        ("downsample_factor", 3.0)])
def test_other_recorded_constant_is_refused(tmp_path, key, value):
    c = cfg()
    path = tmp_path / "other.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c, extras={key: value})
    with pytest.raises(CheckpointFormatError, match=f"trained with {key}="):
        load_checkpoint(path)


def test_canonical_bytes(tmp_path):
    c = cfg()
    params = init_params(c, seed=2)
    reordered = {k: params[k] for k in reversed(list(params))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, c)
    save_checkpoint(p2, reordered, c)
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 == h2  # dict insertion order must not leak into the file


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_truncated(tmp_path):
    c = cfg()
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_trailing_bytes(tmp_path):
    c = cfg()
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("text", [b"scale_id=2", b"head_b"])
def test_non_utf8_text(tmp_path, text):
    # one byte of the metadata block or of a tensor name is not UTF-8
    c = cfg()
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c, extras={"scale_id": 2})
    data = path.read_bytes()
    assert data.count(text) == 1
    path.write_bytes(data.replace(text, text[:-1] + b"\xff"))
    with pytest.raises(CheckpointFormatError, match="utf-8"):
        load_checkpoint(path)


def _meta_span(data):
    """(start, end) of the metadata block in checkpoint bytes."""
    (meta_len,) = struct.unpack_from("<I", data, 9)
    return 13, 13 + meta_len


@pytest.mark.parametrize("line", [b"scale_id=3\n", b"feature_dim=8\n"],
                         ids=["extra", "config-field"])
def test_duplicate_metadata_key(tmp_path, line):
    # a second line for a key would overwrite the first, even with the
    # same value
    c = cfg()
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c, extras={"scale_id": 2})
    data = path.read_bytes()
    start, end = _meta_span(data)
    meta = data[start:end] + line
    path.write_bytes(data[:9] + struct.pack("<I", len(meta)) + meta + data[end:])
    key = line.split(b"=")[0].decode()
    with pytest.raises(CheckpointFormatError,
                       match=f"duplicate metadata key '{key}'"):
        load_checkpoint(path)


def test_duplicate_tensor_name(tmp_path):
    # a second att0_ab1 record, all 7.0, after the others would overwrite
    # the first and still have the expected shape
    c = cfg()
    params = init_params(c, seed=0)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, params, c)
    data = bytearray(path.read_bytes())
    at = _meta_span(data)[1]
    (count,) = struct.unpack_from("<I", data, at)
    struct.pack_into("<I", data, at, count + 1)
    extra = np.full(params["att0_ab1"].shape, 7.0)
    data += (struct.pack("<H", 8) + b"att0_ab1"
             + struct.pack("<BQ", 1, extra.size) + extra.tobytes())
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError,
                       match="duplicate tensor 'att0_ab1'"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(2 ** 62, 4), (2 ** 63, 0)],
                         ids=["count-overflows", "empty-dim-overflows"])
def test_tensor_dims_beyond_int64(tmp_path, dims):
    # head_b's header claims dims whose element count, or one dim, does
    # not fit in int64; its data bytes stay as they were
    c = cfg()
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, init_params(c, seed=0), c)
    data = path.read_bytes()
    at = data.index(b"head_b") + len(b"head_b")
    assert data[at:at + 9] == struct.pack("<BQ", 1, c.num_classes)
    path.write_bytes(data[:at] + struct.pack("<B2Q", 2, *dims) + data[at + 9:])
    with pytest.raises(CheckpointFormatError, match="head_b|truncated"):
        load_checkpoint(path)
