import hashlib

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
                          encoder_stages=2, downsample_factor=2.0,
                          interp_neighbors=3)


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
