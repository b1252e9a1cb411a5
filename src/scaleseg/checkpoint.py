"""Versioned binary container for model weights.

Layout (little-endian):
  magic "SSCP" | u32 version=1 | u8 frozen | u32 meta_len | meta bytes
  | u32 tensor_count | per tensor: u16 name_len, name utf-8, u8 ndim,
  u64 dims..., raw float64 data (C order).

meta is a key=value block (one pair per line) holding every
BackboneConfig field plus caller extras; loading returns any other key,
such as the input width that older files stored, as an extra. A
metadata key or tensor name that appears twice is a format error. Floats
are written with repr so the round trip is value-exact; tensor data
round-trips bit-exactly.
"""

import dataclasses
import math
import struct

import numpy as np

from .backbone import BackboneConfig

_MAGIC = b"SSCP"
_VERSION = 1


class CheckpointFormatError(ValueError):
    """Malformed checkpoint file."""


def save_checkpoint(path, params, cfg: BackboneConfig, frozen=False, extras=None):
    """Write named float64 tensors plus config; names stored sorted."""
    meta = {f.name: repr(getattr(cfg, f.name))
            for f in dataclasses.fields(BackboneConfig)}
    for key, value in (extras or {}).items():
        if key in meta:
            raise ValueError(f"extra key {key!r} collides with a config field")
        meta[key] = str(value)
    meta_blob = "".join(f"{k}={v}\n" for k, v in sorted(meta.items())).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IB", _VERSION, int(bool(frozen))))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            tensor = np.ascontiguousarray(params[name], dtype=np.float64)
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
            fh.write(tensor.tobytes())


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.at = 0
        self.path = path

    def take(self, n):
        if self.at + n > len(self.blob):
            raise CheckpointFormatError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.at:self.at + n]
        self.at += n
        return out

    def text(self, n):
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{self.path}: {exc}") from None

    def unpack(self, fmt):
        s = struct.Struct(fmt)
        return s.unpack(self.take(s.size))


def load_checkpoint(path):
    """Returns (params, cfg, frozen, extras)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != _MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic")
    version, frozen = r.unpack("<IB")
    if version != _VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    (meta_len,) = r.unpack("<I")
    meta = {}
    for line in r.text(meta_len).splitlines():
        key, _, value = line.partition("=")
        if key in meta:
            raise CheckpointFormatError(f"{path}: duplicate metadata key {key!r}")
        meta[key] = value
    try:
        cfg = BackboneConfig(**{f.name: f.type(meta.pop(f.name))
                                for f in dataclasses.fields(BackboneConfig)})
    except (KeyError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad config block: {exc}") from None
    (count,) = r.unpack("<I")
    params = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        if name in params:
            raise CheckpointFormatError(f"{path}: duplicate tensor {name!r}")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}Q") if ndim else ()
        # Python integers: a product of u64 dims never wraps around
        data = np.frombuffer(r.take(math.prod(shape) * 8), dtype="<f8")
        try:
            params[name] = data.reshape(shape).copy()
        except ValueError as exc:  # an empty tensor with a dim numpy cannot hold
            raise CheckpointFormatError(f"{path}: tensor {name!r}: {exc}") from None
    if r.at != len(blob):
        raise CheckpointFormatError(f"{path}: {len(blob) - r.at} trailing bytes")
    return params, cfg, bool(frozen), meta
