"""Point-cloud file formats.

Binary container (little-endian):
  magic "RSPC" | u32 version=1 | u64 count | u8 has_labels | u16 num_classes
  then per point: x y z as f64, r g b as u8, label as u16 when present.
Colors are stored 8-bit and normalized to [0,1] on load; writing
quantizes to the nearest 8-bit level, so a loaded cloud round-trips
bit-exactly.

ASCII twin: one point per line, "x y z r g b [label]" with r g b as
integers in [0,255]. Coordinates are written with 17 significant
digits, which round-trips float64 values exactly.
"""

import struct

import numpy as np

from .cloud import PointCloud

_MAGIC = b"RSPC"
_VERSION = 1
_HEADER = struct.Struct("<4sIQBH")


class CloudFormatError(ValueError):
    """Malformed point-cloud file."""


def _point_dtype(has_labels):
    fields = [("xyz", "<f8", (3,)), ("rgb", "u1", (3,))]
    if has_labels:
        fields.append(("label", "<u2"))
    return np.dtype(fields)


def _colors_to_u8(colors):
    return np.rint(colors * 255.0).astype(np.uint8)


def _format_of(path, fmt):
    if fmt is not None:
        if fmt not in ("binary", "ascii"):
            raise CloudFormatError(f"unknown format {fmt!r}")
        return fmt
    name = str(path).lower()
    if name.endswith((".xyz", ".txt", ".asc")):
        return "ascii"
    return "binary"


def write_cloud(cloud: PointCloud, path, fmt=None):
    """Write a cloud; format from `fmt` or the file extension."""
    fmt = _format_of(path, fmt)
    has_labels = cloud.labels is not None
    if has_labels and cloud.labels.size and cloud.labels.max() >= 1 << 16:
        raise CloudFormatError("labels exceed the 16-bit storage range")
    if not 0 <= cloud.num_classes < 1 << 16:
        raise CloudFormatError("num_classes exceeds the 16-bit storage range")
    if fmt == "ascii":
        _write_ascii(cloud, path, has_labels)
        return
    rec = np.empty(cloud.n, dtype=_point_dtype(has_labels))
    rec["xyz"] = cloud.positions
    rec["rgb"] = _colors_to_u8(cloud.colors)
    if has_labels:
        rec["label"] = cloud.labels.astype(np.uint16)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, cloud.n, int(has_labels),
                              cloud.num_classes))
        fh.write(rec.tobytes())


def _write_ascii(cloud, path, has_labels):
    rgb = _colors_to_u8(cloud.colors)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(cloud.n):
            x, y, z = cloud.positions[i]
            line = f"{x:.17g} {y:.17g} {z:.17g} {rgb[i, 0]} {rgb[i, 1]} {rgb[i, 2]}"
            if has_labels:
                line += f" {cloud.labels[i]}"
            fh.write(line + "\n")


def read_cloud(path, fmt=None, num_classes=None) -> PointCloud:
    """Read a cloud; binary files are recognized by their magic bytes.

    num_classes overrides/supplies the class count for ASCII files
    (defaults to max label + 1 when labels are present).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if fmt is None:
        fmt = "binary" if blob[:4] == _MAGIC else "ascii"
    elif fmt not in ("binary", "ascii"):
        raise CloudFormatError(f"unknown format {fmt!r}")
    if fmt == "binary":
        return _read_binary(blob, path)
    return _read_ascii(blob, path, num_classes)


def _make_cloud(path, **fields):
    """PointCloud, with its own validation errors reported as file errors."""
    try:
        return PointCloud(**fields)
    except ValueError as exc:
        raise CloudFormatError(f"{path}: {exc}") from None


def _read_binary(blob, path):
    if len(blob) < _HEADER.size:
        raise CloudFormatError(f"{path}: truncated header")
    magic, version, count, has_labels, num_classes = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CloudFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CloudFormatError(f"{path}: unsupported version {version}")
    if has_labels not in (0, 1):
        raise CloudFormatError(f"{path}: bad has_labels flag {has_labels}")
    dt = _point_dtype(has_labels)
    body = blob[_HEADER.size:]
    expected = count * dt.itemsize
    if len(body) < expected:
        raise CloudFormatError(
            f"{path}: truncated record data ({len(body)} bytes, need {expected})")
    if len(body) > expected:
        raise CloudFormatError(f"{path}: {len(body) - expected} trailing bytes")
    rec = np.frombuffer(body, dtype=dt, count=count)
    labels = None
    if has_labels:
        labels = rec["label"].astype(np.int64)
        if labels.size and labels.max() >= num_classes:
            raise CloudFormatError(
                f"{path}: label {labels.max()} >= num_classes {num_classes}")
    return _make_cloud(path, positions=rec["xyz"].astype(np.float64),
                       colors=rec["rgb"].astype(np.float64) / 255.0,
                       labels=labels, num_classes=num_classes)


def _read_ascii(blob, path, num_classes):
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CloudFormatError(f"{path}: not an ASCII cloud file: {exc}") from None
    positions, rgb, labels = [], [], []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) not in (6, 7):
            raise CloudFormatError(
                f"{path}:{lineno}: expected 6 or 7 fields, got {len(tok)}")
        if width is None:
            width = len(tok)
        elif len(tok) != width:
            raise CloudFormatError(
                f"{path}:{lineno}: inconsistent field count ({len(tok)} vs {width})")
        try:
            positions.append([float(t) for t in tok[:3]])
            rgb.append([int(t) for t in tok[3:6]])
            if width == 7:
                labels.append(int(tok[6]))
        except ValueError as exc:
            raise CloudFormatError(f"{path}:{lineno}: {exc}") from None
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    col = np.asarray(rgb, dtype=np.int64).reshape(-1, 3)
    if col.size and (col.min() < 0 or col.max() > 255):
        raise CloudFormatError(f"{path}: color component outside [0, 255]")
    lab = None
    if width == 7:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.size and lab.min() < 0:
            raise CloudFormatError(f"{path}: negative label")
        if num_classes is None:
            num_classes = int(lab.max()) + 1 if lab.size else 0
        if lab.size and lab.max() >= num_classes:
            raise CloudFormatError(
                f"{path}: label {lab.max()} >= num_classes {num_classes}")
    return _make_cloud(path, positions=pos, colors=col.astype(np.float64) / 255.0,
                       labels=lab, num_classes=num_classes or 0)
