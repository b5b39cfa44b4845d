"""The distributable artifact: trainable tensors plus the reconstruction
metadata that regenerates every frozen matrix bit-exactly.

Container layout (little-endian throughout, documented in docs/FORMAT.md):

    [magic "LTLR"][version u16][header-len u32][header JSON utf-8]
    [tensor table][payload][crc32 u32]

The header JSON carries the generator tag, the backbone spec (seed,
family, layer shapes), the model config, and free-form extras.  The
tensor table lists name/shape/offset for each payload tensor; the payload
is f32 row-major in canonical parameter order.  The CRC-32 covers every
byte before it.  Backbone matrices are never serialized.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import ConfigError, FormatError, IncompatibilityError, IntegrityError
from .model import BackboneSpec, Model, ModelConfig, build_model
from .prng import ALGORITHM_ID

MAGIC = b"LTLR"
FORMAT_VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def pack(model: Model, extra: dict | None = None) -> bytes:
    """Serialize a model's trainable state into the canonical byte stream."""
    header = {
        "algorithm_id": ALGORITHM_ID,
        "backbone": model.spec.to_dict(),
        "model": model.cfg.to_dict(),
        "extra": extra or {},
    }
    header_bytes = _canonical_json(header)

    table = bytearray()
    payload = bytearray()
    tensors = model.trainable_params()
    table += struct.pack("<I", len(tensors))
    for name, t in tensors:
        data = np.asarray(t.data, dtype="<f4")
        if data.ndim and not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        raw = data.tobytes()
        encoded = name.encode("utf-8")
        table += struct.pack("<H", len(encoded)) + encoded
        table += struct.pack("<B", data.ndim)
        for dim in data.shape:
            table += struct.pack("<I", dim)
        table += struct.pack("<QQ", len(payload), len(raw))
        payload += raw

    body = MAGIC + struct.pack("<HI", FORMAT_VERSION, len(header_bytes)) + header_bytes + bytes(table) + bytes(payload)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def unpack(blob: bytes) -> tuple[dict, dict]:
    """Validate and decode an artifact into (header, {name: f32 array}).

    Every malformed blob raises ``FormatError``, ``IntegrityError`` or
    ``IncompatibilityError``: each table read is bounds-checked against the
    CRC, and the tensors must tile the payload back to back up to it.
    """
    if len(blob) < 14 or blob[:4] != MAGIC:
        raise FormatError(f"not a LTLR artifact (magic {blob[:4]!r})")
    version, header_len = struct.unpack_from("<HI", blob, 4)
    if version != FORMAT_VERSION:
        raise IncompatibilityError(f"artifact format version {version}; this build reads {FORMAT_VERSION}")
    end = len(blob) - 4
    (stored_crc,) = struct.unpack_from("<I", blob, end)
    if zlib.crc32(blob[:end]) & 0xFFFFFFFF != stored_crc:
        raise IntegrityError("artifact checksum mismatch; the file is corrupt")

    pos = 10

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if size > end - pos:
            raise FormatError(f"artifact truncated: {what} at byte {pos} runs past the payload end {end}")
        pos += size
        return blob[pos - size:pos]

    try:
        header = json.loads(take(header_len, "header").decode("utf-8"))
    except ValueError as err:  # covers UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"artifact header is not valid JSON: {err}") from err
    if not isinstance(header, dict):
        raise FormatError(f"artifact header must be a JSON object, got {type(header).__name__}")

    if header.get("algorithm_id") != ALGORITHM_ID:
        raise IncompatibilityError(
            f"artifact was generated with {header.get('algorithm_id')!r}; this build expects {ALGORITHM_ID!r}"
        )

    (count,) = struct.unpack("<I", take(4, "tensor count"))
    entries = []
    payload_len = 0
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"tensor name at byte {pos - name_len} is not UTF-8: {err}") from err
        (ndim,) = struct.unpack("<B", take(1, f"ndim of {name!r}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name!r}"))
        offset, nbytes = struct.unpack("<QQ", take(16, f"extent of {name!r}"))
        if offset != payload_len or nbytes != 4 * math.prod(shape):
            raise FormatError(
                f"tensor {name!r} has extent ({offset}, {nbytes}); expected ({payload_len}, "
                f"{4 * math.prod(shape)}) for shape {shape} packed back to back"
            )
        payload_len += nbytes
        entries.append((name, shape))
    if len({name for name, _ in entries}) != len(entries):
        raise FormatError("artifact tensor table repeats a tensor name")
    if payload_len != end - pos:
        raise FormatError(f"payload holds {end - pos} bytes; the tensor table declares {payload_len}")

    tensors = {}
    for name, shape in entries:
        raw = take(4 * math.prod(shape), f"payload of {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
    return header, tensors


def reconstruct(header: dict, tensors: dict) -> Model:
    """Rebuild the full model: frozen matrices regenerated from the seed,
    trainable tensors restored from the payload."""
    if header.get("algorithm_id") != ALGORITHM_ID:
        raise IncompatibilityError(
            f"artifact was generated with {header.get('algorithm_id')!r}; this build expects {ALGORITHM_ID!r}"
        )
    try:
        cfg = ModelConfig(**header["model"])
        spec = BackboneSpec.from_dict(header["backbone"])
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise FormatError(f"artifact header has a missing or malformed model/backbone field: {err!r}") from err
    model = build_model(cfg, spec)
    expected = model.trainable_params()
    if [n for n, _ in expected] != list(tensors):
        raise FormatError("artifact tensor table does not match the declared architecture")
    for name, t in expected:
        arr = tensors[name]
        if tuple(arr.shape) != tuple(t.data.shape):
            raise FormatError(f"tensor {name!r} has shape {arr.shape}, expected {t.data.shape}")
        t.data[...] = arr
    return model


def save(path: str, blob: bytes) -> None:
    """Atomic write via temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ltlr.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
