"""The distributable artifact: trainable tensors plus the reconstruction
metadata that regenerates every frozen matrix bit-exactly.

Container layout (little-endian throughout, documented in docs/FORMAT.md):

    [magic "LTLR"][version u16][header-len u32][header JSON utf-8]
    [tensor table][payload][crc32 u32]

The header JSON carries the generator tag, the backbone spec (seed,
family, layer shapes), the model config, and free-form extras.  The
tensor table lists name/shape/offset for each payload tensor; the payload
is row-major in canonical parameter order, f32 under version 1 and f16
under version 2.  The CRC-32 covers every byte before it.  Backbone
matrices are never serialized.

``pack`` writes version 2 exactly when every trainable value survives
f32 -> f16 -> f32 bit for bit, which ``to_shipping_precision`` arranges
for a trained model; otherwise it writes version 1.
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
# format version -> payload element type; the version field is the dtype code
PAYLOAD_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f2")}
FORMAT_VERSION = max(PAYLOAD_DTYPES)
F16_MAX = 65504.0


def to_shipping_precision(model: Model) -> bool:
    """Round every trainable to the nearest f16 (ties to even) in place.

    The rounded values are written back into the same arrays, so views an
    optimizer holds stay bound.  When any value is non-finite or above
    ``F16_MAX`` in magnitude, nothing changes and the model stays f32.
    Returns whether the model was rounded.
    """
    arrays = [t.data for _, t in model.trainable_params()]
    if not all(np.all(np.abs(a) <= F16_MAX) for a in arrays):
        return False
    for a in arrays:
        a[...] = a.astype(np.float16)
    return True


def _f16_exact(data: np.ndarray) -> bool:
    """Whether f32 ``data`` survives f32 -> f16 -> f32 bit for bit."""
    with np.errstate(over="ignore"):  # a value past the f16 range is simply not exact
        return np.array_equal(data.astype("<f2").astype("<f4").view("<u4"), data.view("<u4"))


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def pack(model: Model, extra: dict | None = None) -> bytes:
    """Serialize a model's trainable state into the canonical byte stream:
    format version 2 (f16) when every value is f16-exact, else version 1
    (f32)."""
    header = {
        "algorithm_id": ALGORITHM_ID,
        "backbone": model.spec.to_dict(),
        "model": model.cfg.to_dict(),
        "extra": extra or {},
    }
    header_bytes = _canonical_json(header)

    tensors = [(name, np.asarray(t.data, dtype="<f4")) for name, t in model.trainable_params()]
    version = 2 if all(_f16_exact(data) for _, data in tensors) else 1
    table = bytearray()
    payload = bytearray()
    table += struct.pack("<I", len(tensors))
    for name, data in tensors:
        raw = data.astype(PAYLOAD_DTYPES[version], copy=False).tobytes()
        encoded = name.encode("utf-8")
        table += struct.pack("<H", len(encoded)) + encoded
        table += struct.pack("<B", data.ndim)
        for dim in data.shape:
            table += struct.pack("<I", dim)
        table += struct.pack("<QQ", len(payload), len(raw))
        payload += raw

    body = MAGIC + struct.pack("<HI", version, len(header_bytes)) + header_bytes + bytes(table) + bytes(payload)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def unpack(blob: bytes) -> tuple[dict, dict]:
    """Validate and decode an artifact into (header, {name: f32 array}).

    Version 1 payloads are f32 and version 2 payloads f16, widened to f32
    exactly.  Every malformed blob raises ``FormatError``,
    ``IntegrityError`` or ``IncompatibilityError``: each table read is
    bounds-checked against the CRC, and the tensors must tile the payload
    back to back, at the version's bytes a value, up to it.
    """
    if len(blob) < 14 or blob[:4] != MAGIC:
        raise FormatError(f"not a LTLR artifact (magic {blob[:4]!r})")
    version, header_len = struct.unpack_from("<HI", blob, 4)
    if version not in PAYLOAD_DTYPES:
        raise IncompatibilityError(
            f"artifact format version {version}; this build reads versions {sorted(PAYLOAD_DTYPES)}"
        )
    dtype = PAYLOAD_DTYPES[version]
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
    if not isinstance(header.get("extra", {}), dict):
        raise FormatError(f"artifact header extra must be a JSON object, got {type(header['extra']).__name__}")

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
        if offset != payload_len or nbytes != dtype.itemsize * math.prod(shape):
            raise FormatError(
                f"tensor {name!r} has extent ({offset}, {nbytes}); expected ({payload_len}, "
                f"{dtype.itemsize * math.prod(shape)}) for shape {shape} packed back to back "
                f"at {dtype.itemsize} bytes a value (format version {version})"
            )
        payload_len += nbytes
        entries.append((name, shape))
    if len({name for name, _ in entries}) != len(entries):
        raise FormatError("artifact tensor table repeats a tensor name")
    if payload_len != end - pos:
        raise FormatError(f"payload holds {end - pos} bytes; the tensor table declares {payload_len}")

    tensors = {}
    for name, shape in entries:
        raw = take(dtype.itemsize * math.prod(shape), f"payload of {name!r}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.float32)
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
    # the shapes and the table are checked against the declared model before
    # anything is built, so a header cannot make a model the payload does not
    # fill; empty backbone shapes mean the model's own
    if spec.layer_shapes and spec.layer_shapes != cfg.layer_shapes():
        raise FormatError(f"backbone layer shapes {spec.layer_shapes} do not match the model's {cfg.layer_shapes()}")
    layout = cfg.trainable_layout()
    if [name for name, _ in layout] != list(tensors):
        raise FormatError("artifact tensor table does not match the declared architecture")
    for name, shape in layout:
        if tuple(tensors[name].shape) != shape:
            raise FormatError(f"tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    model = build_model(cfg, spec)
    for name, t in model.trainable_params():
        t.data[...] = tensors[name]
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
