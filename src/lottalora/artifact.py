"""The distributable artifact: trainable tensors plus the reconstruction
metadata that regenerates every frozen matrix bit-exactly.

Container layout (little-endian throughout, documented in docs/FORMAT.md):

    [magic "LTLR"][version u16][header-len u32][header JSON utf-8]
    [tensor table][payload][crc32 u32]

The header JSON carries the generator tag, the backbone spec (seed,
family, layer shapes), the model config, and free-form extras.  The
tensor table lists name/shape/offset for each tensor of the decoded
payload, which is row-major in canonical parameter order: f32 under
version 1, f16 under versions 2 and 3.  Version 2 stores the f16 values
as they are.  Version 3 stores them as one zlib stream that inflates to
two byte planes, every value's low byte and then every value's high
byte; the table's extents still count decoded f16 bytes.  The CRC-32
covers every byte before it.  Backbone matrices are never serialized.

``pack`` writes version 3 exactly when every trainable value survives
f32 -> f16 -> f32 bit for bit, which ``to_shipping_precision`` arranges
for a trained model; otherwise it writes version 1.  Its version 3
stream codes the planes tensor by tensor in deflate blocks of their own,
with run-length matches only (``_deflate_planes``).  ``unpack`` reads all
three versions, and any one zlib stream over the planes as version 3.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, FormatError, IncompatibilityError, IntegrityError
from .model import BackboneSpec, Model, ModelConfig, build_model
from .prng import ALGORITHM_ID

MAGIC = b"LTLR"
# format version -> element type of the decoded payload
PAYLOAD_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f2"), 3: np.dtype("<f2")}
FORMAT_VERSION = max(PAYLOAD_DTYPES)
F16_MAX = 65504.0
# deflate codes a 258-byte match in 2 bits at best, so no stream decodes to more bytes a stored byte
MAX_INFLATE_RATIO = 1032
# a version 3 deflate block ends after the tensor slice that brings it to this many bytes
MIN_BLOCK_BYTES = 256


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


def _byte_planes(raw: bytes) -> bytes:
    """f16 values' bytes as two planes: every low byte, then every high byte."""
    return np.frombuffer(raw, np.uint8).reshape(-1, 2).T.tobytes()


def _interleaved(planes: bytes) -> bytes:
    """The inverse of ``_byte_planes``: back to little-endian f16 values."""
    return np.frombuffer(planes, np.uint8).reshape(2, -1).T.tobytes()


def _table_entry(name: str, shape: tuple, offset: int, nbytes: int) -> bytes:
    """One tensor's entry in the tensor table: name length (u16), UTF-8
    name, ndim (u8), dims (u32 each), then the tensor's decoded payload
    offset and size (u64 each)."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<H{len(encoded)}sB{len(shape)}IQQ", len(encoded), encoded, len(shape), *shape, offset, nbytes)


def _deflate_planes(raw: bytes, sizes: list[int]) -> bytes:
    """The version 3 payload stream for the f16 values ``raw``, whose
    tensors hold ``sizes`` values in order: one zlib stream over
    ``_byte_planes(raw)`` that codes each plane tensor by tensor, with
    run-length matches only (``Z_RLE``), and ends a deflate block, whose
    Huffman tables then start afresh, after a tensor's slice once the block
    holds ``MIN_BLOCK_BYTES`` or the plane ends.  Tensors differ in their
    byte statistics (B starts at zero, A is noise, the head is dense), and
    longer matches on a noisy low plane cost more bits than they save;
    smaller blocks would spend more on their tables than they save."""
    planes = memoryview(_byte_planes(raw))
    ends = list(itertools.accumulate(sizes, initial=0))
    count = ends[-1]
    deflater = zlib.compressobj(9, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    stream = []
    for base in (0, count):
        held = 0
        for start, stop in zip(ends, ends[1:]):
            stream.append(deflater.compress(planes[base + start:base + stop]))
            held += stop - start
            # the final flush ends the last block
            if (held >= MIN_BLOCK_BYTES or stop == count) and base + stop < 2 * count:
                stream.append(deflater.flush(zlib.Z_BLOCK))
                held = 0
    stream.append(deflater.flush())
    return b"".join(stream)


def _inflate(stream: bytes, size: int) -> bytes:
    """What a version 3 payload stream decodes to, checked to end within
    ``size`` bytes; ``unpack`` checks that it ends exactly there.

    A table declaring more than ``MAX_INFLATE_RATIO`` decoded bytes for
    every stored byte is refused before any inflating.  Inflating stops
    one byte past ``size`` (a limit of 0 would mean none), so a stream that
    decodes to more, a decompression bomb included, costs at most that much
    memory.  Anything but one whole zlib stream is a ``FormatError``.
    """
    if size > MAX_INFLATE_RATIO * len(stream):
        raise FormatError(f"the tensor table declares {size} payload bytes, more than deflate can code "
                          f"in the {len(stream)} bytes stored ({MAX_INFLATE_RATIO} to 1 at most)")
    inflater = zlib.decompressobj()
    try:
        planes = inflater.decompress(stream, size + 1)
    except zlib.error as err:
        raise FormatError(f"version 3 payload is not a valid zlib stream: {err}") from err
    if len(planes) > size or inflater.unconsumed_tail:
        raise FormatError(f"version 3 payload inflates past the {size} bytes the tensor table declares")
    if not inflater.eof:
        raise FormatError(f"version 3 payload stream is truncated after {len(planes)} of {size} bytes")
    if inflater.unused_data:
        raise FormatError(f"{len(inflater.unused_data)} bytes follow the end of the version 3 payload stream")
    return planes


def pack(model: Model, extra: dict | None = None) -> bytes:
    """Serialize a model's trainable state into the canonical byte stream:
    format version 3 (f16 byte planes, deflated tensor by tensor by
    ``_deflate_planes``) when every value is f16-exact, else version 1
    (f32)."""
    header = {
        "algorithm_id": ALGORITHM_ID,
        "backbone": asdict(model.spec),
        "model": asdict(model.cfg),
        "extra": extra or {},
    }
    header_bytes = _canonical_json(header)

    tensors = [(name, np.asarray(t.data, dtype="<f4")) for name, t in model.trainable_params()]
    version = 3 if all(_f16_exact(data) for _, data in tensors) else 1
    table = bytearray()
    payload = bytearray()
    table += struct.pack("<I", len(tensors))
    for name, data in tensors:
        raw = data.astype(PAYLOAD_DTYPES[version], copy=False).tobytes()
        table += _table_entry(name, data.shape, len(payload), len(raw))
        payload += raw
    if version == 3:
        payload = _deflate_planes(payload, [data.size for _, data in tensors])

    body = MAGIC + struct.pack("<HI", version, len(header_bytes)) + header_bytes + bytes(table) + bytes(payload)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def unpack(blob: bytes) -> tuple[dict, dict]:
    """Validate and decode an artifact into (header, {name: f32 array}).

    Version 1 payloads are f32; version 2 and 3 payloads are f16, widened
    to f32 exactly, and version 3 first inflates and re-interleaves its
    byte planes.  Every malformed blob raises ``FormatError``,
    ``IntegrityError`` or ``IncompatibilityError``: each table read is
    bounds-checked against the CRC, the tensors must tile the decoded
    payload back to back, at the version's bytes a value, the decoded
    payload must end where the last tensor does, and a version 3 table may
    declare no more than ``MAX_INFLATE_RATIO`` times the bytes stored.
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
    payload = blob[pos:end]
    if version == 3:
        payload = _inflate(payload, payload_len)
    if len(payload) != payload_len:
        raise FormatError(f"payload holds {len(payload)} bytes; the tensor table declares {payload_len}")

    values = np.frombuffer(_interleaved(payload) if version == 3 else payload, dtype=dtype)
    tensors = {}
    start = 0
    for name, shape in entries:
        size = math.prod(shape)
        tensors[name] = values[start:start + size].reshape(shape).astype(np.float32)
        start += size
    return header, tensors


def describe(blob: bytes, tensors: dict) -> dict:
    """What the coding of a valid artifact saved: its format version, its
    size in bytes, the bytes its payload takes between the tensor table and
    the CRC, and the size of that payload decoded, for ``tensors`` as
    ``unpack(blob)`` returned them."""
    version, header_len = struct.unpack_from("<HI", blob, 4)
    table_len = 4 + sum(len(_table_entry(name, t.shape, 0, 0)) for name, t in tensors.items())
    return {
        "format_version": version,
        "bytes": len(blob),
        "stored_payload_bytes": len(blob) - 10 - header_len - table_len - 4,
        "decoded_payload_bytes": PAYLOAD_DTYPES[version].itemsize * sum(t.size for t in tensors.values()),
    }


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
