"""The distributable artifact: trainable tensors plus the reconstruction
metadata that regenerates every frozen matrix bit-exactly.

Container layouts (little-endian throughout, documented in docs/FORMAT.md):

    versions 1-3: [magic "LTLR"][version u16][header-len u32][header JSON utf-8]
                  [tensor table][payload][crc32 u32]
    version 4:    [magic "LTLR"][version u16][header-len u32][zlib stream of the header JSON]
                  [zlib stream of the payload's byte planes][crc32 u32]

The header JSON carries the generator tag, the backbone spec (seed,
family, layer shapes, the tag again), the model config, and free-form
extras.  The
decoded payload is every trainable tensor, row-major, back to back in
canonical parameter order, which is ``Model.params``: f32 under version
1, f16 under versions 2 to 4.
In every version the header's model config names the tensors and their
shapes (``ModelConfig.trainable_layout``).  Versions 1 to 3 also store
that layout as a tensor table of each tensor's name, shape and decoded
payload extent (``_table``), which a reader derives and compares byte for
byte instead of parsing.  Version 2 stores the f16 values as they are.
Versions 3 and 4 store them as one zlib stream that inflates to two byte
planes, every value's low byte and then every value's high byte.
Version 4 has no table, and its header length is that of the header JSON
inflated.  The CRC-32 covers every byte before it.
Backbone matrices are never serialized.

``pack`` writes version 4 exactly when every trainable value survives
f32 -> f16 -> f32 bit for bit, and version 1 otherwise.  A trained model
ships as version 4: ``to_shipping_precision`` rounds each of its
trainable tensors to an int8 grid, integers in [-127, 127] times a
power-of-two scale of the tensor's own (ties to even, the scale at least
2**-24), and f16 holds every such value exactly.  Each value then keeps
at most 7 significant bits, so most of the low byte plane is zero bits.
The planes stream codes the planes tensor by tensor in deflate blocks of
their own, with run-length matches only, or as one plain level-9 stream
where that is shorter (``_deflate_planes``).  ``unpack`` reads all four
versions, and any one zlib stream over the planes as version 3 or 4.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import secrets
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, FormatError, IncompatibilityError, IntegrityError
from .model import BackboneSpec, Model, ModelConfig, build_model
from .prng import ALGORITHM_ID, check_tag

MAGIC = b"LTLR"
# format version -> element type of the decoded payload
PAYLOAD_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f2"), 3: np.dtype("<f2"), 4: np.dtype("<f2")}
# the shipping grid: each tensor's values as integers in [-127, 127] times
# a power of two 2**e, GRID_MIN_EXP <= e <= 9, all of which f16 holds exactly
GRID_MIN_EXP = -24
GRID_MAX = 127 * 2.0**9
# deflate codes a 258-byte match in 2 bits at best, so no stream decodes to more bytes a stored byte
MAX_INFLATE_RATIO = 1032
# a planes stream's deflate block ends after the tensor slice that brings it to this many bytes
MIN_BLOCK_BYTES = 256


def to_shipping_precision(model: Model) -> bool:
    """Round every trainable tensor to an int8 grid of its own in place.

    Tensor by tensor, in ``trainable_layout()`` order: with m the largest
    magnitude, e is the smallest integer with m <= 127 * 2**e, read
    exactly off ``np.frexp(m)`` and clamped to e >= ``GRID_MIN_EXP``, and
    each value becomes ``rint(x / 2**e) * 2**e`` (ties to even; -0.0 keeps
    its sign).  Scaling by a power of two is exact, so every value ends
    up an integer of at most 7 significant bits times 2**e, which f16
    holds exactly; an all-zero tensor is left as it is.  The rounded
    values are written back into ``model.params``, so the trainables'
    views and an optimizer's buffers stay bound.  When any value is
    non-finite or above ``GRID_MAX`` in magnitude, nothing changes and the
    model stays f32.  Returns whether the model was rounded.
    """
    params = model.params
    if not np.all(np.abs(params) <= GRID_MAX):
        return False
    sizes = [math.prod(shape) for _, shape in model.cfg.trainable_layout()]
    starts = np.cumsum([0, *sizes[:-1]])
    mantissas, exps = np.frexp(np.maximum.reduceat(np.abs(params), starts))
    # m = f * 2**k with f in [0.5, 1): m <= 127 * 2**(k-7) exactly when f <= 127/128
    exps = np.maximum(exps - 7 + (mantissas > np.float32(127 / 128)), GRID_MIN_EXP)
    scales = np.repeat(np.ldexp(np.float32(1), exps), sizes)
    params[...] = np.rint(params / scales) * scales
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


def _table(entries: list, dtype: np.dtype) -> bytes:
    """The version 1 to 3 tensor table of the ``(name, shape)`` tensors
    ``entries``, packed back to back at ``dtype``'s bytes a value: their
    count (u32), then each tensor's ``_table_entry``."""
    table = [struct.pack("<I", len(entries))]
    offset = 0
    for name, shape in entries:
        nbytes = dtype.itemsize * math.prod(shape)
        table.append(_table_entry(name, shape, offset, nbytes))
        offset += nbytes
    return b"".join(table)


def _deflate_planes(raw: bytes, sizes: list[int]) -> bytes:
    """The version 3 and 4 payload stream for the f16 values ``raw``, whose
    tensors hold ``sizes`` values in order: one zlib stream over
    ``_byte_planes(raw)`` that codes each plane tensor by tensor, with
    run-length matches only (``Z_RLE``), and ends a deflate block, whose
    Huffman tables then start afresh, after a tensor's slice once the block
    holds ``MIN_BLOCK_BYTES`` or the plane ends.  Tensors differ in their
    byte statistics (B starts at zero, A is noise, the head is dense), and
    longer matches on a noisy low plane cost more bits than they save;
    smaller blocks would spend more on their tables than they save.  On a
    few small models, whose grid-rounded planes repeat more than they
    differ, one plain level-9 stream over both planes is shorter; the
    shorter of the two is returned, the per-tensor one on a tie."""
    whole = _byte_planes(raw)
    planes = memoryview(whole)
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
    blocked, plain = b"".join(stream), zlib.compress(whole, 9)
    return plain if len(plain) < len(blocked) else blocked


def _inflate(stream: bytes, size: int, what: str) -> tuple[bytes, bytes]:
    """What the zlib stream at the start of ``stream`` decodes to, checked
    to end within ``size`` bytes, and the bytes after that stream; the
    caller checks that it ends exactly there.  ``what`` names the stream
    in errors.

    A declared ``size`` of more than ``MAX_INFLATE_RATIO`` decoded bytes
    for every byte of ``stream`` is refused before any inflating.
    Inflating stops one byte past ``size`` (a limit of 0 would mean none),
    so a stream that decodes to more, a decompression bomb included, costs
    at most that much memory.  Anything but one whole zlib stream is a
    ``FormatError``.
    """
    if size > MAX_INFLATE_RATIO * len(stream):
        raise FormatError(f"the artifact declares {size} bytes of {what}, more than deflate can code "
                          f"in the {len(stream)} bytes stored ({MAX_INFLATE_RATIO} to 1 at most)")
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(stream, size + 1)
    except zlib.error as err:
        raise FormatError(f"{what} is not a valid zlib stream: {err}") from err
    if len(data) > size or inflater.unconsumed_tail:
        raise FormatError(f"{what} inflates past the {size} bytes the artifact declares")
    if not inflater.eof:
        raise FormatError(f"{what} stream is truncated after {len(data)} of {size} bytes")
    return data, inflater.unused_data


def _header_config(header: dict) -> ModelConfig:
    """The header's model config, once its generator tag is this build's
    (``check_tag``); a missing or malformed config is a ``FormatError``."""
    check_tag(header.get("algorithm_id"), "artifact")
    try:
        return ModelConfig(**header["model"])
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise FormatError(f"artifact header has a missing or malformed model field: {err!r}") from err


def _checked_extra(extra) -> dict:
    """``extra`` as the header holds it, ``{}`` for None; a ConfigError
    unless it is a dict that strict JSON reads back as given: str keys at
    every level, lists rather than tuples, finite numbers."""
    if extra is None:
        return {}
    try:
        same = isinstance(extra, dict) and json.loads(json.dumps(extra, allow_nan=False)) == extra
    except (TypeError, ValueError, RecursionError):
        same = False
    if not same:
        raise ConfigError(f"extra must be a dict that JSON reads back as given (str keys at every level, lists, "
                          f"finite numbers), got a {type(extra).__name__}")
    return extra


def pack(model: Model, extra: dict | None = None) -> bytes:
    """Serialize a model's trainable state into the canonical byte stream:
    format version 4 (deflated header, f16 byte planes deflated tensor by
    tensor by ``_deflate_planes``, no tensor table) when every value is
    f16-exact, else version 1 (raw header, tensor table, f32).  ``extra``
    must be JSON that reads back as given (``_checked_extra``)."""
    header = {
        "algorithm_id": ALGORITHM_ID,
        # a constant of the format, which ``BackboneSpec.from_dict`` checks
        "backbone": {**asdict(model.spec), "algorithm_id": ALGORITHM_ID},
        "model": asdict(model.cfg),
        "extra": _checked_extra(extra),
    }
    header_bytes = _canonical_json(header)

    layout = model.cfg.trainable_layout()
    values = np.asarray(model.params, dtype="<f4")
    if _f16_exact(values):
        body = (MAGIC + struct.pack("<HI", 4, len(header_bytes)) + zlib.compress(header_bytes, 9)
                + _deflate_planes(values.astype("<f2").tobytes(), [math.prod(shape) for _, shape in layout]))
    else:
        body = (MAGIC + struct.pack("<HI", 1, len(header_bytes)) + header_bytes
                + _table(layout, PAYLOAD_DTYPES[1]) + values.tobytes())
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def unpack(blob: bytes) -> tuple[dict, dict]:
    """Validate and decode an artifact into (header, {name: f32 array}).

    Version 1 payloads are f32; version 2 to 4 payloads are f16, widened
    to f32 exactly, and versions 3 and 4 first inflate and re-interleave
    their byte planes.  Every malformed blob raises ``FormatError``,
    ``IntegrityError`` or ``IncompatibilityError``.  Version 4 inflates
    its header to exactly the declared length, with the bytes after that
    stream its payload stream.  Every version takes the tensors from the
    header's model config, whose decoded payload must be exactly the
    file's; in versions 1 to 3 the stored tensor table must be the one
    ``_table`` encodes for that config, byte for byte.  No stream may
    declare more than ``MAX_INFLATE_RATIO`` times the bytes stored.
    """
    header, tensors, _ = read(blob)
    return header, tensors


def read(blob: bytes) -> tuple[dict, dict, dict]:
    """``unpack``'s parse: the header, the tensors, and where the bytes go.

    The sizes are the format version, the blob's size, the bytes its
    header takes as stored (deflated in version 4), the bytes of its
    tensor table (0 in version 4, which has none), the bytes its payload
    takes as stored, up to the CRC, and the size of that payload decoded.
    A blob ``unpack`` refuses raises the same error here.
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

    if version == 4:
        header_json, payload = _inflate(blob[10:end], header_len, "version 4 header")
        if len(header_json) != header_len:
            raise FormatError(f"version 4 header inflates to {len(header_json)} bytes; "
                              f"the artifact declares {header_len}")
    elif header_len > end - 10:
        raise FormatError(f"artifact truncated: the {header_len}-byte header runs past the payload end {end}")
    else:
        header_json = blob[10:10 + header_len]
    try:
        header = json.loads(header_json.decode("utf-8"))
    except (ValueError, RecursionError) as err:  # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"artifact header is not valid JSON: {err}") from err
    if not isinstance(header, dict):
        raise FormatError(f"artifact header must be a JSON object, got {type(header).__name__}")
    if not isinstance(header.get("extra", {}), dict):
        raise FormatError(f"artifact header extra must be a JSON object, got {type(header['extra']).__name__}")

    cfg = _header_config(header)
    entries = cfg.trainable_layout()
    payload_len = dtype.itemsize * sum(math.prod(shape) for _, shape in entries)
    table_len = 0
    if version < 4:
        try:
            table = _table(entries, dtype)
        except struct.error as err:  # a dimension or extent past the table's u32 and u64 fields
            raise FormatError(f"the artifact's model config declares a tensor no tensor table can describe: "
                              f"{err}") from err
        table_len = len(table)
        if not blob.startswith(table, 10 + header_len, end):
            raise FormatError(f"the tensor table is not the table of the {len(entries)} tensors its header's "
                              f"model config declares, packed back to back at {dtype.itemsize} bytes a value "
                              f"(format version {version})")
        payload = blob[10 + header_len + table_len:end]
    sizes = {
        "format_version": version,
        "bytes": len(blob),
        "stored_header_bytes": end - 10 - table_len - len(payload),
        "table_bytes": table_len,
        "stored_payload_bytes": len(payload),
        "decoded_payload_bytes": payload_len,
    }
    if version >= 3:
        payload, rest = _inflate(payload, payload_len, f"version {version} payload")
        if rest:
            raise FormatError(f"{len(rest)} bytes follow the end of the version {version} payload stream")
    if len(payload) != payload_len:
        raise FormatError(f"payload holds {len(payload)} bytes; the artifact declares {payload_len}")

    values = np.frombuffer(_interleaved(payload) if version >= 3 else payload, dtype=dtype).astype(np.float32)
    return header, dict(zip([name for name, _ in entries], cfg.views(values))), sizes


def reconstruct(header: dict, tensors: dict) -> Model:
    """Rebuild the full model: frozen matrices regenerated from the seed,
    trainable tensors restored from the payload."""
    cfg = _header_config(header)
    try:
        spec = BackboneSpec.from_dict(header["backbone"])
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise FormatError(f"artifact header has a missing or malformed backbone field: {err!r}") from err
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
    for (name, _), view in zip(layout, cfg.views(model.params), strict=True):
        view[...] = tensors[name]
    return model


def save(path: str, blob: bytes) -> None:
    """Atomic write: a uniquely named new file beside ``path``, created as
    ``open(path, "wb")`` creates one (0o666 less the umask), replaces it."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{secrets.token_hex(8)}.ltlr.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
