"""Fuzzing ``artifact.unpack``: a malformed blob may only raise the
artifact error categories, never a raw Python exception."""

import os
import struct
import zlib

from hypothesis import given, settings, strategies as st

from lottalora.artifact import load, pack, unpack
from lottalora.errors import FormatError, IncompatibilityError, IntegrityError
from lottalora.model import BackboneSpec, ModelConfig, build_model

from test_artifact import pack_v3, round_to_f16

ARTIFACT_ERRORS = (FormatError, IntegrityError, IncompatibilityError)

_CFG = ModelConfig(preset="tiny", rank=2)
BLOB = pack(build_model(_CFG, BackboneSpec.from_config(_CFG, 7)))
BODY = BLOB[:-4]

FUZZ = settings(max_examples=300, deadline=None)

# the same model rounded to f16: as the version 2 writer, the first and the
# last version 3 writer packed it, and as pack writes it now, format version 4
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BODY_V2 = load(os.path.join(FIXTURES, "tiny_r2_seed7_v2.ltlr"))[:-4]
BODY_FIRST_V3 = load(os.path.join(FIXTURES, "tiny_r2_seed7_v3.ltlr"))[:-4]
_SNAPPED = round_to_f16(build_model(_CFG, BackboneSpec.from_config(_CFG, 7)))
BODY_V3 = pack_v3(_SNAPPED)[:-4]
BODY_V4 = pack(_SNAPPED)[:-4]


def seal(body: bytes, recompute_crc: bool) -> bytes:
    """``body`` followed by its own CRC, or by the original blob's CRC."""
    return body + (struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) if recompute_crc else BLOB[-4:])


def flipped_or_cut(body: bytes, at: int, mask: int, cut: bool) -> bytes:
    """``body`` cut at ``at``, or with the byte there xor-ed with ``mask``."""
    if cut:
        return body[:at]
    flipped = bytearray(body)
    flipped[at] ^= mask
    return bytes(flipped)


def unpack_or_artifact_error(blob: bytes) -> bool:
    """True if ``blob`` unpacks; False if it raises an artifact error."""
    try:
        unpack(blob)
    except ARTIFACT_ERRORS:
        return False
    return True


@FUZZ
@given(cut=st.integers(0, len(BODY) - 1), recompute_crc=st.booleans())
def test_any_truncation_is_rejected(cut, recompute_crc):
    assert not unpack_or_artifact_error(seal(BODY[:cut], recompute_crc))


@FUZZ
@given(at=st.integers(0, len(BODY) - 1), mask=st.integers(1, 255), recompute_crc=st.booleans())
def test_any_byte_flip_unpacks_or_raises_an_artifact_error(at, mask, recompute_crc):
    body = bytearray(BODY)
    body[at] ^= mask
    ok = unpack_or_artifact_error(seal(bytes(body), recompute_crc))
    assert recompute_crc or not ok


@FUZZ
@given(extra=st.binary(min_size=1, max_size=64), recompute_crc=st.booleans())
def test_any_append_is_rejected(extra, recompute_crc):
    blob = seal(BODY + extra, True) if recompute_crc else BLOB + extra
    assert not unpack_or_artifact_error(blob)


@FUZZ
@given(at=st.integers(0, len(BODY_V2) - 1), mask=st.integers(1, 255), cut=st.booleans())
def test_any_byte_flip_or_cut_of_a_v2_blob_unpacks_or_raises_an_artifact_error(at, mask, cut):
    ok = unpack_or_artifact_error(seal(flipped_or_cut(BODY_V2, at, mask, cut), True))
    assert not (cut and ok)


@FUZZ
@given(at=st.integers(0, len(BODY_V3) - 1), mask=st.integers(1, 255), cut=st.booleans())
def test_any_byte_flip_or_cut_of_a_v3_blob_unpacks_or_raises_an_artifact_error(at, mask, cut):
    ok = unpack_or_artifact_error(seal(flipped_or_cut(BODY_V3, at, mask, cut), True))
    assert not (cut and ok)


@FUZZ
@given(at=st.integers(0, len(BODY_V4) - 1), mask=st.integers(1, 255), cut=st.booleans())
def test_any_byte_flip_or_cut_of_a_v4_blob_unpacks_or_raises_an_artifact_error(at, mask, cut):
    ok = unpack_or_artifact_error(seal(flipped_or_cut(BODY_V4, at, mask, cut), True))
    assert not (cut and ok)


_V4_INFLATER = zlib.decompressobj()
V4_HEADER_JSON = _V4_INFLATER.decompress(BODY_V4[10:])
V4_PAYLOAD = _V4_INFLATER.unused_data


@FUZZ
@given(at=st.integers(0, len(V4_HEADER_JSON) - 1), mask=st.integers(1, 255), cut=st.booleans())
def test_any_byte_flip_or_cut_of_a_v4_header_json_unpacks_or_raises_an_artifact_error(at, mask, cut):
    # the header deflated again, so the flip reaches the JSON and the model config
    header = flipped_or_cut(V4_HEADER_JSON, at, mask, cut)
    body = BODY_V4[:4] + struct.pack("<HI", 4, len(header)) + zlib.compress(header, 9) + V4_PAYLOAD
    ok = unpack_or_artifact_error(seal(body, True))
    assert not (cut and ok)


@FUZZ
@given(at=st.integers(0, len(BODY_FIRST_V3) - 1), mask=st.integers(1, 255), cut=st.booleans())
def test_any_byte_flip_or_cut_of_the_first_v3_writers_blob_unpacks_or_raises_an_artifact_error(at, mask, cut):
    ok = unpack_or_artifact_error(seal(flipped_or_cut(BODY_FIRST_V3, at, mask, cut), True))
    assert not (cut and ok)
