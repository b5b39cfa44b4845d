import functools
import json
import math
import os
import re
import stat
import struct
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lottalora.artifact import (MAGIC, MAX_INFLATE_RATIO, PAYLOAD_DTYPES, _byte_planes,
                                _deflate_planes, _table, load, pack, read, reconstruct, save,
                                to_shipping_precision, unpack)
from lottalora.errors import ConfigError, FormatError, IncompatibilityError, IntegrityError
from lottalora.initfam import InitFamily
from lottalora.model import HEAD_MODES, MAX_HIDDEN_LAYERS, MODES, PRESETS, BackboneSpec, ModelConfig, build_model
from lottalora.prng import ALGORITHM_ID, Stream
from lottalora.data import synthetic_blobs
from lottalora.train import TrainConfig, train_run

from conftest import peak_bytes

NORMAL = InitFamily("normal", {"sigma": 0.1}, scaling="explicit")
# ``tiny`` rank 2, backbone seed 7, rounded to f16, as the version 2 writer packed it
V2_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny_r2_seed7_v2.ltlr")
# the same model as the first version 3 writer packed it: one level-9 zlib
# stream over both byte planes
V3_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny_r2_seed7_v3.ltlr")
# the same model as pack writes it today, format version 4
V4_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny_r2_seed7_v4.ltlr")
# ``tiny`` rank 2, seed 7, trained 2 epochs on synthetic_blobs and packed as
# ``train`` packs a static run; written by ``write_trained_v4``
TRAINED_V4_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny_trained_v4.ltlr")
FORMAT_DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "FORMAT.md")


def fresh_model(seed=42, preset="tiny", **kw):
    cfg = ModelConfig(preset=preset, **kw)
    return build_model(cfg, BackboneSpec.from_config(cfg, seed, NORMAL))


def trained_blob_model(seed=9):
    full = synthetic_blobs(400, 16, 3, 8.0, seed=1)
    train = full.subset(np.arange(300), "train")
    test = full.subset(np.arange(300, 400), "test")
    cfg = ModelConfig(preset=None, hidden_dims=(32, 16), input_dim=16, num_classes=3, rank=4, dropout=0.0)
    spec = BackboneSpec.from_config(cfg, seed, NORMAL)
    metrics = train_run(cfg, spec, TrainConfig(epochs=6, batch_size=64, lr=5e-3), train, test)
    return metrics.model, test


def test_pack_unpack_pack_is_byte_identical():
    model = fresh_model()
    blob = pack(model)
    header, tensors = unpack(blob)
    rebuilt = reconstruct(header, tensors)
    assert pack(rebuilt) == blob


def test_fresh_artifact_has_all_zero_b_blocks():
    _, tensors = unpack(pack(fresh_model()))
    b_blocks = [v for k, v in tensors.items() if k.endswith(".B")]
    assert b_blocks and all(float(np.abs(b).max()) == 0.0 for b in b_blocks)


def table_len(model) -> int:
    tensor_count = len(model.trainable_params())
    names = sum(len(n.encode()) for n, _ in model.trainable_params())
    ndims = sum(t.data.ndim for _, t in model.trainable_params())
    return 4 + tensor_count * (2 + 1 + 16) + names + 4 * ndims


def test_payload_size_is_four_bytes_per_trainable():
    model = fresh_model(preset="medium", rank=8)
    total = model.params.size
    assert total == 21_774
    blob = pack(model)
    header_len = struct.unpack_from("<I", blob, 6)[0]
    # everything after the table is payload + 4-byte crc
    payload_len = len(blob) - 10 - header_len - table_len(model) - 4
    assert payload_len == 4 * total
    # an untrained model's Kaiming A is never f16-exact, so it ships f32
    assert version_of(blob) == 1


def randomized(model, seed=3):
    """``model`` with every trainable set to a fresh gaussian draw."""
    stream = Stream(seed)
    for _, t in model.trainable_params():
        t.data[...] = stream.gaussian_block(t.data.size).reshape(t.data.shape)
    return model


def same_bits(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(np.array_equal(a[k].view(np.uint32), b[k].view(np.uint32)) for k in a)


@st.composite
def small_configs(draw):
    """A config of a preset or of up to three hidden widths, on small inputs
    and outputs, in either mode, any head mode, LayerNorm on or off."""
    hidden = draw(st.none() | st.lists(st.integers(1, 12), max_size=3).map(tuple))
    kw = dict(preset=draw(st.sampled_from(sorted(PRESETS))) if hidden is None else None, hidden_dims=hidden,
              input_dim=draw(st.integers(1, 12)), num_classes=draw(st.integers(1, 5)),
              mode=draw(st.sampled_from(MODES)), head_mode=draw(st.sampled_from(HEAD_MODES)),
              layernorm=draw(st.booleans()))
    max_rank = max(min(shape) for shape in ModelConfig(rank=1, **kw).layer_shapes())
    return ModelConfig(rank=draw(st.integers(1, min(max_rank, 4))), **kw)


@settings(max_examples=40, deadline=None)
@given(cfg=small_configs(), f16=st.booleans())
def test_views_slice_a_buffer_by_the_layout_as_unpack_reads_the_payload(cfg, f16):
    layout = cfg.trainable_layout()
    n = sum(math.prod(shape) for _, shape in layout)
    views = cfg.views(np.arange(n))
    assert [v.shape for v in views] == [shape for _, shape in layout]
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), np.arange(n))

    # f32 values pack as format version 1, f16-exact ones as version 4
    model = randomized(build_model(cfg, BackboneSpec.from_config(cfg, 5)))
    if f16:
        round_to_f16(model)
    _, tensors = unpack(pack(model))
    assert same_bits(tensors, dict(zip([name for name, _ in layout], model.cfg.views(model.params))))
    for i, t in enumerate(tensors.values()):
        t[...] = i + 1
    assert all(np.all(t == i + 1) for i, t in enumerate(tensors.values()))


def f16_tensors(model) -> list:
    """``(name, little-endian f16 values)`` of each trainable, checked to be f16-exact."""
    tensors = [(name, t.data.astype("<f2")) for name, t in model.trainable_params()]
    assert all(np.array_equal(f16.astype(np.float32), t.data) for (_, f16), (_, t) in
               zip(tensors, model.trainable_params()))
    return tensors


def pack_v3(model, extra=None) -> bytes:
    """``model`` as the version 3 writer packed it: the raw canonical
    header JSON and a tensor table of decoded f16 extents over the planes
    stream of ``_deflate_planes``, which version 4 keeps unchanged.  Tests
    pin its header and table against the first version 3 writer's fixture."""
    header = {"algorithm_id": ALGORITHM_ID, "backbone": {**asdict(model.spec), "algorithm_id": ALGORITHM_ID},
              "model": asdict(model.cfg), "extra": extra or {}}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = f16_tensors(model)
    table = _table(model.cfg.trainable_layout(), PAYLOAD_DTYPES[3])
    stream = _deflate_planes(b"".join(data.tobytes() for _, data in tensors), [data.size for _, data in tensors])
    return with_crc(MAGIC + struct.pack("<HI", 3, len(header_bytes)) + header_bytes + table + stream)


def pack_v2(model) -> bytes:
    """``model`` as the version 2 writer packed it: the header and table of
    its version 3 blob over the raw f16 payload.  A test pins this against
    the committed fixture that writer made."""
    v3 = pack_v3(model)
    prefix = bytearray(v3[:table_start(v3) + table_len(model)])
    struct.pack_into("<H", prefix, 4, 2)
    return with_crc(bytes(prefix) + b"".join(data.tobytes() for _, data in f16_tensors(model)))


@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_snapped_model_packs_as_v2_at_two_bytes_per_trainable(preset, head_mode):
    # the version 2 form is the decoded payload of versions 3 and 4; all
    # read back to the same bits and re-pack as the smallest, version 4
    model = randomized(fresh_model(preset=preset, rank=4, head_mode=head_mode))
    assert to_shipping_precision(model)
    v2, v3, v4 = pack_v2(model), pack_v3(model), pack(model)
    header_len = struct.unpack_from("<I", v2, 6)[0]
    total = model.params.size
    assert len(v2) == 10 + header_len + table_len(model) + 2 * total + 4
    assert version_of(v4) == 4 and len(v4) < len(v3) < len(v2)
    assert all(pack(reconstruct(*unpack(blob))) == v4 for blob in (v2, v3, v4))
    assert same_bits(unpack(v2)[1], unpack(v4)[1]) and same_bits(unpack(v3)[1], unpack(v4)[1])


def test_v2_payload_widens_to_the_snapped_f32_values_exactly():
    model = randomized(fresh_model(layernorm=True))
    to_shipping_precision(model)
    params = {name: t.data for name, t in model.trainable_params()}
    for blob in (pack_v2(model), pack_v3(model), pack(model)):
        _, tensors = unpack(blob)
        assert all(t.dtype == np.float32 for t in tensors.values())
        assert same_bits(tensors, params)


def round_to_f16(model):
    """``model`` with every trainable rounded to the nearest f16 (ties to
    even) in place: the shipping rule the committed fixtures were written
    under, before trained models shipped on the int8 grid."""
    assert np.all(np.abs(model.params) <= 65504.0)
    model.params[...] = model.params.astype(np.float16)
    return model


def fixture_model():
    """The committed fixtures' model: ``tiny`` rank 2, backbone seed 7, as
    built, rounded to f16."""
    cfg = ModelConfig(preset="tiny", rank=2)
    return round_to_f16(build_model(cfg, BackboneSpec.from_config(cfg, 7)))


def test_v2_fixture_unpacks_to_the_bits_of_the_model_today():
    blob = load(V2_FIXTURE)
    assert version_of(blob) == 2
    header, tensors = unpack(blob)
    model = fixture_model()
    assert same_bits(tensors, {name: t.data for name, t in model.trainable_params()})
    assert reconstruct(header, tensors).backbone_hashes() == model.backbone_hashes()


def test_pack_v2_writes_the_fixture_bytes():
    assert pack_v2(fixture_model()) == load(V2_FIXTURE)


def test_the_fixture_model_packs_as_a_smaller_v3_of_the_same_bits():
    model = fixture_model()
    v2, v3 = load(V2_FIXTURE), pack_v3(model)
    assert len(v3) < len(v2)
    # same header and table: only the version field and the payload coding differ
    prefix = table_start(v2) + table_len(model)
    assert v3[6:prefix] == v2[6:prefix]
    assert same_bits(unpack(v3)[1], unpack(v2)[1])


def test_the_fixture_model_now_packs_as_the_v4_fixture():
    model = fixture_model()
    v4 = load(V4_FIXTURE)
    assert version_of(v4) == 4 and pack(model) == v4
    assert len(v4) < len(pack_v3(model))
    header, tensors = unpack(v4)
    assert same_bits(tensors, {name: t.data for name, t in model.trainable_params()})
    assert reconstruct(header, tensors).backbone_hashes() == model.backbone_hashes()
    for older in (V2_FIXTURE, V3_FIXTURE):
        assert pack(reconstruct(*unpack(load(older)))) == v4


def test_the_first_v3_writers_fixture_unpacks_to_the_bits_of_the_model_today():
    blob = load(V3_FIXTURE)
    assert version_of(blob) == 3
    header, tensors = unpack(blob)
    model = fixture_model()
    assert same_bits(tensors, {name: t.data for name, t in model.trainable_params()})
    assert reconstruct(header, tensors).backbone_hashes() == model.backbone_hashes()
    # the first version 3 writer's coding: one level-9 stream over both planes
    payload = b"".join(t.data.astype("<f2").tobytes() for _, t in model.trainable_params())
    assert v3_stream(blob, model) == zlib.compress(_byte_planes(payload), 9)
    # the same header and table as the last version 3 writer; only the stream's coding differs
    prefix = table_start(blob) + table_len(model)
    last = pack_v3(model)
    assert last[:prefix] == blob[:prefix] and last[prefix:] != blob[prefix:]


def test_the_first_v3_writers_fixture_repacks_to_todays_shorter_bytes():
    old = load(V3_FIXTURE)
    new = pack(reconstruct(*unpack(old)))
    assert new == pack(fixture_model())
    assert len(new) < len(pack_v3(fixture_model())) < len(old)


def test_the_v2_and_v3_fixtures_hold_the_tables_their_headers_configs_give():
    for path in (V2_FIXTURE, V3_FIXTURE):
        blob = load(path)
        header, _ = unpack(blob)
        table = _table(ModelConfig(**header["model"]).trainable_layout(), PAYLOAD_DTYPES[version_of(blob)])
        assert blob[table_start(blob):table_start(blob) + len(table)] == table
        assert read(blob)[2]["table_bytes"] == len(table)


def v3_stream(blob: bytes, model) -> bytes:
    return blob[table_start(blob) + table_len(model):-4]


def shipping_model(cfg: ModelConfig, filled: bool, rule: str):
    """``cfg``'s model as built, with every B all zero, or with every
    trainable a gaussian draw, rounded by ``rule``: the shipping rule
    ``to_shipping_precision`` ("grid"), or ``round_to_f16`` ("f16"), under
    which older files were written."""
    model = build_model(cfg, BackboneSpec.from_config(cfg, 5))
    if filled:
        randomized(model)
    if rule == "f16":
        return round_to_f16(model)
    assert to_shipping_precision(model)
    return model


SMALL_TENSORS = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, rank=3)


@pytest.mark.parametrize("rule", ["grid", "f16"])
@pytest.mark.parametrize("filled", [False, True], ids=["built", "gaussian"])
@pytest.mark.parametrize("layernorm", [False, True])
@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("preset", [*sorted(PRESETS), "small-tensors"])
def test_the_v3_stream_codes_the_byte_planes_in_no_more_than_one_level_9_stream(preset, head_mode, layernorm, filled,
                                                                                   rule):
    cfg = SMALL_TENSORS if preset == "small-tensors" else ModelConfig(preset=preset, rank=4)
    model = shipping_model(replace(cfg, head_mode=head_mode, layernorm=layernorm), filled, rule)
    if not filled:  # all-zero B, where Huffman-only coding would spend a bit a byte
        assert all(not t.data.any() for name, t in model.trainable_params() if name.endswith(".B"))
    planes = _byte_planes(b"".join(t.data.astype("<f2").tobytes() for _, t in model.trainable_params()))
    v3 = pack_v3(model)
    stream = v3_stream(v3, model)
    assert zlib.decompress(stream) == planes
    # the first version 3 writer's coding: every preset's model codes shorter
    # without it; a few models of only small tensors, built, code longer
    if preset in PRESETS:
        plain = zlib.compress(planes, 9)
        assert len(stream) <= len(plain) and stream != plain
    # version 4 keeps the stream, drops the table and deflates the header
    v4 = pack(model)
    header, payload = v4_parts(v4)
    assert version_of(v4) == 4 and payload == stream
    assert zlib.decompress(header) == v3[10:table_start(v3)]
    assert unpack(v4)[0] == unpack(v3)[0] and same_bits(unpack(v4)[1], unpack(v3)[1])


def test_the_format_docs_versions_table_lists_exactly_the_versions_unpack_reads():
    with open(FORMAT_DOC, encoding="utf-8") as fh:
        section = fh.read().split("\n## Versions\n", 1)[1].split("\n## ", 1)[0]
    # | version | decoded payload element | bytes a value | ...
    rows = [line.split("|")[1:-1] for line in section.splitlines() if re.match(r"\|\s*\d+\s*\|", line)]
    listed = {int(cells[0]): int(cells[2]) for cells in rows}
    assert len(listed) == len(rows)
    assert listed == {version: dtype.itemsize for version, dtype in PAYLOAD_DTYPES.items()}


def test_rounding_to_the_grid_is_in_place_and_ties_to_even():
    model = fresh_model()
    params = model.trainable_params()
    arrays = [t.data for _, t in params]
    head = params[-1][1].data
    # the head's largest magnitude 127 * 2**-3 gives it the scale 2**-3
    head.flat[:6] = [127 / 8, 0.5 / 8, 1.5 / 8, 2.5 / 8, -0.5 / 8, -0.0]
    assert to_shipping_precision(model)
    assert all(t.data is a for (_, t), a in zip(params, arrays))
    assert head.flat[:6].tolist() == [127 / 8, 0.0, 2 / 8, 2 / 8, -0.0, -0.0]
    assert np.signbit(head.flat[4:6]).all()


@pytest.mark.parametrize("value", [1e5, -65520.0, np.inf, np.nan])
def test_a_value_outside_the_grid_keeps_the_whole_model_f32(value):
    model = randomized(fresh_model())
    params = model.trainable_params()
    params[-1][1].data.flat[0] = value
    before = [t.data.copy() for _, t in params]
    assert not to_shipping_precision(model)
    assert all(np.array_equal(t.data.view(np.uint32), b.view(np.uint32)) for (_, t), b in zip(params, before))
    blob = pack(model)
    assert version_of(blob) == 1
    header_len = struct.unpack_from("<I", blob, 6)[0]
    assert len(blob) == 10 + header_len + table_len(model) + 4 * model.params.size + 4


def test_single_byte_corruption_detected():
    blob = bytearray(pack(fresh_model()))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(IntegrityError):
        unpack(bytes(blob))


def test_wrong_magic_is_format_error():
    blob = bytearray(pack(fresh_model()))
    blob[:4] = b"NOPE"
    with pytest.raises(FormatError):
        unpack(bytes(blob))


def relabelled(blob: bytes, version: int) -> bytes:
    """``blob`` with its version field set to ``version`` and a valid CRC."""
    body = bytearray(blob[:-4])
    struct.pack_into("<H", body, 4, version)
    return with_crc(bytes(body))


def snapped_model():
    model = randomized(fresh_model())
    to_shipping_precision(model)
    return model


def test_version_bump_is_incompatibility_error():
    assert max(PAYLOAD_DTYPES) == 4
    for blob in (pack(fresh_model()), load(V2_FIXTURE), pack_v3(snapped_model()), pack(snapped_model())):
        # the checksum stays valid so the version check is what fires
        with pytest.raises(IncompatibilityError, match="version 5"):
            unpack(relabelled(blob, 5))


def test_a_blob_relabelled_to_the_other_version_is_format_error():
    for version in (2, 3):
        with pytest.raises(FormatError, match="2 bytes a value"):
            unpack(relabelled(pack(fresh_model()), version))
    for blob in (load(V2_FIXTURE), pack_v3(snapped_model())):
        with pytest.raises(FormatError, match="4 bytes a value"):
            unpack(relabelled(blob, 1))
    # a raw header is no zlib stream, and a deflated one is no JSON
    for blob in (pack(fresh_model()), load(V2_FIXTURE), pack_v3(snapped_model())):
        with pytest.raises(FormatError, match="version 4 header is not a valid zlib stream"):
            unpack(relabelled(blob, 4))
    for version in (1, 2, 3):
        with pytest.raises(FormatError, match="not valid JSON"):
            unpack(relabelled(pack(snapped_model()), version))


def test_v2_table_claiming_four_byte_extents_is_format_error():
    model = randomized(fresh_model())
    v1 = pack(model)
    to_shipping_precision(model)
    for f16 in (pack_v2(model), pack_v3(model)):
        # same header, so the v1 table (4-byte extents) splices in at the same place
        start, end = table_start(f16), table_start(f16) + table_len(model)
        with pytest.raises(FormatError, match="back to back"):
            unpack(with_crc(f16[:start] + v1[start:end] + f16[end:-4]))


# -- CRC-valid version 3 blobs whose deflate stream is malformed ----------------


def v3_parts():
    """(header and table, deflate stream, decoded byte planes) of a version 3 blob."""
    model = fixture_model()
    blob = pack_v3(model)
    prefix = table_start(blob) + table_len(model)
    stream = blob[prefix:-4]
    return blob[:prefix], stream, zlib.decompress(stream)


@pytest.mark.parametrize("cut", [1, 4, 100, 2000])
def test_a_truncated_v3_stream_is_format_error(cut):
    prefix, stream, _ = v3_parts()
    with pytest.raises(FormatError, match="truncated"):
        unpack(with_crc(prefix + stream[:-cut]))


def test_a_v3_stream_that_inflates_past_the_table_is_format_error():
    prefix, _, planes = v3_parts()
    with pytest.raises(FormatError, match="inflates past"):
        unpack(with_crc(prefix + zlib.compress(planes + b"\0\0", 9)))


@pytest.mark.parametrize("cut", [1, 2])
def test_a_v3_stream_that_inflates_short_of_the_table_is_format_error(cut):
    prefix, _, planes = v3_parts()
    with pytest.raises(FormatError, match="payload holds"):
        unpack(with_crc(prefix + zlib.compress(planes[:-cut], 9)))


def zero_bomb(mib: int) -> bytes:
    """A zlib stream of ``mib`` MiB of zeros, about 1/1000 of that stored."""
    deflater = zlib.compressobj(9)
    return b"".join(deflater.compress(bytes(1 << 20)) for _ in range(mib)) + deflater.flush()


def v3_blob_declaring(model: dict, stream: bytes) -> bytes:
    """A CRC-valid version 3 blob whose header declares the model config
    ``model`` and whose table is that config's, over ``stream``."""
    header, _ = unpack(load(V3_FIXTURE))
    header["model"] = asdict(ModelConfig(**model))
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    table = _table(ModelConfig(**model).trainable_layout(), PAYLOAD_DTYPES[3])
    return with_crc(MAGIC + struct.pack("<HI", 3, len(raw)) + raw + table + stream)


def test_a_v3_table_declaring_more_than_deflate_can_code_is_format_error():
    # 2**63 + 2**61 + 4 decoded bytes, past what zlib's output limit can even
    # express; the layer0.A of 2**30 x (2**32 - 1) values alone is 2**63 - 2**31
    _, stream, _ = v3_parts()
    model = dict(preset=None, input_dim=2**32 - 1, hidden_dims=[2**30], num_classes=1, rank=2**30)
    with pytest.raises(FormatError, match="more than deflate can code"):
        unpack(v3_blob_declaring(model, stream))


def test_an_oversized_v3_table_over_a_bomb_is_refused_before_inflating():
    # 1 GiB declared over a 64 MiB bomb: past deflate's ratio for the bytes stored
    model = dict(preset=None, input_dim=2**29, hidden_dims=[1], num_classes=1, rank=1)
    blob = v3_blob_declaring(model, zero_bomb(64))

    def attempt():
        with pytest.raises(FormatError, match="more than deflate can code"):
            unpack(blob)

    peak, _ = peak_bytes(attempt)
    assert peak < 4 * len(blob)


def test_a_v3_decompression_bomb_allocates_about_the_declared_size():
    prefix, _, _ = v3_parts()
    blob = with_crc(prefix + zero_bomb(256))  # 256 MiB of zeros in a few hundred KiB

    def attempt():
        with pytest.raises(FormatError, match="inflates past"):
            unpack(blob)

    # a few copies of the blob at most, nowhere near the 256 MiB it inflates to
    peak, _ = peak_bytes(attempt)
    assert peak < 4 * len(blob)


def test_bytes_after_the_end_of_a_v3_stream_are_format_error():
    prefix, stream, _ = v3_parts()
    with pytest.raises(FormatError, match="follow the end"):
        unpack(with_crc(prefix + stream + b"\0"))


def test_a_v3_body_relabelled_as_v2_and_a_v2_body_relabelled_as_v3_are_format_errors():
    with pytest.raises(FormatError, match="payload holds"):
        unpack(relabelled(pack_v3(fixture_model()), 2))
    with pytest.raises(FormatError, match="not a valid zlib stream"):
        unpack(relabelled(load(V2_FIXTURE), 3))


# zlib header, deflate blocks, Adler-32 trailer; bit 0 of byte 2 is the first
# block's last-block flag, and bit 4 is flipped everywhere else too (bits 3-7
# of byte 2 pad the stored block the stream opens with, and the padding at the
# end of the last deflate byte is free as well)
@pytest.mark.parametrize("at", [0, 1, 2, 500, 2000, -4, -1])
def test_a_corrupted_v3_stream_under_a_valid_crc_is_format_error(at):
    prefix, stream, _ = v3_parts()
    stream = bytearray(stream)
    stream[at] ^= 0x01
    with pytest.raises(FormatError):
        unpack(with_crc(prefix + bytes(stream)))


@pytest.mark.parametrize("at", [0, 1, 500, 2000, -4, -1])
def test_a_v3_stream_with_bit_4_flipped_under_a_valid_crc_is_format_error(at):
    prefix, stream, _ = v3_parts()
    stream = bytearray(stream)
    stream[at] ^= 0x10
    with pytest.raises(FormatError):
        unpack(with_crc(prefix + bytes(stream)))


# -- CRC-valid version 4 blobs that are malformed --------------------------------


def v4_parts(blob: bytes) -> tuple[bytes, bytes]:
    """(deflated header, planes stream) of a version 4 blob."""
    inflater = zlib.decompressobj()
    inflater.decompress(blob[10:-4])
    return blob[10:len(blob) - 4 - len(inflater.unused_data)], inflater.unused_data


def v4_blob(header: bytes, payload: bytes, header_len: int | None = None) -> bytes:
    """A CRC-valid version 4 blob over the streams ``header`` and ``payload``,
    declaring ``header_len`` header bytes, by default what ``header`` inflates to."""
    if header_len is None:
        header_len = len(zlib.decompress(header))
    return with_crc(MAGIC + struct.pack("<HI", 4, header_len) + header + payload)


def fixture_v4_parts():
    """(deflated header, planes stream, decoded byte planes) of the v4 fixture."""
    header, payload = v4_parts(load(V4_FIXTURE))
    return header, payload, zlib.decompress(payload)


def write_trained_v4(path: str = TRAINED_V4_FIXTURE) -> None:
    """Train and pack the model of ``TRAINED_V4_FIXTURE`` into ``path``.  The
    bits depend on the host's numpy and BLAS, so the fixture is this
    function's output on one host, not a value every host reproduces."""
    blobs = synthetic_blobs(600, 784, 10, 10.0, seed=5)
    cfg = ModelConfig(preset="tiny", rank=2)
    metrics = train_run(cfg, BackboneSpec.from_config(cfg, 7), TrainConfig(lr=3e-2, batch_size=32, epochs=2),
                        blobs.subset(np.arange(500)), blobs.subset(np.arange(500, 600), "test"))
    extra = {"final_test_accuracy": metrics.final_test_accuracy, "final_test_loss": metrics.final_test_loss}
    save(path, pack(metrics.model, extra=extra))


def test_the_committed_trained_artifact_is_v4_on_the_shipping_grid():
    """The fixture is what a trained run ships, made by
    ``PYTHONPATH=src:tests python -c "import test_artifact; test_artifact.write_trained_v4()"``.
    Its checks hold on every host: it reads as format 4, its values already
    lie on the shipping grid, and it rebuilds a model."""
    header, tensors, sizes = read(load(TRAINED_V4_FIXTURE))
    assert sizes["format_version"] == 4
    assert header["model"]["preset"] == "tiny" and set(header["extra"]) == {"final_test_accuracy", "final_test_loss"}
    model = reconstruct(header, tensors)
    shipped = model.params.copy()
    assert to_shipping_precision(model)
    assert model.params.tobytes() == shipped.tobytes()
    assert model.forward_logits(np.zeros((1, 784), np.float32)).data.shape == (1, 10)


def test_the_fixture_parts_rebuild_the_v4_fixture():
    header, payload, _ = fixture_v4_parts()
    assert v4_blob(header, payload) == load(V4_FIXTURE)
    header_json = zlib.decompress(header)
    assert struct.unpack_from("<I", load(V4_FIXTURE), 6)[0] == len(header_json)
    assert header_json == load(V3_FIXTURE)[10:table_start(load(V3_FIXTURE))]


@pytest.mark.parametrize("cut", [1, 4, 50])
def test_a_truncated_v4_header_stream_is_format_error(cut):
    header, payload, _ = fixture_v4_parts()
    header_len = len(zlib.decompress(header))
    with pytest.raises(FormatError, match="truncated"):
        unpack(v4_blob(header[:-cut], b"", header_len))
    # cut short, the header stream runs on into the planes stream
    with pytest.raises(FormatError):
        unpack(v4_blob(header[:-cut], payload, header_len))


@pytest.mark.parametrize("short", [1, 100])
def test_a_v4_header_stream_that_inflates_past_the_declared_length_is_format_error(short):
    header, payload, _ = fixture_v4_parts()
    with pytest.raises(FormatError, match="version 4 header inflates past"):
        unpack(v4_blob(header, payload, len(zlib.decompress(header)) - short))


def test_a_v4_header_stream_that_inflates_short_of_the_declared_length_is_format_error():
    header, payload, _ = fixture_v4_parts()
    with pytest.raises(FormatError, match="version 4 header inflates to"):
        unpack(v4_blob(header, payload, len(zlib.decompress(header)) + 1))


def test_a_v4_header_length_past_the_ratio_bound_is_refused_before_inflating():
    header, payload, _ = fixture_v4_parts()
    bound = MAX_INFLATE_RATIO * (len(header) + len(payload))
    with pytest.raises(FormatError, match="version 4 header inflates to"):
        unpack(v4_blob(header, payload, bound))
    with pytest.raises(FormatError, match="more than deflate can code"):
        unpack(v4_blob(header, payload, bound + 1))
    # 1 GiB declared over a 64 MiB bomb: refused, and nothing inflated
    blob = v4_blob(zero_bomb(64), b"", 1 << 30)

    def attempt():
        with pytest.raises(FormatError, match="more than deflate can code"):
            unpack(blob)

    peak, _ = peak_bytes(attempt)
    assert peak < 4 * len(blob)


def test_a_v4_header_bomb_allocates_about_the_declared_length():
    header, payload, _ = fixture_v4_parts()
    blob = v4_blob(zero_bomb(256), payload, len(zlib.decompress(header)))

    def attempt():
        with pytest.raises(FormatError, match="version 4 header inflates past"):
            unpack(blob)

    peak, _ = peak_bytes(attempt)
    assert peak < 4 * len(blob)


@pytest.mark.parametrize("raw,match", [
    (b"not json", "not valid JSON"),
    (b"\xff\xfe", "not valid JSON"),
    (b"[" * 100_000, "not valid JSON"),
    (b'["algorithm_id"]', "JSON object"),
    (b"7", "JSON object"),
], ids=["text", "not-utf8", "nested-too-deep", "array", "number"])
def test_a_v4_header_that_is_not_a_json_object_is_format_error(raw, match):
    _, payload, _ = fixture_v4_parts()
    with pytest.raises(FormatError, match=match):
        unpack(v4_blob(zlib.compress(raw, 9), payload))


def test_a_v1_header_nested_too_deep_to_parse_is_format_error():
    # the JSON parser raises RecursionError, not ValueError, on such nesting
    blob = pack(fresh_model())
    raw = b"[" * 100_000
    body = MAGIC + struct.pack("<HI", 1, len(raw)) + raw + blob[table_start(blob):-4]
    with pytest.raises(FormatError, match="not valid JSON"):
        unpack(with_crc(body))


def v4_reheadered(edit) -> bytes:
    """The v4 fixture with its header changed by ``edit`` and a valid CRC."""
    header, _ = unpack(load(V4_FIXTURE))
    edit(header)
    _, payload, _ = fixture_v4_parts()
    return v4_blob(zlib.compress(json.dumps(header).encode("utf-8"), 9), payload)


@pytest.mark.parametrize("edit,match", [
    (lambda h: h.pop("model"), "model"),
    (lambda h: h.update(model=[2]), "model"),
    (lambda h: h["model"].update(width=3), "width"),
    (lambda h: h["model"].update(rank="x"), "rank"),
    (lambda h: h["model"].update(rank=129), "rank"),
    (lambda h: h["model"].update(preset=["tiny"]), "model"),
    (lambda h: h["model"].update(hidden_dims=5), "hidden_dims"),
    (lambda h: h["model"].update(layernorm="yes"), "layernorm"),
], ids=["missing", "not-an-object", "unknown-key", "rank-text", "rank-too-big", "preset-list", "dims-number",
        "layernorm-text"])
def test_a_v4_header_with_a_malformed_model_config_is_format_error(edit, match):
    with pytest.raises(FormatError, match=match):
        unpack(v4_reheadered(edit))


@pytest.mark.parametrize("edit,match", [
    (lambda h: h["model"].update(rank=4), "payload holds"),
    (lambda h: h["model"].update(rank=1), "inflates past"),
    (lambda h: h["model"].update(layernorm=True), "payload holds"),
    (lambda h: h["model"].update(head_mode="lora"), "inflates past"),
    (lambda h: h["model"].update(preset="small"), "payload holds"),
], ids=["rank-up", "rank-down", "layernorm", "head-mode", "preset"])
def test_a_v4_header_whose_model_does_not_fit_the_payload_is_format_error(edit, match):
    with pytest.raises(FormatError, match=match):
        unpack(v4_reheadered(edit))


def test_a_v4_header_declaring_a_model_past_the_ratio_bound_is_refused_before_inflating():
    # 2 GiB of decoded planes for one 2**30-wide layer
    blob = v4_reheadered(lambda h: h["model"].update(preset=None, hidden_dims=[1 << 30], rank=1))

    def attempt():
        with pytest.raises(FormatError, match="more than deflate can code"):
            unpack(blob)

    peak, _ = peak_bytes(attempt)
    assert peak < 1 << 20


def test_a_small_v4_header_declaring_a_million_hidden_layers_is_refused_at_the_layer_bound():
    # about 2.3 KB stored: the header's 2 MB of JSON deflates a thousandfold
    header, _ = unpack(pack(trained_tiny_r1()))
    header["model"].update(preset=None, hidden_dims=[1] * 1_000_000)
    header["backbone"]["layer_shapes"] = []
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = v4_blob(zlib.compress(raw, 9), bytes(16))
    assert len(blob) < 2400

    def attempt():
        with pytest.raises(FormatError, match=f"at most {MAX_HIDDEN_LAYERS} layers"):
            unpack(blob)

    # inflating and parsing the header costs about 12 MiB; a layout of a
    # million layers cost over 600 MiB
    peak, _ = peak_bytes(attempt)
    assert peak < 24 << 20


@pytest.mark.parametrize("cut", [1, 4, 100, 2000])
def test_a_truncated_v4_payload_stream_is_format_error(cut):
    header, payload, _ = fixture_v4_parts()
    with pytest.raises(FormatError, match="truncated"):
        unpack(v4_blob(header, payload[:-cut]))


@pytest.mark.parametrize("cut", [1, 2, 400])
def test_a_v4_payload_stream_that_ends_short_of_the_derived_layout_is_format_error(cut):
    header, _, planes = fixture_v4_parts()
    with pytest.raises(FormatError, match="payload holds"):
        unpack(v4_blob(header, zlib.compress(planes[:-cut], 9)))


@pytest.mark.parametrize("extra", [1, 2, 400])
def test_a_v4_payload_stream_that_runs_past_the_derived_layout_is_format_error(extra):
    header, _, planes = fixture_v4_parts()
    with pytest.raises(FormatError, match="version 4 payload inflates past"):
        unpack(v4_blob(header, zlib.compress(planes + bytes(extra), 9)))


def test_a_missing_v4_payload_stream_is_format_error():
    header, _, _ = fixture_v4_parts()
    with pytest.raises(FormatError, match="more than deflate can code in the 0 bytes"):
        unpack(v4_blob(header, b""))


@pytest.mark.parametrize("extra", [b"\0", b"\x78\x9c", bytes(100)])
def test_bytes_after_the_end_of_a_v4_payload_stream_are_format_error(extra):
    header, payload, _ = fixture_v4_parts()
    with pytest.raises(FormatError, match="follow the end of the version 4 payload stream"):
        unpack(v4_blob(header, payload + extra))


def test_any_one_zlib_stream_over_the_header_and_the_planes_reads_as_version_4():
    header, payload, planes = fixture_v4_parts()
    blob = v4_blob(zlib.compress(zlib.decompress(header), 1), zlib.compress(planes, 1))
    assert unpack(blob)[0] == unpack(load(V4_FIXTURE))[0]
    assert same_bits(unpack(blob)[1], unpack(load(V4_FIXTURE))[1])


@functools.cache
def trained_tiny_r1():
    full = synthetic_blobs(300, 784, 10, 6.0, seed=1)
    train, test = full.subset(np.arange(200), "train"), full.subset(np.arange(200, 300), "test")
    cfg = ModelConfig(preset="tiny", rank=1)
    return train_run(cfg, BackboneSpec.from_config(cfg, 3), TrainConfig(epochs=1, batch_size=64), train, test).model


def test_a_trained_tiny_r1_model_is_at_least_a_tenth_smaller_as_v4_than_as_v3():
    model = trained_tiny_r1()
    v3, v4 = pack_v3(model), pack(model)
    assert version_of(v4) == 4 and len(v4) <= 0.9 * len(v3)
    assert unpack(v4)[0] == unpack(v3)[0] and same_bits(unpack(v4)[1], unpack(v3)[1])
    # the same planes stream: the saving is the table and the deflated header
    d3, d4 = read(v3)[2], read(v4)[2]
    assert d4["table_bytes"] == 0 < d3["table_bytes"] and d4["stored_header_bytes"] < d3["stored_header_bytes"]
    assert d4["stored_payload_bytes"] == d3["stored_payload_bytes"]


def test_unknown_algorithm_id_is_incompatibility_error():
    blob = pack(fresh_model())
    header_len = struct.unpack_from("<I", blob, 6)[0]
    header = json.loads(blob[10:10 + header_len])
    header["algorithm_id"] = "someone-elses-prng-v9"
    with pytest.raises(IncompatibilityError) as exc:
        reconstruct(header, {})
    assert "splitmix64-boxmuller-v1" in str(exc.value)


def test_round_trip_bit_identical_backbone_and_logits():
    model, test = trained_blob_model()
    probe = test.images[:32]
    logits_before = model.forward_logits(probe).data
    hashes_before = model.backbone_hashes()

    header, tensors = unpack(pack(model, extra={"note": "trained"}))
    rebuilt = reconstruct(header, tensors)

    assert rebuilt.backbone_hashes() == hashes_before
    assert np.array_equal(rebuilt.forward_logits(probe).data, logits_before)
    assert header["extra"]["note"] == "trained"


@pytest.mark.parametrize("extra", [
    ["a"], [], "x", {"a": {1, 2}}, {1: 2, "a": 3}, {1: 2}, {"x": float("nan")}, {"x": float("inf")},
    {"a": (1, 2)}, {"a": {1: "b"}}, {"a": np.int64(3)}, {"a": b"bytes"},
], ids=["list", "empty list", "str", "set value", "mixed keys", "int key", "nan", "inf", "tuple", "nested int key",
        "numpy int", "bytes"])
def test_pack_refuses_an_extra_that_would_not_read_back_with_a_config_error(extra):
    with pytest.raises(ConfigError, match="extra"):
        pack(fresh_model(), extra=extra)


def test_every_extra_pack_accepts_reads_back_as_given():
    # random nests of JSON values and of values JSON cannot hold as given
    rng = np.random.default_rng(5)
    atoms = [0, -1, 2 ** 70, 0.5, -0.0, 1e308, float("nan"), float("inf"), True, None, "s", "\u00fc\n",
             np.float64(0.25), np.int32(3), (1, 2), {1, 2}, b"b"]
    keys = ["k", "", "\u00fc", 1, 2.5, None]

    def value(depth):
        kind = rng.integers(3) if depth < 3 else 0
        if kind == 0:
            return atoms[rng.integers(len(atoms))]
        if kind == 1:
            return [value(depth + 1) for _ in range(rng.integers(3))]
        return {keys[rng.integers(len(keys))]: value(depth + 1) for _ in range(rng.integers(3))}

    model, accepted = fresh_model(), 0
    for _ in range(300):
        extra = {keys[rng.integers(3)]: value(0) for _ in range(rng.integers(1, 4))}
        try:
            blob = pack(model, extra=extra)
        except ConfigError:
            continue
        accepted += 1
        assert unpack(blob)[0]["extra"] == extra
    assert 30 <= accepted <= 270  # both outcomes are exercised
    assert unpack(pack(model))[0]["extra"] == {}


def test_same_payload_different_seed_different_logits():
    model, test = trained_blob_model()
    probe = test.images[:16]
    header, tensors = unpack(pack(model))
    baseline = reconstruct(header, tensors).forward_logits(probe).data

    header["backbone"]["seed"] = header["backbone"]["seed"] + 1
    swapped = reconstruct(header, tensors).forward_logits(probe).data
    assert not np.array_equal(baseline, swapped)


def test_reconstruct_twice_identical_hashes():
    header, tensors = unpack(pack(fresh_model(seed=5)))
    a = reconstruct(header, tensors)
    b = reconstruct(header, tensors)
    assert a.backbone_hashes() == b.backbone_hashes()


def test_payload_scales_linearly_not_quadratically_with_width():
    # the backbone (d_in * d_out floats) never ships; payload grows with
    # r * (d_in + d_out) while the dense matrices grow quadratically
    narrow = fresh_model(preset=None, hidden_dims=(64, 64), input_dim=64, num_classes=10, rank=4)
    wide = fresh_model(preset=None, hidden_dims=(256, 256), input_dim=256, num_classes=10, rank=4)
    n_pay = len(pack(narrow))
    w_pay = len(pack(wide))
    dense_ratio = (256 * 256) / (64 * 64)  # 16x
    assert w_pay / n_pay < dense_ratio / 2
    # and the adapter payload follows the linear count exactly
    n_total, w_total = narrow.params.size, wide.params.size
    assert (w_pay - 4 * w_total) - (n_pay - 4 * n_total) < 200  # headers nearly equal


def test_tensor_table_architecture_mismatch_rejected():
    header, tensors = unpack(pack(fresh_model(rank=2)))
    header["model"]["rank"] = 4
    with pytest.raises(FormatError):
        reconstruct(header, tensors)


def test_tensor_table_is_checked_before_anything_is_built():
    # built first, a 4096-wide hidden layer's scaffold alone is 12 MiB
    header, tensors = unpack(pack(fresh_model()))
    header["model"].update(preset=None, hidden_dims=[4096, 64])
    header["backbone"]["layer_shapes"] = []

    def attempt():
        with pytest.raises(FormatError, match="layer0.B"):
            reconstruct(header, tensors)

    peak, _ = peak_bytes(attempt)
    assert peak < 1 << 20


def test_atomic_save_and_load(tmp_path):
    blob = pack(fresh_model())
    path = tmp_path / "model.ltlr"
    save(str(path), blob)
    assert load(str(path)) == blob
    assert blob[:4] == MAGIC
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("blob,target,error", [
    ("not bytes", "model.ltlr", TypeError),  # the write fails
    (b"LTLR", "a_dir", IsADirectoryError),  # the rename fails
])
def test_a_failed_save_leaves_no_temp_file(tmp_path, blob, target, error):
    (tmp_path / "a_dir").mkdir()
    with pytest.raises(error):
        save(str(tmp_path / target), blob)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_a_saved_artifact_gets_the_mode_open_gives_a_new_file(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        save(str(tmp_path / "model.ltlr"), b"LTLR")
        (tmp_path / "plain").open("wb").close()
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "model.ltlr").stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == mode


# -- malformed blobs whose CRC is valid ---------------------------------------


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def table_start(blob: bytes) -> int:
    return 10 + struct.unpack_from("<I", blob, 6)[0]


def version_of(blob: bytes) -> int:
    return struct.unpack_from("<H", blob, 4)[0]


def test_cut_tensor_table_is_format_error():
    blob = pack(fresh_model())
    # cut right after the count, then inside the first name length, name and dims
    for cut in (4, 4 + 1, 4 + 2 + 3, 4 + 2 + len("layer0.A") + 1 + 6):
        with pytest.raises(FormatError):
            unpack(with_crc(blob[:table_start(blob) + cut]))


def test_bogus_tensor_count_is_format_error():
    body = bytearray(pack(fresh_model())[:-4])
    struct.pack_into("<I", body, table_start(body), 0xFFFFFFFF)
    with pytest.raises(FormatError):
        unpack(with_crc(bytes(body)))


def test_non_utf8_tensor_name_is_format_error():
    # a stored name is compared byte for byte with the one the header's config gives
    body = bytearray(pack(fresh_model())[:-4])
    body[table_start(body) + 4 + 2] = 0xFF
    with pytest.raises(FormatError, match="tensor table is not the table"):
        unpack(with_crc(bytes(body)))


def test_header_that_is_not_an_object_is_format_error():
    blob = pack(fresh_model())
    header = b'["algorithm_id"]'
    body = MAGIC + struct.pack("<HI", version_of(blob), len(header)) + header + blob[table_start(blob):-4]
    with pytest.raises(FormatError, match="JSON object"):
        unpack(with_crc(body))


def test_trailing_bytes_after_payload_are_format_error():
    blob = pack(fresh_model())
    with pytest.raises(FormatError, match="payload holds"):
        unpack(with_crc(blob[:-4] + b"\x00"))


def test_tensor_extent_must_match_its_shape():
    body = bytearray(pack(fresh_model())[:-4])
    name_len = struct.unpack_from("<H", body, table_start(body) + 4)[0]
    pos = table_start(body) + 4 + 2 + name_len
    ndim = body[pos]
    size_at = pos + 1 + 4 * ndim + 8
    struct.pack_into("<Q", body, size_at, struct.unpack_from("<Q", body, size_at)[0] - 4)
    with pytest.raises(FormatError, match="back to back"):
        unpack(with_crc(bytes(body)))


def table_of(model, itemsize: int) -> bytes:
    """The tensor table of ``model``'s own trainable arrays, entry by entry,
    as ``pack`` wrote it before the table was derived from the config."""
    table, offset = struct.pack("<I", len(model.trainable_params())), 0
    for name, t in model.trainable_params():
        nbytes = itemsize * t.data.size
        table += struct.pack(f"<H{len(name)}sB{t.data.ndim}IQQ", len(name), name.encode(), t.data.ndim,
                             *t.data.shape, offset, nbytes)
        offset += nbytes
    return table


@pytest.mark.parametrize("layernorm", [False, True])
@pytest.mark.parametrize("head_mode", HEAD_MODES)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_v1_pack_writes_the_table_its_config_gives(preset, head_mode, layernorm):
    model = fresh_model(preset=preset, rank=4, head_mode=head_mode, layernorm=layernorm)
    blob = pack(model)
    table = _table(model.cfg.trainable_layout(), PAYLOAD_DTYPES[1])
    assert version_of(blob) == 1 and table == table_of(model, 4)
    assert blob[table_start(blob):table_start(blob) + len(table)] == table


@pytest.mark.parametrize("edit", [
    lambda h: h["model"].update(rank=4),
    lambda h: h["model"].update(layernorm=True),
    lambda h: h["model"].update(head_mode="lora"),
    lambda h: h["model"].update(preset="small"),
], ids=["rank", "layernorm", "head-mode", "preset"])
def test_a_self_consistent_v1_table_of_another_architecture_than_its_header_is_format_error(edit):
    # the rank 2 tiny model's table and payload, whole, under another model's header
    with pytest.raises(FormatError, match="tensor table is not the table"):
        unpack(reheader(pack(fresh_model(rank=2)), edit))


@pytest.mark.parametrize("model", [
    dict(preset=None, input_dim=2**32, hidden_dims=[1], rank=1),  # layer0.A's dims past a u32
    dict(preset=None, input_dim=2**32 - 1, hidden_dims=[2**31], rank=2**31),  # extents past a u64
], ids=["dim", "extent"])
def test_a_v1_header_declaring_a_model_no_table_can_describe_is_format_error(model):
    with pytest.raises(FormatError, match="no tensor table can describe"):
        unpack(reheader(pack(fresh_model()), lambda h: h["model"].update(model)))


# -- CRC-valid artifacts whose header fields are missing or mistyped ------------


def reheader(blob: bytes, edit) -> bytes:
    """Re-pack ``blob`` with its JSON header changed by ``edit`` and a valid CRC."""
    header, _ = unpack(blob)
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return with_crc(MAGIC + struct.pack("<HI", version_of(blob), len(raw)) + raw + blob[table_start(blob):-4])


def reconstruct_edited(edit):
    return reconstruct(*unpack(reheader(pack(fresh_model()), edit)))


def test_header_without_model_is_format_error():
    with pytest.raises(FormatError, match="model"):
        reconstruct_edited(lambda h: h.pop("model"))


def test_header_without_backbone_is_format_error():
    with pytest.raises(FormatError, match="backbone"):
        reconstruct_edited(lambda h: h.pop("backbone"))


def test_backbone_without_seed_is_format_error():
    with pytest.raises(FormatError, match="seed"):
        reconstruct_edited(lambda h: h["backbone"].pop("seed"))


def test_unknown_model_key_is_format_error():
    with pytest.raises(FormatError):
        reconstruct_edited(lambda h: h["model"].update(width=3))


def test_layer_shapes_that_are_not_a_list_is_format_error():
    with pytest.raises(FormatError):
        reconstruct_edited(lambda h: h["backbone"].update(layer_shapes=5))


@pytest.mark.parametrize("params", [None, [["sigma", 0.5]], "sigma"])
def test_family_params_that_are_not_an_object_are_format_errors(params):
    with pytest.raises(FormatError, match="mapping"):
        reconstruct_edited(lambda h: h["backbone"]["family"].update(params=params))


@pytest.mark.parametrize("edit", [
    lambda h: h["backbone"]["family"].update(name="normal", params={"sigma": 10 ** 400}, scaling="explicit"),
    lambda h: h["model"].update(alpha=10 ** 400),
], ids=["family-sigma", "model-alpha"])
def test_a_header_number_beyond_the_float_range_is_format_error(edit):
    # such a sigma used to reconstruct, and the first forward raised OverflowError
    with pytest.raises(FormatError):
        reconstruct_edited(edit)


def test_non_numeric_rank_is_format_error():
    with pytest.raises(FormatError):
        reconstruct_edited(lambda h: h["model"].update(rank="x"))


@pytest.mark.parametrize("field,edit", [
    ("seed", lambda h: h["backbone"].update(seed=-1)),
    ("seed", lambda h: h["backbone"].update(seed=2**64)),
    ("seed", lambda h: h["backbone"].update(seed=1.5)),
    ("rank", lambda h: h["model"].update(rank=2.5)),
    ("alpha", lambda h: h["model"].update(alpha=-1.0)),
])
def test_out_of_range_header_numbers_are_format_errors(field, edit):
    with pytest.raises(FormatError, match=field):
        reconstruct_edited(edit)


@pytest.mark.parametrize("rank", [129, 10 ** 400])
def test_a_header_rank_above_every_layer_width_is_format_error(rank):
    with pytest.raises(FormatError, match="rank"):
        reconstruct_edited(lambda h: h["model"].update(rank=rank))


@pytest.mark.parametrize("extra", [[], "x", 3])
def test_extra_that_is_not_an_object_is_format_error(extra):
    blob = reheader(pack(fresh_model()), lambda h: h.update(extra=extra))
    with pytest.raises(FormatError, match="extra"):
        unpack(blob)


def test_backbone_of_another_generator_under_a_v1_header_is_incompatibility_error():
    with pytest.raises(IncompatibilityError, match="splitmix64-boxmuller-v2"):
        reconstruct_edited(lambda h: h["backbone"].update(algorithm_id="splitmix64-boxmuller-v2"))


def test_a_backbone_without_a_generator_tag_is_read_as_this_builds():
    # pack writes the tag back, as a constant of the format
    assert pack(reconstruct_edited(lambda h: h["backbone"].pop("algorithm_id"))) == pack(fresh_model())


def test_backbone_shapes_are_checked_before_anything_is_built():
    # shapes of a 4096-wide layer: built first, that scaffold alone is 12 MiB;
    # the sender is built and packed before the measured region
    blob = pack(fresh_model())

    def attempt():
        with pytest.raises(FormatError, match="layer shapes"):
            edit = lambda h: h["backbone"].update(layer_shapes=[[4096, 784], [64, 4096], [10, 64]])  # noqa: E731
            reconstruct(*unpack(reheader(blob, edit)))

    peak, _ = peak_bytes(attempt)
    assert peak < 1 << 20


def test_empty_backbone_shapes_mean_the_model_shapes():
    model = fresh_model()
    header, tensors = unpack(pack(model))
    header["backbone"]["layer_shapes"] = []
    assert reconstruct(header, tensors).backbone_hashes() == model.backbone_hashes()
