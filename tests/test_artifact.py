import json
import struct
import zlib

import numpy as np
import pytest

from lottalora.artifact import FORMAT_VERSION, MAGIC, load, pack, reconstruct, save, unpack
from lottalora.errors import FormatError, IncompatibilityError, IntegrityError
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.data import synthetic_blobs
from lottalora.train import TrainConfig, train_run

NORMAL = InitFamily("normal", {"sigma": 0.1}, scaling="explicit")


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


def test_payload_size_is_four_bytes_per_trainable():
    model = fresh_model(preset="medium", rank=8)
    total, _ = model.count_trainable()
    assert total == 21_774
    blob = pack(model)
    header_len = struct.unpack_from("<I", blob, 6)[0]
    # everything after the table is payload + 4-byte crc
    tensor_count = len(model.trainable_params())
    names = sum(len(n.encode()) for n, _ in model.trainable_params())
    ndims = sum(t.data.ndim for _, t in model.trainable_params())
    table_len = 4 + tensor_count * (2 + 1 + 16) + names + 4 * ndims
    payload_len = len(blob) - 10 - header_len - table_len - 4
    assert payload_len == 4 * total


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


def test_version_bump_is_incompatibility_error():
    blob = bytearray(pack(fresh_model()))
    struct.pack_into("<H", blob, 4, FORMAT_VERSION + 1)
    # keep the checksum valid so the version check is what fires
    import zlib

    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(IncompatibilityError):
        unpack(bytes(blob))


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
    n_total, _ = narrow.count_trainable()
    w_total, _ = wide.count_trainable()
    assert (w_pay - 4 * w_total) - (n_pay - 4 * n_total) < 200  # headers nearly equal


def test_tensor_table_architecture_mismatch_rejected():
    header, tensors = unpack(pack(fresh_model(rank=2)))
    header["model"]["rank"] = 4
    with pytest.raises(FormatError):
        reconstruct(header, tensors)


def test_atomic_save_and_load(tmp_path):
    blob = pack(fresh_model())
    path = tmp_path / "model.ltlr"
    save(str(path), blob)
    assert load(str(path)) == blob
    assert blob[:4] == MAGIC
    assert not list(tmp_path.glob("*.tmp"))


# -- malformed blobs whose CRC is valid ---------------------------------------


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def table_start(blob: bytes) -> int:
    return 10 + struct.unpack_from("<I", blob, 6)[0]


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
    body = bytearray(pack(fresh_model())[:-4])
    body[table_start(body) + 4 + 2] = 0xFF
    with pytest.raises(FormatError, match="UTF-8"):
        unpack(with_crc(bytes(body)))


def test_header_that_is_not_an_object_is_format_error():
    blob = pack(fresh_model())
    header = b'["algorithm_id"]'
    body = MAGIC + struct.pack("<HI", FORMAT_VERSION, len(header)) + header + blob[table_start(blob):-4]
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


# -- CRC-valid artifacts whose header fields are missing or mistyped ------------


def reheader(blob: bytes, edit) -> bytes:
    """Re-pack ``blob`` with its JSON header changed by ``edit`` and a valid CRC."""
    header, _ = unpack(blob)
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return with_crc(MAGIC + struct.pack("<HI", FORMAT_VERSION, len(raw)) + raw + blob[table_start(blob):-4])


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
