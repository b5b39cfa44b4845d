import gc
import hashlib
import itertools
from dataclasses import asdict

import numpy as np
import pytest

from lottalora import prng
from lottalora.artifact import pack, reconstruct, unpack
from lottalora.data import make_partition
from lottalora.errors import ConfigError, DataError, DimensionError
from lottalora.initfam import FAMILY_NAMES, InitFamily
from lottalora.layers import LottaLayer
from lottalora.model import MAX_HIDDEN_LAYERS, BackboneSpec, ModelConfig, build_model, draw_scaffold, scaffold_args
from lottalora.train import TrainConfig

from conftest import peak_bytes

NORMAL_01 = InitFamily("normal", {"sigma": 0.1}, scaling="explicit")


def build(preset="medium", seed=42, **kw):
    cfg = ModelConfig(preset=preset, **kw)
    return build_model(cfg, BackboneSpec.from_config(cfg, seed, NORMAL_01))


def grad_views(model):
    """Views of a -0.0 buffer laid out as ``params``: what ``loss_and_grads`` adds into."""
    return model.cfg.views(np.full_like(model.params, -0.0))


# -- exact trainable counts (golden integers) --------------------------------

FULL_COUNTS = {"tiny": 109_386, "small": 242_762, "medium": 575_050}

LORA_COUNTS = {
    ("tiny", 1): 1_756,
    ("tiny", 2): 2_860,
    ("tiny", 4): 5_068,
    ("tiny", 8): 9_484,
    ("small", 1): 2_269,
    ("small", 8): 13_581,
    ("medium", 1): 3_294,
    ("medium", 2): 5_934,
    ("medium", 4): 11_214,
    ("medium", 8): 21_774,
    ("medium", 16): 42_894,
    ("medium", 32): 85_134,
}


def group_counts(model) -> dict:
    """Entries of ``params`` per name prefix (``layer0``, ..., ``head``),
    summed over the views of each named tensor."""
    counts: dict[str, int] = {}
    for (name, _), view in zip(model.cfg.trainable_layout(), model.cfg.views(model.params), strict=True):
        counts[name.split(".")[0]] = counts.get(name.split(".")[0], 0) + view.size
    return counts


@pytest.mark.parametrize("preset,expected", sorted(FULL_COUNTS.items()))
def test_full_training_counts(preset, expected):
    model = build(preset, mode="full_training")
    assert model.params.size == expected


@pytest.mark.parametrize("preset,rank", sorted(LORA_COUNTS))
def test_lottalora_counts(preset, rank):
    model = build(preset, rank=rank)
    assert model.params.size == sum(group_counts(model).values()) == LORA_COUNTS[(preset, rank)]
    assert group_counts(model)["head"] == 10 * model.cfg.dims()[-1] + 10


def test_per_layer_count_formula():
    breakdown = group_counts(build("medium", rank=8))
    dims = (784, 512, 256, 128, 64)
    for i in range(4):
        assert breakdown[f"layer{i}"] == 8 * (dims[i] + dims[i + 1]) + 1


def test_layernorm_adds_two_d_per_layer():
    base = build("tiny", rank=4).params.size
    with_ln = build("tiny", rank=4, layernorm=True).params.size
    assert with_ln - base == 2 * (128 + 64)


def test_head_mode_counts():
    full, lora, lora_bias = (build("tiny", rank=4, head_mode=mode).params.size
                             for mode in ("full", "lora", "lora_bias"))
    # frozen random head + adapter replaces the 650-parameter dense head
    assert lora == full - 650 + (4 * (64 + 10) + 1)
    assert lora_bias == lora + 10


# -- config validation --------------------------------------------------------

def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(preset="huge")


def test_unknown_head_mode_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(head_mode="frozen")


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(preset=[]),
    lambda: InitFamily([]),
    lambda: BackboneSpec(seed=1, family="normal"),
    lambda: make_partition([[1]], [1], ooc_mode="yes"),
    lambda: make_partition(5, [1]),
    lambda: make_partition([[1]], 5),
    lambda: make_partition([5], [1]),
    lambda: ModelConfig(scaling_mode="rslora"),
    lambda: ModelConfig(b_init="orthogonal"),
], ids=["list-preset", "list-family-name", "family-name-not-family", "ooc-mode-string", "int-groups", "int-seeds",
        "int-group", "scaling-mode", "b-init"])
def test_a_malformed_library_config_is_a_config_error(make):
    with pytest.raises(ConfigError):
        make()


def test_rank_zero_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(rank=0)


@pytest.mark.parametrize("rank", [129, 10**400, 10**5000], ids=["129", "401-digits", "5001-digits"])
def test_rank_above_every_layer_width_is_rejected(rank):
    # tiny's layers are 128x784, 64x128 and 10x64: no adapter has a rank above
    # 128; a rank past Python's 4300-digit str limit still gets its message
    assert ModelConfig(preset="tiny", rank=128).rank == 128
    with pytest.raises(ConfigError, match=r"rank must lie in \[1, 128\]"):
        ModelConfig(preset="tiny", rank=rank)


def test_a_rank_bound_too_long_to_print_still_raises_config_error():
    with pytest.raises(ConfigError, match=r"rank must lie in \[1, an integer of 16610 bits\]"):
        ModelConfig(preset=None, hidden_dims=(10**5000,), input_dim=10**5000, rank=0)


def test_hidden_dims_may_list_at_most_the_layer_bound():
    base = dict(preset=None, input_dim=3, num_classes=2, rank=1)
    assert len(ModelConfig(**base, hidden_dims=[1] * MAX_HIDDEN_LAYERS).layer_shapes()) == MAX_HIDDEN_LAYERS + 1
    for dims in ([1] * (MAX_HIDDEN_LAYERS + 1), ["x"] * 1_000_000, itertools.repeat(1)):
        # refused before any layer is checked, and an endless iterable is never drawn to its end
        with pytest.raises(ConfigError, match=f"at most {MAX_HIDDEN_LAYERS} layers"):
            ModelConfig(**base, hidden_dims=dims)


@pytest.mark.parametrize("dims", [
    dict(hidden_dims=(0,)), dict(hidden_dims=(-3,)), dict(hidden_dims=(4, 0)),
    dict(input_dim=0), dict(num_classes=0), dict(num_classes=-1, head_mode="lora"),
])
def test_nonpositive_dims_rejected_at_build(dims):
    base = dict(preset=None, hidden_dims=(4,), input_dim=6, num_classes=3, rank=2)
    with pytest.raises(ConfigError):
        cfg = ModelConfig(**{**base, **dims})
        build_model(cfg, BackboneSpec.from_config(cfg, 1))


@pytest.mark.parametrize("field,value", [
    ("rank", 2.5), ("rank", True), ("rank", "2"), ("input_dim", 784.0), ("num_classes", False),
    ("hidden_dims", (7.9,)), ("hidden_dims", (8, True)),
])
def test_non_integer_sizes_are_config_errors(field, value):
    base = dict(preset=None, hidden_dims=(8,), input_dim=6, num_classes=3, rank=2)
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{**base, field: value})


def test_numpy_integer_sizes_become_ints():
    cfg = ModelConfig(preset=None, hidden_dims=(np.int32(8),), input_dim=np.int64(6),
                      num_classes=np.uint8(3), rank=np.int64(2))
    plain = ModelConfig(preset=None, hidden_dims=(8,), input_dim=6, num_classes=3, rank=2)
    assert cfg == plain
    assert all(type(v) is int for v in (cfg.rank, cfg.input_dim, cfg.num_classes, *cfg.hidden_dims))
    assert pack(build_model(cfg, BackboneSpec.from_config(cfg, 1))) == pack(build_model(plain, BackboneSpec.from_config(plain, 1)))


@pytest.mark.parametrize("field,value", [
    ("dropout", "x"), ("dropout", None), ("dropout", True), ("hidden_dims", 7), ("hidden_dims", ("8",)),
    ("layernorm", "no"), ("layernorm", 1), ("zero_scaffold", np.bool_(False)), ("frozen_bias", 0),
])
def test_field_types_are_config_errors(field, value):
    base = dict(preset=None, hidden_dims=(8,), input_dim=6, num_classes=3)
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{**base, field: value})


def test_valid_config_header_fields_are_as_given():
    cfg = ModelConfig(preset=None, hidden_dims=[8, 4], input_dim=6, num_classes=3, rank=4, dropout=0,
                      layernorm=True)
    assert asdict(cfg)["hidden_dims"] == (8, 4)
    assert type(cfg.dropout) is int and cfg.layernorm is True


@pytest.mark.parametrize("alpha", ["x", None, True, float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_alpha_must_be_a_finite_number_above_zero(alpha):
    with pytest.raises(ConfigError, match="alpha"):
        ModelConfig(alpha=alpha)


def test_alpha_is_checked_not_coerced():
    # the header records alpha as given, so 2 stays an int and 0.5 a float
    assert type(ModelConfig(alpha=2).alpha) is int
    assert asdict(ModelConfig(alpha=0.5))["alpha"] == 0.5


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.5, 2.0, True, "1", None])
def test_seeds_outside_u64_are_config_errors(seed):
    cfg = ModelConfig(preset="tiny")
    with pytest.raises(ConfigError, match="seed"):
        BackboneSpec.from_config(cfg, seed)
    with pytest.raises(ConfigError, match="seed"):
        BackboneSpec.from_dict({**asdict(BackboneSpec.from_config(cfg, 1)), "seed": seed})


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
def test_every_u64_seed_is_accepted_as_an_int(seed):
    spec = BackboneSpec.from_config(ModelConfig(preset="tiny"), seed)
    assert type(spec.seed) is int and spec.seed == int(seed)


def test_explicit_dims_override_preset():
    cfg = ModelConfig(preset=None, hidden_dims=(32, 16), input_dim=20, num_classes=3)
    assert cfg.layer_shapes() == ((32, 20), (16, 32), (3, 16))


def test_spec_shape_mismatch_rejected():
    cfg_a = ModelConfig(preset="tiny")
    cfg_b = ModelConfig(preset="small")
    spec = BackboneSpec.from_config(cfg_a, 1, NORMAL_01)
    with pytest.raises(ConfigError):
        build_model(cfg_b, spec)


# -- forward behavior ---------------------------------------------------------

def test_fresh_model_equals_backbone_only_network():
    model = build("tiny", seed=7)
    x = np.random.default_rng(0).standard_normal((5, 784)).astype(np.float32)
    h = x
    for layer in model.hidden:
        h = np.maximum(h @ layer.backbone.data.T + layer.frozen_bias, 0)
    expected = h @ model.head.w.data.T + model.head.b.data
    got = model.forward_logits(x).data
    assert np.allclose(got, expected, rtol=1e-6, atol=1e-6)


def test_frozen_bias_is_small_fixed_and_unlisted():
    model = build("tiny", seed=7)
    for layer in model.hidden:
        bound = 1.0 / np.sqrt(layer.d_in)
        assert layer.frozen_bias.shape == (layer.d_out,)
        assert float(np.abs(layer.frozen_bias).max()) <= bound + 1e-7
        with pytest.raises(ValueError):
            layer.frozen_bias[0] = 1.0  # read-only
    names = [n for n, _ in model.trainable_params()]
    assert all("frozen" not in n for n in names)


def test_eval_mode_deterministic():
    model = build("tiny")
    x = np.random.default_rng(1).standard_normal((4, 784)).astype(np.float32)
    a = model.forward_logits(x).data
    b = model.forward_logits(x).data
    assert np.array_equal(a, b)


def test_zero_scaffold_zero_batch_gives_zero_logits():
    # with the frozen offsets disabled, nothing can light up the network
    model = build("tiny", zero_scaffold=True, frozen_bias=False)
    logits = model.forward_logits(np.zeros((3, 784), dtype=np.float32)).data
    assert np.array_equal(logits, np.zeros((3, 10), dtype=np.float32))


def test_zero_scaffold_keeps_frozen_bias_by_default():
    # all-zero pre-activations are a gradient fixed point; the frozen
    # offsets are what make the zero-scaffold ablation trainable
    model = build("tiny", zero_scaffold=True)
    assert all(float(np.abs(l.frozen_bias).max()) > 0 for l in model.hidden)
    assert all(float(np.abs(l.backbone.data).max()) == 0 for l in model.hidden)


def test_train_mode_dropout_changes_activations_but_is_reproducible():
    a = build("tiny", seed=3)
    b = build("tiny", seed=3)
    x = np.random.default_rng(2).standard_normal((6, 784)).astype(np.float32)
    y = np.arange(6) % 10
    _, out_a = a.loss_and_grads(x, y, grad_views(a))
    _, out_b = b.loss_and_grads(x, y, grad_views(b))
    assert np.array_equal(out_a, out_b)  # same derived mask streams
    assert not np.array_equal(out_a, a.forward_logits(x).data)


def test_batch_shape_validated():
    with pytest.raises(DimensionError):
        build("tiny").forward_logits(np.zeros((2, 100), dtype=np.float32))


@pytest.mark.parametrize("batch", [[[0.0] * 784], (0.0,) * 784, None], ids=["list", "tuple", "None"])
def test_a_batch_that_is_not_an_array_is_a_dimension_error(batch):
    model = build("tiny")
    with pytest.raises(DimensionError, match="array"):
        model.forward_logits(batch)
    with pytest.raises(DimensionError, match="array"):
        model.loss_and_grads(batch, np.zeros(1, dtype=np.int64), grad_views(model))


@pytest.mark.parametrize("batch,dtype", [
    (np.full((2, 784), "1"), "<U1"),
    (np.ones((2, 784), dtype=np.complex128), "complex128"),
    (np.full((2, 784), "1", dtype=object), "object"),
], ids=["unicode", "complex", "object-strings"])
def test_a_batch_that_is_not_boolean_integer_or_real_is_a_data_error(batch, dtype):
    model = build("tiny")
    with pytest.raises(DataError, match=f"dtype {dtype}"):
        model.forward_logits(batch)
    with pytest.raises(DataError, match=f"dtype {dtype}"):
        model.loss_and_grads(batch, np.zeros(2, dtype=np.int64), grad_views(model))


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float16, np.float64])
def test_a_boolean_integer_or_real_batch_runs_as_its_f32_cast(dtype):
    model = build("tiny")
    batch = (np.arange(2 * 784) % 3).reshape(2, 784).astype(dtype)
    assert np.array_equal(model.forward_logits(batch).data, model.forward_logits(batch.astype(np.float32)).data)


# -- freezing discipline and reconstruction -----------------------------------

def test_trainables_exclude_backbones_and_all_require_grad():
    model = build("small", rank=2)
    for name, t in model.trainable_params():
        assert t.requires_grad, name
    for layer in model.hidden:
        assert not layer.backbone.data.flags.writeable
        assert not any(np.shares_memory(layer.backbone.data, t.data) for _, t in model.trainable_params())


@pytest.mark.parametrize("head_mode,mode", [("full", "lottalora"), ("lora_bias", "lottalora"),
                                            ("full", "full_training")])
def test_a_built_or_reconstructed_model_holds_no_gradient(head_mode, mode):
    built = build("tiny", rank=2, layernorm=True, head_mode=head_mode, mode=mode)
    for model in (built, reconstruct(*unpack(pack(built)))):
        assert not hasattr(model, "grads")
        assert all(t.grad is None for _, t in model.trainable_params())
        assert all(t.data.base is model.params for _, t in model.trainable_params())


def test_backbone_reproducible_from_spec():
    a = build("tiny", seed=11)
    b = build("tiny", seed=11)
    assert a.backbone_hashes() == b.backbone_hashes()
    c = build("tiny", seed=12)
    assert a.backbone_hashes() != c.backbone_hashes()


def test_resample_changes_backbones_deterministically():
    a = build("tiny", seed=5)
    fresh = a.backbone_hashes()
    a.resample_backbones()
    once = a.backbone_hashes()
    assert once != fresh
    b = build("tiny", seed=5)
    b.resample_backbones()
    assert b.backbone_hashes() == once  # continuing streams are deterministic


@pytest.mark.parametrize("kw", [dict(), dict(head_mode="lora", frozen_bias=False),
                                dict(zero_scaffold=True, b_init="kaiming"), dict(mode="full_training")])
def test_the_builds_scaffold_is_what_draw_scaffold_gives_its_seed(kw):
    model = build("tiny", seed=42, **kw)
    streams, frozen = draw_scaffold(*scaffold_args(model.cfg, BackboneSpec.from_config(model.cfg, 42, NORMAL_01)))
    assert len(frozen) == len(model.lotta_layers()) == model.cfg.n_lotta()
    assert [(s.state, s._gauss_cache) for s in streams] == \
        [(s.state, s._gauss_cache) for s in model._backbone_streams]
    for layer, (matrix, bias) in zip(model.lotta_layers(), frozen):
        assert matrix.data.tobytes() == layer.backbone.data.tobytes()
        assert (bias is None and layer.frozen_bias is None) or bias.tobytes() == layer.frozen_bias.tobytes()


def test_a_full_training_models_resample_draws_nothing(monkeypatch):
    model = build("tiny", mode="full_training")
    before = [(name, t.data.tobytes()) for name, t in model.trainable_params()]

    def no_draw(*args):
        raise AssertionError("a full_training model has no scaffold to redraw")

    monkeypatch.setattr(prng, "_mix64_fill", no_draw)  # every draw fills through it
    model.resample_backbones()
    assert model.lotta_layers() == [] and model.backbone_hashes() == []
    assert [(name, t.data.tobytes()) for name, t in model.trainable_params()] == before


def test_a_model_is_free_of_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        model = build("tiny", layernorm=True, head_mode="lora_bias")
        model.resample_backbones()
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lora_head_uses_frozen_random_matrix():
    model = build("tiny", head_mode="lora")
    assert isinstance(model.head, LottaLayer)
    assert not model.head.backbone.data.flags.writeable
    assert not any(np.shares_memory(model.head.backbone.data, t.data) for _, t in model.trainable_params())
    assert float(np.abs(model.head.backbone.data).max()) > 0


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_backbone_hashes_are_those_of_the_c_order_bytes(name):
    # orthogonal's wide layers are Fortran-ordered; every other family's are
    # hashed in place
    cfg = ModelConfig(preset="medium")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 5, InitFamily(name)))
    expected = [hashlib.sha256(layer.backbone.data.tobytes() + layer.frozen_bias.tobytes()).hexdigest()
                for layer in model.lotta_layers()]
    assert model.backbone_hashes() == expected


def test_a_wide_orthogonal_backbone_is_hashed_in_row_blocks():
    # layer 0 of medium is 512x784, drawn Fortran-ordered; its digest is that
    # of the C-order bytes, while the hash copies one row block at a time
    cfg = ModelConfig(preset="medium")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 5, InitFamily("orthogonal")))
    model.backbone_hashes()  # draws every layer, so the peak below is the hash's
    data = model.lotta_layers()[0].backbone.data
    assert data.flags.f_contiguous and not data.flags.c_contiguous
    expected = hashlib.sha256(data.tobytes() + model.lotta_layers()[0].frozen_bias.tobytes()).hexdigest()
    peak, hashes = peak_bytes(model.backbone_hashes)
    assert hashes[0] == expected
    assert peak < data.nbytes / 4


def test_backbone_spec_round_trip():
    cfg = ModelConfig(preset="small", rank=4)
    spec = BackboneSpec.from_config(cfg, 99, NORMAL_01)
    assert BackboneSpec.from_dict(asdict(spec)) == spec


def test_model_config_round_trip():
    cfg = ModelConfig(preset="medium", rank=16, head_mode="lora_bias", layernorm=True)
    assert ModelConfig(**asdict(cfg)) == cfg


def test_train_config_round_trip():
    cfg = TrainConfig(lr=3e-3, batch_size=32, epochs=2, schedule="constant", resample="microbatch", resample_k=4)
    assert TrainConfig(**asdict(cfg)) == cfg
    # the AdamW constants and the validation share are not settings
    assert set(asdict(cfg)) == {"lr", "weight_decay", "batch_size", "epochs", "schedule", "resample",
                                  "resample_k"}


@pytest.mark.parametrize("preset", ["tiny", "small", "medium", "large", None])
@pytest.mark.parametrize("mode", ["lottalora", "full_training"])
@pytest.mark.parametrize("head_mode", ["full", "lora", "lora_bias"])
@pytest.mark.parametrize("layernorm", [False, True])
def test_trainable_layout_is_the_built_models_trainables(preset, mode, head_mode, layernorm):
    extra = {"hidden_dims": (7, 5), "input_dim": 11, "num_classes": 3, "rank": 2} if preset is None else {}
    cfg = ModelConfig(preset=preset, mode=mode, head_mode=head_mode, layernorm=layernorm, **extra)
    model = build_model(cfg, BackboneSpec.from_config(cfg, 3))
    assert cfg.trainable_layout() == [(name, t.data.shape) for name, t in model.trainable_params()]
    assert cfg.n_lotta() == len(model.lotta_layers())
