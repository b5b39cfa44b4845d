"""The deferred build-time scaffold draw against an eager-build oracle.

``Model`` leaves each layer's frozen matrix and bias as a pending draw and
skips the layer's backbone stream past it.  ``eager_build`` is the build it
replaced: every frozen draw made at once, each stream left just past it.
Both must give the same bits everywhere.
"""

import gc

import numpy as np
import pytest

import lottalora.model as model_mod
import lottalora.train as train_mod
from lottalora.artifact import pack, reconstruct, unpack
from lottalora.data import make_partition, synthetic_blobs
from lottalora.errors import FormatError, RunError
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig, _draw_frozen, build_model
from lottalora.prng import DrawKind, derive_stream
from lottalora.train import TrainConfig, seed_gated_train, train_run

INPUT_DIM = 9


def eager_build(cfg, spec):
    """A model whose frozen state was drawn at build time."""
    model = build_model(cfg, spec)
    streams = []
    for i, layer in enumerate(model.lotta_layers()):
        stream = derive_stream(spec.seed, i, DrawKind.BACKBONE_WEIGHT)
        layer.set_backbone(*_draw_frozen(cfg, spec.family, i, stream))
        streams.append(stream)
    model._backbone_streams = streams
    return model


def odd_cfg(**kw):
    # odd layer sizes, so a gaussian family can leave a Box-Muller carry
    base = dict(preset=None, hidden_dims=(7, 5), input_dim=INPUT_DIM, num_classes=3, rank=2, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


FAMILIES = [InitFamily("normal"), InitFamily("student_t", {"nu": 2}), InitFamily("sparse_normal"),
            InitFamily("orthogonal")]
CONFIGS = [
    odd_cfg(),
    odd_cfg(layernorm=True, head_mode="lora_bias"),
    odd_cfg(head_mode="lora", frozen_bias=False),
    odd_cfg(zero_scaffold=True, b_init="kaiming"),
]
SCHEDULES = [("static", 2, 1), ("per_epoch", 2, 2), ("per_batch", 3, 1), ("microbatch", 4, 1)]


def stream_states(model):
    return [(s.state, s._gauss_cache) for s in model._backbone_streams]


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_build_skips_each_stream_to_where_the_eager_draw_leaves_it(cfg, fam):
    spec = BackboneSpec.from_config(cfg, 17, fam)
    deferred, eager = build_model(cfg, spec), eager_build(cfg, spec)
    assert stream_states(deferred) == stream_states(eager)
    assert pack(deferred) == pack(eager)
    assert deferred.backbone_hashes() == eager.backbone_hashes()


def data_split():
    data = synthetic_blobs(90, INPUT_DIM, 3, 8.0, seed=4)
    return data.subset(np.arange(60), "train"), data.subset(np.arange(60, 90), "test")


def run_outcome(cfg, spec, tcfg):
    train, test = data_split()
    try:
        metrics = train_run(cfg, spec, tcfg, train, test)
    except RunError as err:  # a heavy-tailed scaffold can diverge at once
        return str(err)
    summary = metrics.summary()
    del summary["wall_time"]
    return summary, pack(metrics.model), metrics.model.backbone_hashes()


@pytest.mark.parametrize("resample,k,epochs", SCHEDULES)
@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("fam", FAMILIES[:2], ids=lambda f: f.name)
def test_train_run_matches_the_eager_build_bitwise(resample, k, epochs, cfg, fam, monkeypatch):
    spec = BackboneSpec.from_config(cfg, 23, fam)
    tcfg = TrainConfig(epochs=epochs, batch_size=32, lr=1e-2, resample=resample, resample_k=k)
    deferred = run_outcome(cfg, spec, tcfg)
    monkeypatch.setattr(train_mod, "build_model", eager_build)
    assert deferred == run_outcome(cfg, spec, tcfg)


@pytest.mark.parametrize("layernorm_on", [False, True])
def test_seed_gated_training_matches_the_eager_build_bitwise(layernorm_on, monkeypatch):
    data = synthetic_blobs(150, 16, 4, 8.0, seed=2)
    train, test = data.subset(np.arange(100), "train"), data.subset(np.arange(100, 150), "test")
    partition = make_partition([{0, 1}, {2, 3}], [42, 43])
    cfg = odd_cfg(input_dim=16, num_classes=10, layernorm=layernorm_on)
    tcfg = TrainConfig(epochs=2, batch_size=32, lr=1e-2)

    def confusion():
        return [c.tobytes() for c in seed_gated_train(partition, cfg, tcfg, train, test).confusion]

    deferred = confusion()
    monkeypatch.setattr(train_mod, "build_model", eager_build)
    assert deferred == confusion()


# -- draws nobody reads are never made -------------------------------------------


@pytest.fixture
def draws(monkeypatch):
    """Every ``draw_matrix`` call the model makes, as (rows, cols)."""
    calls = []
    original = model_mod.draw_matrix

    def counting(stream, fam, rows, cols):
        calls.append((rows, cols))
        return original(stream, fam, rows, cols)

    monkeypatch.setattr(model_mod, "draw_matrix", counting)
    return calls


def test_pack_of_a_fresh_model_draws_no_scaffold(draws):
    cfg = odd_cfg(head_mode="lora")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 5))
    pack(model)
    assert draws == []
    model.forward_logits(np.zeros((2, INPUT_DIM), dtype=np.float32))
    assert draws == [(7, 9), (5, 7), (3, 5)]  # once per layer, before the first GEMM
    model.forward_logits(np.zeros((2, INPUT_DIM), dtype=np.float32))
    assert len(draws) == 3


def test_reconstruct_with_a_mismatched_tensor_table_draws_no_scaffold(draws):
    cfg = odd_cfg()
    header, tensors = unpack(pack(build_model(cfg, BackboneSpec.from_config(cfg, 5))))
    del tensors[next(iter(tensors))]
    with pytest.raises(FormatError):
        reconstruct(header, tensors)
    assert draws == []


def test_redraw_schedules_never_compute_the_build_draw(draws):
    # one microbatch step of four sub-batches: four redraws of two layers,
    # then the val/test evaluations run on the last redraw
    cfg = odd_cfg()
    train, test = data_split()
    tcfg = TrainConfig(epochs=1, batch_size=64, resample="microbatch", resample_k=4)
    train_run(cfg, BackboneSpec.from_config(cfg, 5), tcfg, train, test)
    assert len(draws) == 4 * 2


def test_set_backbone_drops_the_pending_draw(draws):
    cfg = odd_cfg()
    model = build_model(cfg, BackboneSpec.from_config(cfg, 5))
    model.resample_backbones()
    assert len(draws) == 2
    model.backbone_hashes()
    assert len(draws) == 2


def test_a_model_is_free_of_reference_cycles():
    cfg = odd_cfg(layernorm=True, head_mode="lora_bias")
    spec = BackboneSpec.from_config(cfg, 8)
    gc.collect()
    gc.disable()
    try:
        model = build_model(cfg, spec)  # every draw pending
        del model
        assert gc.collect() == 0
        model = build_model(cfg, spec)
        model.backbone_hashes()  # every draw materialized
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()
