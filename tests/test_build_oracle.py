"""The build-time scaffold draw against a hand-drawn oracle.

``hand_scaffold`` draws each layer's frozen matrix and bias here, from a
fresh ``derive_stream(seed, i, BACKBONE_WEIGHT)`` per layer, and leaves
each stream just past it; ``hand_build`` assembles a ``Model`` on it.
That is the documented derivation of a seed's backbone; ``Model`` must
give its bits everywhere, at build, through every training schedule
(the static one from an empty scaffold memo) and through seed gating.
"""

import numpy as np
import pytest

import lottalora.train as train_mod
from lottalora.artifact import pack
from lottalora.data import make_partition, synthetic_blobs
from lottalora.errors import RunError
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, Model, ModelConfig, _draw_frozen, build_model, scaffold_args
from lottalora.prng import DrawKind, derive_stream
from lottalora.train import TrainConfig, seed_gated_train, train_run

from conftest import empty_scaffold_memo

INPUT_DIM = 9


def hand_scaffold(shapes, zero_scaffold, frozen_bias, family, seed):
    """A seed's ``(streams, frozen)`` drawn here, layer by layer."""
    streams, frozen = [], []
    for i, shape in enumerate(shapes):
        stream = derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT)
        frozen.append(_draw_frozen(shape, zero_scaffold, frozen_bias, family, stream))
        streams.append(stream)
    return streams, frozen


def hand_build(cfg, spec):
    """A model on the scaffold drawn here."""
    return Model(cfg, spec, hand_scaffold(*scaffold_args(cfg, spec)))


def draw_by_hand(monkeypatch):
    """Make ``lottalora.train`` build and draw by hand, from an empty memo."""
    empty_scaffold_memo()
    monkeypatch.setattr(train_mod, "build_model", hand_build)
    monkeypatch.setattr(train_mod, "draw_scaffold", hand_scaffold)


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
def test_build_leaves_each_stream_where_the_hand_drawn_scaffold_does(cfg, fam):
    spec = BackboneSpec.from_config(cfg, 17, fam)
    built, by_hand = build_model(cfg, spec), hand_build(cfg, spec)
    assert stream_states(built) == stream_states(by_hand)
    assert pack(built) == pack(by_hand)
    assert built.backbone_hashes() == by_hand.backbone_hashes()


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
def test_train_run_matches_the_hand_drawn_build_bitwise(resample, k, epochs, cfg, fam, monkeypatch):
    spec = BackboneSpec.from_config(cfg, 23, fam)
    tcfg = TrainConfig(epochs=epochs, batch_size=32, lr=1e-2, resample=resample, resample_k=k)
    empty_scaffold_memo()
    built = run_outcome(cfg, spec, tcfg)
    draw_by_hand(monkeypatch)
    assert built == run_outcome(cfg, spec, tcfg)


@pytest.mark.parametrize("layernorm_on", [False, True])
def test_seed_gated_training_matches_the_hand_drawn_build_bitwise(layernorm_on, monkeypatch):
    data = synthetic_blobs(150, 16, 4, 8.0, seed=2)
    train, test = data.subset(np.arange(100), "train"), data.subset(np.arange(100, 150), "test")
    partition = make_partition([{0, 1}, {2, 3}], [42, 43])
    cfg = odd_cfg(input_dim=16, num_classes=10, layernorm=layernorm_on)
    tcfg = TrainConfig(epochs=2, batch_size=32, lr=1e-2)

    def confusion():
        return [c.tobytes() for c in seed_gated_train(partition, cfg, tcfg, train, test).confusion]

    built = confusion()
    draw_by_hand(monkeypatch)
    assert built == confusion()
