"""``train_run``'s one-entry scaffold memo gives the bits of a cold build.

A static run whose ``scaffold_key`` (the ``repr`` of ``scaffold_args``:
the frozen layers' shapes, ``zero_scaffold``, ``frozen_bias``, the family
and the seed, all that ``draw_scaffold`` takes) is the last static run's
builds on that run's scaffold: copies of its streams, its read-only
arrays.  Everything a run returns must then equal a run made
from an empty memo, any input the draw reads must miss, any other input
must hit, and the other schedules and ``reconstruct`` draw as before.
"""

from dataclasses import replace

import numpy as np
import pytest

import lottalora.train as train_mod
from lottalora.artifact import pack, reconstruct, unpack
from lottalora.data import synthetic_blobs
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.train import AdamW, TrainConfig, train_run

from conftest import empty_scaffold_memo, peak_bytes

# odd widths, so a gaussian family leaves a Box-Muller carry in a stream
CFG = ModelConfig(preset=None, hidden_dims=(7, 5), input_dim=9, num_classes=3, rank=2, dropout=0.1)
FAMILY = InitFamily("normal")
SEED = 23
TCFG = TrainConfig(epochs=2, batch_size=32, lr=1e-2)


def data(input_dim=9):
    full = synthetic_blobs(120, input_dim, 3, 8.0, seed=4)
    return full.subset(np.arange(90), "train"), full.subset(np.arange(90, 120), "test")


def run(cfg=CFG, family=FAMILY, seed=SEED, tcfg=TCFG):
    train, test = data(cfg.input_dim)
    return train_run(cfg, BackboneSpec.from_config(cfg, seed, family), tcfg, train, test)


def outcome(monkeypatch) -> tuple:
    """Everything a default run returns, and its optimizer's moments."""
    optimizers = []

    class RecordingAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(train_mod, "AdamW", RecordingAdamW)
        metrics = run()
    summary = metrics.summary()
    del summary["wall_time"]
    model, opt = metrics.model, optimizers[-1]
    return (summary, metrics.beta_trajectory, model.params.tobytes(), opt.m.tobytes(), opt.v.tobytes(),
            pack(model), model.backbone_hashes())


def cold_hashes(cfg=CFG, family=FAMILY, seed=SEED):
    return build_model(cfg, BackboneSpec.from_config(cfg, seed, family)).backbone_hashes()


def test_a_warm_run_draws_nothing_and_gives_the_cold_runs_bits(draws, monkeypatch):
    first = outcome(monkeypatch)
    assert draws == [(7, 9), (5, 7)]
    del draws[:]
    warm = outcome(monkeypatch)
    assert draws == []
    empty_scaffold_memo()
    cold = outcome(monkeypatch)
    assert draws == [(7, 9), (5, 7)]
    assert warm == cold == first


# each input draw_scaffold reads, as the arguments of two runs that differ in it
DRAWN = {
    "seed": ({}, dict(seed=SEED + 1)),
    "family name": ({}, dict(family=InitFamily("uniform"))),
    "family params": (dict(family=InitFamily("uniform")), dict(family=InitFamily("uniform", {"a": 0.2}))),
    "scaling": ({}, dict(family=InitFamily("normal", scaling="explicit"))),
    "preset": ({}, dict(cfg=ModelConfig(preset="tiny", rank=2))),
    "hidden_dims": ({}, dict(cfg=replace(CFG, hidden_dims=(7, 6)))),
    "input_dim": ({}, dict(cfg=replace(CFG, input_dim=11))),
    "mode": ({}, dict(cfg=replace(CFG, mode="full_training"))),
    "head_mode": ({}, dict(cfg=replace(CFG, head_mode="lora"))),
    "zero_scaffold": ({}, dict(cfg=replace(CFG, zero_scaffold=True, b_init="kaiming"))),
    "frozen_bias": ({}, dict(cfg=replace(CFG, frozen_bias=False))),
}


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("name", DRAWN)
def test_a_run_after_another_value_of_a_drawn_input_has_its_cold_scaffold(name, order):
    empty_scaffold_memo()
    first, second = DRAWN[name][order], DRAWN[name][1 - order]
    run(**first)
    assert run(**second).model.backbone_hashes() == cold_hashes(**second) != cold_hashes(**first)


def test_a_param_that_compares_equal_in_another_type_is_another_key(draws):
    # sigma = 1 draws the bits of sigma = 1.0, but the key does not rely on it
    as_float = run(family=InitFamily("normal", {"sigma": 1.0}, "explicit")).model.backbone_hashes()
    del draws[:]
    as_int = run(family=InitFamily("normal", {"sigma": 1}, "explicit")).model.backbone_hashes()
    assert draws == [(7, 9), (5, 7)]
    assert as_int == as_float


# inputs that only the adapters, the head and training read
SHARED = {
    "rank": dict(rank=3),
    "alpha": dict(alpha=4.0),
    "scaling_mode": dict(scaling_mode="rank_stabilized"),
    "dropout": dict(dropout=0.0),
    "layernorm": dict(layernorm=True),
    "b_init": dict(b_init="kaiming"),
}


@pytest.mark.parametrize("name", SHARED)
def test_a_run_that_differs_only_past_the_scaffold_draws_nothing(name, draws):
    run()
    del draws[:]
    cfg = replace(CFG, **SHARED[name])
    hashes = run(cfg=cfg).model.backbone_hashes()
    assert draws == []
    assert hashes == cold_hashes(cfg=cfg)


def test_a_warm_models_redraws_continue_as_a_cold_models():
    empty_scaffold_memo()
    runs = [run().model for _ in range(3)]
    shared = runs[2].backbone_hashes()
    # each model's redraws continue from its own copy of the streams
    for model in runs[:2] + [run().model]:
        cold = build_model(CFG, BackboneSpec.from_config(CFG, SEED, FAMILY))
        for _ in range(2):
            cold.resample_backbones()
            model.resample_backbones()
            assert model.backbone_hashes() == cold.backbone_hashes() != shared
    # the redraws replaced the models' arrays and never wrote into the ones
    # that the memo and the last model share
    assert runs[2].backbone_hashes() == shared
    assert runs[2].hidden[0].backbone is train_mod._scaffold_memo[1][1][0][0]


def test_the_memos_arrays_are_read_only():
    empty_scaffold_memo()
    run()
    _, (_, frozen) = train_mod._scaffold_memo
    for matrix, bias in frozen:
        with pytest.raises(ValueError, match="read-only"):
            matrix.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            bias[0] = 1.0


@pytest.mark.parametrize("resample,k", [("per_epoch", 2), ("per_batch", 2), ("microbatch", 3)])
def test_a_resampling_run_draws_as_a_cold_one_and_empties_the_memo(resample, k, draws):
    tcfg = replace(TCFG, resample=resample, resample_k=k)
    run(tcfg=tcfg)
    cold = list(draws)
    assert train_mod._scaffold_memo is None
    run()
    del draws[:]
    run(tcfg=tcfg)
    assert draws == cold
    assert train_mod._scaffold_memo is None


def test_reconstruct_draws_its_scaffold_and_leaves_the_memo_alone(draws):
    blob = pack(run().model)
    memo = train_mod._scaffold_memo
    del draws[:]
    model = reconstruct(*unpack(blob))
    assert draws == [(7, 9), (5, 7)]
    assert train_mod._scaffold_memo is memo
    assert model.hidden[0].backbone is not memo[1][1][0][0]
    empty_scaffold_memo()
    reconstruct(*unpack(blob))
    assert train_mod._scaffold_memo is None


def test_a_miss_drops_the_old_scaffold_before_it_draws(monkeypatch):
    empty_scaffold_memo()
    run()
    seen = []
    draw = train_mod.draw_scaffold

    def watched(*args):
        seen.append(train_mod._scaffold_memo)
        return draw(*args)

    monkeypatch.setattr(train_mod, "draw_scaffold", watched)
    run(seed=SEED + 1)
    assert seen == [None]


def test_a_new_key_after_a_warm_run_peaks_a_scaffold_below_a_cold_run():
    # the warm run is traced, so the drop of its scaffold counts: the new
    # run frees it before it draws, and then does what a cold run does
    cfg = ModelConfig(preset="tiny", rank=2)
    train, test = data(784)

    def static_run(seed):
        return train_run(cfg, BackboneSpec.from_config(cfg, seed), TrainConfig(epochs=1), train, test)

    scaffold = sum(layer.backbone.data.nbytes + layer.frozen_bias.nbytes
                   for layer in static_run(6).model.lotta_layers())
    cold, _ = peak_bytes(lambda _: static_run(6) and None, setup=empty_scaffold_memo)
    after_warm, _ = peak_bytes(lambda _: static_run(6) and None, setup=lambda: static_run(5) and None)
    assert after_warm <= cold - scaffold // 2
