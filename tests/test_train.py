import math

import numpy as np
import pytest

from lottalora.artifact import GRID_MAX, pack, reconstruct, to_shipping_precision, unpack
from lottalora.data import Dataset, make_partition, split_train_val, synthetic_blobs
from lottalora.errors import ConfigError, DataError, RunError
from lottalora.initfam import InitFamily
from lottalora import model as model_module
from lottalora import train as train_module
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.numerics import softmax_xent
from lottalora.prng import DrawKind, derive_stream
from lottalora.train import (
    ADAMW_BETAS,
    ADAMW_EPS,
    AdamW,
    _train_step,
    RunMetrics,
    TrainConfig,
    beta_summary,
    cosine_lr,
    evaluate,
    seed_gated_train,
    train_run,
    write_metrics_csv,
)

from test_explicit_backward import to_float64


def blob_data(n=600, d=16, classes=3, sep=8.0, seed=5):
    # one draw shares cluster centers; round-robin labels keep both
    # slices class-balanced
    full = synthetic_blobs(n + n // 3, d, classes, sep, seed)
    cut = n
    train = full.subset(np.arange(cut), "train")
    test = full.subset(np.arange(cut, len(full)), "test")
    return train, test


def blob_model_cfg(**kw):
    base = dict(preset=None, hidden_dims=(32, 16), input_dim=16, num_classes=3, rank=4, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def quick_train_cfg(**kw):
    base = dict(epochs=4, batch_size=64, lr=3e-3)
    base.update(kw)
    return TrainConfig(**base)


# -- AdamW --------------------------------------------------------------------

def scalar_model(f64=False):
    """A 1 -> 1 -> 1 fully trained model: four scalar trainables, in f64
    when ``f64``, so AdamW's arithmetic can be checked to 1e-12."""
    cfg = ModelConfig(preset=None, hidden_dims=(1,), input_dim=1, num_classes=1, rank=1, mode="full_training")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 0))
    if f64:
        to_float64(model)
    return model


def test_adamw_zero_grad_zero_decay_no_change():
    model = scalar_model()
    model.params[...] = [1.0, -2.0, 3.0, 0.5]
    opt = AdamW(model, 0.0)
    opt.zero_grad()
    opt.step(0.1)
    assert np.array_equal(model.params, np.array([1.0, -2.0, 3.0, 0.5], dtype=np.float32))


def test_adamw_single_scalar_step_matches_hand_arithmetic():
    # one step on a scalar, transcribed update rule at the fixed constants
    lr, wd, b1, b2, eps = 0.1, 0.0, 0.9, 0.999, 1e-8
    assert ADAMW_BETAS == (b1, b2) and ADAMW_EPS == eps
    value, grad = 2.0, 0.5
    m = (1 - b1) * grad
    v = (1 - b2) * grad * grad
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    expected = value - lr * mhat / (math.sqrt(vhat) + eps)

    model = scalar_model(f64=True)
    opt = AdamW(model, wd)
    model.params[...], opt.grads[...] = value, grad
    opt.step(lr)
    assert model.params.tolist() == pytest.approx([expected] * 4, rel=1e-12)


def test_adamw_decoupled_decay_shrinks_param():
    lr, wd = 0.1, 0.5
    plain, decay = scalar_model(f64=True), scalar_model(f64=True)
    for model, weight_decay in ((plain, 0.0), (decay, wd)):
        opt = AdamW(model, weight_decay)
        model.params[...], opt.grads[...] = 2.0, 0.5
        opt.step(lr)
    # extra shrink is exactly lr * wd * param on the pre-step value
    assert (plain.params - decay.params).tolist() == pytest.approx([lr * wd * 2.0] * 4, rel=1e-12)


@pytest.mark.parametrize("weight_decay", ["x", None, -1e-3, float("nan"), float("inf"), 10 ** 400])
def test_adamw_rejects_a_weight_decay_that_is_not_a_finite_number_at_least_zero(weight_decay):
    with pytest.raises(ConfigError, match="weight_decay"):
        AdamW(scalar_model(), weight_decay)


# -- cosine schedule ------------------------------------------------------------

def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5)
    assert cosine_lr(100, 100, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(50, 100, 0.5) == pytest.approx(0.25)


def test_cosine_lr_rejects_out_of_range():
    with pytest.raises(ConfigError):
        cosine_lr(101, 100, 0.5)


# -- train_run ------------------------------------------------------------------

def test_train_run_learns_blobs_full_training():
    train, test = blob_data()
    cfg = blob_model_cfg(mode="full_training")
    spec = BackboneSpec.from_config(cfg, 42)
    metrics = train_run(cfg, spec, quick_train_cfg(epochs=6), train, test)
    assert metrics.epochs[-1]["train_accuracy"] > 0.99
    assert metrics.final_test_accuracy > 0.95


def test_train_run_learns_blobs_lottalora():
    train, test = blob_data()
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 42, InitFamily("normal"))
    metrics = train_run(cfg, spec, quick_train_cfg(epochs=30, lr=1e-2), train, test)
    assert metrics.final_test_accuracy > 0.9
    assert len(metrics.beta_trajectory) == 30
    assert len(metrics.final_betas) == 2  # two adapted hidden layers


def test_train_run_deterministic():
    train, test = blob_data()
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 7, InitFamily("normal"))
    m1 = train_run(cfg, spec, quick_train_cfg(), train, test)
    m2 = train_run(cfg, spec, quick_train_cfg(), train, test)
    assert m1.final_test_accuracy == m2.final_test_accuracy
    assert m1.final_test_loss == m2.final_test_loss
    assert m1.epochs == m2.epochs
    assert m1.final_betas == m2.final_betas


def test_static_schedule_keeps_backbone_bytes():
    train, test = blob_data()
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 11, InitFamily("normal"))
    metrics = train_run(cfg, spec, quick_train_cfg(epochs=2), train, test)
    from lottalora.model import build_model

    fresh = build_model(cfg, spec)
    assert metrics.model.backbone_hashes() == fresh.backbone_hashes()


def test_per_epoch_resample_restores_coherent_scaffold():
    # the restored model must carry the scaffold of the best-val epoch,
    # i.e. a fresh build resampled best_epoch times
    train, test = blob_data()
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 11, InitFamily("normal"))
    metrics = train_run(cfg, spec, quick_train_cfg(epochs=4, resample="per_epoch"), train, test)
    from lottalora.model import build_model

    replay = build_model(cfg, spec)
    for _ in range(metrics.best_epoch):
        replay.resample_backbones()
    assert metrics.model.backbone_hashes() == replay.backbone_hashes()


def test_resampled_schedules_still_step():
    train, test = blob_data(n=300)
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 13, InitFamily("normal"))
    for resample, k in (("per_batch", 2), ("microbatch", 4)):
        metrics = train_run(
            cfg, spec, quick_train_cfg(epochs=2, resample=resample, resample_k=k), train, test
        )
        assert len(metrics.epochs) == 2
        assert math.isfinite(metrics.final_test_loss)


# -- the one-pass step against the former per-schedule step ---------------------

def reference_train_one_batch(model, optimizer, grads, x, y, lr_t, cfg: TrainConfig, first: bool):
    """The step as it was before the schedules shared one pass: a separate
    branch per schedule, averaging view by view.  Kept as the oracle for
    ``_train_step``; the run's ``first`` step trains its first sub-batch
    on the build-time scaffold."""
    optimizer.zero_grad()
    if cfg.resample == "per_batch":
        k = cfg.resample_k
        losses = 0.0
        correct = 0
        for j in range(k):
            if not (first and j == 0):
                model.resample_backbones()
            loss, logits = model.loss_and_grads(x, y, grads)
            losses += loss
            correct += int((logits.argmax(axis=1) == y).sum())
        for grad in grads:
            grad /= k
        optimizer.step(lr_t)
        return losses / k, correct // k
    if cfg.resample == "microbatch":
        k = cfg.resample_k
        chunks = np.array_split(np.arange(len(y)), k)
        losses = 0.0
        correct = 0
        used = 0
        for idx in chunks:
            if len(idx) == 0:
                continue
            if not (first and used == 0):
                model.resample_backbones()
            loss, logits = model.loss_and_grads(x[idx], y[idx], grads)
            losses += loss * len(idx)
            correct += int((logits.argmax(axis=1) == y[idx]).sum())
            used += 1
        for grad in grads:
            grad /= used
        optimizer.step(lr_t)
        return losses / len(y), correct
    loss, logits = model.loss_and_grads(x, y, grads)
    optimizer.step(lr_t)
    return loss, int((logits.argmax(axis=1) == y).sum())


@pytest.mark.parametrize("resample,k,rows", [
    ("static", 2, 64),
    ("per_batch", 3, 64),
    ("microbatch", 4, 50),
    ("microbatch", 5, 3),  # fewer rows than splits: two chunks are empty
])
def test_one_pass_step_matches_reference_bitwise(resample, k, rows):
    train, _ = blob_data()
    x, y = train.images[:rows], train.labels[:rows]
    cfg = blob_model_cfg(dropout=0.1, head_mode="lora_bias", layernorm=True)
    spec = BackboneSpec.from_config(cfg, 21, InitFamily("normal"))

    def state_after_two_steps(step):
        model = build_model(cfg, spec)
        opt = AdamW(model, 1e-2)
        grads = model.cfg.views(opt.grads)
        for n in range(2):  # the second step runs on non-zero moments and B
            step(model, opt, grads, n == 0)
        return model.backbone_hashes(), opt.params.tobytes(), opt.m.tobytes(), opt.v.tobytes()

    reference = state_after_two_steps(lambda model, opt, grads, first: reference_train_one_batch(
        model, opt, grads, x, y, 1e-2, TrainConfig(resample=resample, resample_k=k), first))
    one_pass = state_after_two_steps(
        lambda model, opt, grads, first: _train_step(model, opt, grads, x, y, 1e-2, resample, k, first))
    assert one_pass == reference


def test_per_batch_train_accuracy_counts_every_forward_row():
    # one epoch, one full batch, k=2: the step sees the batch under the
    # build-time scaffold, then under a fresh one, before any update, so it
    # can be replayed by hand
    train, test = blob_data()
    cfg = blob_model_cfg()
    seed = 2
    spec = BackboneSpec.from_config(cfg, seed, InitFamily("normal"))
    tcfg = quick_train_cfg(epochs=1, batch_size=len(train), resample="per_batch", resample_k=2)
    metrics = train_run(cfg, spec, tcfg, train, test)

    split, _ = split_train_val(train, derive_stream(seed, 0, DrawKind.DATA_SHUFFLE))
    replay = build_model(cfg, spec)
    correct, losses = [], []
    for j in range(2):
        if j:
            replay.resample_backbones()
        logits = replay.forward_logits(split.images)
        correct.append(int((logits.data.argmax(axis=1) == split.labels).sum()))
        losses.append(softmax_xent(logits.data, split.labels)[0])
    assert sum(correct) % 2 == 1  # a floored per-step count would lose half a row
    assert metrics.epochs[0]["train_accuracy"] == sum(correct) / (2 * len(split))
    assert metrics.epochs[0]["train_loss"] == pytest.approx(sum(losses) / 2, rel=1e-12)


@pytest.mark.parametrize("resample", ["static", "per_epoch"])
def test_train_run_returns_the_model_at_shipping_precision(resample):
    train, test = blob_data()
    cfg = blob_model_cfg(layernorm=True, head_mode="lora_bias")
    spec = BackboneSpec.from_config(cfg, 7, InitFamily("normal"))
    metrics = train_run(cfg, spec, quick_train_cfg(resample=resample), train, test)
    assert metrics.shipped is metrics.summary()["shipped"] is True
    for _, t in metrics.model.trainable_params():
        assert np.array_equal(t.data.astype(np.float16).astype(np.float32), t.data)
    assert metrics.final_betas == [float(np.float16(b)) for b in metrics.final_betas]
    # the shipped values are on the grid already, so rounding again moves no bit
    shipped = metrics.model.params.copy()
    assert to_shipping_precision(metrics.model)
    assert np.array_equal(metrics.model.params.view(np.uint32), shipped.view(np.uint32))
    blob = pack(metrics.model)
    assert blob[4:6] == b"\x04\x00"
    if resample == "static":
        # the final test numbers are the shipped model's, as verify recomputes them
        rebuilt = reconstruct(*unpack(blob))
        assert evaluate(rebuilt, test) == (metrics.final_test_loss, metrics.final_test_accuracy)


def test_a_run_whose_values_leave_the_grid_records_that_it_ships_f32():
    # one AdamW step at lr 1e5 moves every trained value by about 1e5,
    # past the grid's 65024, while the loss stays finite
    train, test = blob_data()
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 3, InitFamily("normal"))
    metrics = train_run(cfg, spec, quick_train_cfg(lr=1e5, epochs=1, batch_size=len(train)), train, test)
    assert metrics.shipped is metrics.summary()["shipped"] is False
    assert np.abs(metrics.model.params).max() > GRID_MAX
    assert pack(metrics.model)[4:6] == b"\x01\x00"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_raises_run_error():
    train, test = blob_data()
    cfg = blob_model_cfg(mode="full_training")
    spec = BackboneSpec.from_config(cfg, 1)
    with pytest.raises(RunError) as exc:
        train_run(cfg, spec, quick_train_cfg(lr=1e12, epochs=3), train, test)
    assert exc.value.last_finite_epoch is not None


@pytest.mark.parametrize("resample,k", [("per_batch", 3), ("microbatch", 4)])
def test_wide_logit_margins_are_not_divergence(resample, k):
    # this heavy-tailed scaffold gives first-step logit margins in the
    # hundreds to thousands, where the label's softmax probability
    # underflows to 0; the loss stays finite
    data = synthetic_blobs(90, 9, 3, 8.0, seed=4)
    train, test = data.subset(np.arange(60), "train"), data.subset(np.arange(60, 90), "test")
    cfg = ModelConfig(preset=None, hidden_dims=(7, 5), input_dim=9, num_classes=3, rank=2, dropout=0.1,
                      head_mode="lora", frozen_bias=False)
    spec = BackboneSpec.from_config(cfg, 23, InitFamily("student_t", {"nu": 2}))
    tcfg = TrainConfig(epochs=1, batch_size=32, lr=1e-2, resample=resample, resample_k=k)
    metrics = train_run(cfg, spec, tcfg, train, test)
    assert math.isfinite(metrics.epochs[-1]["train_loss"])
    assert math.isfinite(metrics.final_test_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_seed_gated_divergence_names_epoch_and_step():
    full = synthetic_blobs(450, 16, 3, 8.0, seed=2)
    train = full.subset(np.arange(300), "train")
    test = full.subset(np.arange(300, 450), "test")
    partition = make_partition([{0}, {1, 2}], [42, 43])
    cfg = blob_model_cfg(num_classes=10)
    with pytest.raises(RunError, match=r"epoch \d+, step \d+") as exc:
        seed_gated_train(partition, cfg, quick_train_cfg(lr=1e12, epochs=3), train, test)
    assert exc.value.last_finite_epoch is not None


def refuse_to_build(monkeypatch):
    """Make a scaffold draw or a model build fail the test, so a refusal
    that passes shows the run checked its input before either."""
    monkeypatch.setattr(train_module, "_scaffold_memo", None)
    for name in ("draw_scaffold", "build_model"):
        monkeypatch.setattr(train_module, name,
                            lambda *args, name=name: pytest.fail(f"called {name} on a refused input"))


@pytest.mark.parametrize("groups", [[{0, 1}, {5}], [{5}, {6}]])
def test_seed_gating_on_a_group_without_training_rows_is_a_data_error(groups, monkeypatch):
    train, test = blob_data(n=120)
    partition = make_partition(groups, [42, 43])
    refuse_to_build(monkeypatch)
    with pytest.raises(DataError, match=r"\[5\]"):
        seed_gated_train(partition, blob_model_cfg(num_classes=10), quick_train_cfg(epochs=1), train, test)


def test_train_cfg_validation():
    with pytest.raises(ConfigError):
        TrainConfig(resample="sometimes")
    with pytest.raises(ConfigError):
        TrainConfig(resample="per_batch", resample_k=1)


@pytest.mark.parametrize("kw", [{"schedule": "linear"}, {"epochs": 0}, {"batch_size": 0}, {"epochs": -1},
                                {"schedule": "constant"}])
def test_train_cfg_rejects_an_unknown_lr_schedule_or_a_count_below_one(kw):
    with pytest.raises(ConfigError, match=list(kw)[-1]):
        TrainConfig(**kw)


@pytest.mark.parametrize("kw", [
    {"lr": -1.0}, {"lr": 0.0}, {"lr": float("nan")}, {"lr": float("inf")},
    {"weight_decay": -5.0}, {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
])
def test_train_cfg_rejects_a_bad_lr_or_weight_decay(kw):
    with pytest.raises(ConfigError, match=next(iter(kw))):
        TrainConfig(**kw)


@pytest.mark.parametrize("kw", [
    {"batch_size": 2.5}, {"batch_size": True}, {"batch_size": "64"}, {"epochs": 1.5}, {"epochs": True},
    {"resample_k": 2.5}, {"resample": "microbatch", "resample_k": 2.5}, {"resample_k": None},
    {"lr": True}, {"lr": "0.1"}, {"weight_decay": False}, {"weight_decay": None},
])
def test_train_cfg_field_types_are_config_errors(kw):
    with pytest.raises(ConfigError, match=list(kw)[-1]):
        TrainConfig(**kw)


def test_train_cfg_numpy_integers_become_ints():
    cfg = TrainConfig(batch_size=np.int64(32), epochs=np.int32(2), resample_k=np.uint8(3))
    assert cfg == TrainConfig(batch_size=32, epochs=2, resample_k=3)
    assert all(type(v) is int for v in (cfg.batch_size, cfg.epochs, cfg.resample_k))


def test_train_cfg_accepts_zero_weight_decay():
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


def bad_sets():
    """``(train, test)`` pairs for a 16-input model that a run must refuse,
    each with the message it is refused with."""
    train, test = blob_data(n=120)
    narrow_train, narrow_test = blob_data(n=120, d=12)
    return {
        # a 10% validation split of 4 rows rounds to none
        "four train rows": ((blob_data(n=4)[0], test), "validation"),
        "empty test": ((train, test.subset(np.arange(0))), "empty test set"),
        "narrow train": ((narrow_train, test), "train images have 12 pixels per row; the model expects 16"),
        "narrow test": ((train, narrow_test), "test images have 12 pixels per row; the model expects 16"),
        "empty train": ((train.subset(np.arange(0)), test), "empty train set"),
        "train label -1": ((train.relabeled(np.where(np.arange(len(train)) == 7, -1, train.labels)), test),
                           r"train labels must lie in \[0, 3\), got -1 to 2"),
        "test label 3": ((train, test.relabeled(np.where(test.labels == 2, 3, test.labels))),
                         r"test labels must lie in \[0, 3\), got 0 to 3"),
    }


@pytest.mark.parametrize("case", ["four train rows", "empty test", "narrow train", "narrow test", "train label -1",
                                  "test label 3"])
@pytest.mark.parametrize("resample", ["static", "per_epoch"])
def test_train_run_refuses_a_bad_data_set_before_drawing(case, resample, monkeypatch):
    datasets, match = bad_sets()[case]
    cfg = blob_model_cfg()
    refuse_to_build(monkeypatch)
    with pytest.raises(DataError, match=match):
        train_run(cfg, BackboneSpec.from_config(cfg, 1), quick_train_cfg(epochs=1, resample=resample), *datasets)


@pytest.mark.parametrize("dataset,match", [
    (blob_data()[0].subset(np.arange(0), "test"), "empty test set"),
    (blob_data(d=12)[1], "test images have 12 pixels per row; the model expects 16"),
    (Dataset(np.zeros((5, 4, 4), np.float32), np.zeros(5, np.int64), "test"), "4x4 pixels per row"),
    (Dataset(np.zeros(5, np.float32), np.zeros(5, np.int64), "test"), "no pixels per row"),
], ids=["empty", "narrow", "square", "flat"])
def test_evaluate_rejects_an_empty_or_wrong_width_dataset(dataset, match):
    cfg = blob_model_cfg()
    model = build_model(cfg, BackboneSpec.from_config(cfg, 1))
    with pytest.raises(DataError, match=match):
        evaluate(model, dataset)


@pytest.mark.parametrize("case,ooc", [("empty test", False), ("narrow train", False), ("narrow test", False),
                                      ("empty train", True)])
def test_seed_gated_train_refuses_a_bad_data_set_before_drawing(case, ooc, monkeypatch):
    # an empty OOC training set would reach the loop with zero rows to divide by
    datasets, match = bad_sets()[case]
    partition = make_partition([{0, 1}, {2}], [5, 6], ooc_mode=ooc)
    refuse_to_build(monkeypatch)
    with pytest.raises(DataError, match=match):
        seed_gated_train(partition, blob_model_cfg(num_classes=10), quick_train_cfg(epochs=1), *datasets)


@pytest.mark.parametrize("groups,ooc,match", [
    ([{0, 1}, {2}], True, "label 10, but the model has 5 outputs"),
    ([{0, 1}, {2, 7}], False, "label 7, but the model has 4 outputs"),
])
def test_seed_gating_refuses_a_label_the_model_cannot_output_before_drawing(groups, ooc, match, monkeypatch):
    train, test = blob_data(n=120, classes=10)  # digit 7 has rows
    refuse_to_build(monkeypatch)
    with pytest.raises(ConfigError, match=match):
        seed_gated_train(make_partition(groups, [5, 6], ooc_mode=ooc), blob_model_cfg(num_classes=4),
                         quick_train_cfg(epochs=1), train, test)


@pytest.mark.parametrize("resample,k", [("per_epoch", 2), ("per_batch", 2), ("microbatch", 4)])
def test_seed_gating_refuses_a_resampling_schedule(resample, k, monkeypatch):
    # the schedule used to be ignored: microbatch:4 gave the static run's confusion matrices
    train, test = blob_data(n=90, classes=3)
    partition = make_partition([{0, 1}, {2}], [5, 6])
    refuse_to_build(monkeypatch)
    with pytest.raises(ConfigError, match=resample):
        seed_gated_train(partition, blob_model_cfg(), quick_train_cfg(resample=resample, resample_k=k), train, test)


def relabeled_as(dataset, dtype):
    return dataset.relabeled(dataset.labels.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float64, bool])
def test_non_integer_labels_are_a_data_error(dtype):
    # float labels cannot index the logits, and bool labels would be taken
    # as a row mask, not as classes
    train, test = blob_data()
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 1)
    with pytest.raises(DataError, match="integer dtype"):
        train_run(cfg, spec, quick_train_cfg(epochs=1), relabeled_as(train, dtype), test)
    with pytest.raises(DataError, match="integer dtype"):
        evaluate(build_model(cfg, spec), relabeled_as(test, dtype))


def test_uint8_labels_train_as_int64_labels_do():
    train, test = blob_data()
    cfg = blob_model_cfg(dropout=0.1)
    spec = BackboneSpec.from_config(cfg, 1)
    tcfg = quick_train_cfg(epochs=1)
    wide = train_run(cfg, spec, tcfg, train, test)
    narrow = train_run(cfg, spec, tcfg, relabeled_as(train, np.uint8), relabeled_as(test, np.uint8))
    assert narrow.epochs == wide.epochs
    assert (narrow.final_test_loss, narrow.final_test_accuracy) == (wide.final_test_loss, wide.final_test_accuracy)


# -- seed gating ------------------------------------------------------------------

def test_seed_gated_training_separates_groups():
    # 6-class blobs split into two gated groups; reduced budget
    full = synthetic_blobs(1800, 16, 6, 8.0, seed=2)
    train = full.subset(np.arange(1200), "train")
    test = full.subset(np.arange(1200, 1800), "test")
    # blobs labels live in 0..5; reuse digit partition machinery
    partition = make_partition([{0, 1, 2}, {3, 4, 5}], [42, 43])
    cfg = blob_model_cfg(num_classes=10)  # partition machinery expects 10 digits
    result = seed_gated_train(partition, cfg, quick_train_cfg(epochs=8), train, test)
    for g in range(2):
        assert result.assigned_accuracy[g] > result.non_assigned_accuracy[g]
    assert result.confusion[0].shape == (10, 10)


def test_seed_gated_degenerate_single_group():
    full = synthetic_blobs(450, 16, 3, 8.0, seed=2)
    train = full.subset(np.arange(300), "train")
    test = full.subset(np.arange(300, 450), "test")
    partition = make_partition([{0, 1, 2}], [42])
    cfg = blob_model_cfg(num_classes=10)
    result = seed_gated_train(partition, cfg, quick_train_cfg(epochs=25, lr=1e-2), train, test)
    assert result.assigned_accuracy[0] > 0.9


def test_seed_gating_leaves_untested_digits_out_of_both_means():
    full = synthetic_blobs(450, 12, 3, 8.0, seed=2)
    train = full.subset(np.arange(300), "train")
    rest = np.arange(300, 450)
    test = full.subset(rest[full.labels[rest] < 2], "test")  # digits 0 and 1 only
    partition = make_partition([{0, 1}, {2}], [42, 43])
    wide = seed_gated_train(partition, blob_model_cfg(input_dim=12, num_classes=10),
                            quick_train_cfg(epochs=6, lr=1e-2), train, test)
    rows = wide.confusion[0]
    assert wide.assigned_accuracy[0] == pytest.approx((rows[0, 0] + rows[1, 1]) / 2)
    assert wide.non_assigned_accuracy[0] is None  # digit 2 and 3..9 have no test rows
    assert wide.assigned_accuracy[1] is None
    other = wide.confusion[1]
    assert wide.non_assigned_accuracy[1] == pytest.approx((other[0, 0] + other[1, 1]) / 2)
    # a model with 3 outputs has none for digits 3..9, which are untested anyway
    narrow = seed_gated_train(partition, blob_model_cfg(input_dim=12, num_classes=3),
                              quick_train_cfg(epochs=6, lr=1e-2), train, test)
    assert narrow.assigned_accuracy[0] > 0.9
    assert narrow.non_assigned_accuracy[0] is None and narrow.assigned_accuracy[1] is None


def test_ooc_digit0_rate_is_none_without_digit0_test_rows():
    full = synthetic_blobs(450, 12, 3, 8.0, seed=2)
    train = full.subset(np.arange(300), "train")
    rest = np.arange(300, 450)
    test = full.subset(rest[full.labels[rest] != 0], "test")
    partition = make_partition([{1}, {2}], [42, 43], ooc_mode=True)
    result = seed_gated_train(partition, blob_model_cfg(input_dim=12, num_classes=10),
                              quick_train_cfg(epochs=2, lr=1e-2), train, test)
    assert result.ooc_digit0_rate == [None, None]
    # with digit-0 test rows the rate is their share given the OOC label
    with_zero = seed_gated_train(partition, blob_model_cfg(input_dim=12, num_classes=10),
                                 quick_train_cfg(epochs=2, lr=1e-2), train, full.subset(rest, "test"))
    for g, rate in enumerate(with_zero.ooc_digit0_rate):
        assert rate == with_zero.confusion[g][0, partition.ooc_label]


def test_seed_gating_scores_a_tested_digit_without_an_output_as_zero():
    # the model has outputs 0..2, the test set holds digits 0..5
    full = synthetic_blobs(900, 12, 6, 8.0, seed=2)
    train = full.subset(np.flatnonzero(full.labels[:600] < 3), "train")
    test = full.subset(np.arange(600, 900), "test")
    partition = make_partition([{0, 1}, {2}], [42, 43])
    result = seed_gated_train(partition, blob_model_cfg(input_dim=12, num_classes=3),
                              quick_train_cfg(epochs=2), train, test)
    for g, (assigned, others) in enumerate([([0, 1], [2]), ([2], [0, 1])]):
        rows = result.confusion[g]
        # digits 3, 4 and 5 count among the others, each scoring 0.0
        assert result.assigned_accuracy[g] == pytest.approx(np.mean([rows[d, d] for d in assigned]))
        assert result.non_assigned_accuracy[g] == pytest.approx(np.sum([rows[d, d] for d in others]) / (len(others) + 3))


def gate_three_groups(**train_kw):
    full = synthetic_blobs(450, 12, 3, 8.0, seed=2)
    train = full.subset(np.arange(300), "train")
    test = full.subset(np.arange(300, 450), "test")
    partition = make_partition([{0}, {1}, {2}], [42, 43, 44])
    return seed_gated_train(partition, blob_model_cfg(input_dim=12, num_classes=10, dropout=0.2),
                            quick_train_cfg(**train_kw), train, test)


def test_seed_gating_draws_each_group_scaffold_once(monkeypatch):
    drawn = []
    draw = model_module._draw_frozen

    def counting_draw(shape, *args):
        drawn.append(shape)
        return draw(shape, *args)

    monkeypatch.setattr(model_module, "_draw_frozen", counting_draw)
    gate_three_groups(epochs=3)
    # 3 groups of 2 backbone layers (the head is a dense layer), once each
    assert sorted(drawn) == [(16, 32)] * 3 + [(32, 12)] * 3


@pytest.mark.parametrize("head_mode", ["full", "lora"])
def test_each_group_trains_and_evaluates_on_a_fresh_build_of_its_seed(head_mode, monkeypatch):
    # three groups, the last reusing the first one's seed
    full = synthetic_blobs(450, 12, 3, 8.0, seed=2)
    train, test = full.subset(np.arange(300), "train"), full.subset(np.arange(300, 450), "test")
    seeds = [42, 43, 42]
    cfg = blob_model_cfg(input_dim=12, num_classes=10, dropout=0.2, head_mode=head_mode)
    expected = [build_model(cfg, BackboneSpec.from_config(cfg, seed)).backbone_hashes() for seed in seeds]
    trained, evaluated, epochs, group_of = [], [], [], {}
    loop, install, eval_chunks = train_module._train_loop, train_module._install_scaffold, train_module._eval_chunks

    def watched_loop(model, tcfg, segments, shuffle):
        # each group trains on its own copy of its seed's list, so an install names its group
        segments = [(data, list(frozen)) for data, frozen in segments]
        group_of.update((id(frozen), g) for g, (_, frozen) in enumerate(segments))
        for epoch, *rest in loop(model, tcfg, segments, shuffle):
            epochs.append(epoch)
            yield epoch, *rest

    def watched_install(model, frozen):
        before = [p.data.copy() for _, p in model.trainable_params()]
        install(model, frozen)
        # a scaffold swap leaves every adapter and the head as they were
        assert all(np.array_equal(a, p.data) for a, (_, p) in zip(before, model.trainable_params()))
        if id(frozen) in group_of:  # a training segment's, not the evaluation's
            trained.append((len(epochs), group_of[id(frozen)], model.backbone_hashes()))

    def watched_eval(model, dataset):
        evaluated.append(model.backbone_hashes())
        return eval_chunks(model, dataset)

    monkeypatch.setattr(train_module, "_train_loop", watched_loop)
    monkeypatch.setattr(train_module, "_install_scaffold", watched_install)
    monkeypatch.setattr(train_module, "_eval_chunks", watched_eval)
    seed_gated_train(make_partition([{0}, {1}, {2}], seeds), cfg, quick_train_cfg(epochs=2), train, test)
    assert [(epoch, g) for epoch, g, _ in trained] == [(e, g) for e in range(2) for g in range(3)]
    assert [hashes for _, _, hashes in trained] == expected * 2
    assert evaluated == expected
    assert expected[0] != expected[1]


# -- beta summary -------------------------------------------------------------------

def test_beta_summary_untrained_all_ones():
    stats = beta_summary([[1.0, 1.0], [1.0, 1.0, 1.0]])
    assert stats["mean"] == 1.0
    assert stats["median"] == 1.0
    assert stats["iqr"] == [1.0, 1.0]
    assert stats["min"] == 1.0
    assert stats["count"] == 5


def test_beta_summary_requires_data():
    with pytest.raises(ConfigError):
        beta_summary([[]])


@pytest.mark.parametrize("runs", [[[0.9, "x"]], [[0.9, math.nan]], [0.9], [[0.9], [math.inf]], [None], [(0.9,)]])
def test_beta_summary_rejects_a_run_that_is_not_a_list_of_finite_numbers(runs):
    with pytest.raises(ConfigError, match="list of finite numbers"):
        beta_summary(runs)


def test_metrics_csv_schema(tmp_path):
    train, test = blob_data(n=200)
    cfg = blob_model_cfg()
    spec = BackboneSpec.from_config(cfg, 3, InitFamily("normal"))
    metrics = train_run(cfg, spec, quick_train_cfg(epochs=2), train, test)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,loss,accuracy,lr,beta_min,beta_median"
    assert len(lines) == 1 + 2 * 2  # two epochs x (train, val)
    assert lines[1].startswith("0,train,")
