import math

import numpy as np
import pytest

from lottalora.artifact import pack, reconstruct, unpack
from lottalora.data import make_partition, split_train_val, synthetic_blobs
from lottalora.errors import ConfigError, DataError, RunError
from lottalora.initfam import InitFamily
from lottalora import model as model_module
from lottalora.model import BackboneSpec, Model, ModelConfig, build_model
from lottalora.numerics import softmax_xent, tensor
from lottalora.prng import DrawKind, derive_stream
from lottalora.train import (
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

def test_adamw_zero_grad_zero_decay_no_change():
    p = tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))


def test_adamw_single_scalar_step_matches_hand_arithmetic():
    # one step on a scalar, transcribed update rule
    lr, wd, b1, b2, eps = 0.1, 0.0, 0.9, 0.999, 1e-8
    value, grad = 2.0, 0.5
    m = (1 - b1) * grad
    v = (1 - b2) * grad * grad
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    expected = value - lr * mhat / (math.sqrt(vhat) + eps)

    p = tensor(np.asarray(value), requires_grad=True, dtype=np.float64)
    p.grad = np.asarray(grad, dtype=np.float64)
    opt = AdamW([p], lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
    opt.step(lr)
    assert float(p.data) == pytest.approx(expected, rel=1e-12)


def test_adamw_decoupled_decay_shrinks_param():
    lr, wd = 0.1, 0.5
    p_plain = tensor(np.asarray(2.0), requires_grad=True, dtype=np.float64)
    p_decay = tensor(np.asarray(2.0), requires_grad=True, dtype=np.float64)
    for p in (p_plain, p_decay):
        p.grad = np.asarray(0.5, dtype=np.float64)
    AdamW([p_plain], lr=lr, weight_decay=0.0).step()
    AdamW([p_decay], lr=lr, weight_decay=wd).step()
    # extra shrink is exactly lr * wd * param on the pre-step value
    assert float(p_plain.data - p_decay.data) == pytest.approx(lr * wd * 2.0, rel=1e-12)


def test_adamw_skips_frozen_and_gradless():
    p = tensor(np.ones(3), requires_grad=True)
    opt = AdamW([p], lr=0.1)
    opt.step()  # no grad: untouched
    assert np.array_equal(p.data, np.ones(3, dtype=np.float32))


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

def reference_train_one_batch(model, optimizer, x, y, lr_t, cfg: TrainConfig):
    """The step as it was before the schedules shared one pass: a separate
    branch per schedule.  Kept as the oracle for ``_train_step``."""
    optimizer.zero_grad()
    if cfg.resample == "per_batch":
        k = cfg.resample_k
        losses = 0.0
        correct = 0
        for _ in range(k):
            model.resample_backbones()
            loss, logits = model.loss_and_grads(x, y)
            losses += loss
            correct += int((logits.argmax(axis=1) == y).sum())
        for p in optimizer.params:
            if p.grad is not None:
                p.grad /= k
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
            model.resample_backbones()
            loss, logits = model.loss_and_grads(x[idx], y[idx])
            losses += loss * len(idx)
            correct += int((logits.argmax(axis=1) == y[idx]).sum())
            used += 1
        for p in optimizer.params:
            if p.grad is not None:
                p.grad /= used
        optimizer.step(lr_t)
        return losses / len(y), correct
    loss, logits = model.loss_and_grads(x, y)
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
        opt = AdamW([p for _, p in model.trainable_params()], lr=1e-2)
        for _ in range(2):  # the second step runs on non-zero moments and B
            step(model, opt)
        return (model.backbone_hashes(), [p.data.tobytes() for p in opt.params],
                [m.tobytes() for m in opt.m], [v.tobytes() for v in opt.v])

    reference = state_after_two_steps(lambda model, opt: reference_train_one_batch(
        model, opt, x, y, 1e-2, TrainConfig(resample=resample, resample_k=k)))
    one_pass = state_after_two_steps(lambda model, opt: _train_step(model, opt, x, y, 1e-2, resample, k))
    assert one_pass == reference


def test_per_batch_train_accuracy_counts_every_forward_row():
    # one epoch, one full batch, k=2: the step sees the batch under two
    # fresh scaffolds before any update, so it can be replayed by hand
    train, test = blob_data()
    cfg = blob_model_cfg()
    seed = 2
    spec = BackboneSpec.from_config(cfg, seed, InitFamily("normal"))
    tcfg = quick_train_cfg(epochs=1, batch_size=len(train), resample="per_batch", resample_k=2)
    metrics = train_run(cfg, spec, tcfg, train, test)

    split, _ = split_train_val(train, derive_stream(seed, 0, DrawKind.DATA_SHUFFLE), tcfg.val_fraction)
    replay = build_model(cfg, spec)
    correct, losses = [], []
    for _ in range(2):
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
    for _, t in metrics.model.trainable_params():
        assert np.array_equal(t.data.astype(np.float16).astype(np.float32), t.data)
    assert metrics.final_betas == [float(np.float16(b)) for b in metrics.final_betas]
    blob = pack(metrics.model)
    assert blob[4:6] == b"\x02\x00"
    if resample == "static":
        # the final test numbers are the shipped model's, as verify recomputes them
        rebuilt = reconstruct(*unpack(blob))
        assert evaluate(rebuilt, test) == (metrics.final_test_loss, metrics.final_test_accuracy)


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


@pytest.mark.parametrize("groups", [[{0, 1}, {5}], [{5}, {6}]])
def test_seed_gating_on_a_group_without_training_rows_is_a_data_error(groups):
    train, test = blob_data(n=120)
    partition = make_partition(groups, [42, 43])
    with pytest.raises(DataError, match=r"\[5\]"):
        seed_gated_train(partition, blob_model_cfg(num_classes=10), quick_train_cfg(epochs=1), train, test)


def test_train_cfg_validation():
    with pytest.raises(ConfigError):
        TrainConfig(resample="sometimes")
    with pytest.raises(ConfigError):
        TrainConfig(resample="per_batch", resample_k=1)


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


def test_train_run_on_four_rows_is_a_data_error():
    # a 10% validation split of 4 rows rounds to none
    train, test = blob_data(n=4)
    cfg = blob_model_cfg()
    with pytest.raises(DataError, match="validation"):
        train_run(cfg, BackboneSpec.from_config(cfg, 1), quick_train_cfg(epochs=1), train, test)


def test_evaluate_rejects_an_empty_dataset():
    train, _ = blob_data()
    cfg = blob_model_cfg()
    model = build_model(cfg, BackboneSpec.from_config(cfg, 1))
    with pytest.raises(DataError, match="empty"):
        evaluate(model, train.subset(np.arange(0), "test"))


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

    def counting_draw(cfg, family, i, stream):
        drawn.append(i)
        return draw(cfg, family, i, stream)

    monkeypatch.setattr(model_module, "_draw_frozen", counting_draw)
    gate_three_groups(epochs=3)
    # 3 groups of 2 backbone layers (the head is a dense layer), once each
    assert sorted(drawn) == [0, 0, 0, 1, 1, 1]


def test_seed_gating_with_reused_scaffolds_matches_redrawing_them(monkeypatch):
    reused = gate_three_groups(epochs=3)
    swap = Model.swap_seed_backbones
    monkeypatch.setattr(Model, "swap_seed_backbones", lambda model, seed, drawn=None: swap(model, seed))
    redrawn = gate_three_groups(epochs=3)
    for field_name in ("assigned_accuracy", "non_assigned_accuracy", "ooc_digit0_rate"):
        assert getattr(reused, field_name) == getattr(redrawn, field_name)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(reused.confusion, redrawn.confusion))


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
