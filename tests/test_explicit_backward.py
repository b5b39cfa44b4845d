"""The model's explicit forward/backward rules against the generic tape.

``tape_forward_logits`` builds the forward pass from the generic tape ops
in ``lottalora.numerics``, one tape node per op, with dropout masks from
``unit_block(n) >= p``; ``tape_loss_and_grads`` adds the tape form of the
loss and walks the tape.  They are the bitwise oracle for
``Model.forward_logits`` and ``Model.loss_and_grads``: after two optimizer
steps, parameters, AdamW moments and backbone hashes must be equal byte
for byte.
"""

import gc
import math

import numpy as np
import pytest

import lottalora.numerics as numerics
import lottalora.train as train_mod
from lottalora.data import make_partition, synthetic_blobs
from lottalora.initfam import BackboneMatrix, InitFamily
from lottalora.layers import DenseLayer
from lottalora.model import BackboneSpec, Model, ModelConfig, _dropout_scale, build_model
from lottalora.numerics import (
    Tensor,
    add,
    add_bias,
    const_scale,
    dropout,
    layernorm,
    linear,
    relu,
    scalar_scale,
    softmax_xent,
    tensor,
)
from lottalora.prng import Stream
from lottalora.train import AdamW, TrainConfig, _train_step, seed_gated_train, train_run
from tape_oracle import finite_diff_check, tape_softmax_xent


def tape_layer_forward(layer, h: Tensor) -> Tensor:
    if isinstance(layer, DenseLayer):
        return add_bias(linear(h, layer.w), layer.b)
    adapter = layer.adapter
    backbone_path = scalar_scale(linear(h, Tensor(layer.backbone.data)), adapter.beta)
    low_rank = linear(linear(h, adapter.a), adapter.b)
    out = add(backbone_path, const_scale(low_rank, adapter.scale))
    if layer.frozen_bias is not None:
        out = add_bias(out, Tensor(layer.frozen_bias))
    if layer.ln_gamma is not None:
        out = layernorm(out, layer.ln_gamma, layer.ln_bias)
    return out


def tape_forward_logits(model, batch, training=False) -> Tensor:
    h = tensor(batch)
    for i, layer in enumerate(model.hidden):
        h = relu(tape_layer_forward(layer, h))
        if training and model.cfg.dropout > 0.0:
            h = dropout(h, model.cfg.dropout, model._dropout_streams[i], training=True)
    logits = tape_layer_forward(model.head, h)
    if model.head_bias is not None:
        logits = add_bias(logits, model.head_bias)
    return logits


def tape_loss_and_grads(model, x, y) -> tuple[float, np.ndarray]:
    logits = tape_forward_logits(model, x, training=True)
    loss = tape_softmax_xent(logits, y)
    loss.backward()
    return loss.item(), logits.data


def small_cfg(**kw):
    base = dict(preset=None, hidden_dims=(32, 16), input_dim=16, num_classes=3, rank=4, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def blobs(n=120, classes=3, seed=5):
    return synthetic_blobs(n, 16, classes, 8.0, seed)


def final_state(model, optimizer) -> tuple:
    return (model.backbone_hashes(), [p.data.tobytes() for p in optimizer.params],
            [m.tobytes() for m in optimizer.m], [v.tobytes() for v in optimizer.v])


def under_both_forwards(run, monkeypatch):
    """``run()`` once with the explicit rules and once with the tape."""
    explicit = run()
    with monkeypatch.context() as patch:
        patch.setattr(Model, "forward_logits", tape_forward_logits)
        patch.setattr(Model, "loss_and_grads", tape_loss_and_grads)
        oracle = run()
    return explicit, oracle


STEP_SCHEDULES = [("static", 2, 64), ("per_batch", 3, 64), ("microbatch", 4, 50),
                  ("microbatch", 5, 3)]  # five splits of three rows: two are empty


def assert_two_steps_match_the_tape(cfg, resample, k, rows, monkeypatch):
    data = blobs()
    x, y = data.images[:rows], data.labels[:rows]
    spec = BackboneSpec.from_config(cfg, 21, InitFamily("normal"))

    def run():
        model = build_model(cfg, spec)
        opt = AdamW([p for _, p in model.trainable_params()], lr=1e-2)
        for _ in range(2):  # the second step runs on non-zero moments and B
            _train_step(model, opt, x, y, 1e-2, resample, k)
        return final_state(model, opt)

    explicit, oracle = under_both_forwards(run, monkeypatch)
    assert explicit == oracle


@pytest.mark.parametrize("head_mode", ["full", "lora", "lora_bias"])
@pytest.mark.parametrize("layernorm_on", [False, True])
@pytest.mark.parametrize("resample,k,rows", STEP_SCHEDULES)
def test_two_steps_match_the_tape_bitwise(resample, k, rows, layernorm_on, head_mode, monkeypatch):
    cfg = small_cfg(layernorm=layernorm_on, head_mode=head_mode)
    assert_two_steps_match_the_tape(cfg, resample, k, rows, monkeypatch)


@pytest.mark.parametrize("resample,k,rows", [STEP_SCHEDULES[0], STEP_SCHEDULES[2]])
def test_full_training_matches_the_tape_bitwise(resample, k, rows, monkeypatch):
    assert_two_steps_match_the_tape(small_cfg(mode="full_training"), resample, k, rows, monkeypatch)


def recorded_run(run, monkeypatch):
    """``run()`` with the models and optimizers that ``lottalora.train``
    builds recorded; returns (run's result, state of the last ones)."""
    models, optimizers = [], []

    class RecordingAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    def recording_build(cfg, spec):
        models.append(build_model(cfg, spec))
        return models[-1]

    with monkeypatch.context() as patch:
        patch.setattr(train_mod, "AdamW", RecordingAdamW)
        patch.setattr(train_mod, "build_model", recording_build)
        result = run()
    return result, final_state(models[-1], optimizers[-1])


def test_per_epoch_run_matches_the_tape_bitwise(monkeypatch):
    # two epochs of one full batch each: two steps with a redraw between them
    data = blobs(n=150)
    train, test = data.subset(np.arange(100), "train"), data.subset(np.arange(100, 150), "test")
    cfg = small_cfg(layernorm=True, head_mode="lora_bias")
    spec = BackboneSpec.from_config(cfg, 3, InitFamily("normal"))
    tcfg = TrainConfig(epochs=2, batch_size=128, lr=1e-2, resample="per_epoch")

    def run():
        metrics, state = recorded_run(lambda: train_run(cfg, spec, tcfg, train, test), monkeypatch)
        return metrics.epochs, metrics.final_test_loss, state

    explicit, oracle = under_both_forwards(run, monkeypatch)
    assert explicit == oracle


def test_seed_gated_training_matches_the_tape_bitwise(monkeypatch):
    # one epoch over two label groups of one batch each: two steps, each
    # on its group's seed
    data = synthetic_blobs(150, 16, 4, 8.0, seed=2)
    train, test = data.subset(np.arange(100), "train"), data.subset(np.arange(100, 150), "test")
    partition = make_partition([{0, 1}, {2, 3}], [42, 43])
    cfg = small_cfg(num_classes=10, layernorm=True)
    tcfg = TrainConfig(epochs=1, batch_size=128, lr=1e-2)

    def run():
        result, state = recorded_run(lambda: seed_gated_train(partition, cfg, tcfg, train, test), monkeypatch)
        return [c.tobytes() for c in result.confusion], state

    explicit, oracle = under_both_forwards(run, monkeypatch)
    assert explicit == oracle


# -- structure --------------------------------------------------------------------


@pytest.mark.parametrize("resample", ["static", "microbatch"])
def test_training_runs_without_the_tape(resample, monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("training built or walked a tape")

    monkeypatch.setattr(Tensor, "backward", no_tape)
    monkeypatch.setattr(numerics, "_result", no_tape)
    data = blobs(n=150)
    train, test = data.subset(np.arange(100), "train"), data.subset(np.arange(100, 150), "test")
    cfg = small_cfg(layernorm=True, head_mode="lora_bias")
    tcfg = TrainConfig(epochs=2, batch_size=32, lr=1e-2, resample=resample, resample_k=3)
    metrics = train_run(cfg, BackboneSpec.from_config(cfg, 4), tcfg, train, test)
    assert all(math.isfinite(epoch["train_loss"]) for epoch in metrics.epochs)
    assert math.isfinite(metrics.final_test_loss)


def test_loss_and_grads_fills_every_trainable_grad():
    data = blobs(n=20)
    cfg = small_cfg(layernorm=True, head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 4))
    loss, logits = model.loss_and_grads(data.images, data.labels)
    assert isinstance(loss, float) and isinstance(logits, np.ndarray) and logits.shape == (20, 3)
    assert all(p.grad is not None and p.grad.dtype == p.data.dtype for _, p in model.trainable_params())


def no_cycles_after(run) -> bool:
    """Whether everything ``run()`` leaves behind is freed by refcounts."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect() == 0
    finally:
        gc.enable()


def test_eval_forward_keeps_no_tape_and_makes_no_cycles():
    data = blobs(n=20)
    cfg = small_cfg(layernorm=True, head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 4))

    def run():
        logits = model.forward_logits(data.images)
        assert logits._backward_fn is None and not logits.requires_grad
        softmax_xent(logits.data, data.labels)

    assert no_cycles_after(run)


def test_loss_and_grads_makes_no_cycles():
    data = blobs(n=20)
    cfg = small_cfg(layernorm=True, head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 4))
    assert no_cycles_after(lambda: model.loss_and_grads(data.images, data.labels))


# -- dropout masks ----------------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 1 / 3, 0.5, 2.0 ** -53, 1 - 2.0 ** -53])
def test_dropout_scale_equals_the_tape_mask(p):
    shape = (64, 40)
    x = tensor(np.ones(shape))
    expected = dropout(x, p, Stream(17), training=True).data
    got = _dropout_scale(Stream(17), shape, p, np.dtype(np.float32))
    assert got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()


# -- finite differences -------------------------------------------------------------


def to_float64(model):
    for _, p in model.trainable_params():
        p.data = p.data.astype(np.float64)
    for layer in model.lotta_layers():
        b, bias = layer.backbone, layer.frozen_bias
        layer.set_backbone(BackboneMatrix(b.rows, b.cols, b.data.astype(np.float64)),
                           None if bias is None else bias.astype(np.float64))


def test_explicit_backward_matches_finite_differences():
    cfg = ModelConfig(preset=None, hidden_dims=(12, 8), input_dim=10, num_classes=4, rank=3,
                      dropout=0.2, layernorm=True, head_mode="lora_bias", b_init="kaiming")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 5))
    to_float64(model)
    rng = np.random.default_rng(0)
    for name, p in model.trainable_params():
        if name.endswith(("ln_gamma", "ln_bias", "beta", "head.bias")):
            p.data += 0.3 * rng.standard_normal(p.data.shape)  # off the identity
    x = rng.standard_normal((9, 10))
    labels = rng.integers(0, 4, size=9)

    def loss_fn():
        model._dropout_streams = [Stream(100 + i) for i in range(len(model.hidden))]  # fixed masks
        return model.loss_and_grads(x, labels)[0]

    params = [p for _, p in model.trainable_params()]
    err = finite_diff_check(loss_fn, params)
    assert err < 1e-5
    assert all(p.grad.dtype == np.float64 and np.any(p.grad) for p in params)
