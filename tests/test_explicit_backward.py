"""The model's explicit forward/backward rules against the generic tape.

``tape_forward_logits`` builds the forward pass from the generic tape ops
in ``lottalora.numerics``, one tape node per op, with dropout masks from
``unit_block(n) >= p``; ``tape_loss_and_grads`` adds the tape form of the
loss and walks the tape into the views it is given, as the leaves'
``grad``.  They are the bitwise oracle for
``Model.forward_logits`` and ``Model.loss_and_grads``: after two optimizer
steps, parameters, AdamW moments and backbone hashes must be equal byte
for byte.
"""

import gc
import math

import numpy as np
import pytest

import lottalora.layers as layers_mod
import lottalora.numerics as numerics
import lottalora.train as train_mod
from lottalora.data import make_partition, synthetic_blobs
from lottalora.initfam import BackboneMatrix, InitFamily
from lottalora.layers import DenseLayer
from lottalora.model import BackboneSpec, Model, ModelConfig, build_model
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
from lottalora.prng import DRAW_CHUNK, Stream
from lottalora.train import AdamW, TrainConfig, _train_step, seed_gated_train, train_run
from conftest import peak_bytes
from tape_oracle import finite_diff_check, tape_softmax_xent


def tape_layer_forward(layer, h: Tensor) -> Tensor:
    if isinstance(layer, DenseLayer):
        return add_bias(linear(h, layer.w), layer.b)
    backbone_path = scalar_scale(linear(h, Tensor(layer.backbone.data)), layer.beta)
    low_rank = linear(linear(h, layer.a), layer.b)
    out = add(backbone_path, const_scale(low_rank, layer.scale))
    if layer.frozen_bias is not None:
        out = add_bias(out, Tensor(layer.frozen_bias))
    if layer.bias is not None:
        out = add_bias(out, layer.bias)
    if layer.ln_gamma is not None:
        out = layernorm(out, layer.ln_gamma, layer.ln_bias)
    return out


def tape_forward_logits(model, batch, training=False) -> Tensor:
    h = tensor(batch)
    for i, layer in enumerate(model.hidden):
        h = relu(tape_layer_forward(layer, h))
        if training and model.cfg.dropout > 0.0:
            h = dropout(h, model.cfg.dropout, model._dropout_streams[i], training=True)
    return tape_layer_forward(model.head, h)


def tape_loss_and_grads(model, x, y, grads) -> tuple[float, np.ndarray]:
    """``Model.loss_and_grads`` on the tape: each trainable leaf's ``grad``
    is bound to its array of ``grads`` for the walk, then unbound."""
    params = [t for _, t in model.trainable_params()]
    for t, grad in zip(params, grads, strict=True):
        t.grad = grad
    try:
        logits = tape_forward_logits(model, x, training=True)
        loss = tape_softmax_xent(logits, y)
        loss.backward()
    finally:
        for t in params:
            t.grad = None
    return float(loss.data), logits.data


def small_cfg(**kw):
    base = dict(preset=None, hidden_dims=(32, 16), input_dim=16, num_classes=3, rank=4, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def blobs(n=120, classes=3, seed=5):
    return synthetic_blobs(n, 16, classes, 8.0, seed)


def final_state(model, optimizer) -> tuple:
    return model.backbone_hashes(), optimizer.params.tobytes(), optimizer.m.tobytes(), optimizer.v.tobytes()


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
        opt = AdamW(model, 1e-2)
        for step in range(2):  # the second step runs on non-zero moments and B
            _train_step(model, opt, model.cfg.views(opt.grads), x, y, 1e-2, resample, k, step == 0)
        return final_state(model, opt)

    explicit, oracle = under_both_forwards(run, monkeypatch)
    assert explicit == oracle


@pytest.mark.parametrize("head_mode", ["full", "lora", "lora_bias"])
@pytest.mark.parametrize("layernorm_on", [False, True])
@pytest.mark.parametrize("resample,k,rows", STEP_SCHEDULES)
def test_two_steps_match_the_tape_bitwise(resample, k, rows, layernorm_on, head_mode, monkeypatch):
    cfg = small_cfg(layernorm=layernorm_on, head_mode=head_mode)
    assert_two_steps_match_the_tape(cfg, resample, k, rows, monkeypatch)


@pytest.mark.parametrize("layernorm_on", [False, True])
def test_two_steps_without_dropout_match_the_tape_bitwise(layernorm_on, monkeypatch):
    # at p = 0 the backward masks by the ReLU alone and scales nothing
    cfg = small_cfg(dropout=0.0, layernorm=layernorm_on)
    assert_two_steps_match_the_tape(cfg, *STEP_SCHEDULES[0], monkeypatch)


@pytest.mark.parametrize("resample,k,rows", [STEP_SCHEDULES[0], STEP_SCHEDULES[2]])
def test_full_training_matches_the_tape_bitwise(resample, k, rows, monkeypatch):
    assert_two_steps_match_the_tape(small_cfg(mode="full_training"), resample, k, rows, monkeypatch)


def recorded_run(run, monkeypatch):
    """``run()`` with the optimizers that ``lottalora.train`` makes, and
    their models, recorded; returns (run's result, state of the last ones)."""
    models, optimizers = [], []

    class RecordingAdamW(AdamW):
        def __init__(self, model, weight_decay):
            super().__init__(model, weight_decay)
            models.append(model)
            optimizers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(train_mod, "AdamW", RecordingAdamW)
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


def grad_buffer(model) -> np.ndarray:
    """A -0.0 buffer laid out as the model's ``params``, as AdamW's ``grads``."""
    return np.full_like(model.params, -0.0)


def write_counts(model, x, y, monkeypatch) -> tuple[np.ndarray, np.ndarray]:
    """One ``loss_and_grads`` into views of a fresh ``grad_buffer``: the
    buffer, and how many times the pass adds into each of its entries,
    read from the memory each ``add_grad`` writes."""
    grads = grad_buffer(model)
    counts = np.zeros(grads.size, dtype=np.int64)
    base = grads.__array_interface__["data"][0]

    def recording_add_grad(into, g):
        assert np.shares_memory(into, grads) and into.flags.c_contiguous
        lo = (into.__array_interface__["data"][0] - base) // into.itemsize
        counts[lo:lo + into.size] += 1
        numerics.add_grad(into, g)

    monkeypatch.setattr(layers_mod, "add_grad", recording_add_grad)
    loss, logits = model.loss_and_grads(x, y, model.cfg.views(grads))
    assert isinstance(loss, float) and isinstance(logits, np.ndarray)
    assert logits.shape == (len(y), model.cfg.num_classes)
    return grads, counts


@pytest.mark.parametrize("cfg_kw", [
    *(dict(head_mode=head_mode, layernorm=layernorm_on)
      for head_mode in ("full", "lora", "lora_bias") for layernorm_on in (False, True)),
    dict(mode="full_training"),
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_one_pass_writes_every_gradient_entry_once_as_the_tape_does(cfg_kw, monkeypatch):
    # B is drawn, not zero, so A's gradient is not legitimately zero
    cfg = small_cfg(b_init="kaiming", **cfg_kw)
    spec = BackboneSpec.from_config(cfg, 4)
    data = blobs(n=20)
    model = build_model(cfg, spec)
    grads, counts = write_counts(model, data.images, data.labels, monkeypatch)
    names = [name for name, _ in cfg.trainable_layout()]
    unwritten = [n for n, c in zip(names, model.cfg.views(counts)) if np.any(c != 1)]
    assert not unwritten, f"entries not written exactly once: {unwritten}"
    # every view holds the tape's gradient, bit for bit
    oracle = build_model(cfg, spec)
    oracle_grads = grad_buffer(oracle)
    tape_loss_and_grads(oracle, data.images, data.labels, oracle.cfg.views(oracle_grads))
    assert all(t.grad is None for _, t in oracle.trainable_params())
    differ = [n for n, got, want in zip(names, model.cfg.views(grads), oracle.cfg.views(oracle_grads))
              if got.tobytes() != want.tobytes()]
    assert not differ, f"gradients that differ from the tape's: {differ}"
    assert all(np.any(g) for g in model.cfg.views(grads))


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
    grads = model.cfg.views(grad_buffer(model))
    assert no_cycles_after(lambda: model.loss_and_grads(data.images, data.labels, grads))


# -- dropout masks ----------------------------------------------------------------


def keep_mask_dropout(keep, p, dtype):
    """Ones under dropout as ``Model._forward_rows`` applies it: times the
    keep mask, then times 1/(1-p) in the activations' dtype."""
    h = np.ones(keep.shape, dtype=dtype)
    h *= keep
    h *= h.dtype.type(1.0 / (1.0 - p))
    return h


@pytest.mark.parametrize("p", [0.1, 1 / 3, 0.5, 2.0 ** -53, 1 - 2.0 ** -53])
def test_keep_mask_dropout_equals_the_tape_mask(p):
    shape = (64, 40)
    x = tensor(np.ones(shape))
    expected = dropout(x, p, Stream(17), training=True).data
    got = keep_mask_dropout(Stream(17).keep_block(math.prod(shape), p).reshape(shape), p, np.float32)
    assert got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(128, 512), (300, 128)])
@pytest.mark.parametrize("p", [0.1, 0.5])
def test_a_keep_mask_over_several_blocks_is_the_unit_draw_mask(shape, p):
    # both masks span more than one DRAW_CHUNK block of raw words, the
    # second ending in a partial one
    n = math.prod(shape)
    assert n > DRAW_CHUNK
    drawn, units = Stream(23), Stream(23)
    keep = drawn.keep_block(n, p)
    assert keep.dtype == np.bool_ and keep.shape == (n,)
    assert np.array_equal(keep, units.unit_block(n) >= p)
    assert drawn.state == units.state


# -- memory -------------------------------------------------------------------------


def test_a_medium_training_pass_of_128_rows_holds_no_dropout_scales():
    # above its inputs the pass holds the caches, the gradients and one
    # layer's backward temporaries (1.19 MiB); caching an f32 dropout
    # scale per hidden layer, drawing each mask from one whole-layer u64
    # block and copying g in the backward read 1.69 MiB
    def setup():
        cfg = ModelConfig(preset="medium", rank=8, dropout=0.1)
        data = synthetic_blobs(128, 784, 10, 4.0, seed=1)
        model = build_model(cfg, BackboneSpec.from_config(cfg, 3))
        return model, data.images, data.labels, model.cfg.views(grad_buffer(model))

    peak, (loss, logits) = peak_bytes(lambda state: state[0].loss_and_grads(*state[1:]), setup=setup)
    assert np.isfinite(loss) and logits.shape == (128, 10)
    assert peak <= 1.35 * (1 << 20)


# -- finite differences -------------------------------------------------------------


def to_float64(model):
    """Move the model to f64: its ``params``, the trainables' views of it,
    and its frozen matrices."""
    model.params = model.params.astype(np.float64)
    for (_, p), data in zip(model.trainable_params(), model.cfg.views(model.params), strict=True):
        p.data = data
    for layer in model.lotta_layers():
        b, bias = layer.backbone, layer.frozen_bias
        layer.set_backbone(BackboneMatrix(b.data.astype(np.float64)),
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
    params = [p for _, p in model.trainable_params()]
    grads = model.cfg.views(grad_buffer(model))
    for p, grad in zip(params, grads):  # where finite_diff_check reads the gradients
        p.grad = grad

    def loss_fn():
        model._dropout_streams = [Stream(100 + i) for i in range(len(model.hidden))]  # fixed masks
        return model.loss_and_grads(x, labels, grads)[0]

    err = finite_diff_check(loss_fn, params)
    assert err < 1e-5
    assert all(p.grad.dtype == np.float64 and np.any(p.grad) for p in params)
