"""AdamW steps a model's flat ``params`` buffer from its own flat ``grads``
buffer, and dropout masks compare the raw words with a shifted threshold.

The per-parameter AdamW that the fused one replaced is kept here as the
oracle, stepping each tensor from its view of a ``grads`` buffer laid out
as AdamW's: parameters and moments must match it bit for bit, step after
step.
The dropout keep mask, and dropout applied from it, must match the
shift-then-compare form it replaced at the words where the two could
part: just below and at each threshold.
"""

import math

import numpy as np
import pytest

from lottalora.data import synthetic_blobs
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.prng import MASK64, Stream
from lottalora.train import AdamW, _train_step

from test_explicit_backward import keep_mask_dropout, to_float64


class PerTensorAdamW:
    """The former AdamW: one update per parameter tensor, each from its
    view of ``grads``."""

    def __init__(self, model, weight_decay):
        self.tensors = [p for _, p in model.trainable_params()]
        self.weight_decay = weight_decay
        self.t = 0
        self.grads = np.full_like(model.params, -0.0)
        self.grad_views = model.cfg.views(self.grads)
        self.m = [np.zeros_like(p.data) for p in self.tensors]
        self.v = [np.zeros_like(p.data) for p in self.tensors]

    def zero_grad(self):
        for g in self.grad_views:
            g.fill(-0.0)

    def step(self, lr):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        for p, g, m, v in zip(self.tensors, self.grad_views, self.m, self.v):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)


def state(model, opt) -> tuple:
    """The step count, the trainables' dtypes, shapes and bytes, and the
    moments' bytes, whether the moments are flat buffers or per-tensor."""
    def joined(moment):
        return b"".join(a.tobytes() for a in ([moment] if isinstance(moment, np.ndarray) else moment))

    tensors = [p.data for _, p in model.trainable_params()]
    return (opt.t, [a.dtype for a in tensors], [a.shape for a in tensors], [a.tobytes() for a in tensors],
            joined(opt.m), joined(opt.v))


# mixed shapes: A, B, the 0-d beta, the LayerNorm affine and the head's offset
CFG = ModelConfig(preset=None, hidden_dims=(12, 8), input_dim=10, num_classes=4, rank=3, dropout=0.2,
                  layernorm=True, head_mode="lora_bias")


def make_model(f64: bool):
    model = build_model(CFG, BackboneSpec.from_config(CFG, 7))
    if f64:
        to_float64(model)
    return model


@pytest.mark.parametrize("f64", [False, True])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_fused_steps_match_the_per_tensor_oracle_bitwise(f64, weight_decay):
    fused_model, oracle_model = make_model(f64), make_model(f64)
    fused, oracle = AdamW(fused_model, weight_decay), PerTensorAdamW(oracle_model, weight_decay)
    assert state(fused_model, fused) == state(oracle_model, oracle)
    rng = np.random.default_rng(1)
    for step in range(4):
        g = rng.standard_normal(fused.grads.size)
        fused.grads[...], oracle.grads[...] = g, g
        lr = 3e-2 * 0.8 ** step
        fused.step(lr)
        oracle.step(lr)
        assert state(fused_model, fused) == state(oracle_model, oracle), step


def test_adamw_holds_four_flat_buffers_and_the_trainables_view_the_params():
    model = make_model(False)
    opt = AdamW(model, 1e-2)
    assert opt.params is model.params
    buffers = (opt.params, opt.grads, opt.m, opt.v)
    for i, a in enumerate(buffers):
        assert not any(np.shares_memory(a, b) for b in buffers[i + 1:])
    size = sum(math.prod(shape) for _, shape in CFG.trainable_layout())
    assert all(b.shape == (size,) and b.dtype == np.float32 and b.flags.c_contiguous for b in buffers)
    assert np.signbit(opt.grads).all() and not opt.grads.any()
    views = [p.data for _, p in model.trainable_params()]
    assert [a.shape for a in views] == [shape for _, shape in CFG.trainable_layout()]
    assert all(a.base is model.params for a in views)


@pytest.mark.parametrize("f64", [False, True])
@pytest.mark.parametrize("resample,k", [("static", 2), ("microbatch", 3)])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_training_steps_match_the_oracle_bitwise(f64, resample, k, weight_decay):
    data = synthetic_blobs(40, 10, 4, 3.0, seed=2)
    outcomes = []
    for make in (AdamW, PerTensorAdamW):
        model = make_model(f64)
        opt = make(model, weight_decay)
        grads = model.cfg.views(opt.grads)
        for step in range(3):
            _train_step(model, opt, grads, data.images, data.labels, 1e-2 * (1 - step / 4), resample, k, step == 0)
        assert opt.grads.dtype == model.params.dtype == (np.float64 if f64 else np.float32)
        outcomes.append((state(model, opt), model.backbone_hashes()))
    assert outcomes[0] == outcomes[1]


# -- dropout masks from the raw words -------------------------------------------


class Words:
    """A stand-in stream whose raw block is a fixed word list."""

    def __init__(self, words):
        self.words = words

    def u64_block(self, n):
        assert n == len(self.words)
        return self.words.copy()


@pytest.mark.parametrize("p", [2.0 ** -53, 0.1, 1 / 3, 0.5, 1 - 2.0 ** -53])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_keep_mask_dropout_matches_the_shift_form_at_each_threshold(p, dtype):
    t = math.ceil(p * 2.0 ** 53)
    below, at = (t << 11) - 1, t << 11
    words = np.array([0, below, at, at | 0x7FF, ((t + 1) << 11) - 1, MASK64], dtype=np.uint64)
    keep = Stream.keep_block(Words(words), 6, p).reshape(2, 3)
    assert keep.tolist() == [[False, False, True], [True, True, True]]
    got = keep_mask_dropout(keep, p, dtype)
    shift_form = ((words >> np.uint64(11)) >= np.uint64(t)).astype(dtype).reshape(2, 3)
    shift_form *= dtype(1.0 / (1.0 - p))
    assert got.dtype == dtype and got.shape == (2, 3)
    assert got.tobytes() == shift_form.tobytes()
    assert got[0, 1] == 0 and got[0, 2] == dtype(1.0 / (1.0 - p))  # dropped just below, kept at it
