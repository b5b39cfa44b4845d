"""AdamW steps a model's flat ``params`` buffer from its ``grads`` buffer,
and dropout masks compare the raw words with a shifted threshold.

The per-parameter AdamW that the fused one replaced is kept here as the
oracle: parameters and moments must match it bit for bit, step after step.
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
    """The former AdamW: one update per parameter tensor."""

    def __init__(self, model, weight_decay):
        self.params = [p for _, p in model.trainable_params()]
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)


def state(opt) -> tuple:
    return (opt.t, [p.data.dtype for p in opt.params], [p.data.shape for p in opt.params],
            [p.data.tobytes() for p in opt.params], [m.tobytes() for m in opt.m], [v.tobytes() for v in opt.v])


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
    assert state(fused) == state(oracle)
    rng = np.random.default_rng(1)
    for step in range(4):
        g = rng.standard_normal(fused_model.grads.size)
        fused_model.grads[...], oracle_model.grads[...] = g, g
        lr = 3e-2 * 0.8 ** step
        fused.step(lr)
        oracle.step(lr)
        assert state(fused) == state(oracle), step


def test_parameters_gradients_and_moments_are_views_of_flat_buffers():
    model = make_model(False)
    opt = AdamW(model, 1e-2)
    shapes = [shape for _, shape in CFG.trainable_layout()]
    for flat, views in ((model.params, [p.data for p in opt.params]), (model.grads, [p.grad for p in opt.params]),
                        (None, opt.m), (None, opt.v)):
        assert [a.shape for a in views] == shapes
        assert all(a.dtype == np.float32 for a in views)
        bases = {id(a.base) for a in views}
        assert len(bases) == 1 and views[0].base.ndim == 1
        assert flat is None or views[0].base is flat
        assert sum(a.size for a in views) == views[0].base.size


@pytest.mark.parametrize("f64", [False, True])
@pytest.mark.parametrize("resample,k", [("static", 2), ("microbatch", 3)])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_training_steps_match_the_oracle_bitwise(f64, resample, k, weight_decay):
    data = synthetic_blobs(40, 10, 4, 3.0, seed=2)
    outcomes = []
    for make in (AdamW, PerTensorAdamW):
        model = make_model(f64)
        opt = make(model, weight_decay)
        for step in range(3):
            _train_step(model, opt, data.images, data.labels, 1e-2 * (1 - step / 4), resample, k, step == 0)
        assert all(p.data.dtype == (np.float64 if f64 else np.float32) for p in opt.params)
        outcomes.append((state(opt), model.backbone_hashes()))
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
