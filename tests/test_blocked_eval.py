"""Eval forwards run over fixed row blocks; training forwards do not.

An eval ``forward_logits`` over n rows runs the layer loop on each block of
``eval_blocks(n)`` and writes the blocks' logits into one array, so its
peak is one block's activations, not the batch's.  The unblocked layer
rule is written out here as the oracle for a single block.
"""

import numpy as np
import pytest

from lottalora.data import synthetic_blobs
from lottalora.model import EVAL_BLOCK_ROWS, BackboneSpec, ModelConfig, build_model, eval_blocks
from lottalora.numerics import Tensor, softmax_xent

from conftest import peak_bytes

MIB = 1 << 20

CONFIGS = [
    dict(preset="tiny"),
    dict(preset="tiny", head_mode="lora_bias", layernorm=True),
    dict(preset="medium", head_mode="lora"),
    dict(preset="tiny", mode="full_training"),
]


def trained_looking(cfg_kw, seed=5):
    """A model whose adapter and bias paths are nonzero, as after training."""
    cfg = ModelConfig(**cfg_kw)
    model = build_model(cfg, BackboneSpec.from_config(cfg, seed))
    rng = np.random.default_rng(seed)
    for name, t in model.trainable_params():
        if name.endswith((".B", "bias")):
            t.data[...] = 0.01 * rng.standard_normal(t.data.shape)
    return model


def unblocked_logits(model, x):
    """The layer rule over the whole batch at once, in eval mode."""
    h = np.ascontiguousarray(x, dtype=np.float32)
    for layer in model.hidden:
        h = np.maximum(layer.forward(h), 0)
    logits = model.head.forward(h)
    if model.head_bias is not None:
        logits += model.head_bias.data
    return logits


def batch(n):
    return synthetic_blobs(max(n, 10), 784, 10, 4.0, seed=1).images[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025, 1500, 2048, 2049, 4096, 10_000])
def test_eval_blocks_are_the_fewest_balanced_blocks_that_fit(n):
    blocks = eval_blocks(n)
    assert len(blocks) == max(1, -(-n // EVAL_BLOCK_ROWS))
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert max(sizes) <= EVAL_BLOCK_ROWS and max(sizes) - min(sizes) <= 1
    # balanced blocks of a batch over one block never fall below half of one
    assert n <= EVAL_BLOCK_ROWS or min(sizes) >= EVAL_BLOCK_ROWS // 2


@pytest.mark.parametrize("cfg_kw", CONFIGS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 100, EVAL_BLOCK_ROWS])
def test_one_block_is_the_unblocked_layer_rule(cfg_kw, n):
    model = trained_looking(cfg_kw)
    x = batch(n)
    assert model.forward_logits(x).data.tobytes() == unblocked_logits(model, x).tobytes()


@pytest.mark.parametrize("cfg_kw", CONFIGS, ids=str)
@pytest.mark.parametrize("n", [EVAL_BLOCK_ROWS + 1, 1500, 2 * EVAL_BLOCK_ROWS + 1])
def test_a_larger_batch_is_the_concatenation_of_its_blocks(cfg_kw, n):
    model = trained_looking(cfg_kw)
    x = batch(n)
    logits = model.forward_logits(x).data
    blocks = [model.forward_logits(x[lo:hi]).data for lo, hi in eval_blocks(n)]
    assert logits.shape == (n, model.cfg.num_classes) and logits.dtype == np.float32
    assert logits.tobytes() == np.concatenate(blocks).tobytes()


def test_a_float64_batch_is_cast_block_by_block_to_the_same_bits():
    model = trained_looking(dict(preset="tiny"))
    x = batch(1500)
    assert model.forward_logits(x.astype(np.float64)).data.tobytes() == model.forward_logits(x).data.tobytes()


def test_a_medium_eval_of_2048_rows_peaks_at_one_block():
    # the whole batch at once held layer 0's backbone and adapter products
    # for all 2048 rows, 2 x 4 MiB; a block of 1024 rows holds half of that
    def live_model():
        model = trained_looking(dict(preset="medium"))
        for layer in model.lotta_layers():
            layer.materialize()
        return model, batch(2048)

    peak, logits = peak_bytes(lambda state: state[0].forward_logits(state[1]), setup=live_model)
    assert logits.data.shape == (2048, 10)
    assert peak <= 4.5 * MIB


def test_training_forward_is_one_tape_node_over_the_whole_batch():
    cfg_kw = dict(preset="tiny", dropout=0.0)
    model = trained_looking(cfg_kw)
    n = EVAL_BLOCK_ROWS + 500
    x = batch(n)
    logits = model.forward_logits(x, training=True)
    assert isinstance(logits, Tensor) and logits.requires_grad
    assert logits._parents == () and logits._backward_fn is not None
    assert logits.data.tobytes() == unblocked_logits(model, x).tobytes()
    softmax_xent(logits, np.arange(n) % 10).backward()
    assert all(t.grad is not None for _, t in model.trainable_params())
