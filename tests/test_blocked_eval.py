"""Eval forwards run over fixed row blocks; training forwards do not.

An eval ``forward_logits`` over n rows runs the layer loop on each block of
``eval_blocks(n)`` and writes the blocks' logits into one array, so its
peak is one block's activations, not the batch's.  The unblocked layer
rule is written out here as the oracle for a single block.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lottalora.data import synthetic_blobs
from lottalora.model import EVAL_BLOCK_ROWS, BackboneSpec, ModelConfig, build_model, eval_blocks
from lottalora.numerics import softmax_xent
from lottalora.train import evaluate

from conftest import peak_bytes

MIB = 1 << 20
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    return model.head.forward(h)


def batch(n):
    return synthetic_blobs(max(n, 10), 784, 10, 4.0, seed=1).images[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 510, 511, 512, 1022, 1023, 1024, 1025, 1500, 2048, 2049, 4096, 10_000])
def test_eval_blocks_are_the_fewest_balanced_blocks_that_fit(n):
    blocks = eval_blocks(n)
    assert len(blocks) == max(1, -(-n // EVAL_BLOCK_ROWS))
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert max(sizes) <= EVAL_BLOCK_ROWS and max(sizes) - min(sizes) <= 1
    # balanced blocks of a batch over one block never fall below half of one
    assert n <= EVAL_BLOCK_ROWS or min(sizes) >= (EVAL_BLOCK_ROWS + 1) // 2


@pytest.mark.parametrize("cfg_kw", CONFIGS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 100, EVAL_BLOCK_ROWS])
def test_one_block_is_the_unblocked_layer_rule(cfg_kw, n):
    model = trained_looking(cfg_kw)
    x = batch(n)
    assert model.forward_logits(x).data.tobytes() == unblocked_logits(model, x).tobytes()


@pytest.mark.parametrize("cfg_kw", CONFIGS, ids=str)
@pytest.mark.parametrize("n", [EVAL_BLOCK_ROWS + 1, 2 * EVAL_BLOCK_ROWS + 1, 1025, 1500, 2049])
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
    # for all 2048 rows, 2 x 4 MiB; each of its five blocks holds a fifth of that
    peak, logits = peak_bytes(lambda state: state[0].forward_logits(state[1]),
                              setup=lambda: (trained_looking(dict(preset="medium")), batch(2048)))
    assert logits.data.shape == (2048, 10)
    assert peak <= 2.0 * MIB


def test_a_medium_evaluate_of_a_5000_row_view_peaks_at_one_gathered_block():
    # each block gathers its <= 511 rows from the source (1.5 MiB) and runs
    # them; gathering all 5000 rows at once would hold 15 MiB
    def setup():
        source = synthetic_blobs(5000, 784, 10, 4.0, seed=2)
        return trained_looking(dict(preset="medium")), source.subset(np.arange(5000), "test")

    peak, (loss, accuracy) = peak_bytes(lambda state: evaluate(*state), setup=setup)
    assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0
    assert peak <= 4.0 * MIB


# evaluate on a row view and the same loss and accuracy summed over the
# forward_logits of each block of eval_blocks(n), under the Haswell kernel
HASWELL_CHILD = """
import json
import numpy as np
from portcheck import blas_core
from lottalora.data import synthetic_blobs
from lottalora.model import eval_blocks
from lottalora.numerics import softmax_xent
from lottalora.train import evaluate
from test_blocked_eval import trained_looking

n = 2500
model = trained_looking(dict(preset="medium"))
test = synthetic_blobs(2 * n, 784, 10, 4.0, seed=3).subset(np.arange(0, 2 * n, 2), "test")
x, y = test.images, test.labels
total_loss, correct = 0.0, 0
for lo, hi in eval_blocks(n):
    logits = model.forward_logits(x[lo:hi]).data
    total_loss += softmax_xent(logits, y[lo:hi])[0] * (hi - lo)
    correct += int((logits.argmax(axis=1) == y[lo:hi]).sum())
print(json.dumps({"core": blas_core(), "evaluate": evaluate(model, test), "blocks": [total_loss / n, correct / n]}))
"""


def test_evaluate_runs_the_eval_blocks_of_its_rows_under_the_haswell_kernel():
    # under this kernel a medium GEMM's rows move with the block they fall in
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "scripts", "tests")))
    result = subprocess.run([sys.executable, "-c", HASWELL_CHILD], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    if report["core"] is None:
        pytest.skip("the BLAS exposes no core name, so a kernel switch cannot be confirmed")
    assert report["core"] == "Haswell"
    assert report["evaluate"] == report["blocks"]


def test_loss_and_grads_runs_the_whole_batch_as_one_block():
    cfg_kw = dict(preset="tiny", dropout=0.0)
    model = trained_looking(cfg_kw)
    n = EVAL_BLOCK_ROWS + 500
    x = batch(n)
    y = np.arange(n) % 10
    grads = model.cfg.views(np.full_like(model.params, -0.0))
    loss, logits = model.loss_and_grads(x, y, grads)
    assert logits.tobytes() == unblocked_logits(model, x).tobytes()
    assert loss == softmax_xent(logits, y)[0]
    assert all(np.any(grad) for grad in grads)
