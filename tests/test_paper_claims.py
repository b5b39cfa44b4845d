"""The paper's claims 1 and 2, on synthetic blobs.

(1) The backbone gain beta stays well above zero when the scaffold is
static, and is silenced when the scaffold churns under it.  (2) Init
families are interchangeable once fixed: each lands near ``normal``.

Setup: ``synthetic_blobs(5000, 784, 10, 3.0, SEED)``, rows 0-3999 for
training and 4000-4999 for test; a ``tiny`` r4 model, defaults otherwise;
lr 1e-2, 30 epochs, weight decay 1e-2, batch 128.  Eight runs: six static
ones, one per family (the ``normal`` one serves both claims), one
``per_epoch`` and one ``microbatch`` k=4.

The bounds come from seeds 1 to 5, fixed before any run was looked at;
the test runs seed 1.  Over those seeds:
  * static beta, every layer of every family's run: smallest 0.530, so
    the floor 0.25 leaves more than half of it as margin;
  * churned |beta| under ``per_epoch`` and ``microbatch``: largest 0.0163,
    so the ceiling 0.05 is three times it, and a fifth of the floor;
  * |family - normal| test accuracy: largest 0.040 (``lowbit2``, seed 2),
    so the band 0.06 is 1.5 times it, about 2.7 standard errors of the
    difference of two accuracies near 0.5 on 1000 rows.
At seed 1 the values are static beta 0.641, 1.233 (``normal``),
``per_epoch`` -0.001, 0.016 and ``microbatch`` 0.002, -0.010.
"""

import numpy as np
import pytest

from lottalora.data import synthetic_blobs
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig
from lottalora.train import TrainConfig, train_run

SEED = 1
FAMILIES = ("binary", "lowbit2", "orthogonal", "sparse_normal", "uniform")
STATIC_BETA_FLOOR = 0.25
CHURNED_BETA_CEILING = 0.05
FAMILY_BAND = 0.06


@pytest.fixture(scope="module")
def run():
    """``run(family, resample, k)``: that run's metrics, trained once for
    the whole module, so the two claims share their runs."""
    blobs = synthetic_blobs(5000, 784, 10, 3.0, SEED)
    train, test = blobs.subset(np.arange(4000)), blobs.subset(np.arange(4000, 5000), "test")
    cfg = ModelConfig(preset="tiny", rank=4)
    runs = {}

    def metrics(family: str = "normal", resample: str = "static", k: int = 2):
        if (family, resample, k) not in runs:
            tcfg = TrainConfig(lr=1e-2, epochs=30, weight_decay=1e-2, batch_size=128, resample=resample,
                               resample_k=k)
            spec = BackboneSpec.from_config(cfg, SEED, InitFamily(family))
            runs[family, resample, k] = train_run(cfg, spec, tcfg, train, test)
        return runs[family, resample, k]

    return metrics


@pytest.mark.parametrize("family", ("normal", *FAMILIES))
def test_static_beta_stays_above_the_floor_on_every_layer(run, family):
    betas = run(family).final_betas
    assert len(betas) == 2 and min(betas) >= STATIC_BETA_FLOOR, betas


@pytest.mark.parametrize("resample,k", [("per_epoch", 2), ("microbatch", 4)])
def test_a_churning_scaffold_silences_beta(run, resample, k):
    betas = run(resample=resample, k=k).final_betas
    assert len(betas) == 2 and max(map(abs, betas)) <= CHURNED_BETA_CEILING, betas


@pytest.mark.parametrize("family", FAMILIES)
def test_a_fixed_family_lands_within_the_band_of_normal(run, family):
    normal, other = run().final_test_accuracy, run(family).final_test_accuracy
    assert abs(other - normal) <= FAMILY_BAND, (family, other, normal)
