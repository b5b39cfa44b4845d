"""The paper's claims 0 to 3, on synthetic blobs.

(0) Adapters at a sufficient rank recover nearly all of full training.
(1) The backbone gain beta stays well above zero when the scaffold is
static, and is silenced when the scaffold churns under it.  (2) Init
families are interchangeable once fixed: each lands near ``normal``.
(3) rank*, the smallest sufficient rank, estimates the task's intrinsic
dimension.

Every run: ``synthetic_blobs(5000, 784, c, 3.0, SEED)``, rows 0-3999 for
training and 4000-4999 for test; a ``tiny`` model, defaults otherwise;
lr 1e-2, 30 epochs, weight decay 1e-2, batch 128.  Every bound comes from
seeds 1 to 5, fixed before any run was looked at; the tests run seed 1.
The extremes and values quoted below are those of trained models rounded
to the int8 shipping grid, with one BLAS thread (thread counts move the
last digits: with two, every extreme stays inside its bound, the closest
being |planted - r16| at 0.031 against 0.04).

Claims 1 and 2: c = 10, rank 4.  Eight runs: six static ones, one per
family (the ``normal`` one serves both claims), one ``per_epoch`` and one
``microbatch`` k=4.  Over seeds 1 to 5:
  * static beta, every layer of every family's run: smallest 0.531, so
    the floor 0.25 leaves more than half of it as margin;
  * churned |beta| under ``per_epoch`` and ``microbatch``: largest 0.0164,
    so the ceiling 0.05 is three times it, and a fifth of the floor;
  * |family - normal| test accuracy: largest 0.040 (``lowbit2``, seed 2),
    so the band 0.06 is 1.5 times it, about 2.7 standard errors of the
    difference of two accuracies near 0.5 on 1000 rows.
At seed 1 the values are static beta 0.641, 1.234 (``normal``),
``per_epoch`` -0.001, 0.016 and ``microbatch`` 0.002, -0.010.  The
``microbatch`` run keeps 30 epochs: at every count from 1 to 29 some seed
ends with a |beta| above a third of the ceiling.

Claims 0 and 3: c = 3 and 5, static.  The c class centres span a
(c-1)-dim affine subspace, so c plants the intrinsic dimension, and the
planted rank is c - 1 rounded up to a power of two (2 and 4).  Six runs
per c: ranks 1, planted and 16, ``full_training``, and the planted rank
and 16 rank-stabilized (rank 1 is the same run under both scalings).
Over seeds 1 to 5:
  * |planted - r16| test accuracy: largest 0.030 (c=5, seed 3), so the
    saturation margin 0.04 is 1.3 times it, about 2.7 standard errors of
    the difference of two accuracies near 0.87 on 1000 rows; r16 - r1:
    smallest 0.155 (c=3, seed 4), almost four margins;
  * ``full_training`` - planted test accuracy: largest 0.021 (c=5, seed
    1; 0.018 rank-stabilized), so the margin 0.035 is 1.7 times it.  The
    bound is one-sided, as claim 0 is a floor: the planted rank is at or
    above ``full_training`` in 8 of the 10 standard runs, by up to 0.046;
  * ``cost.rank_star`` on the test-error table with that margin as its
    epsilon returns the planted rank under both scalings in every case:
    r1's error exceeds ``full_training``'s by at least 0.124;
  * the test loss of the best-val model is not monotone in rank: at c=3,
    seed 2, r2 loses 0.660 against r1's 0.524; at c=5, seed 1, r1 and r4
    both lose 1.207 against ``full_training``'s 0.507, though r4 is 0.29
    more accurate; and at c=3, seed 3, r1's loss is below
    ``full_training``'s.
    So ``rank_star`` on the test-loss table only bounds rank* from above.
    Its epsilon 1.0 is 1.4 times the largest excess of the best loss at a
    rank up to the planted one over ``full_training``'s (0.700); with it,
    rank 1 qualifies in every case seen.
At seed 1 the test accuracies are r1 0.763, r2 0.939, r16 0.931 and
``full_training`` 0.924 at c=3, and r1 0.556, r4 0.844, r16 0.861 and
0.865 at c=5.

Under the f16 shipping rule before the grid, the same runs gave the
extremes, in the order above, 0.530, 0.0163, 0.040, 0.027, 0.155, 0.023,
0.041, 0.121 and 0.701.
"""

import numpy as np
import pytest

from lottalora.cost import rank_star
from lottalora.data import synthetic_blobs
from lottalora.initfam import InitFamily
from lottalora.model import SCALING_MODES, BackboneSpec, ModelConfig
from lottalora.train import TrainConfig, train_run

SEED = 1
FAMILIES = ("binary", "lowbit2", "orthogonal", "sparse_normal", "uniform")
STATIC_BETA_FLOOR = 0.25
CHURNED_BETA_CEILING = 0.05
FAMILY_BAND = 0.06
PLANTED = {3: 2, 5: 4}  # c classes -> c - 1 rounded up to a power of two
SATURATION_MARGIN = 0.04
FULL_MARGIN = 0.035
LOSS_EPSILON = 1.0


def blobs_split(c: int):
    """``synthetic_blobs(5000, 784, c, 3.0, SEED)``: rows 0-3999 to train
    on, rows 4000-4999 to test on."""
    blobs = synthetic_blobs(5000, 784, c, 3.0, SEED)
    return blobs.subset(np.arange(4000)), blobs.subset(np.arange(4000, 5000), "test")


@pytest.fixture(scope="module")
def run():
    """``run(family, resample, k)``: that run's metrics, trained once for
    the whole module, so the two claims share their runs."""
    train, test = blobs_split(10)
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


# -- claims 0 and 3 ------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted():
    """``planted(c, rank, scaling_mode)``: the static run on c classes at
    that rank, or ``full_training`` for rank None, trained once for the
    whole module.  Rank 1 is the same run under both scalings."""
    runs, data = {}, {}

    def metrics(c: int, rank: int | None = None, scaling_mode: str = "standard"):
        key = (c, rank, scaling_mode if rank not in (None, 1) else "standard")
        if key not in runs:
            if c not in data:
                data[c] = blobs_split(c)
            kw = {"mode": "full_training"} if rank is None else {"rank": rank, "scaling_mode": key[2]}
            cfg = ModelConfig(preset="tiny", num_classes=c, **kw)
            tcfg = TrainConfig(lr=1e-2, epochs=30, weight_decay=1e-2, batch_size=128)
            runs[key] = train_run(cfg, BackboneSpec.from_config(cfg, SEED), tcfg, *data[c])
        return runs[key]

    return metrics


def ranks(c: int) -> tuple:
    """The ranks of the tier's tables: 1, the planted rank and 16."""
    return (1, PLANTED[c], 16)


@pytest.mark.parametrize("c", PLANTED)
def test_accuracy_saturates_at_the_planted_rank(planted, c):
    r1, sat, r16 = (planted(c, r).final_test_accuracy for r in ranks(c))
    assert abs(sat - r16) <= SATURATION_MARGIN, (r1, sat, r16)
    assert r16 - r1 > SATURATION_MARGIN, (r1, sat, r16)


@pytest.mark.parametrize("c", PLANTED)
def test_the_planted_rank_recovers_full_training(planted, c):
    sat, full = planted(c, PLANTED[c]).final_test_accuracy, planted(c).final_test_accuracy
    assert sat >= full - FULL_MARGIN, (sat, full)


@pytest.mark.parametrize("scaling_mode", SCALING_MODES)
@pytest.mark.parametrize("c", PLANTED)
def test_rank_star_on_the_test_loss_table_is_at_most_the_planted_rank(planted, c, scaling_mode):
    losses = {r: planted(c, r, scaling_mode).final_test_loss for r in ranks(c)}
    star = rank_star(losses, planted(c).final_test_loss, LOSS_EPSILON)
    assert star is not None and star <= PLANTED[c], (star, losses)


@pytest.mark.parametrize("scaling_mode", SCALING_MODES)
@pytest.mark.parametrize("c", PLANTED)
def test_rank_star_on_the_test_error_table_is_the_planted_rank(planted, c, scaling_mode):
    errors = {r: 1.0 - planted(c, r, scaling_mode).final_test_accuracy for r in ranks(c)}
    assert rank_star(errors, 1.0 - planted(c).final_test_accuracy, FULL_MARGIN) == PLANTED[c], errors
