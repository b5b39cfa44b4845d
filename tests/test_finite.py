"""One finite-number rule, ``errors.finite``, behind every library entry
point that takes a real number from outside the program.

A Python integer beyond the float range is a real number with no float
value: ``math.isfinite`` and ``float`` raise ``OverflowError`` on it.  Each
entry point below used to let that raw exception out, or accept the value
and fail later; each now raises ``ConfigError``.
"""

import math

import numpy as np
import pytest

from lottalora.cost import ARCHS, cost_report, flops, opt_memory, rank_star
from lottalora.data import synthetic_blobs
from lottalora.errors import ConfigError, finite
from lottalora.initfam import InitFamily
from lottalora.model import ModelConfig
from lottalora.train import TrainConfig, beta_summary

HUGE = 10 ** 400  # a 401-digit integer


@pytest.mark.parametrize("value,expected", [
    (0, True), (-3, True), (0.5, True), (np.float32(2.0), True), (np.int64(7), True),
    pytest.param(10 ** 308, True, id="309-digit"), pytest.param(HUGE, False, id="401-digit"),
    pytest.param(-HUGE, False, id="-401-digit"),
    (math.inf, False), (-math.inf, False), (math.nan, False),
    (True, False), ("1.0", False), (None, False), ([1.0], False),
])
def test_finite(value, expected):
    assert finite(value) is expected


@pytest.mark.parametrize("call", [
    lambda: ModelConfig(alpha=HUGE),
    lambda: TrainConfig(lr=HUGE),
    lambda: TrainConfig(weight_decay=HUGE),
    lambda: synthetic_blobs(30, 4, 3, HUGE, 1),
    lambda: cost_report(ARCHS["3M"], 8, m_tokens=HUGE),
    lambda: cost_report(ARCHS["3M"], HUGE),
    lambda: flops(1.0, HUGE, 0),
    lambda: opt_memory(HUGE, 0),
    lambda: rank_star({1: HUGE}, 0.2, 0.01),
    lambda: rank_star({1: 0.3}, HUGE, 0.01),
    lambda: rank_star({1: 0.3}, 0.2, HUGE),
    lambda: beta_summary([[0.9, HUGE]]),
    lambda: InitFamily("normal", {"sigma": HUGE}, "explicit"),
], ids=[
    "model-alpha", "train-lr", "train-weight_decay", "blobs-sep", "cost-m_tokens", "cost-rank",
    "flops-n", "opt_memory-n", "rank_star-loss", "rank_star-full_loss", "rank_star-epsilon",
    "beta_summary", "initfam-sigma",
])
def test_an_integer_beyond_the_float_range_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()
