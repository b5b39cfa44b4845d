"""One finite-number rule, ``errors.finite``, behind every library entry
point that takes a real number from outside the program.

A Python integer beyond the float range is a real number with no float
value: ``math.isfinite`` and ``float`` raise ``OverflowError`` on it.  Each
entry point below used to let that raw exception out, or accept the value
and fail later; each now raises ``ConfigError``.  Past 4300 digits, such an
integer cannot even be printed in the error message; ``errors.shown``
names its size instead.
"""

import math

import numpy as np
import pytest

from lottalora.cost import ARCHS, cost_report, flops, opt_memory, rank_star
from lottalora.data import _digit, synthetic_blobs
from lottalora.errors import ConfigError, finite, shown
from lottalora.initfam import InitFamily, draw_matrix
from lottalora.model import ModelConfig
from lottalora.prng import Stream, check_seed
from lottalora.train import TrainConfig, beta_summary

HUGE = 10 ** 400  # a 401-digit integer
TOO_LONG = 10 ** 5000  # past Python's 4300-digit limit on int-to-str conversion
NORMAL = InitFamily("normal", {"sigma": 0.1}, "explicit")


@pytest.mark.parametrize("value,expected", [
    (0, True), (-3, True), (0.5, True), (np.float32(2.0), True), (np.int64(7), True),
    pytest.param(10 ** 308, True, id="309-digit"), pytest.param(HUGE, False, id="401-digit"),
    pytest.param(-HUGE, False, id="-401-digit"),
    (math.inf, False), (-math.inf, False), (math.nan, False),
    (True, False), ("1.0", False), (None, False), ([1.0], False),
])
def test_finite(value, expected):
    assert finite(value) is expected


# each entry point, called with one out-of-range number ``v``
CALLS = {
    "model-alpha": lambda v: ModelConfig(alpha=v),
    "train-lr": lambda v: TrainConfig(lr=v),
    "train-weight_decay": lambda v: TrainConfig(weight_decay=v),
    "blobs-sep": lambda v: synthetic_blobs(30, 4, 3, v, 1),
    "cost-m_tokens": lambda v: cost_report(ARCHS["3M"], 8, m_tokens=v),
    "cost-rank": lambda v: cost_report(ARCHS["3M"], v),
    "flops-n": lambda v: flops(1.0, v, 0),
    "opt_memory-n": lambda v: opt_memory(v, 0),
    "rank_star-loss": lambda v: rank_star({1: v}, 0.2, 0.01),
    "rank_star-full_loss": lambda v: rank_star({1: 0.3}, v, 0.01),
    "rank_star-epsilon": lambda v: rank_star({1: 0.3}, 0.2, v),
    "beta_summary": lambda v: beta_summary([[0.9, v]]),
    "initfam-sigma": lambda v: InitFamily("normal", {"sigma": v}, "explicit"),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_an_integer_beyond_the_float_range_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call(HUGE)


# the value checks that print such an integer in their message, more than the ones above
TOO_LONG_CALLS = {
    **CALLS,
    "model-hidden_dims": lambda v: ModelConfig(preset=None, hidden_dims=(v, 0)),
    "model-input_dim": lambda v: ModelConfig(input_dim=[v]),
    "rank_star-rank": lambda v: rank_star({-v: 0.3}, 0.2, 0.01),
    "rank_star-rank-of-a-bad-loss": lambda v: rank_star({v: math.nan}, 0.2, 0.01),
    "blobs-classes": lambda v: synthetic_blobs(5, 4, v, 3.0, 1),
    "draw_matrix-dims": lambda v: draw_matrix(Stream(1), NORMAL, -v, 3),
    "seed": lambda v: check_seed(v),
    "digit-label": lambda v: _digit(v),
}


@pytest.mark.parametrize("call", TOO_LONG_CALLS.values(), ids=TOO_LONG_CALLS)
def test_an_integer_too_long_to_print_is_a_config_error(call):
    # past Python's 4300-digit limit, repr raises ValueError; errors.shown
    # names the integer's bit length instead
    with pytest.raises(ConfigError):
        call(TOO_LONG)


def test_shown_names_what_it_cannot_print():
    assert shown(2.5) == "2.5"
    assert shown(TOO_LONG) == "an integer of 16610 bits"
    assert shown([0.9, TOO_LONG]) == "a list holding an integer too long to print"
