import numpy as np
import pytest

from lottalora.cost import ARCHS, MIB, cost_report, dist_size, flops, opt_memory, rank_star
from lottalora.errors import ConfigError
from lottalora.initfam import InitFamily, draw_matrix
from lottalora.prng import Stream
from helpers import rmt_sigma1, spectral_norm


# -- exact transformer counts (golden integers) --------------------------------

TOTALS = {
    "3M": 2_368_320,
    "30M": 29_990_784,
    "300M": 315_405_312,
    "600M": 693_370_944,
    "900M": 1_212_039_296,
}

INTERNALS = {
    "3M": 320_320,
    "30M": 17_702_784,
    "300M": 282_637_312,
    "600M": 650_362_944,
    "900M": 1_158_791_296,
}

LORA_INTERNAL = {
    ("3M", 1): 3_096, ("3M", 2): 6_168, ("3M", 4): 12_312, ("3M", 8): 24_600,
    ("30M", 1): 30_760, ("30M", 2): 61_480, ("30M", 4): 122_920, ("30M", 8): 245_800,
    ("300M", 1): 180_312, ("300M", 2): 360_536, ("300M", 4): 720_984, ("300M", 8): 1_441_880,
    ("600M", 1): 322_680, ("600M", 2): 645_240, ("600M", 4): 1_290_360, ("600M", 8): 2_580_600,
    ("900M", 1): 452_744, ("900M", 2): 905_352, ("900M", 4): 1_810_568, ("900M", 8): 3_621_000,
}

LOTTA_TOTALS = {
    ("3M", 1): 2_371_416, ("3M", 8): 2_392_920,
    ("30M", 8): 30_236_584,
    ("300M", 8): 316_847_192,
    ("600M", 2): 694_016_184,
    ("900M", 8): 1_215_660_296,
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_arch_total_and_internal_counts(name):
    arch = ARCHS[name]
    assert arch.total_params() == TOTALS[name]
    assert arch.internal_params() == INTERNALS[name]


@pytest.mark.parametrize("name,rank", sorted(LORA_INTERNAL))
def test_lora_internal_counts(name, rank):
    assert ARCHS[name].lora_internal(rank) == LORA_INTERNAL[(name, rank)]


@pytest.mark.parametrize("name,rank", sorted(LOTTA_TOTALS))
def test_lottalora_totals(name, rank):
    arch = ARCHS[name]
    total, internal, lora = arch.lottalora_total(rank), arch.internal_params(), arch.lora_internal(rank)
    assert total == LOTTA_TOTALS[(name, rank)]
    assert internal == INTERNALS[name]
    assert lora == LORA_INTERNAL[(name, rank)]


# -- FLOPs and memory ratios ---------------------------------------------------

def test_flops_fully_trainable_limit():
    _, _, ratio = flops(100, 1000, 1000)
    assert ratio == pytest.approx(1.0)


def test_flops_frozen_limit_and_example():
    _, _, ratio = flops(100, 10 ** 9, 0)
    assert ratio == pytest.approx(2.0 / 3.0)
    f_full, f_lotta, r = flops(1, 3, 1)
    assert f_full == 18
    assert f_lotta == 14
    assert r == pytest.approx(7.0 / 9.0)


def test_flops_domain_errors():
    with pytest.raises(ConfigError):
        flops(1, 0, 0)
    with pytest.raises(ConfigError):
        flops(1, 10, 11)


def test_memory_limits_and_two_gb_case():
    _, _, ratio0 = opt_memory(10 ** 9, 0)
    assert ratio0 == pytest.approx(1.0 / 8.0)
    _, _, ratio1 = opt_memory(10 ** 9, 10 ** 9)
    assert ratio1 == pytest.approx(1.0)
    _, mem_lotta, _ = opt_memory(10 ** 9, 0)
    assert mem_lotta == 2 * 10 ** 9  # 2 GB exactly


def test_ratios_affine_and_increasing():
    fracs = np.linspace(0.0, 1.0, 11)
    n = 10 ** 8
    flop_ratios = [flops(1, n, f * n)[2] for f in fracs]
    mem_ratios = [opt_memory(n, f * n)[2] for f in fracs]
    for series, intercept, slope in ((flop_ratios, 2 / 3, 1 / 3), (mem_ratios, 1 / 8, 7 / 8)):
        assert series[0] == pytest.approx(intercept)
        assert series[-1] == pytest.approx(1.0)
        diffs = np.diff(series)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, slope * 0.1)  # affine in N_tr / N


# -- distributable sizes ---------------------------------------------------------

def test_900m_distributable_row():
    arch = ARCHS["900M"]
    assert dist_size(arch, 8, "fp16") / MIB == pytest.approx(2312, abs=1.0)
    assert dist_size(arch, 8, "int4_grouped") / MIB == pytest.approx(650, abs=1.0)
    assert dist_size(arch, 8, "lottalora") / MIB == pytest.approx(109, abs=1.0)


def test_900m_lottalora_byte_formula():
    arch = ARCHS["900M"]
    shipped = 53_248_000 + 3_621_000 + 114_816
    assert dist_size(arch, 8, "lottalora") == 8 + 2 * shipped


def test_advantage_grows_with_scale():
    order = ["3M", "30M", "300M", "600M", "900M"]
    ratios = [
        dist_size(ARCHS[n], 8, "lottalora") / dist_size(ARCHS[n], 8, "fp16") for n in order
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        dist_size(ARCHS["3M"], 8, "int8")


# -- rank-star --------------------------------------------------------------------

def test_rank_star_example_table():
    losses = {1: 0.50, 2: 0.30, 4: 0.21, 8: 0.20}
    assert rank_star(losses, 0.20, 0.02) == 4


def test_rank_star_huge_epsilon_picks_smallest():
    assert rank_star({2: 9.0, 8: 1.0}, 0.1, 1e9) == 2


def test_rank_star_none_when_unreachable():
    assert rank_star({1: 1.0, 2: 0.9}, 0.2, 0.05) is None


def test_rank_star_rejects_negative_epsilon():
    with pytest.raises(ConfigError):
        rank_star({1: 1.0}, 0.5, -0.01)
    with pytest.raises(ConfigError):
        rank_star({}, 0.5, 0.01)


@pytest.mark.parametrize("losses,full_loss,epsilon", [
    ({1: 1.0}, 0.5, float("nan")),
    ({1: 1.0}, 0.5, float("inf")),
    ({1: 1.0}, float("nan"), 0.01),
    ({1: 1.0}, float("-inf"), 0.01),
    ({1: 0.4, 2: float("nan")}, 0.5, 0.01),
    ({1: float("inf"), 2: 0.4}, 0.5, 0.01),
    ({1: "x"}, 0.5, 0.01),
    ({1: None}, 0.5, 0.01),
    ({1: [0.5]}, 0.5, 0.01),
])
def test_rank_star_rejects_non_finite_inputs(losses, full_loss, epsilon):
    # a NaN compares false against every bound, so unchecked it would read
    # as "no rank qualifies" (None)
    with pytest.raises(ConfigError, match="finite"):
        rank_star(losses, full_loss, epsilon)


@pytest.mark.parametrize("losses", [{"1": 0.5}, {1.0: 0.5}, {True: 0.5}, {0: 0.1, 2: 0.5}, {-3: 0.1}])
def test_rank_star_rejects_a_rank_that_is_not_a_positive_integer(losses):
    with pytest.raises(ConfigError, match="rank must be an integer >= 1"):
        rank_star(losses, 0.2, 0.01)


def test_lora_rank_is_an_integer_no_wider_than_the_hidden_width():
    arch = ARCHS["3M"]
    assert arch.lora_internal(arch.hidden) == arch.n_layers * (8 * arch.hidden ** 2 + 4)
    for rank in (0, arch.hidden + 1, 2.0, True):
        with pytest.raises(ConfigError, match="rank"):
            arch.lora_internal(rank)


# -- random-matrix prediction ------------------------------------------------------

def test_rmt_sigma1_cancellation():
    assert rmt_sigma1(512, 1.0 / 512 ** 0.5) == pytest.approx(2.0)
    assert rmt_sigma1(1, 1.0) == pytest.approx(2.0)


def test_rmt_sigma1_matches_drawn_matrix():
    fam = InitFamily("normal")  # fan-in: sigma = 1/sqrt(512)
    m = draw_matrix(Stream(7), fam, 512, 512)
    predicted = rmt_sigma1(512, 1.0 / 512 ** 0.5)
    assert spectral_norm(m.data, iters=300) == pytest.approx(predicted, rel=0.05)


# -- report assembly ----------------------------------------------------------------

def test_cost_report_is_consistent():
    d = cost_report(ARCHS["900M"], 8, m_tokens=1e9)
    assert d["total_params"] == LOTTA_TOTALS[("900M", 8)]
    assert d["flop_ratio"] < 0.69  # nearly frozen at this scale
    assert d["mem_ratio"] < 0.17
    assert d["dist_mib"]["lottalora"] == pytest.approx(109, abs=1.0)
    assert set(d["dist_bytes"]) == {"fp16", "int4_grouped", "lottalora"}
