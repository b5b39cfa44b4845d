import math
from dataclasses import asdict

import numpy as np
import pytest

from lottalora.errors import ConfigError
from lottalora.initfam import FAMILY_NAMES, InitFamily, _entry_draws, draw_matrix
from lottalora.prng import DRAW_CHUNK, Stream
from helpers import family_moments


def power_iteration_sigma1(a, iters=300):
    """Independent largest-singular-value oracle."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        v = w / np.linalg.norm(w)
    return float(np.linalg.norm(a @ v))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_family_draws_and_is_reproducible(name):
    fam = InitFamily(name)
    m1 = draw_matrix(Stream(42), fam, 24, 16)
    m2 = draw_matrix(Stream(42), fam, 24, 16)
    assert m1.data.dtype == np.float32
    assert m1.data.shape == (24, 16)
    assert np.array_equal(m1.data, m2.data)
    assert np.all(np.isfinite(m1.data))


def test_backbone_matrix_is_read_only():
    m = draw_matrix(Stream(1), InitFamily("normal"), 4, 4)
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_binary_fan_in_values():
    # fan-in 64 puts every entry at +-1/8
    m = draw_matrix(Stream(3), InitFamily("binary"), 32, 64)
    assert set(np.unique(m.data)) == {np.float32(-0.125), np.float32(0.125)}


def test_binary_explicit_sigma_one_is_plus_minus_one():
    fam = InitFamily("binary", {"sigma": 1.0}, scaling="explicit")
    m = draw_matrix(Stream(3), fam, 16, 16)
    assert set(np.unique(m.data)) == {np.float32(-1.0), np.float32(1.0)}


def test_uniform_default_range():
    m = draw_matrix(Stream(5), InitFamily("uniform"), 64, 64)
    assert np.all(m.data >= -0.1) and np.all(m.data <= 0.1)
    assert float(np.abs(m.data).max()) > 0.09  # actually fills the range


def test_sparse_normal_zero_fraction():
    m = draw_matrix(Stream(11), InitFamily("sparse_normal"), 512, 512)
    frac = float(np.mean(m.data == 0.0))
    assert 0.18 <= frac <= 0.22


def test_sparse_erdos_renyi_same_sampler_as_sparse_normal():
    a = draw_matrix(Stream(8), InitFamily("sparse_normal"), 32, 32)
    b = draw_matrix(Stream(8), InitFamily("sparse_erdos_renyi"), 32, 32)
    assert np.array_equal(a.data, b.data)


def test_orthogonal_columns_orthonormal():
    m = draw_matrix(Stream(17), InitFamily("orthogonal"), 96, 64)
    q = m.data.astype(np.float64)
    dev = np.abs(q.T @ q - np.eye(64)).max()
    assert dev < 1e-6


def test_orthogonal_wide_rows_orthonormal():
    m = draw_matrix(Stream(17), InitFamily("orthogonal"), 32, 80)
    q = m.data.astype(np.float64)
    dev = np.abs(q @ q.T - np.eye(32)).max()
    assert dev < 1e-6


def test_spectral_radius_rescale():
    fam = InitFamily("spectral_radius", {"rho": 0.95})
    m = draw_matrix(Stream(23), fam, 80, 100)
    sigma1 = power_iteration_sigma1(m.data.astype(np.float64))
    assert abs(sigma1 - 0.95) < 1e-6


@pytest.mark.parametrize("name,bits", [("lowbit2", 2), ("lowbit4", 4), ("lowbit8", 8), ("lowbit16", 16)])
def test_quantized_level_count(name, bits):
    m = draw_matrix(Stream(29), InitFamily(name), 128, 128)
    assert len(np.unique(m.data)) <= 2 ** bits


def test_lowbit2_grid_is_symmetric():
    m = draw_matrix(Stream(29), InitFamily("lowbit2"), 256, 64)
    values = np.unique(m.data)
    assert np.allclose(values, -values[::-1])


def test_cauchy_clipping():
    fam = InitFamily("cauchy")  # s = 0.1, clipped at +-10s
    m = draw_matrix(Stream(31), fam, 256, 256)
    assert np.all(np.abs(m.data) <= 1.0 + 1e-6)
    assert float(np.abs(m.data).max()) > 0.9  # clip actually engages


def test_truncated_normal_clipped_at_two_sigma():
    fam = InitFamily("truncated_normal", {"sigma": 0.5}, scaling="explicit")
    m = draw_matrix(Stream(37), fam, 256, 256)
    assert np.all(np.abs(m.data) <= 1.0 + 1e-6)


def test_kaiming_uniform_bound_784():
    fam = InitFamily("kaiming_uniform")
    m = draw_matrix(Stream(41), fam, 512, 784)
    bound = math.sqrt(6.0 / (784 * 6.0))  # = 1/28 with a = sqrt(5)
    assert bound == pytest.approx(0.035714, abs=1e-6)
    assert np.all(np.abs(m.data) <= bound + 1e-7)


def test_moments_normal_sigma_01():
    fam = InitFamily("normal", {"sigma": 0.1}, scaling="explicit")
    _, var = family_moments(fam, 1_000_000, Stream(43))
    assert var == pytest.approx(0.01, rel=0.05)


def test_moments_binary():
    fam = InitFamily("binary", {"sigma": 0.3}, scaling="explicit")
    mean, var = family_moments(fam, 100_000, Stream(47))
    assert var == pytest.approx(0.09, rel=0.05)
    assert abs(mean) < 0.01


def test_moments_exponential_centered():
    fam = InitFamily("exponential")  # lambda = 10, centered
    mean, _ = family_moments(fam, 1_000_000, Stream(53))
    assert abs(mean) < 0.01


def test_moments_fan_in_normal():
    fam = InitFamily("normal")  # fan_in default
    _, var = family_moments(fam, 200_000, Stream(59), fan_in=64)
    assert var == pytest.approx(1.0 / 64.0, rel=0.05)


def test_moments_rejects_small_samples():
    with pytest.raises(ConfigError):
        family_moments(InitFamily("normal"), 100, Stream(1))


def test_student_t_heavier_tails_than_normal():
    fam = InitFamily("student_t", scaling="explicit")
    _, var = family_moments(fam, 400_000, Stream(61))
    assert var == pytest.approx(3.0, rel=0.25)  # var of t_3 is nu/(nu-2) = 3


def test_beta_range_and_symmetry():
    m = draw_matrix(Stream(67), InitFamily("beta"), 128, 128)
    assert np.all(np.abs(m.data) <= 0.1 + 1e-7)
    assert abs(float(m.data.mean())) < 0.002


def test_gaussian_mixture_matches_component_sigmas():
    fam = InitFamily("gaussian_mixture")
    _, var = family_moments(fam, 1_000_000, Stream(71))
    expected = 0.9 * 0.05 ** 2 + 0.1 * 0.5 ** 2
    assert var == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize(
    "name,params",
    [
        ("spectral_radius", {"rho": 0.0}),
        ("spectral_radius", {"rho": 1.5}),
        ("sparse_normal", {"p": 1.0}),
        ("sparse_normal", {"p": -0.1}),
        ("lowbit4", {"bits": 3}),
        ("normal", {"sigma": 0.0}),
        ("student_t", {"nu": 2.5}),
        ("beta", {"alpha": 3.0}),
        ("exponential", {"lam": -1.0}),
    ],
)
def test_invalid_params_raise_config_error(name, params):
    with pytest.raises(ConfigError) as exc:
        InitFamily(name, params)
    assert list(params)[0] in str(exc.value)


def test_unknown_family_and_unknown_param():
    with pytest.raises(ConfigError):
        InitFamily("pareto")
    with pytest.raises(ConfigError):
        InitFamily("normal", {"scale": 1.0})
    with pytest.raises(ConfigError, match="scaling"):
        InitFamily("normal", scaling="other")


def test_bad_dims_rejected():
    with pytest.raises(ConfigError):
        draw_matrix(Stream(1), InitFamily("normal"), 0, 4)


@pytest.mark.parametrize("rows,cols", [(2.5, 3), (True, 3), (3, False), (3, np.float64(4.0)), ("3", 3)])
def test_non_integer_dims_are_config_errors(rows, cols):
    with pytest.raises(ConfigError, match="integers"):
        draw_matrix(Stream(1), InitFamily("normal"), rows, cols)


def test_numpy_integer_dims_draw_like_ints():
    got = draw_matrix(Stream(1), InitFamily("normal"), np.int64(3), np.int32(4))
    assert got.data.tobytes() == draw_matrix(Stream(1), InitFamily("normal"), 3, 4).data.tobytes()


@pytest.mark.parametrize("params", [None, [("sigma", 1.0)], "sigma", 1.0])
def test_params_that_are_not_a_mapping_are_config_errors(params):
    with pytest.raises(ConfigError, match="mapping"):
        InitFamily("normal", params)
    with pytest.raises(ConfigError, match="mapping"):
        InitFamily.from_dict({"name": "normal", "params": params})


def test_family_serialization_round_trip():
    fam = InitFamily("normal", {"sigma": 0.1}, scaling="explicit")
    assert InitFamily.from_dict(asdict(fam)) == fam
    assert asdict(fam)["name"] == "normal"


CONTRACT_FAMILIES = [InitFamily(name) for name in FAMILY_NAMES] + [InitFamily("student_t", {"nu": 2})]


def test_only_a_familys_last_draw_block_may_be_gaussian():
    # the draw skips a cursor past every block but the last, and
    # Stream.skip skips unit draws only
    early = {fam.name: _entry_draws(fam)[:-1] for fam in CONTRACT_FAMILIES}
    assert {name: blocks for name, blocks in early.items() if any(kind != "unit" for kind, _ in blocks)} == {}


@pytest.mark.parametrize("fam", CONTRACT_FAMILIES, ids=lambda f: f"{f.name}-{f.params.get('nu', '')}")
@pytest.mark.parametrize("rows,cols", [(1, 1), (5, 3), (3, 5), (4, 6), (7, 9)])
@pytest.mark.parametrize("carry", [False, True])
def test_draw_matrix_consumes_exactly_its_draw_contract(fam, rows, cols, carry):
    # the stream after a draw is where skipping every block of the v1 draw
    # contract but the last, then drawing the last whole, leaves it; the
    # frozen bias is drawn next from the same stream
    drawn = Stream(2024)
    if carry:
        drawn.gaussian_block(1)  # an incoming Box-Muller carry
    contract = drawn.copy()
    draw_matrix(drawn, fam, rows, cols)
    *leading, (kind, per_entry) = _entry_draws(fam)
    for _, lead_per_entry in leading:
        contract.skip(lead_per_entry * rows * cols)
    if kind == "unit":
        contract.unit_block(per_entry * rows * cols)
    else:
        contract.gaussian_block(per_entry * rows * cols)
    assert (contract.state, contract._gauss_cache) == (drawn.state, drawn._gauss_cache)
    assert type(contract._gauss_cache) is type(drawn._gauss_cache)


@pytest.mark.parametrize("nu", [1, 2, 3, 5, 8, 9])
@pytest.mark.parametrize("rows,cols", [(512, 784), (7, 9), (1, 1), (17, 241)])
@pytest.mark.parametrize("carry", [False, True])
def test_student_t_row_chunks_match_the_whole_block_bitwise(nu, rows, cols, carry):
    # 17x241 leaves a last chunk of one row; an incoming Box-Muller carry
    # makes every chunk boundary fall inside a gaussian pair
    stream = Stream(99)
    if carry:
        stream.gaussian_block(1)
    whole = stream.copy()
    m = draw_matrix(stream, InitFamily("student_t", {"nu": nu}), rows, cols)
    g = whole.gaussian_block(rows * cols * (nu + 1)).reshape(rows * cols, nu + 1)
    chi2 = np.sum(g[:, 1:] ** 2, axis=1)
    expected = (1.0 * g[:, 0] / np.sqrt(chi2 / nu)).astype(np.float32).reshape(rows, cols)
    assert m.data.tobytes() == expected.tobytes()
    assert (stream.state, stream._gauss_cache) == (whole.state, whole._gauss_cache)


def test_beta_median_of_three_equals_np_median_bitwise():
    m = draw_matrix(Stream(8), InitFamily("beta", scaling="explicit"), 61, 67)
    u = Stream(8).unit_block(3 * 61 * 67).reshape(-1, 3)
    expected = 0.1 * (2.0 * np.median(u, axis=1) - 1.0)
    assert m.data.tobytes() == expected.astype(np.float32).reshape(61, 67).tobytes()


def test_family_names_keep_their_order():
    # perfbench's ship workload cycles the families in this order, and its
    # peak_alloc_mb pass runs op(0), which must stay normal
    assert FAMILY_NAMES == (
        "normal", "truncated_normal", "uniform", "orthogonal", "kaiming_normal", "kaiming_uniform",
        "xavier_normal", "xavier_uniform", "spectral_radius", "cauchy", "laplace", "student_t",
        "gaussian_mixture", "sparse_normal", "sparse_erdos_renyi", "beta", "exponential",
        "lowbit16", "lowbit8", "lowbit4", "lowbit2", "binary",
    )


DEFAULTS = {
    "normal": ({"sigma": 1.0}, "fan_in"),
    "truncated_normal": ({"sigma": 1.0}, "fan_in"),
    "uniform": ({"a": 0.1}, "explicit"),
    "orthogonal": ({"gain": 1.0}, "explicit"),
    "kaiming_normal": ({"a": math.sqrt(5.0)}, "explicit"),
    "kaiming_uniform": ({"a": math.sqrt(5.0)}, "explicit"),
    "xavier_normal": ({"gain": 1.0}, "explicit"),
    "xavier_uniform": ({"gain": 1.0}, "explicit"),
    "spectral_radius": ({"rho": 0.95}, "explicit"),
    "cauchy": ({"s": 0.1}, "explicit"),
    "laplace": ({"b": 0.1}, "explicit"),
    "student_t": ({"nu": 3, "scale": 1.0}, "explicit"),
    "gaussian_mixture": ({"w1": 0.9, "sigma1": 0.05, "w2": 0.1, "sigma2": 0.5}, "explicit"),
    "sparse_normal": ({"p": 0.2, "sigma": 1.0}, "fan_in"),
    "sparse_erdos_renyi": ({"p": 0.2, "sigma": 1.0}, "fan_in"),
    "beta": ({"alpha": 2.0, "beta": 2.0, "scale": 0.1}, "explicit"),
    "exponential": ({"lam": 10.0}, "explicit"),
    "lowbit16": ({"bits": 16, "sigma": 1.0}, "fan_in"),
    "lowbit8": ({"bits": 8, "sigma": 1.0}, "fan_in"),
    "lowbit4": ({"bits": 4, "sigma": 1.0}, "fan_in"),
    "lowbit2": ({"bits": 2, "sigma": 1.0}, "fan_in"),
    "binary": ({"sigma": 1.0}, "fan_in"),
}


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_default_params_and_scaling(name):
    # every artifact header records these, also where the draw ignores them
    params, scaling = DEFAULTS[name]
    d = asdict(InitFamily(name))
    assert d == {"name": name, "params": params, "scaling": scaling}
    assert list(d["params"]) == list(params)
    assert [type(v) for v in d["params"].values()] == [type(v) for v in params.values()]


@pytest.mark.parametrize(
    "name,params,scaling",
    [
        ("normal", {"sigma": "x"}, None),
        ("spectral_radius", {"rho": None}, None),
        ("student_t", {"nu": math.inf}, None),
        ("normal", {"sigma": math.inf}, "explicit"),
        ("gaussian_mixture", {"w1": math.nan}, None),
        ("normal", {"sigma": True}, None),
        ("lowbit4", {"bits": np.bool_(True)}, None),
        ("uniform", {"a": -math.inf}, None),
    ],
)
def test_params_must_be_finite_real_numbers(name, params, scaling):
    with pytest.raises(ConfigError) as exc:
        InitFamily(name, params, scaling)
    assert repr(list(params)[0]) in str(exc.value)


def test_params_are_checked_not_coerced():
    fam = InitFamily("lowbit4", {"bits": 4.0, "sigma": np.float32(0.5)})
    assert type(fam.params["bits"]) is float
    assert type(fam.params["sigma"]) is np.float32
    student = InitFamily("student_t", {"nu": np.int64(2)})
    assert _entry_draws(student) == (("gaussian", 3),)


def test_student_t_entries_must_fit_a_draw_chunk():
    # nu + 1 gaussians per entry; a larger nu would plan an unbounded draw
    assert _entry_draws(InitFamily("student_t", {"nu": DRAW_CHUNK - 1})) == (("gaussian", DRAW_CHUNK),)
    for nu in (DRAW_CHUNK, 10 ** 9):
        with pytest.raises(ConfigError, match=f"nu.*{DRAW_CHUNK}"):
            InitFamily("student_t", {"nu": nu})
