import math

import numpy as np
import pytest

from lottalora.errors import ConfigError
from lottalora.prng import (
    _CHUNK,
    _U64_CHUNK,
    ALGORITHM_ID,
    DrawKind,
    GOLDEN_GAMMA,
    MASK64,
    Stream,
    _to_unit,
    derive_stream,
    mix64,
)


def reference_splitmix64(seed, n):
    """Independent scalar splitmix64, transcribed from the published
    algorithm: state += golden gamma, then xor/multiply finalizer."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_first_output_seed_zero():
    # well-known first output of splitmix64 for seed 0
    assert Stream(0).u64_block(1)[0] == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, MASK64])
def test_splitmix64_matches_reference(seed):
    ref = reference_splitmix64(seed, 64)
    s = Stream(seed)
    assert [int(s.u64_block(1)[0]) for _ in range(64)] == ref


def test_block_draws_match_scalar_draws():
    a = Stream(12345)
    b = Stream(12345)
    block = a.u64_block(100)
    scalars = np.concatenate([b.u64_block(1) for _ in range(100)])
    assert np.array_equal(block, scalars)
    assert a.state == b.state


def test_gaussian_block_matches_scalar_and_cache_carries():
    a = Stream(7)
    b = Stream(7)
    block = a.gaussian_block(7)
    scalars = np.concatenate([b.gaussian_block(1) for _ in range(7)])
    assert np.array_equal(block, scalars)
    # odd count leaves the sine branch cached in both
    assert a._gauss_cache == b._gauss_cache
    assert a.gaussian_block(1)[0] == b.gaussian_block(1)[0]


def test_gaussian_draw_order_is_cos_then_sin():
    s = Stream(99)
    u = Stream(99).unit_block(2)
    r = math.sqrt(-2.0 * math.log1p(-u[0]))
    theta = 2.0 * math.pi * u[1]
    z0, z1 = s.gaussian_block(2)
    assert z0 == pytest.approx(r * math.cos(theta), rel=1e-15)
    assert z1 == pytest.approx(r * math.sin(theta), rel=1e-15)


def test_derive_stream_is_deterministic():
    a = derive_stream(42, 0, DrawKind.BACKBONE_WEIGHT)
    b = derive_stream(42, 0, DrawKind.BACKBONE_WEIGHT)
    assert a.state == b.state
    assert a.u64_block(5).tolist() == b.u64_block(5).tolist()


def test_derive_stream_distinct_inputs_distinct_states():
    seen = set()
    for seed in (0, 1, 42, 43, 44):
        for layer in range(6):
            for kind in DrawKind:
                seen.add(derive_stream(seed, layer, kind).state)
    assert len(seen) == 5 * 6 * len(DrawKind)
    assert (
        derive_stream(42, 0, DrawKind.BACKBONE_WEIGHT).state
        != derive_stream(42, 1, DrawKind.BACKBONE_WEIGHT).state
    )


@pytest.mark.parametrize("seed,layer,kind", [
    (1, -1, DrawKind.BACKBONE_WEIGHT),
    (1, 2 ** 64, DrawKind.BACKBONE_WEIGHT),  # would alias layer 0
    (1, 1.5, DrawKind.BACKBONE_WEIGHT),
    (1, 1.0, DrawKind.BACKBONE_WEIGHT),
    (1, True, DrawKind.BACKBONE_WEIGHT),
    (1, "0", DrawKind.BACKBONE_WEIGHT),
    (2 ** 64 + 5, 0, DrawKind.BACKBONE_WEIGHT),  # would alias seed 5
    (-1, 0, DrawKind.BACKBONE_WEIGHT),
    (1.0, 0, DrawKind.BACKBONE_WEIGHT),
    (1, 0, 0),
    (1, 0, "BACKBONE_WEIGHT"),
    (1, 0, None),
])
def test_derive_stream_rejects_bad_arguments_with_a_config_error(seed, layer, kind):
    with pytest.raises(ConfigError):
        derive_stream(seed, layer, kind)


def test_derive_stream_takes_integers_of_any_type_across_the_whole_range():
    for seed, layer in ((0, 0), (MASK64, MASK64), (np.uint64(MASK64), np.int64(3))):
        expected = derive_stream(int(seed), int(layer), DrawKind.DROPOUT_MASK).state
        assert derive_stream(seed, layer, DrawKind.DROPOUT_MASK).state == expected
    assert derive_stream(1, MASK64, DrawKind.HEAD_INIT).state != derive_stream(1, 0, DrawKind.HEAD_INIT).state


def test_stream_independence():
    # consuming one derived stream leaves another untouched
    a = derive_stream(5, 0, DrawKind.DROPOUT_MASK)
    b = derive_stream(5, 0, DrawKind.BACKBONE_WEIGHT)
    expected_b = b.copy().u64_block(16)
    a.u64_block(1000)
    assert np.array_equal(b.u64_block(16), expected_b)


def test_unit_range_and_mean():
    u = Stream(2024).unit_block(1_000_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert 0.499 <= float(u.mean()) <= 0.501


def test_unit_identical_states_identical_outputs():
    assert Stream(314).unit_block(1)[0] == Stream(314).unit_block(1)[0]


@pytest.mark.parametrize("p", [0.1, 1 / 3, 0.5, 2.0 ** -53, 1 - 2.0 ** -53])
def test_unit_threshold_equals_integer_threshold(p):
    # a unit draw is its raw draw's top 53 bits times 2**-53, so comparing
    # it with p is comparing those bits with ceil(p * 2**53)
    threshold = math.ceil(p * 2.0 ** 53)
    units = Stream(2025).unit_block(100_000)
    bits = Stream(2025).u64_block(100_000)
    assert np.array_equal(units >= p, (bits >> np.uint64(11)) >= np.uint64(threshold))
    # random draws never land next to the extreme thresholds; these do
    top = np.array([t for t in (threshold - 1, threshold, threshold + 1) if 0 <= t < 2 ** 53], dtype=np.uint64)
    edges = np.concatenate([top << np.uint64(11), (top << np.uint64(11)) | np.uint64(0x7FF)])
    assert np.array_equal(_to_unit(edges.copy()) >= p, (edges >> np.uint64(11)) >= np.uint64(threshold))


def test_gaussian_moments():
    g = Stream(77).gaussian_block(1_000_000)
    assert abs(float(g.mean())) <= 0.005
    assert 0.99 <= float(g.var()) <= 1.01


def test_gaussian_reproducible_bit_for_bit():
    a = Stream(123)
    b = Stream(123)
    assert a.gaussian_block(1)[0] == b.gaussian_block(1)[0]
    assert a.gaussian_block(1)[0] == b.gaussian_block(1)[0]


def test_permutation_is_a_permutation_and_deterministic():
    p = Stream(9).permutation(1000)
    assert sorted(p.tolist()) == list(range(1000))
    assert np.array_equal(p, Stream(9).permutation(1000))


def test_mix64_matches_reference_finalizer():
    # mix64 is the finalizer step of the reference with a pre-advanced state
    for x in (0, 1, GOLDEN_GAMMA, 0x123456789ABCDEF0):
        assert mix64(x) == reference_splitmix64((x - GOLDEN_GAMMA) & MASK64, 1)[0]


def test_algorithm_id_is_versioned():
    assert ALGORITHM_ID == "splitmix64-boxmuller-v1"


# -- oracle: the whole-array block draws the chunked kernel replaced --------


def oracle_u64_block(stream, n):
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    z = np.uint64(stream.state) + steps
    stream.state = (stream.state + n * GOLDEN_GAMMA) & MASK64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def oracle_unit_block(stream, n):
    return (oracle_u64_block(stream, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def oracle_gaussian_block(stream, n):
    out = np.empty(n, dtype=np.float64)
    i = 0
    if stream._gauss_cache is not None and n > 0:
        out[0], stream._gauss_cache, i = stream._gauss_cache, None, 1
    m = n - i
    if m > 0:
        pairs = (m + 1) // 2
        u = oracle_unit_block(stream, 2 * pairs).reshape(pairs, 2)
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        angle = (2.0 * np.pi) * u[:, 1]
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        out[i:] = z[:m]
        if m % 2 == 1:
            stream._gauss_cache = float(z[m])
    return out


ORACLES = {"u64": oracle_u64_block, "unit": oracle_unit_block, "gaussian": oracle_gaussian_block}
ORACLE_SEEDS = [0, 1, MASK64, GOLDEN_GAMMA]
# both chunk sizes: 8192 (Box-Muller pairs, unit conversion) and
# 32768 (raw fills)
ORACLE_SIZES = [0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
                _U64_CHUNK - 1, _U64_CHUNK, _U64_CHUNK + 1, 2 * _U64_CHUNK + 1, 573440]


def test_chunk_sizes():
    assert (_CHUNK, _U64_CHUNK) == (8192, 32768)


def draw_both(new, old, kind, n):
    """Draw ``n`` of ``kind`` from both streams; assert equal bytes and state."""
    got = getattr(new, f"{kind}_block")(n)
    want = ORACLES[kind](old, n)
    assert got.dtype == want.dtype and got.shape == (n,)
    assert got.tobytes() == want.tobytes(), (kind, n)
    assert new.state == old.state
    assert new._gauss_cache == old._gauss_cache
    assert type(new._gauss_cache) is type(old._gauss_cache)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_block_draws_match_whole_array_oracle(seed, kind):
    for n in ORACLE_SIZES:
        draw_both(Stream(seed), Stream(seed), kind, n)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_interleaved_draws_with_odd_carry_match_oracle(seed):
    new, old = Stream(seed), Stream(seed)
    calls = [
        ("gaussian", 3), ("gaussian", _CHUNK), ("unit", 5), ("gaussian", 1),
        ("gaussian", 2 * _CHUNK + 1), ("u64", _CHUNK + 1), ("gaussian", 0),
        ("gaussian", 2 * _CHUNK), ("gaussian", _CHUNK - 1), ("unit", 1), ("gaussian", 3),
    ]
    for kind, n in calls:
        draw_both(new, old, kind, n)
    assert new._gauss_cache is not None  # the sequence ends on an odd carry


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_unit_and_permutation_blocks_across_a_raw_chunk_edge_match_oracle(seed):
    new, old = Stream(seed), Stream(seed)
    draw_both(new, old, "u64", 5)  # later blocks start off the stream's first chunk grid
    draw_both(new, old, "unit", _U64_CHUNK + 7)
    for n in (_U64_CHUNK - 1, _U64_CHUNK + 1, 2 * _U64_CHUNK + 3):
        got = new.permutation(n)
        want = np.argsort(oracle_unit_block(old, n), kind="stable")
        assert np.array_equal(got, want) and new.state == old.state, n


def test_scalar_draws_match_oracle_at_wraparound():
    new, old = Stream(MASK64), Stream(MASK64)
    assert int(new.u64_block(1)[0]) == int(oracle_u64_block(old, 1)[0])
    assert float(new.unit_block(1)[0]) == float(oracle_unit_block(old, 1)[0])
    for _ in range(3):
        assert float(new.gaussian_block(1)[0]) == float(oracle_gaussian_block(old, 1)[0])
    assert (new.state, new._gauss_cache) == (old.state, old._gauss_cache)


# -- skipping draws nobody reads ------------------------------------------------


SKIP_SIZES = [0, 1, 2, 3, 4, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("carry", [False, True])
def test_skip_leaves_the_stream_where_the_draw_would(seed, carry):
    for n in SKIP_SIZES:
        drawn = Stream(seed)
        if carry:
            drawn.gaussian_block(3)  # an odd count leaves a carry
        skipped = drawn.copy()
        drawn.unit_block(n)
        skipped.skip(n)
        assert (skipped.state, skipped._gauss_cache) == (drawn.state, drawn._gauss_cache), n
        assert type(skipped._gauss_cache) is type(drawn._gauss_cache)
        # and the next draws agree bit for bit
        assert skipped.gaussian_block(5).tobytes() == drawn.gaussian_block(5).tobytes()


def test_unit_skips_between_gaussian_draws_match_unit_draws():
    calls = [("gaussian", 3), ("unit", 5), ("gaussian", 1), ("gaussian", 2 * _CHUNK + 1),
             ("unit", 1), ("gaussian", 0), ("unit", 0), ("gaussian", 4), ("gaussian", _CHUNK - 1)]
    for seed in range(50):
        drawn, skipped = Stream(seed), Stream(seed)
        for kind, n in calls:
            getattr(drawn, f"{kind}_block")(n)
            if kind == "unit":
                skipped.skip(n)
            else:
                skipped.gaussian_block(n)
            assert (skipped.state, skipped._gauss_cache) == (drawn.state, drawn._gauss_cache)


@pytest.mark.parametrize("call", [
    lambda: Stream(2 ** 64 + 5),  # would alias Stream(5)
    lambda: Stream(-3),  # would alias Stream(2**64 - 3)
    lambda: Stream(1.5),
    lambda: Stream("7"),
    lambda: Stream(True),
    lambda: Stream(1).unit_block(2.5),
    lambda: Stream(1).u64_block(-1),
    lambda: Stream(1).gaussian_block(-2),
    lambda: Stream(1).gaussian_block(3.0),
    lambda: Stream(1).permutation(-1),
    lambda: Stream(1).skip(-1),
    lambda: Stream(1).skip(0.5),
    lambda: Stream(1).keep_block(-1, 0.1),
    lambda: Stream(1).keep_block(2, 1.0),  # p = 1 would drop everything
    lambda: Stream(1).keep_block(2, -0.1),
    lambda: Stream(1).keep_block(2, float("nan")),
    lambda: Stream(1).keep_block(2, True),
], ids=["state 2**64+5", "state -3", "state 1.5", "state '7'", "state True", "unit 2.5", "u64 -1",
        "gaussian -2", "gaussian 3.0", "permutation -1", "skip -1", "skip 0.5",
        "keep -1", "keep p 1", "keep p -0.1", "keep p nan", "keep p True"])
def test_a_bad_state_or_count_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("state", [0, 42, MASK64, GOLDEN_GAMMA, np.uint64(MASK64)])
def test_a_valid_state_is_kept_as_given(state):
    stream = Stream(state)
    assert type(stream.state) is int and stream.state == int(state)
    assert stream.u64_block(3).tolist() == reference_splitmix64(int(state), 3)
