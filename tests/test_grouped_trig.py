"""``Stream.gaussian_block`` evaluates cos/sin over angles grouped by
bucket; every value, the state and the carry must equal a stream-order
Box-Muller built from the public draw rule, kept here as the oracle."""

import numpy as np
import pytest

from lottalora.initfam import FAMILY_NAMES, InitFamily, draw_matrix
from lottalora.prng import _CHUNK, GOLDEN_GAMMA, MASK64, Stream


def stream_order_gaussian_block(self, n):
    """Box-Muller in stream order from ``unit_block``: after a carried
    sine, pair p takes u1 and u2 from unit draws 2p and 2p+1."""
    out = np.empty(n, dtype=np.float64)
    i = 0
    if self._gauss_cache is not None and n > 0:
        out[0] = self._gauss_cache
        self._gauss_cache = None
        i = 1
    pairs = (n - i + 1) // 2
    units = self.unit_block(2 * pairs)
    # every transcendental runs on a contiguous operand, as in the kernel
    u1, u2 = np.ascontiguousarray(units[0::2]), np.ascontiguousarray(units[1::2])
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    cosines, sines = radius * np.cos(angle), radius * np.sin(angle)
    out[i::2] = cosines
    out[i + 1::2] = sines[:len(out[i + 1::2])]
    if len(out[i + 1::2]) < pairs:  # odd count: the last sine is carried
        self._gauss_cache = float(sines[-1])
    return out


# both sides of one and two chunk edges, in draws (two per pair), odd and even
SIZES = [0, 1, 2, 3, 7, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 4 * _CHUNK - 1, 4 * _CHUNK,
         4 * _CHUNK + 1, 6 * _CHUNK + 1, 50001]


def assert_same_stream(new, old):
    assert (new.state, new._gauss_cache) == (old.state, old._gauss_cache)
    assert type(new._gauss_cache) is type(old._gauss_cache)


@pytest.mark.parametrize("seed", [0, 7, MASK64, GOLDEN_GAMMA])
@pytest.mark.parametrize("carry", [False, True])
def test_grouped_block_matches_the_stream_order_kernel(seed, carry):
    for n in SIZES:
        new = Stream(seed)
        if carry:
            new.gaussian_block(1)  # the pair's sine is carried into the block
        old = new.copy()
        got = new.gaussian_block(n)
        want = stream_order_gaussian_block(old, n)
        assert got.tobytes() == want.tobytes(), n
        assert_same_stream(new, old)


def test_interleaved_grouped_draws_match_the_stream_order_kernel():
    new, old = Stream(2026), Stream(2026)
    for n in (3, 2 * _CHUNK + 1, 1, 0, 4 * _CHUNK, 2 * _CHUNK - 1, 5):
        assert new.gaussian_block(n).tobytes() == stream_order_gaussian_block(old, n).tobytes(), n
        assert_same_stream(new, old)
    assert new._gauss_cache is not None  # the sequence ends on an odd carry


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_family_draws_the_stream_order_bits_over_several_chunks(name, monkeypatch):
    # 512x784 spans many chunks; the carry offsets every chunk edge by one draw
    stream = Stream(31)
    stream.gaussian_block(1)
    grouped = draw_matrix(stream.copy(), InitFamily(name), 512, 784).data
    monkeypatch.setattr(Stream, "gaussian_block", stream_order_gaussian_block)
    expected = draw_matrix(stream, InitFamily(name), 512, 784).data
    assert grouped.tobytes() == expected.tobytes()
