"""``Stream.gaussian_block`` evaluates cos/sin over angles grouped by
bucket; every value, the state and the carry must equal the stream-order
chunk kernel it replaced, kept here as the oracle."""

import numpy as np
import pytest

from lottalora.initfam import FAMILY_NAMES, InitFamily, draw_matrix
from lottalora.prng import _CHUNK, GOLDEN_GAMMA, MASK64, Stream, _mix64_fill, _to_unit


def stream_order_gaussian_block(self, n):
    """The chunk kernel before grouping: cos/sin in stream order."""
    out = np.empty(n, dtype=np.float64)
    i = 0
    if self._gauss_cache is not None and n > 0:
        out[0] = self._gauss_cache
        self._gauss_cache = None
        i = 1
    m = n - i
    pairs = (m + 1) // 2
    radius, angle, tmp = np.empty((3, min(pairs, _CHUNK)), dtype=np.float64)
    for lo in range(0, pairs, _CHUNK):
        k = min(_CHUNK, pairs - lo)
        r, a, t = radius[:k], angle[:k], tmp[:k]
        _mix64_fill(r.view(np.uint64), self.state, 2 * lo + 1, 2)
        _to_unit(r.view(np.uint64))
        np.negative(r, out=r)
        np.log1p(r, out=r)
        np.multiply(r, -2.0, out=r)
        np.sqrt(r, out=r)
        _mix64_fill(a.view(np.uint64), self.state, 2 * lo + 2, 2)
        _to_unit(a.view(np.uint64))
        np.multiply(a, 2.0 * np.pi, out=a)
        z = out[i + 2 * lo:i + 2 * (lo + k)]
        np.cos(a, out=t)
        np.multiply(r, t, out=z[0::2])
        np.sin(a, out=a)
        sines = z[1::2]
        np.multiply(r[:len(sines)], a[:len(sines)], out=sines)
        if len(sines) < k:
            self._gauss_cache = float(r[k - 1] * a[k - 1])
    self.state = (self.state + 2 * pairs * GOLDEN_GAMMA) & MASK64
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
