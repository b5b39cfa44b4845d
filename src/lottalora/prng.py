"""Deterministic, platform-independent random streams.

Every frozen matrix in a model is a pure function of (global seed, layer
index, draw kind), so serialized models never ship backbone bytes.  The
generator is fixed and versioned rather than borrowed from any numerics
framework: a splitmix64 state advance with Box-Muller normals, tagged
``splitmix64-boxmuller-v1``.  The tag is written into every artifact header
and checked at reconstruction time.

Draw conventions (frozen by the algorithm tag, do not change).  Every
draw is a block; a block of n continues the stream exactly where the last
one stopped, so one block of n and n blocks of 1 give the same values:
  * ``u64_block``: splitmix64 -- output k = 1, 2, ... after a state is
    the xor/multiply finalizer of ``state + k*gamma`` (64-bit golden
    gamma), and n outputs advance the state by ``n*gamma``.
  * ``unit_block``: the top 53 bits of each raw output times 2**-53, in
    [0, 1).  So ``unit >= p`` holds exactly when those bits reach
    ``ceil(p * 2**53)``; dropout masks compare the bits directly.
  * ``gaussian_block``: Box-Muller over consecutive unit pairs (u1, u2);
    ``sqrt(-2*ln(1-u1))`` pairs with angle ``2*pi*u2``; the cosine branch
    comes first, and a sine branch left over by an odd count is carried
    to the next gaussian draw.

A block is evaluated in chunks of ``_CHUNK`` entries by one in-place
kernel, so a chunk's intermediates stay in cache and no block-sized
temporaries are allocated.  Chunking cannot change a bit.  The k-th raw
output is ``mix64(state + k*gamma)``, a pure function of its flat index in
exact 64-bit integer arithmetic.  The unit and Box-Muller steps apply the
same elementwise numpy ufuncs to the same float64 values as a whole-array
evaluation would.  Every transcendental runs on a contiguous operand,
because numpy may pick a differently rounding loop for strided ones; so
Box-Muller reads u1 from the odd and u2 from the even stream offsets as
two contiguous stride-2 runs.

A draw nobody reads need not be computed: ``skip`` moves a stream to
where a unit or gaussian block of n would leave it, in O(1).  The skip is
exact because the generator is counter-based.  The state after n raw
outputs is ``state + n*gamma``, whatever the outputs were.  A unit draw
takes one raw output and a gaussian pair takes two.  The one value that
outlives a draw is the Box-Muller carry.  A gaussian skip consumes an
incoming carry as a draw would.  An odd remainder leaves the last pair's
sine as the new carry, so the skip evaluates that one pair with the block
kernel, and the carry gets the bits a full draw would give it.
"""

from __future__ import annotations

import enum
import numbers

import numpy as np

from .errors import ConfigError

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

ALGORITHM_ID = "splitmix64-boxmuller-v1"

_INV_2_53 = 2.0 ** -53
_UNIT_SHIFT = np.uint64(11)
# the finalizer as (shift, multiplier) rounds of z ^= z >> shift; z *= mult
_MIX_ROUNDS = (
    (np.uint64(30), np.uint64(MIX_MULT_1)),
    (np.uint64(27), np.uint64(MIX_MULT_2)),
    (np.uint64(31), None),
)

# entries per chunk: a chunk's uint64 values plus scratch fit in L2 cache
_CHUNK = 8192
# draws per block for a caller that streams a large draw into its result
# chunk by chunk: one kernel chunk of gaussian pairs
DRAW_CHUNK = 2 * _CHUNK
# j*stride*gamma for j < _CHUNK, for the two strides the draws use
_RAMPS = {
    stride: np.arange(_CHUNK, dtype=np.uint64) * np.uint64(stride * GOLDEN_GAMMA & MASK64)
    for stride in (1, 2)
}


class DrawKind(enum.IntEnum):
    """Purpose tag for a derived stream.

    Each kind maps to a distinct stream, so e.g. dropout masks and data
    shuffling can never perturb backbone bytes.
    """

    BACKBONE_WEIGHT = 0
    ADAPTER_A_INIT = 1
    DROPOUT_MASK = 2
    DATA_SHUFFLE = 3
    HEAD_INIT = 4


def mix64(z: int) -> int:
    """splitmix64 finalizer on a plain python int (mod 2**64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def _mix64_fill(out: np.ndarray, state: int, offset: int, stride: int) -> None:
    """Set ``out[j] = mix64(state + (offset + j*stride)*gamma)`` in place.

    ``out`` is a contiguous uint64 array; uint64 arithmetic wraps mod 2**64,
    matching the scalar path.  Works through ``out`` in chunks with one
    scratch array.
    """
    ramp = _RAMPS[stride]
    scratch = np.empty(min(len(out), _CHUNK), dtype=np.uint64)
    for lo in range(0, len(out), _CHUNK):
        z = out[lo:lo + _CHUNK]
        t = scratch[:len(z)]
        base = (state + (offset + lo * stride) * GOLDEN_GAMMA) & MASK64
        np.add(ramp[:len(z)], np.uint64(base), out=z)
        for shift, mult in _MIX_ROUNDS:
            np.right_shift(z, shift, out=t)
            np.bitwise_xor(z, t, out=z)
            if mult is not None:
                np.multiply(z, mult, out=z)


def _to_unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits of each uint64 scaled into [0, 1), in the same buffer."""
    units = bits.view(np.float64)
    for lo in range(0, len(bits), _CHUNK):
        z = bits[lo:lo + _CHUNK]
        np.right_shift(z, _UNIT_SHIFT, out=z)
        np.multiply(z, _INV_2_53, out=units[lo:lo + _CHUNK])
    return units


class Stream:
    """A value-like random stream; never share one mutably across threads.

    The visible state is a single u64 plus the Box-Muller carry; advancing
    is a pure function of the previous state, so identical seeds give
    identical sequences on every platform.
    """

    __slots__ = ("state", "_gauss_cache")

    algorithm_id = ALGORITHM_ID

    def __init__(self, state: int):
        self.state = state & MASK64
        self._gauss_cache: float | None = None

    def copy(self) -> "Stream":
        dup = Stream(self.state)
        dup._gauss_cache = self._gauss_cache
        return dup

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("block size must be nonnegative")
        out = np.empty(n, dtype=np.uint64)
        _mix64_fill(out, self.state, 1, 1)
        self.state = (self.state + n * GOLDEN_GAMMA) & MASK64
        return out

    def unit_block(self, n: int) -> np.ndarray:
        """Next ``n`` uniform draws in [0, 1) with 53-bit mantissas."""
        return _to_unit(self.u64_block(n))

    def gaussian_block(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal draws (Box-Muller, cos branch first)."""
        out = np.empty(n, dtype=np.float64)
        i = 0
        if self._gauss_cache is not None and n > 0:
            out[0] = self._gauss_cache
            self._gauss_cache = None
            i = 1
        # pair p takes u1 from stream offset 2p+1 and u2 from offset 2p+2
        m = n - i
        pairs = (m + 1) // 2
        radius, angle, tmp = np.empty((3, min(pairs, _CHUNK)), dtype=np.float64)
        for lo in range(0, pairs, _CHUNK):
            k = min(_CHUNK, pairs - lo)
            r, a, t = radius[:k], angle[:k], tmp[:k]
            _mix64_fill(r.view(np.uint64), self.state, 2 * lo + 1, 2)
            _to_unit(r.view(np.uint64))
            # 1-u1 lies in (0, 1], so the log is always finite
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
            if len(sines) < k:  # odd count: the last sine is carried
                self._gauss_cache = float(r[k - 1] * a[k - 1])
        self.state = (self.state + 2 * pairs * GOLDEN_GAMMA) & MASK64
        return out

    def skip(self, kind: str, n: int) -> None:
        """Advance past ``n`` draws of ``kind`` ("unit" or "gaussian")
        without computing them; the state and the Box-Muller carry end up
        exactly as ``unit_block(n)``/``gaussian_block(n)`` would leave them."""
        if n < 0:
            raise ValueError("skip count must be nonnegative")
        if kind == "gaussian":
            if n and self._gauss_cache is not None:
                self._gauss_cache = None
                n -= 1
            if n % 2:  # the last pair's sine becomes the carry: draw that pair
                self.state = (self.state + (n - 1) * GOLDEN_GAMMA) & MASK64
                self.gaussian_block(1)
                return
        elif kind != "unit":
            raise ValueError(f"cannot skip draws of kind {kind!r}")
        self.state = (self.state + n * GOLDEN_GAMMA) & MASK64

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) driven by unit draws."""
        keys = self.unit_block(n)
        return np.argsort(keys, kind="stable")

    def __repr__(self):
        return f"Stream(state=0x{self.state:016X})"


def check_seed(seed) -> int:
    """``seed`` as an int; a ConfigError unless it is an integer in [0, 2**64).

    ``derive_stream`` reduces its seed mod 2**64, so an out-of-range seed
    would silently build the backbones of another one.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= int(seed) <= MASK64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def derive_stream(global_seed: int, layer_index: int, kind: DrawKind) -> Stream:
    """Derive the stream for one (seed, layer, kind) triple.

    Mixing folds each component through the splitmix64 finalizer in turn;
    distinct inputs give distinct states with overwhelming probability.
    """
    if layer_index < 0:
        raise ValueError("layer_index must be nonnegative")
    s = mix64((global_seed + GOLDEN_GAMMA) & MASK64)
    s = mix64((s + (layer_index + 1) * GOLDEN_GAMMA) & MASK64)
    s = mix64((s + (int(kind) + 1) * GOLDEN_GAMMA) & MASK64)
    return Stream(s)
