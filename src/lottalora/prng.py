"""Deterministic, platform-independent random streams; two LAPACK-drawn
init families built on them are not platform-independent (see ``Stream``).

Every frozen matrix in a model is a pure function of (global seed, layer
index, draw kind) on one numpy and BLAS build, so serialized models never
ship backbone bytes.  The
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
    ``ceil(p * 2**53)``; dropout's ``keep_block`` compares the raw words.
  * ``gaussian_block``: Box-Muller over consecutive unit pairs (u1, u2);
    ``sqrt(-2*ln(1-u1))`` pairs with angle ``2*pi*u2``; the cosine branch
    comes first, and a sine branch left over by an odd count is carried
    to the next gaussian draw.

This module is the one place that turns raw words into draws.  A block
is evaluated in chunks by one in-place kernel, so a chunk's
intermediates stay in cache and no block-sized temporaries are allocated.
Raw fills are stride 1, in stream order, in chunks of ``_U64_CHUNK`` =
32768 words; Box-Muller pairs and unit conversion run in chunks of
``_CHUNK`` = 8192 entries, which measured best for them.  A chunk's pair
p takes u1 and u2 from its words 2p and 2p+1.  Chunking cannot change a
bit: raw output k is ``mix64(state + k*gamma)`` in exact 64-bit integer
arithmetic, and the unit and Box-Muller steps apply the same elementwise
ufuncs to the same float64 values as a whole-array evaluation would.
Every transcendental runs on a contiguous operand, because numpy may
pick a differently rounding loop for strided ones.

Within a Box-Muller chunk, cos and sin do not run over the angles in
stream order.  The top ``64 - _BUCKET_SHIFT`` bits of each angle's raw word
pick one of 64 buckets of width 2*pi/64.  A stable radix argsort of those
keys gathers the angles into one contiguous array, bucket by bucket; cos,
then sin, runs over that array, and each result is scattered back to its
pair's stream position before the radius multiplies it.  The order cannot
change a bit: cos and sin are elementwise, so each value depends only on
its own input; the grouped operand is contiguous, so numpy runs the same
loop; and the gather and the scatter only move bits.  The draw order, the
state and the carry are those of a stream-order evaluation.  The grouping
pays off where numpy's float64 cos/sin call a branchy scalar libm, as
glibc's are: its range-reduction branches mispredict on uniformly random
angles and predict on angles close to each other.  On a shared 2-core Xeon
with numpy 2.4 and glibc, cos and sin of 8192 angles cost 19-27 ns each in
stream order and 14-16 ns grouped, and the sort, gather and scatters about
12 ns a pair.  Behind a SIMD loop the grouping only adds that cost.

``skip`` moves a stream to where a unit block of n would leave it, in
O(1), without computing the draws.  The skip is exact because the
generator is counter-based: the state after n raw outputs is
``state + n*gamma``, whatever the outputs were, and a unit draw takes one
raw output and leaves the Box-Muller carry alone.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ConfigError, IncompatibilityError, integer, integral, real, shown

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

ALGORITHM_ID = "splitmix64-boxmuller-v1"


def check_tag(tag, what: str) -> None:
    """An ``IncompatibilityError`` naming ``what`` unless ``tag`` is this build's generator tag."""
    if tag != ALGORITHM_ID:
        raise IncompatibilityError(f"{what} was generated with {tag!r}; this build expects {ALGORITHM_ID!r}")


_INV_2_53 = 2.0 ** -53
_UNIT_SHIFT = np.uint64(11)
# the finalizer as (shift, multiplier) rounds of z ^= z >> shift; z *= mult
_MIX_ROUNDS = (
    (np.uint64(30), np.uint64(MIX_MULT_1)),
    (np.uint64(27), np.uint64(MIX_MULT_2)),
    (np.uint64(31), None),
)

# entries per chunk of Box-Muller pairs and unit conversion: a chunk's
# values plus scratch fit in L2 cache
_CHUNK = 8192
# the top 64 - _BUCKET_SHIFT bits of an angle's raw word pick its bucket
# (width 2*pi/64); 8 to 256 buckets all took 0.90-0.92 of a stream-order
# chunk's time, and 64 sits mid-range
_BUCKET_SHIFT = np.uint64(58)
# words per chunk of a stride-1 (raw u64) fill; fewer, longer chunks cut
# the per-chunk numpy overhead of large raw and unit blocks
_U64_CHUNK = 4 * _CHUNK
# draws per block for a caller that streams a large draw into its result
# chunk by chunk: one kernel chunk of gaussian pairs
DRAW_CHUNK = 2 * _CHUNK
# j*gamma for j below _U64_CHUNK: a fill chunk's offsets from its base
_RAMP = np.arange(_U64_CHUNK, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)


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


def _mix64_fill(out: np.ndarray, state: int, offset: int) -> None:
    """Set ``out[j] = mix64(state + (offset + j)*gamma)`` in place.

    ``out`` is a contiguous uint64 array; uint64 arithmetic wraps mod 2**64,
    matching the scalar path.  Works through ``out`` in chunks of
    ``_U64_CHUNK`` words with one scratch array.
    """
    scratch = np.empty(min(len(out), _U64_CHUNK), dtype=np.uint64)
    for lo in range(0, len(out), _U64_CHUNK):
        z = out[lo:lo + _U64_CHUNK]
        t = scratch[:len(z)]
        base = (state + (offset + lo) * GOLDEN_GAMMA) & MASK64
        np.add(_RAMP[:len(z)], np.uint64(base), out=z)
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
    identical sequences on every platform.  The matrices drawn from them
    are not always: ``orthogonal`` (LAPACK QR) and ``spectral_radius``
    (LAPACK SVD) can differ by one f32 ulp under other OpenBLAS kernels or
    thread counts.  A state outside the integers in [0, 2**64), a block
    size or count that is not an integer >= 0 is a ConfigError.
    """

    __slots__ = ("state", "_gauss_cache")

    def __init__(self, state: int):
        self.state = check_seed(state)
        self._gauss_cache: float | None = None

    def copy(self) -> "Stream":
        dup = Stream(self.state)
        dup._gauss_cache = self._gauss_cache
        return dup

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        n = _count(n, "block size")
        out = np.empty(n, dtype=np.uint64)
        _mix64_fill(out, self.state, 1)
        self.state = (self.state + n * GOLDEN_GAMMA) & MASK64
        return out

    def unit_block(self, n: int) -> np.ndarray:
        """Next ``n`` uniform draws in [0, 1) with 53-bit mantissas."""
        return _to_unit(self.u64_block(n))

    def keep_block(self, n: int, p: float) -> np.ndarray:
        """Dropout's keep mask over the next ``n`` draws: True where
        ``unit_block(n) >= p`` would be, from the same words, which come in
        ``u64_block`` calls of at most ``DRAW_CHUNK``.  A unit reaches p
        exactly when its word reaches ceil(p * 2**53) << 11, below 2**64
        for p < 1.  A ``p`` outside [0, 1) is a ConfigError."""
        n = _count(n, "block size")
        if not (real(p) and 0.0 <= p < 1.0):
            raise ConfigError(f"dropout p must lie in [0, 1), got {shown(p)}")
        threshold = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        keep = np.empty(n, dtype=bool)
        for lo in range(0, n, DRAW_CHUNK):
            part = keep[lo:lo + DRAW_CHUNK]
            np.greater_equal(self.u64_block(len(part)), threshold, out=part)
        return keep

    def gaussian_block(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal draws (Box-Muller, cos branch first).

        Each chunk's cos/sin run over its angles grouped by bucket (see the
        module docstring); the values are those of stream order, bit for bit.
        """
        n = _count(n, "block size")
        out = np.empty(n, dtype=np.float64)
        i = 0
        if self._gauss_cache is not None and n > 0:
            out[0] = self._gauss_cache
            self._gauss_cache = None
            i = 1
        # pair p takes u1 from stream offset 2p+1 and u2 from offset 2p+2
        m = n - i
        pairs = (m + 1) // 2
        words = np.empty(2 * min(pairs, _CHUNK), dtype=np.uint64)
        radius, angle = np.empty((2, min(pairs, _CHUNK)), dtype=np.float64)
        keys = np.empty(min(pairs, _CHUNK), dtype=np.uint8)
        for lo in range(0, pairs, _CHUNK):
            k = min(_CHUNK, pairs - lo)
            w, r, a = words[:2 * k], radius[:k], angle[:k]
            _mix64_fill(w, self.state, 2 * lo + 1)
            np.right_shift(w[1::2], _BUCKET_SHIFT, out=keys[:k], casting="unsafe")
            order = np.argsort(keys[:k], kind="stable")
            # a unit is its top 53 bits times 2**-53, and a 53-bit integer
            # is exact in float64, so -u1 and 2*pi*u2 are one product each:
            # scaling by a power of two commutes with rounding
            np.right_shift(w, _UNIT_SHIFT, out=w)
            np.multiply(w[0::2], -_INV_2_53, out=r)
            # 1-u1 lies in (0, 1], so the log is always finite
            np.log1p(r, out=r)
            np.multiply(r, -2.0, out=r)
            np.sqrt(r, out=r)
            np.multiply(w[1::2], 2.0 * np.pi * _INV_2_53, out=a)
            # cos/sin run over the angles grouped by bucket, ``g``; ``a``
            # takes each grouped result and scatters it back to stream
            # order.  The spent words hold ``g`` and the cosines' scatter.
            # ``order`` is a permutation, so "clip" never clips; it only
            # skips the bounds check
            g, t = w.view(np.float64).reshape(2, k)
            np.take(a, order, out=g, mode="clip")
            z = out[i + 2 * lo:i + 2 * (lo + k)]
            np.cos(g, out=a)
            t[order] = a
            np.multiply(r, t, out=z[0::2])
            np.sin(g, out=g)
            a[order] = g
            sines = z[1::2]
            np.multiply(r[:len(sines)], a[:len(sines)], out=sines)
            if len(sines) < k:  # odd count: the last sine is carried
                self._gauss_cache = float(r[k - 1] * a[k - 1])
        self.state = (self.state + 2 * pairs * GOLDEN_GAMMA) & MASK64
        return out

    def skip(self, n: int) -> None:
        """Advance past ``n`` unit draws without computing them, as
        ``unit_block(n)`` would.  Only unit draws are skipped: a gaussian
        block's state also holds the Box-Muller carry."""
        n = _count(n, "skip count")
        self.state = (self.state + n * GOLDEN_GAMMA) & MASK64

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) driven by unit draws."""
        keys = self.unit_block(n)
        return np.argsort(keys, kind="stable")

    def __repr__(self):
        return f"Stream(state=0x{self.state:016X})"


def _count(n, name: str) -> int:
    """``n`` as an int; a ConfigError naming ``name`` unless it is an
    integer >= 0."""
    n = integer(n, name)
    if n < 0:
        raise ConfigError(f"{name} must be >= 0, got {shown(n)}")
    return n


def check_seed(seed) -> int:
    """``seed`` as an int; a ConfigError unless it is an integer in [0, 2**64).

    ``derive_stream``'s mixing reduces a seed mod 2**64, so an
    out-of-range seed would build the backbones of another one; it runs
    every seed through this check.
    """
    if not integral(seed) or not 0 <= int(seed) <= MASK64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {shown(seed)}")
    return int(seed)


def derive_stream(global_seed: int, layer_index: int, kind: DrawKind) -> Stream:
    """Derive the stream for one (seed, layer, kind) triple.

    Mixing folds each component through the splitmix64 finalizer in turn;
    distinct inputs give distinct states with overwhelming probability.
    The seed and the layer index must be integers in [0, 2**64), where
    none aliases another mod 2**64, and ``kind`` a ``DrawKind``; anything
    else is a ConfigError.
    """
    global_seed = check_seed(global_seed)
    layer_index = integer(layer_index, "layer_index")
    if not 0 <= layer_index <= MASK64:
        raise ConfigError(f"layer_index must lie in [0, 2**64), got {shown(layer_index)}")
    if not isinstance(kind, DrawKind):
        raise ConfigError(f"kind must be a DrawKind, got {shown(kind)}")
    s = mix64((global_seed + GOLDEN_GAMMA) & MASK64)
    s = mix64((s + (layer_index + 1) * GOLDEN_GAMMA) & MASK64)
    s = mix64((s + (int(kind) + 1) * GOLDEN_GAMMA) & MASK64)
    return Stream(s)
