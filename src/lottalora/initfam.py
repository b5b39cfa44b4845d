"""Frozen backbone generation under 22 initialization families.

A family is identified by a lowercase-snake tag plus a small parameter
dict.  Entries are drawn row-major from a single stream so a matrix is a
pure function of (stream state, family, shape); the f32 result is marked
read-only and never mutated afterwards.  Each family is defined by one
entry of ``_FAMILIES``, so adding a family means adding one table entry.

Scaling modes:
  * ``fan_in``  -- the family's scale knob is replaced by 1/sqrt(d_in).
    This is the default for the sigma-driven families (normal variants,
    sparse, quantized, binary), whose nominal sigma is just a placeholder.
  * ``explicit`` -- parameters are used exactly as given.  Default for
    families whose tabulated parameters are absolute (uniform a=0.1,
    cauchy s=0.1, laplace b=0.1, exponential lambda=10, beta range 0.1,
    the gaussian mixture) and a no-op for families that compute their own
    variance from the dims (kaiming/xavier/orthogonal/spectral_radius).

Per-entry stream consumption is fixed per family (sparse families always
burn a mask uniform and a value gaussian, even for a zeroed entry), so an
entry's value depends only on its flat index.  Each spec's ``draws``
field is that consumption and the v1 stream-order contract: for n
entries, a block of each listed kind in turn.  The draw places a cursor
at each block's start with ``Stream.skip``, which skips only unit draws,
so every block before a family's last is a unit block.

An entrywise draw never holds the whole block in float64: each kind
reads from its own cursor, placed where its block would start, and
chunks of about 16K draws run through the family rule straight into the
float32 result; its peak is the result plus one chunk's scratch.  The
matrix-level families (orthogonal, spectral_radius) need the whole
float64 matrix for LAPACK, and scale it in place, so they peak at that
matrix plus the float32 result (4.6 MiB at 512x784).  ``orthogonal``
fills its matrix column-major, LAPACK's own layout, in row blocks of
about ``DRAW_CHUNK`` draws that continue the stream; the stream order is
that of one row-major block.  Its v1 rule is numpy's own LAPACK
(``lapack_lite``) run in place on that column-major matrix: ``dgeqrf``,
then ``dorgqr``, each at the workspace its query names, the calls and
workspaces of ``np.linalg.qr``.  The result's layout is C order, or for
a wide matrix the transpose of a C-order Q.

Every float64 operation of a family rule is part of the v1 contract, its
order included.  ``student_t``'s chi-square is a sum of nu squares whose
order is written out in ``_pairwise_sum`` (numpy's pairwise order for a
contiguous run), so those bits do not rest on how numpy reduces an axis.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ConfigError, LottaError, finite, integral, shown
from .prng import DRAW_CHUNK, Stream

KAIMING_DEFAULT_A = math.sqrt(5.0)
SCALINGS = ("fan_in", "explicit")

_GAUSSIAN = (("gaussian", 1),)
_UNIT = (("unit", 1),)
_UNIT_THEN_GAUSSIAN = (("unit", 1), ("gaussian", 1))


@dataclass(frozen=True)
class _Family:
    """One family's definition.

    ``scale`` names the parameter that sets the spread, if any (``rate``:
    the spread is its inverse); it must be > 0 like those in ``positive``.
    fan_in scaling replaces it by 1/sqrt(d_in), and is the default when it
    is sigma, a placeholder nominal value.  ``check`` is a predicate on the
    params and the message, formatted with them, for when it fails.
    ``draws`` is the v1 draw contract, ``(kind, draws per entry)`` blocks
    in stream order, or a function of the params giving it.  An entrywise
    family has ``entry(draws, s, params, fan_in, fan_out)``: a chunk's f64
    entries from its draws, one array per block, and the scale knob s.  A
    matrix-level one has ``matrix(stream, params, rows, cols)``.
    """

    defaults: dict
    scale: str | None = None
    rate: bool = False
    positive: tuple = ()
    check: tuple | None = None
    draws: tuple | Callable = _GAUSSIAN
    entry: Callable | None = None
    matrix: Callable | None = None


def _laplace(d, s, *_):
    u = np.maximum(d[0], 2.0 ** -53)
    return s * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Each column's sum of an (n, k) float64 array, in the v1 order.

    The order is numpy's pairwise order for a contiguous run of n terms:
    below 8 terms, in sequence; up to 128, eight running sums r0..r7 over
    the terms j, j+8, j+16, ... of the first n - n % 8, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the last n % 8 added in
    sequence; above 128, the sum of the first n2 terms plus the sum of the
    rest, with n2 = n // 2 rounded down to a multiple of 8.  Every step
    adds whole rows, so all k columns follow the same tree at once.
    """
    n = len(terms)
    if n < 8:
        total = terms[0].copy()
        for row in terms[1:]:
            total += row
        return total
    if n <= 128:
        tail = n - n % 8
        r = terms[:8].copy()
        for lo in range(8, tail, 8):
            r += terms[lo:lo + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in terms[tail:]:
            total += row
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _student_t(d, s, p, *_):
    # entry i is z_i / sqrt(chi2_i / nu) from its nu+1 gaussians; the
    # squares are laid out one entry per column, so the chi-square sums
    # run over whole rows rather than one short row per entry
    nu = int(p["nu"])
    g = d[0].reshape(-1, nu + 1)
    squares = np.empty((nu, len(g)))
    np.square(g[:, 1:].T, out=squares)
    return s * g[:, 0] / np.sqrt(_pairwise_sum(squares) / nu)


def _beta(d, s, *_):
    # the median of 3 uniforms is Beta(2, 2); min/max select it exactly
    # as np.median would, without its sorted copy of the draws
    a, b, c = d[0].reshape(-1, 3).T
    med = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    return s * (2.0 * med - 1.0)


def _lapack(routine, *args) -> None:
    """Run ``routine`` from numpy's ``lapack_lite``, whose last arguments
    are ``work, lwork, info``, at the workspace a query (lwork=-1) names,
    raised to at least n (its second argument), as ``np.linalg.qr`` does."""
    def call(work, lwork):
        info = routine(*args, work, lwork, 0)["info"]
        if info != 0:
            raise LottaError(f"LAPACK {routine.__name__} failed with info {info}")

    query = np.empty(1)
    call(query, -1)
    lwork = max(args[1], int(query[0]))
    call(np.empty(lwork), lwork)


def _orthogonal(stream: Stream, p: dict, rows: int, cols: int) -> np.ndarray:
    # QR of a gaussian matrix, sign-corrected so the factorization is unique;
    # for wide matrices the transpose is drawn and transposed back.  The
    # draw fills a column-major matrix, the layout LAPACK works in, one row
    # block of about DRAW_CHUNK draws at a time, in stream order.  dgeqrf
    # then dorgqr turn it into Q in place, the two calls np.linalg.qr makes
    # at the same workspaces, without its copies of g, Q and triu(R); the
    # draw peaks at g plus the float32 result.  lapack_lite takes the
    # C-contiguous g.T as that Fortran matrix
    transpose = rows < cols
    r_, c_ = (cols, rows) if transpose else (rows, cols)
    g = np.empty((r_, c_), order="F")
    step = max(1, DRAW_CHUNK // c_)
    for lo in range(0, r_, step):
        block = g[lo:lo + step]
        block[...] = stream.gaussian_block(block.size).reshape(block.shape)
    tau = np.empty(c_)
    _lapack(lapack_lite.dgeqrf, r_, c_, g.T, r_, tau)
    sign = np.sign(g.diagonal())  # R's diagonal, before dorgqr overwrites it
    sign[sign == 0.0] = 1.0
    _lapack(lapack_lite.dorgqr, r_, c_, c_, g.T, r_, tau)
    g *= sign * p["gain"]  # sign is +-1, so this is g * sign, then * gain
    q = g.astype(np.float32, order="C")
    return q.T if transpose else q


def _spectral_radius(stream: Stream, p: dict, rows: int, cols: int) -> np.ndarray:
    g = stream.gaussian_block(rows * cols).reshape(rows, cols)
    sigma1 = np.linalg.svd(g, compute_uv=False)[0]
    return np.multiply(g, p["rho"] / sigma1, out=g)


def _quantize(x: np.ndarray, sigma: float, bits: int) -> np.ndarray:
    # symmetric uniform grid of 2**bits level centers over [-3s, 3s]
    levels = 1 << bits
    half = 3.0 * sigma
    width = 2.0 * half / levels
    idx = np.floor((np.clip(x, -half, half) + half) / width)
    np.clip(idx, 0, levels - 1, out=idx)
    return -half + (idx + 0.5) * width


# a mask uniform, then a value gaussian, even where the entry is zeroed
_SPARSE = _Family(
    {"p": 0.2, "sigma": 1.0}, "sigma",
    check=(lambda p: 0.0 <= p["p"] < 1.0, "parameter 'p' must lie in [0, 1), got {p}"),
    draws=_UNIT_THEN_GAUSSIAN, entry=lambda d, s, p, *_: np.where(d[0] < p["p"], 0.0, s * d[1]))

# every family, in FAMILY_NAMES order
_FAMILIES: dict[str, _Family] = {
    "normal": _Family({"sigma": 1.0}, "sigma", entry=lambda d, s, *_: s * d[0]),
    "truncated_normal": _Family({"sigma": 1.0}, "sigma", entry=lambda d, s, *_: s * np.clip(d[0], -2.0, 2.0)),
    "uniform": _Family({"a": 0.1}, "a", draws=_UNIT, entry=lambda d, s, *_: s * (2.0 * d[0] - 1.0)),
    "orthogonal": _Family({"gain": 1.0}, positive=("gain",), matrix=_orthogonal),
    "kaiming_normal": _Family(
        {"a": KAIMING_DEFAULT_A}, positive=("a",),
        entry=lambda d, s, p, fan_in, _: math.sqrt(2.0 / (fan_in * (1.0 + p["a"] ** 2))) * d[0]),
    "kaiming_uniform": _Family(
        {"a": KAIMING_DEFAULT_A}, positive=("a",), draws=_UNIT,
        entry=lambda d, s, p, fan_in, _: math.sqrt(6.0 / (fan_in * (1.0 + p["a"] ** 2))) * (2.0 * d[0] - 1.0)),
    "xavier_normal": _Family(
        {"gain": 1.0}, positive=("gain",),
        entry=lambda d, s, p, fan_in, fan_out: p["gain"] * math.sqrt(2.0 / (fan_in + fan_out)) * d[0]),
    "xavier_uniform": _Family(
        {"gain": 1.0}, positive=("gain",), draws=_UNIT,
        entry=lambda d, s, p, fan_in, fan_out: p["gain"] * math.sqrt(6.0 / (fan_in + fan_out)) * (2.0 * d[0] - 1.0)),
    "spectral_radius": _Family(
        {"rho": 0.95}, check=(lambda p: 0.0 < p["rho"] <= 1.0, "parameter 'rho' must lie in (0, 1], got {rho}"),
        matrix=_spectral_radius),
    "cauchy": _Family(
        {"s": 0.1}, "s", draws=_UNIT, entry=lambda d, s, *_: s * np.clip(np.tan(np.pi * (d[0] - 0.5)), -10.0, 10.0)),
    "laplace": _Family({"b": 0.1}, "b", draws=_UNIT, entry=_laplace),
    "student_t": _Family(
        {"nu": 3, "scale": 1.0}, "scale",
        # one entry's nu+1 gaussians must fit a draw chunk
        check=(lambda p: int(p["nu"]) == p["nu"] and 1 <= p["nu"] <= DRAW_CHUNK - 1,
               f"parameter 'nu' must be an integer in [1, {DRAW_CHUNK - 1}] (nu + 1 draws per entry "
               f"must fit a draw chunk of {DRAW_CHUNK}), got {{nu}}"),
        draws=lambda p: (("gaussian", int(p["nu"]) + 1),), entry=_student_t),
    "gaussian_mixture": _Family(
        {"w1": 0.9, "sigma1": 0.05, "w2": 0.1, "sigma2": 0.5}, positive=("sigma1", "sigma2"),
        check=(lambda p: p["w1"] > 0 and p["w2"] > 0 and abs(p["w1"] + p["w2"] - 1.0) <= 1e-9,
               "weights 'w1'/'w2' must be positive and sum to 1"),
        draws=_UNIT_THEN_GAUSSIAN,  # the component choice, then the value
        entry=lambda d, s, p, *_: s * np.where(d[0] < p["w1"], p["sigma1"], p["sigma2"]) * d[1]),
    "sparse_normal": _SPARSE,
    "sparse_erdos_renyi": _SPARSE,
    "beta": _Family(
        {"alpha": 2.0, "beta": 2.0, "scale": 0.1}, "scale",
        check=(lambda p: p["alpha"] == 2.0 and p["beta"] == 2.0,
               "parameters 'alpha'/'beta' must both be 2 (only the symmetric Beta(2, 2) sampler is supported)"),
        draws=(("unit", 3),), entry=_beta),
    "exponential": _Family(
        {"lam": 10.0}, "lam", rate=True, draws=_UNIT, entry=lambda d, s, *_: s * (-np.log1p(-d[0]) - 1.0)),
    **{f"lowbit{bits}": _Family(
        {"bits": bits, "sigma": 1.0}, "sigma",
        check=(lambda p: p["bits"] in (1, 2, 4, 8, 16), "parameter 'bits' must be one of 1/2/4/8/16, got {bits}"),
        entry=lambda d, s, p, *_: _quantize(s * d[0], s, int(p["bits"]))) for bits in (16, 8, 4, 2)},
    "binary": _Family({"sigma": 1.0}, "sigma", entry=lambda d, s, *_: np.where(d[0] >= 0.0, s, -s)),
}

FAMILY_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class InitFamily:
    """One of the 22 backbone initialization families."""

    name: str
    params: dict = field(default_factory=dict)
    scaling: str | None = None  # resolved in __post_init__

    def __post_init__(self):
        spec = _FAMILIES.get(self.name) if isinstance(self.name, str) else None
        if spec is None:
            raise ConfigError(f"unknown init family {self.name!r}; expected one of {sorted(FAMILY_NAMES)}")
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"family {self.name!r}: params must be a mapping, got {self.params!r}")
        p = dict(spec.defaults)
        for key, value in self.params.items():
            if key not in p:
                raise ConfigError(f"family {self.name!r} has no parameter {key!r}")
            p[key] = value
        object.__setattr__(self, "params", p)
        scaling = self.scaling
        if scaling is None:
            scaling = "fan_in" if spec.scale == "sigma" else "explicit"
        if scaling not in SCALINGS:
            raise ConfigError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
        object.__setattr__(self, "scaling", scaling)
        # checked, never coerced: the header records the params as given
        for key, value in p.items():
            if not finite(value):
                raise ConfigError(f"family {self.name!r}: parameter {key!r} must be a finite number, "
                                  f"got {shown(value)}")
        for key in filter(None, (spec.scale, *spec.positive)):
            if not p[key] > 0:
                raise ConfigError(f"family {self.name!r}: parameter {key!r} must be > 0, got {p[key]}")
        if spec.check is not None and not spec.check[0](p):
            raise ConfigError(f"family {self.name!r}: " + spec.check[1].format(**p))

    @staticmethod
    def from_dict(d: dict) -> "InitFamily":
        return InitFamily(d["name"], d.get("params", {}), d.get("scaling"))


@dataclass(frozen=True)
class BackboneMatrix:
    """A frozen ``[d_out, d_in]`` matrix, marked read-only.  ``data`` is its
    only field, so its shape is read there; ``LottaLayer.set_backbone``
    holds it to the layer's widths."""

    data: np.ndarray  # f32, read-only

    def __post_init__(self):
        self.data.setflags(write=False)


def _scale_knob(fam: InitFamily, fan_in: int) -> float:
    """Effective scale multiplier for scale-driven families."""
    if fam.scaling == "fan_in":
        return 1.0 / math.sqrt(fan_in)
    spec = _FAMILIES[fam.name]
    if spec.scale is None:
        return 1.0
    return 1.0 / fam.params[spec.scale] if spec.rate else fam.params[spec.scale]


def _entry_draws(fam: InitFamily) -> tuple:
    draws = _FAMILIES[fam.name].draws
    return draws(fam.params) if callable(draws) else draws


def _fill_entries(stream: Stream, fam: InitFamily, out: np.ndarray, fan_in: int, fan_out: int) -> None:
    """Set the flat array ``out`` to the family's next ``len(out)`` entries.

    Each block of ``_entry_draws(fam)`` reads from its own cursor, placed
    with ``Stream.skip`` where a whole-block draw of it would start: every
    block before a family's last is a unit block, so the skip is its count
    of unit draws.  The last cursor is ``stream`` itself, so it ends where
    the whole draw would.  Chunk by chunk, the cursors' draws run through
    the family rule in float64 and are cast into ``out``.  The rule is
    elementwise and each block continues where the last stopped, so the
    chunks give the bits of one whole-block draw, while only a chunk's
    draws are live at a time.
    """
    n = len(out)
    rule = _FAMILIES[fam.name].entry
    s = _scale_knob(fam, fan_in)
    plan = _entry_draws(fam)
    cursors = []
    for _, per_entry in plan[:-1]:
        cursors.append(stream.copy())
        stream.skip(per_entry * n)
    cursors.append(stream)
    step = max(1, DRAW_CHUNK // sum(per_entry for _, per_entry in plan))
    for lo in range(0, n, step):
        k = min(step, n - lo)
        draws = [
            cursor.unit_block(per_entry * k) if kind == "unit" else cursor.gaussian_block(per_entry * k)
            for cursor, (kind, per_entry) in zip(cursors, plan)
        ]
        out[lo:lo + k] = rule(draws, s, fam.params, fan_in, fan_out)


def draw_matrix(stream: Stream, fam: InitFamily, rows: int, cols: int) -> BackboneMatrix:
    """Generate a rows x cols frozen matrix; cols is the layer fan-in."""
    if not (integral(rows) and integral(cols)):
        raise ConfigError(f"matrix dims must be integers, got {shown(rows)}x{shown(cols)}")
    if rows < 1 or cols < 1:
        raise ConfigError(f"matrix dims must be >= 1, got {shown(rows)}x{shown(cols)}")
    matrix = _FAMILIES[fam.name].matrix
    if matrix is not None:
        data = matrix(stream, fam.params, rows, cols).astype(np.float32, copy=False)
    else:
        data = np.empty((rows, cols), dtype=np.float32)
        _fill_entries(stream, fam, data.reshape(-1), cols, rows)
    return BackboneMatrix(data)

