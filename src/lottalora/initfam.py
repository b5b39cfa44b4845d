"""Frozen backbone generation under 22 initialization families.

A family is identified by a lowercase-snake tag plus a small parameter
dict.  Entries are drawn row-major from a single stream so a matrix is a
pure function of (stream state, family, shape); the f32 result is marked
read-only and never mutated afterwards.

Scaling modes:
  * ``fan_in``  -- the family's scale knob is replaced by 1/sqrt(d_in).
    This is the default for the sigma-driven families (normal variants,
    sparse, quantized, binary), whose nominal sigma is just a placeholder.
  * ``explicit`` -- parameters are used exactly as given.  Default for
    families whose tabulated parameters are absolute (uniform a=0.1,
    cauchy s=0.1, laplace b=0.1, exponential lambda=10, beta range 0.1,
    the gaussian mixture) and a no-op for families that compute their own
    variance from the dims (kaiming/xavier/orthogonal/spectral_radius).

Per-entry stream consumption is fixed per family (e.g. sparse families
always burn one uniform for the mask and one gaussian for the value, even
when the entry is zeroed) so that an entry's value depends only on its
flat index.  ``_ENTRY_DRAWS`` is that consumption and the v1 stream-order
contract: for n entries, a block of each listed kind in turn (sparse
draws all n uniforms, then all n gaussians).  Both the draw and the
deferred build's ``Stream.skip`` over ``draw_plan`` follow it.

An entrywise draw never holds the whole block in float64: each kind
reads from its own cursor, placed where its block would start, and
chunks of about 16K draws run through the family rule straight into the
float32 result.  Its peak is the result plus one chunk's scratch.  The
matrix-level families (orthogonal, spectral_radius) need the whole
float64 matrix for LAPACK, and scale it in place.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError
from .prng import DRAW_CHUNK, Stream

KAIMING_DEFAULT_A = math.sqrt(5.0)

# the parameter that sets a scale-driven family's spread (exponential's is
# the rate lam, so its scale is 1/lam; the gaussian mixture has none).
# fan_in scaling replaces it by 1/sqrt(d_in), and is the default for the
# families whose parameter is sigma, a placeholder nominal value.
_SCALE_PARAM: dict[str, str | None] = {
    "normal": "sigma",
    "truncated_normal": "sigma",
    "uniform": "a",
    "cauchy": "s",
    "laplace": "b",
    "student_t": "scale",
    "gaussian_mixture": None,
    "sparse_normal": "sigma",
    "sparse_erdos_renyi": "sigma",
    "beta": "scale",
    "exponential": "lam",
    "lowbit16": "sigma",
    "lowbit8": "sigma",
    "lowbit4": "sigma",
    "lowbit2": "sigma",
    "binary": "sigma",
}

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "normal": {"sigma": 1.0},
    "truncated_normal": {"sigma": 1.0},
    "uniform": {"a": 0.1},
    "orthogonal": {"gain": 1.0},
    "kaiming_normal": {"a": KAIMING_DEFAULT_A},
    "kaiming_uniform": {"a": KAIMING_DEFAULT_A},
    "xavier_normal": {"gain": 1.0},
    "xavier_uniform": {"gain": 1.0},
    "spectral_radius": {"rho": 0.95},
    "cauchy": {"s": 0.1},
    "laplace": {"b": 0.1},
    "student_t": {"nu": 3, "scale": 1.0},
    "gaussian_mixture": {"w1": 0.9, "sigma1": 0.05, "w2": 0.1, "sigma2": 0.5},
    "sparse_normal": {"p": 0.2, "sigma": 1.0},
    "sparse_erdos_renyi": {"p": 0.2, "sigma": 1.0},
    "beta": {"alpha": 2.0, "beta": 2.0, "scale": 0.1},
    "exponential": {"lam": 10.0},
    "lowbit16": {"bits": 16, "sigma": 1.0},
    "lowbit8": {"bits": 8, "sigma": 1.0},
    "lowbit4": {"bits": 4, "sigma": 1.0},
    "lowbit2": {"bits": 2, "sigma": 1.0},
    "binary": {"sigma": 1.0},
}

FAMILY_NAMES = tuple(_DEFAULT_PARAMS)


@dataclass(frozen=True)
class InitFamily:
    """One of the 22 backbone initialization families."""

    name: str
    params: dict = field(default_factory=dict)
    scaling: str | None = None  # resolved in __post_init__

    def __post_init__(self):
        if self.name not in _DEFAULT_PARAMS:
            raise ConfigError(
                f"unknown init family {self.name!r}; expected one of {sorted(FAMILY_NAMES)}"
            )
        merged = dict(_DEFAULT_PARAMS[self.name])
        for key, value in self.params.items():
            if key not in merged:
                raise ConfigError(f"family {self.name!r} has no parameter {key!r}")
            merged[key] = value
        object.__setattr__(self, "params", merged)
        scaling = self.scaling
        if scaling is None:
            scaling = "fan_in" if _SCALE_PARAM.get(self.name) == "sigma" else "explicit"
        if scaling not in ("fan_in", "explicit"):
            raise ConfigError(f"scaling must be 'fan_in' or 'explicit', got {scaling!r}")
        object.__setattr__(self, "scaling", scaling)
        _validate_params(self.name, self.params)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "InitFamily":
        return InitFamily(d["name"], dict(d.get("params", {})), d.get("scaling"))


def _validate_params(name: str, p: dict) -> None:
    def positive(key):
        if not p[key] > 0:
            raise ConfigError(f"family {name!r}: parameter {key!r} must be > 0, got {p[key]}")

    if name in ("normal", "truncated_normal", "binary") or name.startswith("lowbit"):
        positive("sigma")
    if name.startswith("lowbit"):
        if p["bits"] not in (1, 2, 4, 8, 16):
            raise ConfigError(f"family {name!r}: parameter 'bits' must be one of 1/2/4/8/16, got {p['bits']}")
    if name == "uniform":
        positive("a")
    if name in ("orthogonal", "xavier_normal", "xavier_uniform"):
        positive("gain")
    if name in ("kaiming_normal", "kaiming_uniform"):
        positive("a")
    if name == "spectral_radius":
        if not 0.0 < p["rho"] <= 1.0:
            raise ConfigError(f"family {name!r}: parameter 'rho' must lie in (0, 1], got {p['rho']}")
    if name == "cauchy":
        positive("s")
    if name == "laplace":
        positive("b")
    if name == "student_t":
        if int(p["nu"]) != p["nu"] or p["nu"] < 1:
            raise ConfigError(f"family {name!r}: parameter 'nu' must be a positive integer, got {p['nu']}")
        positive("scale")
    if name == "gaussian_mixture":
        if p["w1"] <= 0 or p["w2"] <= 0 or abs(p["w1"] + p["w2"] - 1.0) > 1e-9:
            raise ConfigError(f"family {name!r}: weights 'w1'/'w2' must be positive and sum to 1")
        positive("sigma1")
        positive("sigma2")
    if name in ("sparse_normal", "sparse_erdos_renyi"):
        if not 0.0 <= p["p"] < 1.0:
            raise ConfigError(f"family {name!r}: parameter 'p' must lie in [0, 1), got {p['p']}")
        positive("sigma")
    if name == "beta":
        if p["alpha"] != 2.0 or p["beta"] != 2.0:
            raise ConfigError(
                f"family {name!r}: parameters 'alpha'/'beta' must both be 2 "
                "(only the symmetric Beta(2, 2) sampler is supported)"
            )
        positive("scale")
    if name == "exponential":
        positive("lam")


@dataclass(frozen=True)
class BackboneMatrix:
    """A frozen matrix; its data is marked read-only."""

    rows: int
    cols: int
    data: np.ndarray  # f32, read-only

    def __post_init__(self):
        self.data.setflags(write=False)


def _scale_knob(fam: InitFamily, fan_in: int) -> float:
    """Effective scale multiplier for scale-driven families."""
    if fam.scaling == "fan_in":
        return 1.0 / math.sqrt(fan_in)
    key = _SCALE_PARAM[fam.name]
    if key is None:
        return 1.0
    return 1.0 / fam.params[key] if key == "lam" else fam.params[key]


def _quantize(x: np.ndarray, sigma: float, bits: int) -> np.ndarray:
    # symmetric uniform grid of 2**bits level centers over [-3s, 3s]
    levels = 1 << bits
    half = 3.0 * sigma
    width = 2.0 * half / levels
    idx = np.floor((np.clip(x, -half, half) + half) / width)
    np.clip(idx, 0, levels - 1, out=idx)
    return -half + (idx + 0.5) * width


# per-entry draws of each family, in stream order: (kind, draws per entry).
# This is the v1 stream-order contract: a whole-block draw of the first
# kind for all n entries, then of the next.  The matrix-level families
# draw one gaussian per entry, and student_t takes nu+1 (_entry_draws).
_ENTRY_DRAWS: dict[str, tuple] = {
    **{name: (("gaussian", 1),) for name in (
        "normal", "truncated_normal", "orthogonal", "kaiming_normal", "xavier_normal", "spectral_radius",
        "lowbit16", "lowbit8", "lowbit4", "lowbit2", "binary")},
    **{name: (("unit", 1),) for name in (
        "uniform", "kaiming_uniform", "xavier_uniform", "cauchy", "laplace", "exponential")},
    **{name: (("unit", 1), ("gaussian", 1)) for name in (
        "gaussian_mixture", "sparse_normal", "sparse_erdos_renyi")},
    "beta": (("unit", 3),),
}


def _entry_draws(fam: InitFamily) -> tuple:
    if fam.name == "student_t":
        return (("gaussian", int(fam.params["nu"]) + 1),)
    return _ENTRY_DRAWS[fam.name]


def _entry_values(fam: InitFamily, draws: list, fan_in: int, fan_out: int) -> np.ndarray:
    """A chunk of k entries (f64) from its draws, one array per kind of
    ``_entry_draws(fam)`` holding k times that kind's draws per entry."""
    name = fam.name
    p = fam.params
    if name in ("kaiming_normal", "xavier_normal"):
        if name == "kaiming_normal":
            sigma = math.sqrt(2.0 / (fan_in * (1.0 + p["a"] ** 2)))
        else:
            sigma = p["gain"] * math.sqrt(2.0 / (fan_in + fan_out))
        return sigma * draws[0]
    if name in ("kaiming_uniform", "xavier_uniform"):
        if name == "kaiming_uniform":
            bound = math.sqrt(6.0 / (fan_in * (1.0 + p["a"] ** 2)))
        else:
            bound = p["gain"] * math.sqrt(6.0 / (fan_in + fan_out))
        return bound * (2.0 * draws[0] - 1.0)

    s = _scale_knob(fam, fan_in)
    if name == "normal":
        return s * draws[0]
    if name == "truncated_normal":
        return s * np.clip(draws[0], -2.0, 2.0)
    if name == "uniform":
        return s * (2.0 * draws[0] - 1.0)
    if name == "cauchy":
        raw = np.tan(np.pi * (draws[0] - 0.5))
        return s * np.clip(raw, -10.0, 10.0)
    if name == "laplace":
        u = np.maximum(draws[0], 2.0 ** -53)
        return s * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    if name == "student_t":
        # entry i is z_i / sqrt(chi2_i / nu) from its nu+1 gaussians
        nu = int(p["nu"])
        g = draws[0].reshape(-1, nu + 1)
        chi2 = np.sum(g[:, 1:] ** 2, axis=1)
        return s * g[:, 0] / np.sqrt(chi2 / nu)
    if name == "gaussian_mixture":
        u, g = draws  # component choice, then value
        sigmas = np.where(u < p["w1"], p["sigma1"], p["sigma2"])
        return s * sigmas * g
    if name in ("sparse_normal", "sparse_erdos_renyi"):
        u, g = draws
        return np.where(u < p["p"], 0.0, s * g)
    if name == "beta":
        # the median of 3 uniforms is Beta(2, 2); min/max select it exactly
        # as np.median would, without its sorted copy of the draws
        a, b, c = draws[0].reshape(-1, 3).T
        med = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        return s * (2.0 * med - 1.0)
    if name == "exponential":
        e = -np.log1p(-draws[0])
        return s * (e - 1.0)
    if name.startswith("lowbit"):
        return _quantize(s * draws[0], s, int(p["bits"]))
    if name == "binary":
        return np.where(draws[0] >= 0.0, s, -s)
    raise ConfigError(f"family {name!r} is not entrywise")


def _fill_entries(stream: Stream, fam: InitFamily, out: np.ndarray, fan_in: int, fan_out: int) -> None:
    """Set the flat array ``out`` to the family's next ``len(out)`` entries.

    Each kind of ``_entry_draws(fam)`` reads from its own cursor, placed
    with ``Stream.skip`` where a whole-block draw of that kind would start;
    the last cursor is ``stream`` itself, so it ends where the whole draw
    would.  Chunk by chunk, the cursors' draws run through the family rule
    in float64 and are cast into ``out``.  The rule is elementwise and each
    block continues where the last stopped, so the chunks give the bits of
    one whole-block draw, while only a chunk's draws are live at a time.
    """
    n = len(out)
    plan = _entry_draws(fam)
    cursors = []
    for kind, per_entry in plan[:-1]:
        cursors.append(stream.copy())
        stream.skip(kind, per_entry * n)
    cursors.append(stream)
    step = max(1, DRAW_CHUNK // sum(per_entry for _, per_entry in plan))
    for lo in range(0, n, step):
        k = min(step, n - lo)
        draws = [
            cursor.unit_block(per_entry * k) if kind == "unit" else cursor.gaussian_block(per_entry * k)
            for cursor, (kind, per_entry) in zip(cursors, plan)
        ]
        out[lo:lo + k] = _entry_values(fam, draws, fan_in, fan_out)


def _orthogonal_matrix(stream: Stream, gain: float, rows: int, cols: int) -> np.ndarray:
    # QR of a gaussian matrix, sign-corrected so the factorization is unique;
    # for wide matrices the transpose is drawn and transposed back
    transpose = rows < cols
    r_, c_ = (cols, rows) if transpose else (rows, cols)
    q, r = np.linalg.qr(stream.gaussian_block(r_ * c_).reshape(r_, c_))
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    q *= sign
    q *= gain
    return q.T if transpose else q


def draw_matrix(stream: Stream, fam: InitFamily, rows: int, cols: int) -> BackboneMatrix:
    """Generate a rows x cols frozen matrix; cols is the layer fan-in."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"matrix dims must be >= 1, got {rows}x{cols}")
    if fam.name == "orthogonal":
        data = _orthogonal_matrix(stream, fam.params["gain"], rows, cols).astype(np.float32)
    elif fam.name == "spectral_radius":
        g = stream.gaussian_block(rows * cols).reshape(rows, cols)
        sigma1 = np.linalg.svd(g, compute_uv=False)[0]
        data = np.multiply(g, fam.params["rho"] / sigma1, out=g).astype(np.float32)
    else:
        data = np.empty((rows, cols), dtype=np.float32)
        _fill_entries(stream, fam, data.reshape(-1), cols, rows)
    return BackboneMatrix(rows=rows, cols=cols, data=data)


def draw_plan(fam: InitFamily, rows: int, cols: int) -> list[tuple[str, int]]:
    """The ``(kind, count)`` block draws ``draw_matrix`` makes for this
    family and shape, in order; ``Stream.skip`` over them leaves a stream
    where the draw would."""
    return [(kind, per_entry * rows * cols) for kind, per_entry in _entry_draws(fam)]


def family_moments(fam: InitFamily, n_samples: int, stream: Stream, fan_in: int = 1, fan_out: int = 1):
    """Empirical (mean, variance) of the entry distribution.

    Validation helper for comparing against analytic moments.  Families
    defined at the matrix level (orthogonal, spectral_radius) are sampled
    as one square matrix large enough to cover n_samples entries.
    """
    if n_samples < 10_000:
        raise ConfigError(f"n_samples must be >= 10000, got {n_samples}")
    if fam.name in ("orthogonal", "spectral_radius"):
        side = math.ceil(math.sqrt(n_samples))
        entries = draw_matrix(stream, fam, side, side).data.astype(np.float64).ravel()[:n_samples]
    else:
        entries = np.empty(n_samples, dtype=np.float64)
        _fill_entries(stream, fam, entries, fan_in, fan_out)
    return float(entries.mean()), float(entries.var())
