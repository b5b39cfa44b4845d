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
flat index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .prng import Stream

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
        return {
            "name": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "scaling": self.scaling,
        }

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
    """A frozen matrix plus the provenance that regenerates it."""

    rows: int
    cols: int
    data: np.ndarray  # f32, read-only
    provenance: tuple | None = None

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


def _scaled_gaussians(stream: Stream, n: int, scale: float) -> np.ndarray:
    # scaled in place: the block is the largest array of a scaffold draw
    g = stream.gaussian_block(n)
    np.multiply(g, scale, out=g)
    return g


def _entrywise_sample(stream: Stream, fam: InitFamily, n: int, fan_in: int, fan_out: int) -> np.ndarray:
    """Draw n entries (f64) for any family that is entrywise i.i.d."""
    name = fam.name
    p = fam.params
    if name in ("kaiming_normal", "xavier_normal"):
        if name == "kaiming_normal":
            sigma = math.sqrt(2.0 / (fan_in * (1.0 + p["a"] ** 2)))
        else:
            sigma = p["gain"] * math.sqrt(2.0 / (fan_in + fan_out))
        return _scaled_gaussians(stream, n, sigma)
    if name in ("kaiming_uniform", "xavier_uniform"):
        if name == "kaiming_uniform":
            bound = math.sqrt(6.0 / (fan_in * (1.0 + p["a"] ** 2)))
        else:
            bound = p["gain"] * math.sqrt(6.0 / (fan_in + fan_out))
        return bound * (2.0 * stream.unit_block(n) - 1.0)

    s = _scale_knob(fam, fan_in)
    if name == "normal":
        return _scaled_gaussians(stream, n, s)
    if name == "truncated_normal":
        return s * np.clip(stream.gaussian_block(n), -2.0, 2.0)
    if name == "uniform":
        return s * (2.0 * stream.unit_block(n) - 1.0)
    if name == "cauchy":
        raw = np.tan(np.pi * (stream.unit_block(n) - 0.5))
        return s * np.clip(raw, -10.0, 10.0)
    if name == "laplace":
        u = np.maximum(stream.unit_block(n), 2.0 ** -53)
        return s * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    if name == "student_t":
        nu = int(p["nu"])
        g = stream.gaussian_block(n * (nu + 1)).reshape(n, nu + 1)
        chi2 = np.sum(g[:, 1:] ** 2, axis=1)
        return s * g[:, 0] / np.sqrt(chi2 / nu)
    if name == "gaussian_mixture":
        u = stream.unit_block(n)  # component choice first, then value
        g = stream.gaussian_block(n)
        sigmas = np.where(u < p["w1"], p["sigma1"], p["sigma2"])
        return s * sigmas * g
    if name in ("sparse_normal", "sparse_erdos_renyi"):
        u = stream.unit_block(n)
        g = stream.gaussian_block(n)
        return np.where(u < p["p"], 0.0, s * g)
    if name == "beta":
        # the median of 3 uniforms is Beta(2, 2); min/max select it exactly
        # as np.median would, without its sorted copy of all 3n draws
        a, b, c = stream.unit_block(3 * n).reshape(n, 3).T
        med = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        return s * (2.0 * med - 1.0)
    if name == "exponential":
        e = -np.log1p(-stream.unit_block(n))
        return s * (e - 1.0)
    if name.startswith("lowbit"):
        return _quantize(s * stream.gaussian_block(n), s, int(p["bits"]))
    if name == "binary":
        return np.where(stream.gaussian_block(n) >= 0.0, s, -s)
    raise ConfigError(f"family {name!r} is not entrywise")


def _orthogonal_matrix(stream: Stream, gain: float, rows: int, cols: int) -> np.ndarray:
    # QR of a gaussian matrix, sign-corrected so the factorization is unique;
    # for wide matrices the transpose is drawn and transposed back
    transpose = rows < cols
    r_, c_ = (cols, rows) if transpose else (rows, cols)
    g = stream.gaussian_block(r_ * c_).reshape(r_, c_)
    q, r = np.linalg.qr(g)
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    q = q * sign[np.newaxis, :]
    if transpose:
        q = q.T
    return gain * q


def draw_matrix(stream: Stream, fam: InitFamily, rows: int, cols: int, provenance: tuple | None = None) -> BackboneMatrix:
    """Generate a rows x cols frozen matrix; cols is the layer fan-in."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"matrix dims must be >= 1, got {rows}x{cols}")
    if fam.name == "orthogonal":
        data = _orthogonal_matrix(stream, fam.params["gain"], rows, cols)
    elif fam.name == "spectral_radius":
        g = stream.gaussian_block(rows * cols).reshape(rows, cols)
        sigma1 = np.linalg.svd(g, compute_uv=False)[0]
        data = (fam.params["rho"] / sigma1) * g
    else:
        data = _entrywise_sample(stream, fam, rows * cols, cols, rows).reshape(rows, cols)
    return BackboneMatrix(rows=rows, cols=cols, data=data.astype(np.float32), provenance=provenance)


# per-entry draws of the entrywise families, in stream order:
# (kind, draws per entry); the matrix-level families draw one gaussian per entry
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


def draw_plan(fam: InitFamily, rows: int, cols: int) -> list[tuple[str, int]]:
    """The ``(kind, count)`` block draws ``draw_matrix`` makes for this
    family and shape, in order; ``Stream.skip`` over them leaves a stream
    where the draw would."""
    n = rows * cols
    if fam.name == "student_t":
        return [("gaussian", n * (int(fam.params["nu"]) + 1))]
    return [(kind, per_entry * n) for kind, per_entry in _ENTRY_DRAWS[fam.name]]


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
        entries = _entrywise_sample(stream, fam, n_samples, fan_in, fan_out)
    return float(entries.mean()), float(entries.var())
