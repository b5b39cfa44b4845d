"""Reference computations that only the tests use: power-iteration
spectral norm, a layer's merged weight, the random-matrix sigma_1
prediction and empirical init-family moments.  The package never calls
them, so they live beside the tests that check against them."""

from __future__ import annotations

import math

import numpy as np

from lottalora.errors import ConfigError
from lottalora.initfam import _FAMILIES, InitFamily, _fill_entries, draw_matrix
from lottalora.layers import LottaLayer
from lottalora.prng import Stream


def spectral_norm(w: np.ndarray, iters: int = 100) -> float:
    """Largest singular value by power iteration on W^T W.

    Deterministic start vector; returns 0.0 for an all-zero matrix.
    Relative error vs a full SVD is well under 1e-3 for the matrix sizes
    used here.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.any(w):
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(w.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(iters):
        u = w @ v
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return 0.0
        v = w.T @ (u / norm_u)
        sigma = np.linalg.norm(v)
        v /= sigma
        if abs(sigma - last) <= 1e-13 * max(sigma, 1.0):
            break
        last = sigma
    return float(np.linalg.norm(w @ v))


def effective_weight(layer: LottaLayer) -> np.ndarray:
    """Merged matrix beta*W + s*(B @ A) in f64 (LayerNorm not applied)."""
    w = layer.backbone.data.astype(np.float64)
    ba = layer.b.data.astype(np.float64) @ layer.a.data.astype(np.float64)
    return float(layer.beta.data) * w + layer.scale * ba


def rmt_sigma1(d: int, sigma_init: float) -> float:
    """Random-matrix prediction for the largest singular value of a d x d
    gaussian matrix with entry std sigma_init: 2 * sqrt(d) * sigma."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if sigma_init <= 0:
        raise ValueError(f"sigma_init must be > 0, got {sigma_init}")
    return 2.0 * (d ** 0.5) * sigma_init


def family_moments(fam: InitFamily, n_samples: int, stream: Stream, fan_in: int = 1, fan_out: int = 1):
    """Empirical (mean, variance) of the entry distribution.

    Validation helper for comparing against analytic moments.  Families
    defined at the matrix level (orthogonal, spectral_radius) are sampled
    as one square matrix large enough to cover n_samples entries.
    """
    if n_samples < 10_000:
        raise ConfigError(f"n_samples must be >= 10000, got {n_samples}")
    if _FAMILIES[fam.name].matrix is not None:
        side = math.ceil(math.sqrt(n_samples))
        entries = draw_matrix(stream, fam, side, side).data.astype(np.float64).ravel()[:n_samples]
    else:
        entries = np.empty(n_samples, dtype=np.float64)
        _fill_entries(stream, fam, entries, fan_in, fan_out)
    return float(entries.mean()), float(entries.var())
