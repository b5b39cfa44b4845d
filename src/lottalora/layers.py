"""The core layer: frozen random projection scaled by a trainable scalar,
plus a trainable low-rank correction path.

Forward rule per layer:  h_out = beta * (h W^T) + s * (h A^T B^T),
where W is the frozen backbone matrix [d_out, d_in], A is [r, d_in],
B is [d_out, r], and s = alpha/r (standard) or alpha/sqrt(r)
(rank-stabilized).  B starts at zero so a fresh layer computes exactly the
backbone projection; beta starts at 1.  Gradients reach A, B, beta (and
the optional combined-path LayerNorm affine) but never W.

Since only A, B, beta and the head learn, each layer's gradient is a fixed
rule, so layers are array-level: ``forward(h, cache)`` returns the output
array and, given a ``cache`` dict, keeps what ``backward(g, cache)``
needs; ``backward`` adds the trainables' gradients into their ``grad`` and
returns the input's gradient.  The rules keep the op order and dtypes of
the same layer built from the generic tape ops in ``numerics``, so both
give the same bits; the tests hold them to that.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .initfam import BackboneMatrix
from .numerics import Tensor, add_grad, layernorm_backward, layernorm_forward, tensor
from .prng import Stream

SCALING_MODES = ("standard", "rank_stabilized")


@dataclass
class AdapterState:
    """Trainable low-rank state for one layer."""

    a: Tensor  # [rank, d_in]
    b: Tensor  # [d_out, rank]
    beta: Tensor  # scalar backbone gain
    alpha: float
    rank: int
    scaling_mode: str = "standard"

    @property
    def scale(self) -> float:
        if self.scaling_mode == "rank_stabilized":
            return self.alpha / math.sqrt(self.rank)
        return self.alpha / self.rank


def init_adapter(rank: int, d_in: int, d_out: int, alpha: float, mode: str, stream: Stream,
                 b_init: str = "zeros") -> AdapterState:
    """Fresh adapter: A Kaiming-uniform, B zero (default), beta = 1.

    ``b_init="kaiming"`` breaks the symmetry instead; required for the
    zero-scaffold ablation, where a zero B makes the whole network a
    gradient fixed point.  B draws follow A on the same stream.
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if mode not in SCALING_MODES:
        raise ConfigError(f"scaling_mode must be one of {SCALING_MODES}, got {mode!r}")
    if b_init not in ("zeros", "kaiming"):
        raise ConfigError(f"b_init must be 'zeros' or 'kaiming', got {b_init!r}")
    bound = math.sqrt(6.0 / (d_in * (1.0 + 5.0)))  # Kaiming uniform, a = sqrt(5)
    a_data = bound * (2.0 * stream.unit_block(rank * d_in).reshape(rank, d_in) - 1.0)
    if b_init == "kaiming":
        b_bound = math.sqrt(6.0 / (rank * (1.0 + 5.0)))  # fan-in of B is the rank
        b_data = b_bound * (2.0 * stream.unit_block(d_out * rank).reshape(d_out, rank) - 1.0)
    else:
        b_data = np.zeros((d_out, rank))
    return AdapterState(
        a=tensor(a_data, requires_grad=True),
        b=tensor(b_data, requires_grad=True),
        beta=tensor(np.asarray(1.0), requires_grad=True),
        alpha=alpha,
        rank=rank,
        scaling_mode=mode,
    )


class LottaLayer:
    """Frozen backbone + adapter, with an optional combined-path LayerNorm.

    ``frozen_bias`` is a fixed random offset (never trained, not counted):
    the frozen remnant of a standard dense layer's bias.  It sits outside
    both the backbone and adapter paths, so it is untouched by beta and
    absent from the effective weight.

    ``backbone`` is either a ``BackboneMatrix`` or a deferred draw: a
    zero-argument callable returning ``(matrix, frozen_bias)``.  A deferred
    draw runs on the first read of ``backbone`` or ``frozen_bias`` (or on
    ``materialize``); ``set_backbone`` drops it unread.
    """

    def __init__(self, backbone: BackboneMatrix | Callable[[], tuple], adapter: AdapterState,
                 use_layernorm: bool = False, frozen_bias: np.ndarray | None = None):
        self.adapter = adapter
        self.d_in = adapter.a.shape[1]
        self.d_out = adapter.b.shape[0]
        self._pending = None
        if callable(backbone):
            self._pending = backbone
            self._backbone = self._frozen_bias = None
        else:
            self._store(backbone, frozen_bias)
        self.ln_gamma = None
        self.ln_bias = None
        if use_layernorm:
            self.ln_gamma = tensor(np.ones(self.d_out), requires_grad=True)
            self.ln_bias = tensor(np.zeros(self.d_out), requires_grad=True)

    def _store(self, backbone: BackboneMatrix, frozen_bias: np.ndarray | None) -> None:
        if (backbone.rows, backbone.cols) != (self.d_out, self.d_in):
            raise DimensionError(
                f"backbone {backbone.rows}x{backbone.cols} does not match the adapter's "
                f"{self.d_out}x{self.d_in}"
            )
        if frozen_bias is not None:
            if frozen_bias.shape != (self.d_out,):
                raise DimensionError(f"frozen bias must have shape ({self.d_out},), got {frozen_bias.shape}")
            frozen_bias.setflags(write=False)
        self._backbone = backbone
        self._frozen_bias = frozen_bias

    def materialize(self) -> None:
        """Run the deferred draw, if one is pending."""
        if self._pending is not None:
            draw, self._pending = self._pending, None
            self._store(*draw())

    @property
    def backbone(self) -> BackboneMatrix:
        self.materialize()
        return self._backbone

    @property
    def frozen_bias(self) -> np.ndarray | None:
        self.materialize()
        return self._frozen_bias

    def drop_backbone(self) -> None:
        """Release the frozen matrix and bias, and any pending draw, so a
        redraw does not hold the old state next to its successor."""
        self._pending = None
        self._backbone = self._frozen_bias = None

    def set_backbone(self, backbone: BackboneMatrix, frozen_bias: np.ndarray | None = None) -> None:
        """Replace the frozen matrix and bias (resampling / seed gating);
        ``frozen_bias=None`` leaves the layer without one.  Both are kept
        as given, dtype included, and marked read-only.  A pending
        deferred draw is dropped without being computed."""
        self._pending = None
        self._store(backbone, frozen_bias)

    def forward(self, h: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """Pre-activation output; LayerNorm (when enabled) wraps the sum.

        With a ``cache`` dict, keeps the input and the two unscaled path
        products for ``backward``.
        """
        if h.ndim != 2 or h.shape[1] != self.d_in:
            raise DimensionError(f"layer input {h.shape} does not match d_in {self.d_in}")
        adapter = self.adapter
        backbone_path = h @ self.backbone.data.T
        low = h @ adapter.a.data.T
        out = low @ adapter.b.data.T
        out *= adapter.scale
        if cache is None:
            backbone_path *= adapter.beta.data
        else:
            cache.update(h=h, backbone_path=backbone_path, low=low)
            backbone_path = backbone_path * adapter.beta.data
        out += backbone_path
        if self.frozen_bias is not None:
            out += self.frozen_bias
        if self.ln_gamma is not None:
            out, xhat, inv = layernorm_forward(out, self.ln_gamma.data, self.ln_bias.data)
            if cache is not None:
                cache.update(xhat=xhat, inv=inv)
        return out

    def backward(self, g: np.ndarray, cache: dict, need_dx: bool = True) -> np.ndarray | None:
        """Add the gradients of A, B, beta (and the LayerNorm affine) for the
        output gradient ``g``; return the input's gradient if ``need_dx``."""
        adapter = self.adapter
        if self.ln_gamma is not None:
            dx, dgamma, dbias = layernorm_backward(g, cache["xhat"], cache["inv"], self.ln_gamma.data)
            add_grad(self.ln_gamma, dgamma)
            add_grad(self.ln_bias, dbias)
            g = dx.astype(g.dtype)
        add_grad(adapter.beta, np.asarray(np.sum(cache["backbone_path"] * g, dtype=np.float64)))
        g_out = adapter.scale * g
        g_low = g_out @ adapter.b.data
        add_grad(adapter.b, g_out.T @ cache["low"])
        add_grad(adapter.a, g_low.T @ cache["h"])
        if not need_dx:
            return None
        dh = (adapter.beta.data * g) @ self.backbone.data
        dh += g_low @ adapter.a.data
        return dh

    def trainable(self) -> list[tuple[str, Tensor]]:
        named = [("A", self.adapter.a), ("B", self.adapter.b), ("beta", self.adapter.beta)]
        if self.ln_gamma is not None:
            named += [("ln_gamma", self.ln_gamma), ("ln_bias", self.ln_bias)]
        return named

    def effective_weight(self) -> np.ndarray:
        """Merged matrix beta*W + s*(B @ A) in f64 (LayerNorm not applied)."""
        w = self.backbone.data.astype(np.float64)
        ba = self.adapter.b.data.astype(np.float64) @ self.adapter.a.data.astype(np.float64)
        return float(self.adapter.beta.data) * w + self.adapter.scale * ba


class DenseLayer:
    """Fully trainable linear layer with bias (full-training mode, heads)."""

    def __init__(self, d_in: int, d_out: int, stream: Stream):
        bound = math.sqrt(6.0 / (d_in * (1.0 + 5.0)))
        w_data = bound * (2.0 * stream.unit_block(d_out * d_in).reshape(d_out, d_in) - 1.0)
        self.w = tensor(w_data, requires_grad=True)
        self.b = tensor(np.zeros(d_out), requires_grad=True)
        self.d_in = d_in
        self.d_out = d_out

    def forward(self, h: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """h W^T + bias; with a ``cache`` dict, keeps ``h`` for ``backward``."""
        if h.ndim != 2 or h.shape[1] != self.d_in:
            raise DimensionError(f"layer input {h.shape} does not match d_in {self.d_in}")
        out = h @ self.w.data.T
        out += self.b.data
        if cache is not None:
            cache["h"] = h
        return out

    def backward(self, g: np.ndarray, cache: dict, need_dx: bool = True) -> np.ndarray | None:
        """Add the gradients of W and bias; return the input's gradient if ``need_dx``."""
        add_grad(self.b, g.sum(axis=0, dtype=np.float64))
        add_grad(self.w, g.T @ cache["h"])
        return g @ self.w.data if need_dx else None

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [("W", self.w), ("bias", self.b)]


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
