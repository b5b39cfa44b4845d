"""The core layer: frozen random projection scaled by a trainable scalar,
plus a trainable low-rank correction path.

Forward rule per layer:  h_out = beta * (h W^T) + s * (h A^T B^T) + c + d,
where W is the frozen backbone matrix [d_out, d_in], A is [r, d_in],
B is [d_out, r], s = alpha/r (standard) or alpha/sqrt(r) (rank-stabilized),
c the frozen offset, if any, and d the trainable offset of a ``lora_bias``
head.  An optional LayerNorm wraps the sum.  A ``LottaLayer`` holds its own
A, B, beta, s (a number fixed at build) and d.  B starts at zero so a fresh
layer computes exactly the backbone projection plus c; beta starts at 1 and
d at 0.  Gradients reach A, B, beta, d and the LayerNorm affine, never W or c.

Since only these and the dense layers learn, each layer's gradient is a
fixed rule, so layers are array-level: ``forward(h, cache)`` returns the
output array and, given a ``cache`` dict, keeps what
``backward(g, cache, grads)`` needs; ``backward`` adds the trainables'
gradients into ``grads``, arrays its caller owns, one per trainable in
``trainable()`` order, and returns the input's gradient.  The rules keep
the op order and dtypes of the same layer built from the generic tape
ops in ``numerics``, so both give the same bits; the tests hold them to
that.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError, integer
from .initfam import BackboneMatrix
from .numerics import Tensor, add_grad, layernorm_backward, layernorm_forward, tensor
from .prng import Stream

B_INITS = ("zeros", "kaiming")


def kaiming_uniform(stream: Stream, d_out: int, d_in: int) -> np.ndarray:
    """A [d_out, d_in] float64 matrix of Kaiming-uniform draws (a = sqrt(5),
    as torch's nn.Linear): ``bound * (2u - 1)`` with bound sqrt(1 / d_in)."""
    bound = math.sqrt(6.0 / (d_in * (1.0 + 5.0)))
    return bound * (2.0 * stream.unit_block(d_out * d_in).reshape(d_out, d_in) - 1.0)


def init_adapter(rank: int, d_in: int, d_out: int, stream: Stream, b_init: str = "zeros") -> tuple[Tensor, Tensor]:
    """A fresh adapter's trainable ``(A, B)``: A Kaiming-uniform, B zero
    (default).

    ``b_init="kaiming"`` breaks the symmetry instead; required for the
    zero-scaffold ablation, where a zero B makes the whole network a
    gradient fixed point.  B's fan-in is the rank, and its draws follow A
    on the same stream.
    """
    rank = integer(rank, "rank")
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if b_init not in B_INITS:
        raise ConfigError(f"b_init must be one of {B_INITS}, got {b_init!r}")
    a = tensor(kaiming_uniform(stream, rank, d_in), requires_grad=True)
    b_data = kaiming_uniform(stream, d_out, rank) if b_init == "kaiming" else np.zeros((d_out, rank))
    return a, tensor(b_data, requires_grad=True)


class LottaLayer:
    """Frozen backbone plus its trainables: the adapter's A and B, the gain
    beta (starting at 1), the adapter scale s, and optionally a trainable
    offset and a combined-path LayerNorm.

    ``backbone`` is the frozen ``BackboneMatrix`` and ``frozen_bias`` a
    fixed random offset or None.  The offset is never trained and not
    counted: the frozen remnant of a standard dense layer's bias.  It sits
    outside both the backbone and adapter paths, so it is untouched by beta
    and absent from the effective weight.  ``use_bias`` adds a trainable
    offset ``bias`` right after it (the ``lora_bias`` head).
    """

    def __init__(self, backbone: BackboneMatrix, frozen_bias: np.ndarray | None, a: Tensor, b: Tensor,
                 scale: float, use_layernorm: bool = False, use_bias: bool = False):
        self.a = a  # [rank, d_in]
        self.b = b  # [d_out, rank]
        self.beta = tensor(1.0, requires_grad=True)
        self.scale = scale
        self.d_in = a.data.shape[1]
        self.d_out = b.data.shape[0]
        self.set_backbone(backbone, frozen_bias)
        self.bias = tensor(np.zeros(self.d_out), requires_grad=True) if use_bias else None
        self.ln_gamma = self.ln_bias = None
        if use_layernorm:
            self.ln_gamma = tensor(np.ones(self.d_out), requires_grad=True)
            self.ln_bias = tensor(np.zeros(self.d_out), requires_grad=True)

    def drop_backbone(self) -> None:
        """Release the frozen matrix and bias, so a redraw does not hold the
        old state next to its successor."""
        self.backbone = self.frozen_bias = None

    def set_backbone(self, backbone: BackboneMatrix, frozen_bias: np.ndarray | None = None) -> None:
        """Replace the frozen matrix and bias (resampling / seed gating);
        ``frozen_bias=None`` leaves the layer without one.  Both are kept
        as given, dtype included, and marked read-only."""
        if backbone.data.shape != (self.d_out, self.d_in):
            raise DimensionError(
                f"backbone {backbone.data.shape} does not match the adapter's {self.d_out}x{self.d_in}"
            )
        if frozen_bias is not None:
            if frozen_bias.shape != (self.d_out,):
                raise DimensionError(f"frozen bias must have shape ({self.d_out},), got {frozen_bias.shape}")
            frozen_bias.setflags(write=False)
        self.backbone = backbone
        self.frozen_bias = frozen_bias

    def forward(self, h: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """Pre-activation output; LayerNorm (when enabled) wraps the sum.

        With a ``cache`` dict, keeps the input and the two unscaled path
        products for ``backward``.
        """
        if h.ndim != 2 or h.shape[1] != self.d_in:
            raise DimensionError(f"layer input {h.shape} does not match d_in {self.d_in}")
        backbone_path = h @ self.backbone.data.T
        low = h @ self.a.data.T
        out = low @ self.b.data.T
        out *= self.scale
        if cache is None:
            backbone_path *= self.beta.data
        else:
            cache.update(h=h, backbone_path=backbone_path, low=low)
            backbone_path = backbone_path * self.beta.data
        out += backbone_path
        if self.frozen_bias is not None:
            out += self.frozen_bias
        if self.bias is not None:
            out += self.bias.data
        if self.ln_gamma is not None:
            out, xhat, inv = layernorm_forward(out, self.ln_gamma.data, self.ln_bias.data)
            if cache is not None:
                cache.update(xhat=xhat, inv=inv)
        return out

    def backward(self, g: np.ndarray, cache: dict, grads: list, need_dx: bool = True) -> np.ndarray | None:
        """Add the gradients of A, B, beta (and the LayerNorm affine and the
        offset) for the output gradient ``g`` into ``grads``, in
        ``trainable()`` order; return the input's gradient if ``need_dx``.

        Consumes ``g``, which it scales in place, and the cache's backbone
        product, which it drops once beta's gradient is taken.
        """
        grad_a, grad_b, grad_beta, *rest = grads
        if self.ln_gamma is not None:
            dx, dgamma, dbias = layernorm_backward(g, cache["xhat"], cache["inv"], self.ln_gamma.data)
            add_grad(rest[0], dgamma)
            add_grad(rest[1], dbias)
            g = dx.astype(g.dtype)
        if self.bias is not None:
            add_grad(rest[-1], g.sum(axis=0, dtype=np.float64))
        add_grad(grad_beta, np.asarray(np.sum(cache.pop("backbone_path") * g, dtype=np.float64)))
        # the backbone path's input gradient reads g before the adapter scale
        dh = (self.beta.data * g) @ self.backbone.data if need_dx else None
        g *= self.scale
        g_low = g @ self.b.data
        add_grad(grad_b, g.T @ cache["low"])
        add_grad(grad_a, g_low.T @ cache["h"])
        if dh is not None:
            dh += g_low @ self.a.data
        return dh

    def trainable(self) -> list[Tensor]:
        """A, B and beta, then the LayerNorm affine and the offset if any, in
        the order ``ModelConfig.trainable_layout()`` names them."""
        tensors = [self.a, self.b, self.beta]
        if self.ln_gamma is not None:
            tensors += [self.ln_gamma, self.ln_bias]
        if self.bias is not None:
            tensors.append(self.bias)
        return tensors


class DenseLayer:
    """Fully trainable linear layer with bias (full-training mode, heads)."""

    def __init__(self, d_in: int, d_out: int, stream: Stream):
        self.w = tensor(kaiming_uniform(stream, d_out, d_in), requires_grad=True)
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

    def backward(self, g: np.ndarray, cache: dict, grads: list, need_dx: bool = True) -> np.ndarray | None:
        """Add the gradients of W and bias into ``grads``; return the input's gradient if ``need_dx``."""
        grad_w, grad_b = grads
        add_grad(grad_b, g.sum(axis=0, dtype=np.float64))
        add_grad(grad_w, g.T @ cache["h"])
        return g @ self.w.data if need_dx else None

    def trainable(self) -> list[Tensor]:
        return [self.w, self.b]
