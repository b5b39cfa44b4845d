"""Trainable tensors, the training loss, and the generic tape ops.

``Tensor`` is the container for every trainable: AdamW reads ``data`` and
``grad``.  Training runs no tape.  ``softmax_xent`` is array-level: it
returns the loss and the logits' gradient, and ``Model.loss_and_grads``
hands that gradient to the layers' explicit backward rules, which add
into each trainable's ``grad`` through ``add_grad``.  LayerNorm's math
lives in ``layernorm_forward`` / ``layernorm_backward``, array helpers the
layers and the tape op share.

What is left of the tape runs in no training step: ``Tensor.backward``
and the generic ops (matmul / linear, bias-row add, ReLU, inverted
dropout, LayerNorm).  They stay for two reasons.  With the tape form of
the loss and the finite-difference check, which live with the tests, they
are the reference the explicit rules are held to bit for bit.  And the
benchmark's traced run wraps them by name.  A forward pass over them
records a tape through ``_parents``/``_backward_fn``; ``backward()``
walks it once in reverse topological order.  Closures are only created on
paths that reach a ``requires_grad`` leaf, so frozen matrices never get a
weight-gradient GEMM.

Storage follows the training pipeline: f32 weights and activations, with
loss and normalization statistics accumulated in f64.  Gradient checking
builds f64 graphs.  Broadcasting is deliberately limited to the bias-row
case; everything else is same-shape or a dedicated op with an auditable
backward rule.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError
from .prng import Stream


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_done")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from a scalar; a tape can be walked only once."""
        if self.data.shape != ():
            raise DimensionError(f"backward requires a scalar, got shape {self.data.shape}")
        if self._done:
            raise RuntimeError("backward was already called on this graph; rebuild the forward pass")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn()
                node._backward_fn = None
        self._done = True

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=np.float32) -> Tensor:
    """Leaf tensor from array-like data (contiguous copy if needed)."""
    arr = np.asarray(data, dtype=dtype)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return Tensor(arr, requires_grad=requires_grad)


def _accumulate(t: Tensor, g: np.ndarray):
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def add_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` in ``t``'s dtype; an explicit backward rule
    hands each trainable its gradient this way, without a zero-filled start."""
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _result(data, parents, backward_fn):
    needs = any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=tuple(parents), backward_fn=backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard [m,k] @ [k,n] product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.data.shape} @ {b.data.shape}")

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    out = _result(a.data @ b.data, (a, b), backward_fn)
    return out


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w.T for a weight stored [d_out, d_in]; BLAS handles the view."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(f"linear shapes incompatible: {x.data.shape} vs weight {w.data.shape}")
    out_data = x.data @ w.data.T

    def backward_fn():
        g = out.grad
        if x.requires_grad:
            _accumulate(x, g @ w.data)
        if w.requires_grad:
            _accumulate(w, g.T @ x.data)

    out = _result(out_data, (x, w), backward_fn)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add requires equal shapes, got {a.data.shape} and {b.data.shape}")

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    out = _result(a.data + b.data, (a, b), backward_fn)
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias add: [m,n] + [n]."""
    if b.data.ndim != 1 or x.data.ndim != 2 or x.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"add_bias shapes incompatible: {x.data.shape} + {b.data.shape}")

    def backward_fn():
        g = out.grad
        if x.requires_grad:
            _accumulate(x, g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0, dtype=np.float64))

    out = _result(x.data + b.data[np.newaxis, :], (x, b), backward_fn)
    return out


def scalar_scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a matrix by a trainable scalar (shape-() tensor)."""
    if s.data.shape != ():
        raise DimensionError(f"scalar_scale expects a scalar tensor, got shape {s.data.shape}")

    def backward_fn():
        g = out.grad
        if x.requires_grad:
            _accumulate(x, s.data * g)
        if s.requires_grad:
            _accumulate(s, np.asarray(np.sum(x.data * g, dtype=np.float64)))

    out = _result(x.data * s.data, (x, s), backward_fn)
    return out


def const_scale(x: Tensor, c: float) -> Tensor:
    def backward_fn():
        if x.requires_grad:
            _accumulate(x, c * out.grad)

    out = _result(c * x.data, (x,), backward_fn)
    return out


def relu(x: Tensor) -> Tensor:
    def backward_fn():
        if x.requires_grad:
            _accumulate(x, out.grad * (x.data > 0))

    out = _result(np.maximum(x.data, 0), (x,), backward_fn)
    return out


def dropout(x: Tensor, p: float, stream: Stream, training: bool = True) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); identity in eval mode.

    p = 0 is an exact identity and consumes no stream draws.
    """
    if not 0.0 <= p < 1.0:
        raise DataError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = stream.unit_block(x.data.size).reshape(x.data.shape) >= p
    scale = (keep / (1.0 - p)).astype(x.data.dtype)

    def backward_fn():
        if x.requires_grad:
            _accumulate(x, out.grad * scale)

    out = _result(x.data * scale, (x,), backward_fn)
    return out


def layernorm_forward(x: np.ndarray, gamma: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Array LayerNorm over the last dim with f64 statistics.

    Returns ``(y, xhat, inv)``: the output in ``x``'s dtype, plus the f64
    normalized input and inverse deviation that the backward rule needs.
    """
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    centered = x64 - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    y = xhat * gamma.astype(np.float64) + bias.astype(np.float64)
    return y.astype(x.dtype), xhat, inv


def layernorm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray):
    """Gradients ``(dx, dgamma, dbias)`` of ``layernorm_forward``, all f64."""
    g = g.astype(np.float64)
    dgamma = np.sum(g * xhat, axis=0)
    dbias = np.sum(g, axis=0)
    dxhat = g * gamma.astype(np.float64)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbias


def layernorm(x: Tensor, gamma: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last dim with trainable affine; f64 statistics."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"layernorm affine must have shape ({d},)")
    y, xhat, inv = layernorm_forward(x.data, gamma.data, bias.data, eps)

    def backward_fn():
        dx, dgamma, dbias = layernorm_backward(out.grad, xhat, inv, gamma.data)
        if gamma.requires_grad:
            _accumulate(gamma, dgamma)
        if bias.requires_grad:
            _accumulate(bias, dbias)
        if x.requires_grad:
            _accumulate(x, dx)

    out = _result(y, (x, gamma, bias), backward_fn)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax computed in f64 (plain array helper, no tape)."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient.

    Returns ``(loss, dlogits)``: the loss as a float, computed in f64, and
    its gradient with respect to ``logits`` in the logits' dtype.
    """
    if logits.ndim != 2:
        raise DimensionError(f"softmax_xent expects [batch, classes], got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label out of range [0, {c}): found {int(labels.min())}..{int(labels.max())}")
    # log(sum exp z) - z_y on the max-shifted logits: finite at any margin,
    # where the log of a softmax probability underflows to log(0)
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    g = np.exp(z)
    total = g.sum(axis=-1, keepdims=True)
    rows = np.arange(n)
    loss = float(np.mean(np.log(total[:, 0]) - z[rows, labels]))
    g /= total
    g[rows, labels] -= 1.0
    g *= 1.0 / n
    return loss, g.astype(logits.dtype, copy=False)
