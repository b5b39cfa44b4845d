"""The tape form of the loss and the finite-difference check: test oracles.

Training takes its gradients from ``Model.loss_and_grads``, which runs the
array-level ``numerics.softmax_xent`` and the layers' explicit backward
rules.  ``tape_softmax_xent`` is the same loss as a tape node over the
generic ops in ``lottalora.numerics``, so a graph built from those ops
gets its gradients from ``Tensor.backward``.  The tests hold the explicit
rules to that tape bit for bit, and both to central differences.
"""

import numpy as np

from lottalora.errors import DataError, DimensionError
from lottalora.numerics import Tensor, _accumulate, _result


def tape_softmax_xent(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over the batch; returns a scalar f64 tensor."""
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_xent expects [batch, classes], got {logits.data.shape}")
    n, c = logits.data.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label out of range [0, {c}): found {int(labels.min())}..{int(labels.max())}")
    z = logits.data.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    probs = e / total
    loss = np.mean(np.log(total[:, 0]) - z[np.arange(n), labels])

    def backward_fn():
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(n), labels] -= 1.0
            g *= float(out.grad) / n
            _accumulate(logits, g)

    out = _result(np.asarray(loss), (logits,), backward_fn)
    return out


def finite_diff_check(loss_fn, params, eps: float = 1e-5, coords_per_param: int = 64) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild its loss from the live ``params`` on every
    call and be deterministic (fix dropout masks beforehand).  It returns
    either a scalar tape ``Tensor``, whose ``backward`` fills the grads, or
    a float after filling them itself (as ``Model.loss_and_grads`` does).
    Coordinates are an evenly strided sample of at least
    ``coords_per_param`` per parameter (all of them when the parameter is
    small).
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if isinstance(loss, Tensor):
        loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    def value() -> float:
        loss = loss_fn()
        return float(loss.data) if isinstance(loss, Tensor) else float(loss)

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        size = flat.shape[0]
        step = max(1, size // coords_per_param)
        for i in range(0, size, step):
            orig = flat[i]
            flat[i] = orig + eps
            up = value()
            flat[i] = orig - eps
            down = value()
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            a = float(an.reshape(-1)[i])
            scale = max(abs(fd), abs(a))
            if scale < 1e-12:
                continue
            worst = max(worst, abs(fd - a) / scale)
    return worst
