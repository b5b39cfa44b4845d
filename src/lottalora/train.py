"""Optimization: AdamW with cosine annealing, and the one training loop
behind static-scaffold training, the scaffold-resampling schedules and
seed-gated multitask training.

Every run is deterministic given (run seed, configs): data order comes
from the shuffle stream derived from the run seed, dropout masks from
per-layer mask streams, and scaffold redraws from per-layer backbone
streams that keep advancing across resample events.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .artifact import to_shipping_precision
from .data import Dataset, split_train_val
from .errors import ConfigError, DataError, RunError, real
from .model import BackboneSpec, Model, ModelConfig, _integral, build_model
from .numerics import softmax_xent
from .prng import DrawKind, derive_stream

RESAMPLE_SCHEDULES = ("static", "per_epoch", "per_batch", "microbatch")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-2
    batch_size: int = 128
    epochs: int = 20
    schedule: str = "cosine"
    resample: str = "static"
    resample_k: int = 2
    val_fraction: ClassVar[float] = 0.1  # share of the training set held out for validation

    def __post_init__(self):
        for name in ("batch_size", "epochs", "resample_k"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not real(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.resample not in RESAMPLE_SCHEDULES:
            raise ConfigError(f"resample must be one of {RESAMPLE_SCHEDULES}, got {self.resample!r}")
        if self.resample in ("per_batch", "microbatch") and self.resample_k < 2:
            raise ConfigError(f"resample_k must be >= 2 for {self.resample}, got {self.resample_k}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be 'cosine' or 'constant', got {self.schedule!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)  # one dict per epoch
    beta_trajectory: list = field(default_factory=list)  # per epoch, per layer
    final_betas: list = field(default_factory=list)
    best_epoch: int = -1
    final_test_accuracy: float = 0.0
    final_test_loss: float = 0.0
    wall_time: float = 0.0
    model: object = None  # trained Model (best-val weights restored)

    def summary(self) -> dict:
        return {
            "final_test_accuracy": self.final_test_accuracy,
            "final_test_loss": self.final_test_loss,
            "best_epoch": self.best_epoch,
            "final_betas": self.final_betas,
            "epochs": self.epochs,
            "wall_time": self.wall_time,
        }


class AdamW:
    """Decoupled weight decay Adam over trainable tensors only, fused over
    one flat buffer.

    The constructor copies the parameters into one flat buffer and rebinds
    each ``data`` to a view of it with the same shape and dtype.  The
    moments are one flat buffer each; ``m`` and ``v`` return their
    per-parameter views in the order of ``params``.  A step concatenates
    the gradients once and runs the update rule on whole buffers; the rule
    is elementwise, so every entry gets the bits a per-tensor update gives
    it.  When some parameter has no gradient, or a gradient of another
    dtype, the rule runs on each parameter's views in turn instead, and a
    parameter without a gradient keeps its values and moments.  All
    parameters must share one dtype.  A parameter whose ``data`` is
    rebound after construction is no longer the one the optimizer updates,
    so callers write into ``data`` in place.
    """

    def __init__(self, params, lr=1e-3, weight_decay=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ConfigError(f"AdamW parameters must share one dtype, got {sorted(map(str, dtypes))}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        empty = np.empty(0, dtype=dtypes.pop() if dtypes else np.float32)
        self._flat = np.concatenate([empty] + [p.data.ravel() for p in self.params])
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        for p, view in zip(self.params, self._views(self._flat)):
            p.data = view

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        views, lo = [], 0
        for p in self.params:
            views.append(flat[lo:lo + p.data.size].reshape(p.data.shape))
            lo += p.data.size
        return views

    @property
    def m(self) -> list[np.ndarray]:
        return self._views(self._m)

    @property
    def v(self) -> list[np.ndarray]:
        return self._views(self._v)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr_t: float | None = None):
        """One update of every parameter that has a gradient."""
        lr = self.lr if lr_t is None else lr_t
        self.t += 1
        rule = (lr, 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t)
        grads = [p.grad for p in self.params]
        if all(g is not None and g.dtype == self._flat.dtype for g in grads):
            # the gradient buffer lives for this step only
            flat_grad = np.concatenate([self._flat[:0]] + [g.ravel() for g in grads])
            self._update(self._flat, self._m, self._v, flat_grad, *rule)
            return
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            if g is not None:
                self._update(p.data, m, v, g, *rule)

    def _update(self, param, m, v, g, lr, bc1, bc2):
        """The update rule, in place; decay shrinks the pre-step parameter by lr*wd*param."""
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        if self.weight_decay:
            param *= 1.0 - lr * self.weight_decay
        param -= (lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * step / total)) / 2."""
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step must lie in [0, {total_steps}], got {step}")
    if total_steps == 0:
        return lr0
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def evaluate(model: Model, dataset: Dataset, batch_size: int = 2048) -> tuple[float, float]:
    """(mean loss, accuracy) in eval mode."""
    total_loss = 0.0
    correct = 0
    n = len(dataset)
    if n == 0:
        raise DataError(f"cannot evaluate on an empty {dataset.split} set")
    for start in range(0, n, batch_size):
        x = dataset.take(slice(start, start + batch_size))
        y = dataset.labels[start:start + batch_size]
        logits = model.forward_logits(x).data
        loss, _ = softmax_xent(logits, y)
        total_loss += loss * len(y)
        correct += int((logits.argmax(axis=1) == y).sum())
    return total_loss / n, correct / n


def _lr(cfg: TrainConfig, step: int, total_steps: int) -> float:
    return cosine_lr(step, total_steps, cfg.lr) if cfg.schedule == "cosine" else cfg.lr


def _layer_betas(model: Model) -> list[float]:
    return [float(layer.adapter.beta.data) for layer in model.lotta_layers()]


def _train_step(model, optimizer, x, y, lr_t, resample: str, k: int):
    """One optimizer step: one pass over the step's sub-batches.

    The sub-batches are the batch itself (static), k copies of it
    (per_batch) or its non-empty k-way splits (microbatch).  Under the two
    within-step schedules every sub-batch runs on a freshly redrawn
    scaffold.  Gradients accumulate over the pass and are averaged, keeping
    the lr meaningful across schedules.  Returns (mean loss over the
    forward rows, correct count, forward rows).
    """
    if resample == "per_batch":
        parts = [slice(None)] * k
    elif resample == "microbatch":
        parts = [idx for idx in np.array_split(np.arange(len(y)), k) if len(idx)]
    else:
        parts = [slice(None)]
    optimizer.zero_grad()
    loss_sum = 0.0
    correct = rows = 0
    for part in parts:
        if resample in ("per_batch", "microbatch"):
            model.resample_backbones()
        ys = y[part]
        loss, logits = model.loss_and_grads(x[part], ys)
        loss_sum += loss * len(ys)
        correct += int((logits.argmax(axis=1) == ys).sum())
        rows += len(ys)
    if len(parts) > 1:
        for p in optimizer.params:
            if p.grad is not None:
                p.grad /= len(parts)
    optimizer.step(lr_t)
    return loss_sum / rows, correct, rows


def _train_loop(model: Model, cfg: TrainConfig, resample: str, segments, shuffle):
    """The one training loop behind ``train_run`` and ``seed_gated_train``.

    Every epoch runs the ``(dataset, prepare)`` segments in order:
    ``prepare(epoch)`` sets up the scaffold, then the dataset is shuffled
    and cut into batches, each one ``_train_step`` under ``resample``.
    Yields ``(epoch, train_loss, train_accuracy, lr)`` after each epoch;
    the train metrics are row-weighted means over every forward row.
    """
    optimizer = AdamW([p for _, p in model.trainable_params()], lr=cfg.lr, weight_decay=cfg.weight_decay)
    total_steps = cfg.epochs * sum(math.ceil(len(data) / cfg.batch_size) for data, _ in segments)
    step = 0
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        correct = rows = batch_rows = 0
        for data, prepare in segments:
            prepare(epoch)
            perm = shuffle.permutation(len(data))
            for start in range(0, len(data), cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                y = data.labels[idx]
                loss, step_correct, step_rows = _train_step(
                    model, optimizer, data.take(idx), y, _lr(cfg, step, total_steps), resample, cfg.resample_k
                )
                if not math.isfinite(loss):
                    raise RunError(
                        f"training diverged at epoch {epoch}, step {step} (non-finite loss)",
                        last_finite_epoch=epoch - 1,
                    )
                loss_sum += loss * len(y)
                correct += step_correct
                rows += step_rows
                batch_rows += len(y)
                step += 1
        yield epoch, loss_sum / batch_rows, correct / rows, _lr(cfg, step, total_steps)


def train_run(
    model_cfg: ModelConfig,
    backbone_spec: BackboneSpec,
    train_cfg: TrainConfig,
    train_dataset: Dataset,
    test_dataset: Dataset,
) -> RunMetrics:
    """Full training run; returns per-epoch metrics with best-val weights
    restored and rounded to the shipping precision (f16, unless a value
    lies outside its range) before the final test evaluation, so the final
    test numbers, ``final_betas`` and the returned model are the shipped
    model's."""
    started = time.perf_counter()
    model = build_model(model_cfg, backbone_spec)
    shuffle = derive_stream(backbone_spec.seed, 0, DrawKind.DATA_SHUFFLE)
    train_split, val_split = split_train_val(train_dataset, shuffle, train_cfg.val_fraction)

    def redraw_per_epoch(epoch):
        if train_cfg.resample == "per_epoch" and epoch > 0:
            model.resample_backbones()

    trainables = [p for _, p in model.trainable_params()]
    metrics = RunMetrics()
    best_val = -1.0
    best_params = None
    epochs = _train_loop(model, train_cfg, train_cfg.resample, [(train_split, redraw_per_epoch)], shuffle)
    for epoch, train_loss, train_acc, lr in epochs:
        val_loss, val_acc = evaluate(model, val_split)
        betas = _layer_betas(model)
        metrics.beta_trajectory.append(betas)
        metrics.epochs.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "train_accuracy": train_acc,
            "val_loss": val_loss,
            "val_accuracy": val_acc,
            "lr": lr,
            "beta_min": min(betas) if betas else None,
            "beta_median": float(np.median(betas)) if betas else None,
        })
        # best-val selection applies to the static schedule only, whose
        # scaffold never changes; resampling ablations measure the damage
        # of a churning scaffold, and selecting a lucky (scaffold, adapter)
        # pairing from validation would mask it
        if train_cfg.resample == "static" and val_acc > best_val:
            best_val = val_acc
            metrics.best_epoch = epoch
            best_params = [p.data.copy() for p in trainables]

    if best_params is not None:
        for p, saved in zip(trainables, best_params):
            p.data[...] = saved
    else:
        metrics.best_epoch = train_cfg.epochs - 1
    to_shipping_precision(model)
    test_loss, test_acc = evaluate(model, test_dataset)
    metrics.final_test_loss = test_loss
    metrics.final_test_accuracy = test_acc
    metrics.final_betas = _layer_betas(model)
    metrics.wall_time = time.perf_counter() - started
    metrics.model = model
    return metrics


@dataclass
class SeedGateResult:
    """Per-seed evaluation of one shared adapter across label partitions."""

    confusion: list  # per seed: [10, num_model_classes] row-normalized
    # per seed: mean accuracy over the tested digits in / out of its group,
    # None when there are none
    assigned_accuracy: list
    non_assigned_accuracy: list
    # per seed: share of digit-0 test rows given the OOC label, None when
    # there are none; empty unless ooc_mode
    ooc_digit0_rate: list
    partition: object


def seed_gated_train(
    partition,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_dataset: Dataset,
    test_dataset: Dataset,
    family=None,
) -> SeedGateResult:
    """Train one shared adapter, cycling through the partition's backbone
    seeds within every epoch; evaluate each test digit under each seed."""
    num_classes = partition.num_model_classes(model_cfg.num_classes)
    cfg = replace(model_cfg, num_classes=num_classes)
    spec = BackboneSpec.from_config(cfg, partition.seeds[0], family)
    model = build_model(cfg, spec)
    shuffle = derive_stream(partition.seeds[0], 0, DrawKind.DATA_SHUFFLE)

    views = [partition.training_view(train_dataset, g) for g in range(len(partition.groups))]
    # each group's scaffold is drawn on its first swap and reinstalled after
    drawn = {}
    segments = [
        (view, lambda _epoch, seed=seed: model.swap_seed_backbones(seed, drawn))
        for view, seed in zip(views, partition.seeds)
    ]
    for _ in _train_loop(model, train_cfg, "static", segments, shuffle):
        pass  # nothing to record between epochs

    confusion = []
    assigned = []
    non_assigned = []
    ooc0 = []
    for g in range(len(partition.groups)):
        model.swap_seed_backbones(partition.seeds[g], drawn)
        preds = []
        for start in range(0, len(test_dataset), 2048):
            logits = model.forward_logits(test_dataset.take(slice(start, start + 2048)))
            preds.append(logits.data.argmax(axis=1))
        preds = np.concatenate(preds)
        counts = np.zeros((10, num_classes), dtype=np.int64)
        for digit in range(10):
            mask = test_dataset.labels == digit
            if mask.any():
                counts[digit] = np.bincount(preds[mask], minlength=num_classes)
        rows = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        confusion.append(rows)
        # a digit with no test rows counts in neither mean, and a tested
        # digit the model has no output for scores 0.0
        hits = {d: float(rows[d, d]) if d < num_classes else 0.0 for d in range(10) if counts[d].any()}
        group = partition.groups[g]
        assigned.append(_mean([hits[d] for d in sorted(group) if d in hits]))
        non_assigned.append(_mean([hits[d] for d in range(10) if d in hits and d not in group]))
        if partition.ooc_mode:
            ooc0.append(float(rows[0, partition.ooc_label]) if counts[0].any() else None)

    return SeedGateResult(
        confusion=confusion,
        assigned_accuracy=assigned,
        non_assigned_accuracy=non_assigned,
        ooc_digit0_rate=ooc0,
        partition=partition,
    )


def _mean(values: list) -> float | None:
    return float(np.mean(values)) if values else None


def beta_summary(final_betas_per_run) -> dict:
    """Descriptive stats over final per-layer backbone gains across runs."""
    chunks = [np.asarray(b, dtype=np.float64) for b in final_betas_per_run if len(b)]
    if not chunks:
        raise ConfigError("beta_summary needs at least one run with recorded betas")
    values = np.concatenate(chunks)
    q1, q3 = np.percentile(values, [25, 75])
    return {
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "iqr": [float(q1), float(q3)],
        "min": float(values.min()),
        "count": int(values.size),
    }


def write_metrics_csv(metrics: RunMetrics, path: str) -> None:
    """One row per epoch and split: epoch, split, loss, accuracy, lr,
    beta_min, beta_median."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,split,loss,accuracy,lr,beta_min,beta_median\n")
        for row in metrics.epochs:
            beta_min = "" if row["beta_min"] is None else f"{row['beta_min']:.6f}"
            beta_med = "" if row["beta_median"] is None else f"{row['beta_median']:.6f}"
            for split in ("train", "val"):
                fh.write(
                    f"{row['epoch']},{split},{row[split + '_loss']:.6f},"
                    f"{row[split + '_accuracy']:.6f},{row['lr']:.8f},{beta_min},{beta_med}\n"
                )
