"""Optimization: AdamW with cosine annealing, and the one training loop
behind static-scaffold training, the scaffold-resampling schedules and
seed-gated multitask training.

Every run is deterministic given (run seed, configs): data order comes
from the shuffle stream derived from the run seed, dropout masks from
per-layer mask streams, and scaffold redraws from per-layer backbone
streams that keep advancing across resample events.  The loop takes
its scaffolds as data, ``(dataset, frozen)`` segments.  Seed gating
draws each distinct seed once with ``draw_scaffold``, builds on the first
seed's draw and gives each label group its seed's frozen arrays.

The model holds its scaffold and ``params``; a run's ``AdamW`` holds the
rest of the training state, the gradient buffer and both moments.

A static run builds on the scaffold of the process's last static run
when both have one ``scaffold_key``, the ``repr`` of the arguments
``draw_scaffold`` takes and reads nothing but: it takes copies of that
draw's streams, left just past the draw, and shares its read-only
arrays, so its bits are a cold build's.  The memo holds that one
scaffold and is dropped before any other draw: by a static run of
another key, and by a run under any other schedule, which builds
afresh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .artifact import to_shipping_precision
from .data import VAL_FRACTION, Dataset, split_train_val
from .errors import ConfigError, DataError, RunError, finite, integer, shown
from .model import BackboneSpec, Model, ModelConfig, build_model, draw_scaffold, eval_blocks, scaffold_args, scaffold_key
from .numerics import softmax_xent
from .prng import DrawKind, derive_stream

RESAMPLE_SCHEDULES = ("static", "per_epoch", "per_batch", "microbatch")
# AdamW's moment decay rates and denominator offset: fixed constants, not settings
ADAMW_BETAS, ADAMW_EPS = (0.9, 0.999), 1e-8
# ``(scaffold_key, (streams, frozen))`` of the last static run's scaffold,
# or None; replaced whole, in one assignment
_scaffold_memo: tuple | None = None


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-2
    batch_size: int = 128
    epochs: int = 20
    schedule: str = "cosine"
    resample: str = "static"
    resample_k: int = 2
    val_fraction: ClassVar[float] = VAL_FRACTION

    def __post_init__(self):
        for name in ("batch_size", "epochs", "resample_k"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if not (finite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {shown(self.lr)}")
        if not (finite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be a finite number >= 0, got {shown(self.weight_decay)}")
        if self.resample not in RESAMPLE_SCHEDULES:
            raise ConfigError(f"resample must be one of {RESAMPLE_SCHEDULES}, got {self.resample!r}")
        if self.resample in ("per_batch", "microbatch") and self.resample_k < 2:
            raise ConfigError(f"resample_k must be >= 2 for {self.resample}, got {self.resample_k}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be 'cosine' or 'constant', got {self.schedule!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)  # one dict per epoch
    beta_trajectory: list = field(default_factory=list)  # per epoch, per layer
    final_betas: list = field(default_factory=list)
    best_epoch: int = -1
    final_test_accuracy: float = 0.0
    final_test_loss: float = 0.0
    wall_time: float = 0.0
    shipped: bool = False  # whether the model was rounded to the shipping grid, or stayed f32
    model: object = None  # trained Model (best-val weights restored)

    def summary(self) -> dict:
        return {
            "final_test_accuracy": self.final_test_accuracy,
            "final_test_loss": self.final_test_loss,
            "best_epoch": self.best_epoch,
            "final_betas": self.final_betas,
            "shipped": self.shipped,
            "epochs": self.epochs,
            "wall_time": self.wall_time,
        }


class AdamW:
    """Decoupled weight decay Adam over a model's trainables, at the fixed
    ``ADAMW_BETAS`` and ``ADAMW_EPS``.

    It holds four flat buffers laid out by ``ModelConfig.trainable_layout()``:
    ``params`` is the model's, which it steps, and ``grads``, ``m`` and
    ``v`` are its own.  A training step's ``Model.loss_and_grads`` adds
    into ``ModelConfig.views(grads)``; ``grads`` starts at, and ``zero_grad``
    refills it with, -0.0, IEEE's additive identity, so the first gradient
    added keeps its bits.  The update rule is elementwise, so every entry
    gets the bits a per-tensor update gives it.  A ``weight_decay`` that is
    not a finite number >= 0 is a ``ConfigError``.
    """

    def __init__(self, model: Model, weight_decay: float):
        if not (finite(weight_decay) and weight_decay >= 0):
            raise ConfigError(f"weight_decay must be a finite number >= 0, got {shown(weight_decay)}")
        self.weight_decay = weight_decay
        self.t = 0
        self.params = model.params
        self.grads = np.full_like(self.params, -0.0)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)

    def zero_grad(self):
        self.grads.fill(-0.0)

    def step(self, lr: float):
        """One update of every parameter at rate ``lr``; decay shrinks the
        pre-step parameter by lr*wd*param."""
        self.t += 1
        b1, b2 = ADAMW_BETAS
        g, m, v, param = self.grads, self.m, self.v, self.params
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if self.weight_decay:
            param *= 1.0 - lr * self.weight_decay
        param -= (lr / (1.0 - b1 ** self.t)) * m / (np.sqrt(v / (1.0 - b2 ** self.t)) + ADAMW_EPS)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * step / total)) / 2."""
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step must lie in [0, {total_steps}], got {step}")
    if total_steps == 0:
        return lr0
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def _eval_chunks(model: Model, dataset: Dataset):
    """Yield ``(logits, labels)`` for each block of ``eval_blocks(len(dataset))``
    in order, in eval mode: one gather and one forward per block, so the
    logits are ``forward_logits``'s over the whole set, a function of that
    partition and of the BLAS kernel, and one block's rows are held."""
    for lo, hi in eval_blocks(len(dataset)):
        rows = slice(lo, hi)
        yield model.forward_logits(dataset.take(rows)).data, dataset.labels[rows]


def _require_rows(dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise DataError(f"cannot evaluate on an empty {dataset.split} set")


def evaluate(model: Model, dataset: Dataset) -> tuple[float, float]:
    """(mean loss, accuracy) in eval mode."""
    _require_rows(dataset)
    total_loss = 0.0
    correct = 0
    n = len(dataset)
    for logits, y in _eval_chunks(model, dataset):
        loss, _ = softmax_xent(logits, y)
        total_loss += loss * len(y)
        correct += int((logits.argmax(axis=1) == y).sum())
    return total_loss / n, correct / n


def _lr(cfg: TrainConfig, step: int, total_steps: int) -> float:
    return cosine_lr(step, total_steps, cfg.lr) if cfg.schedule == "cosine" else cfg.lr


def _layer_betas(model: Model) -> list[float]:
    return [float(layer.beta.data) for layer in model.lotta_layers()]


def _train_step(model, optimizer, grads, x, y, lr_t, resample: str, k: int, first: bool):
    """One optimizer step: one pass over the step's sub-batches.

    The sub-batches are the batch itself (static), k copies of it
    (per_batch) or its non-empty k-way splits (microbatch).  Under the two
    within-step schedules every sub-batch runs on a freshly redrawn
    scaffold, except the run's first sub-batch (``first`` marks the run's
    first step), which trains on the build-time scaffold, as per_epoch's
    first epoch does.  Gradients accumulate in ``optimizer.grads``, through
    its per-trainable views ``grads``, over the pass and are averaged,
    keeping the lr meaningful across schedules.
    Returns (mean loss over the forward rows, correct count, forward rows).
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
    for j, part in enumerate(parts):
        if resample in ("per_batch", "microbatch") and not (first and j == 0):
            model.resample_backbones()
        ys = y[part]
        loss, logits = model.loss_and_grads(x[part], ys, grads)
        loss_sum += loss * len(ys)
        correct += int((logits.argmax(axis=1) == ys).sum())
        rows += len(ys)
    if len(parts) > 1:
        optimizer.grads /= len(parts)
    optimizer.step(lr_t)
    return loss_sum / rows, correct, rows


def _install_scaffold(model: Model, frozen: list) -> None:
    """Set each LottaLayer's matrix and bias from ``frozen``, a scaffold's ``(matrix, bias)`` list."""
    for layer, pair in zip(model.lotta_layers(), frozen, strict=True):
        layer.set_backbone(*pair)


def _train_loop(model: Model, cfg: TrainConfig, segments, shuffle):
    """The one training loop behind ``train_run`` and ``seed_gated_train``.

    Every epoch runs the ``(dataset, frozen)`` segments in order: a
    scaffold's ``(matrix, bias)`` list ``frozen`` is installed (None keeps
    the model's), then the dataset is shuffled and cut into batches, each
    one ``_train_step`` under ``cfg.resample``.  Under ``per_epoch`` each
    epoch but the first starts with a redraw.
    Yields ``(epoch, train_loss, train_accuracy, lr)`` after each epoch;
    the train metrics are row-weighted means over every forward row.
    """
    optimizer = AdamW(model, cfg.weight_decay)
    grads = model.cfg.views(optimizer.grads)
    total_steps = cfg.epochs * sum(math.ceil(len(data) / cfg.batch_size) for data, _ in segments)
    step = 0
    for epoch in range(cfg.epochs):
        if cfg.resample == "per_epoch" and epoch > 0:
            model.resample_backbones()
        loss_sum = 0.0
        correct = rows = batch_rows = 0
        for data, frozen in segments:
            if frozen is not None:
                _install_scaffold(model, frozen)
            perm = shuffle.permutation(len(data))
            for start in range(0, len(data), cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                y = data.labels[idx]
                loss, step_correct, step_rows = _train_step(
                    model, optimizer, grads, data.take(idx), y, _lr(cfg, step, total_steps), cfg.resample, cfg.resample_k,
                    step == 0,
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


def _run_model(cfg: ModelConfig, spec: BackboneSpec, resample: str) -> Model:
    """The run's model.  A static run builds on the memo's scaffold,
    drawn first unless the memo was drawn with the run's arguments; any
    other schedule redraws its scaffold, so it empties the memo and builds
    afresh."""
    global _scaffold_memo
    if resample != "static":
        _scaffold_memo = None
        return build_model(cfg, spec)
    key = scaffold_key(cfg, spec)
    memo = _scaffold_memo
    if memo is None or memo[0] != key:
        # the old scaffold goes before the draw, so a miss holds one scaffold
        memo = _scaffold_memo = None
        memo = _scaffold_memo = (key, draw_scaffold(*scaffold_args(cfg, spec)))
    streams, frozen = memo[1]
    return Model(cfg, spec, ([stream.copy() for stream in streams], frozen))


def train_run(
    model_cfg: ModelConfig,
    backbone_spec: BackboneSpec,
    train_cfg: TrainConfig,
    train_dataset: Dataset,
    test_dataset: Dataset,
) -> RunMetrics:
    """Full training run; returns per-epoch metrics with best-val weights
    restored and rounded to the shipping grid (``to_shipping_precision``:
    each tensor on an int8 grid with its own power-of-two scale, unless a
    value lies outside the grid's range) before the final test evaluation,
    so the final test numbers, ``final_betas`` and the returned model are
    the shipped model's; ``shipped`` records whether the rounding took
    place, or the model stays f32 and packs as format version 1.  The
    best-val weights are a copy of ``model.params``."""
    started = time.perf_counter()
    model = _run_model(model_cfg, backbone_spec, train_cfg.resample)
    shuffle = derive_stream(backbone_spec.seed, 0, DrawKind.DATA_SHUFFLE)
    train_split, val_split = split_train_val(train_dataset, shuffle)

    metrics = RunMetrics()
    best_val = -1.0
    best_params = None
    epochs = _train_loop(model, train_cfg, [(train_split, None)], shuffle)
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
            best_params = model.params.copy()

    if best_params is not None:
        model.params[...] = best_params
    else:
        metrics.best_epoch = train_cfg.epochs - 1
    metrics.shipped = to_shipping_precision(model)
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


def seed_gated_train(
    partition,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_dataset: Dataset,
    test_dataset: Dataset,
    family=None,
) -> SeedGateResult:
    """Train one shared adapter, cycling through the partition's backbone
    seeds within every epoch; evaluate each test digit under each seed.
    Each group has its seed's one scaffold, so the schedule is static, and
    the mode is lottalora, the one whose frozen layers a seed draws."""
    if model_cfg.mode != "lottalora":
        raise ConfigError(f"seed gating requires lottalora mode, got mode={model_cfg.mode!r}")
    if train_cfg.resample != "static":
        raise ConfigError(f"seed gating trains on static scaffolds only, got resample={train_cfg.resample!r}")
    _require_rows(test_dataset)
    num_classes = partition.num_model_classes(model_cfg.num_classes)
    cfg = replace(model_cfg, num_classes=num_classes)
    spec = BackboneSpec.from_config(cfg, partition.seeds[0], family)
    draws = {seed: draw_scaffold(*scaffold_args(cfg, replace(spec, seed=seed)))
             for seed in dict.fromkeys(partition.seeds)}
    model = Model(cfg, spec, draws[spec.seed])
    shuffle = derive_stream(spec.seed, 0, DrawKind.DATA_SHUFFLE)
    frozen = [draws[seed][1] for seed in partition.seeds]
    views = [partition.training_view(train_dataset, g) for g in range(len(partition.groups))]
    for _ in _train_loop(model, train_cfg, list(zip(views, frozen)), shuffle):
        pass  # nothing to record between epochs

    confusion = []
    assigned = []
    non_assigned = []
    ooc0 = []
    for g in range(len(partition.groups)):
        _install_scaffold(model, frozen[g])
        preds = np.concatenate([logits.argmax(axis=1) for logits, _ in _eval_chunks(model, test_dataset)])
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
    )


def _mean(values: list) -> float | None:
    return float(np.mean(values)) if values else None


def beta_summary(final_betas_per_run) -> dict:
    """Descriptive stats over final per-layer backbone gains across runs;
    each run is a list of finite numbers, and an empty one is skipped."""
    for betas in final_betas_per_run:
        if not (isinstance(betas, list) and all(finite(b) for b in betas)):
            raise ConfigError(f"a run's final betas must be a list of finite numbers, got {shown(betas)}")
    values = np.array([b for betas in final_betas_per_run for b in betas], dtype=np.float64)
    if not values.size:
        raise ConfigError("beta_summary needs at least one run with recorded betas")
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
