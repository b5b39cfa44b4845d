"""MLP assembly: presets, head modes, trainable-parameter accounting.

A model is built from a ModelConfig plus a BackboneSpec; the BackboneSpec
(seed, generator tag, init family, layer shapes) alone determines every
frozen matrix, which is what makes models reconstructible from a header.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, IncompatibilityError, integral, real
from .initfam import BackboneMatrix, InitFamily, draw_matrix, draw_plan
from .layers import SCALING_MODES, DenseLayer, LottaLayer, init_adapter
from .numerics import Tensor, add_grad, softmax_xent, tensor
from .prng import ALGORITHM_ID, DrawKind, Stream, check_seed, derive_stream

PRESETS = {
    "tiny": (128, 64),
    "small": (256, 128, 64),
    "medium": (512, 256, 128, 64),
    "large": (1024, 512, 256, 128, 64),
}

HEAD_MODES = ("full", "lora", "lora_bias")
MODES = ("lottalora", "full_training")

# An eval forward runs over row blocks of at most this many rows.  On
# OpenBLAS 0.3.31 a GEMM's rows came out the same in blocks of >= 256 rows
# as in the whole batch (not in blocks of <= 200), and the balanced blocks
# of a batch over this size hold >= 512.
EVAL_BLOCK_ROWS = 1024


def eval_blocks(n: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` row blocks of an n-row eval forward: the fewest
    blocks of at most ``EVAL_BLOCK_ROWS`` rows, sizes differing by <= 1."""
    k = max(1, -(-n // EVAL_BLOCK_ROWS))
    edges = [n * j // k for j in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _dropout_scale(stream: Stream, shape: tuple, p: float, dtype: np.dtype) -> np.ndarray:
    """Inverted-dropout multipliers: 1/(1-p) where an entry is kept, else 0.

    An entry is kept when the top 53 bits of its raw draw reach
    ceil(p * 2**53).  A unit draw is those bits times 2**-53, so this keeps
    exactly the entries that ``unit_block(n) >= p`` keeps, from the same
    draws, without float64 uniforms.  For an integer t, ``bits >> 11 >= t``
    holds exactly when ``bits >= t << 11``, so the raw words are compared
    unshifted; for p < 1, t << 11 is below 2**64.
    """
    bits = stream.u64_block(math.prod(shape)).reshape(shape)
    keep = bits >= np.uint64(math.ceil(p * 2.0 ** 53) << 11)
    return np.multiply(keep, dtype.type(1.0 / (1.0 - p)), dtype=dtype)


def _draw_frozen(cfg: "ModelConfig", family: InitFamily, i: int, stream: Stream):
    """Layer i's frozen matrix and bias, drawn from ``stream``."""
    d_out, d_in = cfg.layer_shapes()[i]
    if cfg.zero_scaffold:
        matrix = BackboneMatrix(d_out, d_in, np.zeros((d_out, d_in), dtype=np.float32))
    else:
        matrix = draw_matrix(stream, family, d_out, d_in)
    if not cfg.frozen_bias:
        return matrix, None
    # frozen counterpart of a dense layer's bias: U(+-1/sqrt(d_in))
    bound = 1.0 / float(d_in) ** 0.5
    return matrix, (bound * (2.0 * stream.unit_block(d_out) - 1.0)).astype(np.float32)


def _frozen_plan(cfg: "ModelConfig", family: InitFamily, i: int) -> list[tuple[str, int]]:
    """The block draws ``_draw_frozen`` makes for layer i, in order."""
    d_out, d_in = cfg.layer_shapes()[i]
    plan = [] if cfg.zero_scaffold else draw_plan(family, d_out, d_in)
    return plan + [("unit", d_out)] if cfg.frozen_bias else plan


def _integral(value, name: str) -> int:
    if not integral(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelConfig:
    preset: str | None = "medium"
    hidden_dims: tuple | None = None
    input_dim: int = 784
    num_classes: int = 10
    mode: str = "lottalora"
    rank: int = 8
    alpha: float = 1.0
    scaling_mode: str = "standard"
    head_mode: str = "full"
    dropout: float = 0.1
    layernorm: bool = False
    zero_scaffold: bool = False
    # frozen random per-layer offset (never trained, not counted); required
    # for zero-scaffold training, where all-zero pre-activations would
    # otherwise be a gradient fixed point
    frozen_bias: bool = True
    # adapter B init: "zeros" preserves the backbone trajectory at init;
    # "kaiming" breaks symmetry (needed when the scaffold itself is zero)
    b_init: str = "zeros"

    def __post_init__(self):
        for name in ("input_dim", "num_classes", "rank"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        for name in ("layernorm", "zero_scaffold", "frozen_bias"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be True or False, got {getattr(self, name)!r}")
        if self.hidden_dims is not None:
            if not isinstance(self.hidden_dims, Iterable):
                raise ConfigError(f"hidden_dims must be a sequence of integers, got {self.hidden_dims!r}")
            object.__setattr__(self, "hidden_dims", tuple(_integral(d, "hidden_dims") for d in self.hidden_dims))
        elif self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected one of {sorted(PRESETS)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.head_mode not in HEAD_MODES:
            raise ConfigError(f"head_mode must be one of {HEAD_MODES}, got {self.head_mode!r}")
        if self.scaling_mode not in SCALING_MODES:
            raise ConfigError(f"scaling_mode must be one of {SCALING_MODES}, got {self.scaling_mode!r}")
        dims = (self.input_dim, *self.dims(), self.num_classes)
        if any(d < 1 for d in dims):
            raise ConfigError(f"input_dim, hidden_dims and num_classes must all be >= 1, got {dims}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        # checked, never coerced: the header records alpha as given
        alpha = self.alpha
        if not real(alpha) or not (math.isfinite(alpha) and alpha > 0):
            raise ConfigError(f"alpha must be a finite number > 0, got {alpha!r}")
        dropout = self.dropout
        if not real(dropout) or not 0.0 <= dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {dropout!r}")
        if self.b_init not in ("zeros", "kaiming"):
            raise ConfigError(f"b_init must be 'zeros' or 'kaiming', got {self.b_init!r}")

    def dims(self) -> tuple:
        return self.hidden_dims if self.hidden_dims is not None else PRESETS[self.preset]

    def layer_shapes(self) -> tuple:
        """(d_out, d_in) for every weight matrix, hidden layers then head."""
        dims = (self.input_dim,) + self.dims() + (self.num_classes,)
        return tuple((dims[i + 1], dims[i]) for i in range(len(dims) - 1))

    def n_lotta(self) -> int:
        """How many leading layers have a frozen backbone and an adapter:
        every layer but a ``"full"`` head, or none in full_training mode."""
        if self.mode != "lottalora":
            return 0
        return len(self.layer_shapes()) - (self.head_mode == "full")

    def trainable_layout(self) -> list[tuple[str, tuple]]:
        """``(name, shape)`` of each trainable tensor in canonical artifact
        order, as ``Model.trainable_params()`` holds them, without building
        anything."""
        shapes = self.layer_shapes()
        n_lotta = self.n_lotta()
        layout = []
        for i, (d_out, d_in) in enumerate(shapes):
            is_hidden = i < len(shapes) - 1
            prefix = f"layer{i}" if is_hidden else "head"
            if i >= n_lotta:
                layout += [(f"{prefix}.W", (d_out, d_in)), (f"{prefix}.bias", (d_out,))]
                continue
            layout += [(f"{prefix}.A", (self.rank, d_in)), (f"{prefix}.B", (d_out, self.rank)), (f"{prefix}.beta", ())]
            if self.layernorm and is_hidden:
                layout += [(f"{prefix}.ln_gamma", (d_out,)), (f"{prefix}.ln_bias", (d_out,))]
        if self.head_mode == "lora_bias" and n_lotta == len(shapes):
            layout.append(("head.bias", (shapes[-1][0],)))
        return layout


@dataclass(frozen=True)
class BackboneSpec:
    """Everything needed to regenerate the frozen matrices bit-exactly."""

    seed: int
    family: InitFamily = field(default_factory=lambda: InitFamily("normal"))
    layer_shapes: tuple = ()
    algorithm_id: str = ALGORITHM_ID

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        # this build draws only its own generator's bits
        if self.algorithm_id != ALGORITHM_ID:
            raise IncompatibilityError(
                f"backbone was generated with {self.algorithm_id!r}; this build expects {ALGORITHM_ID!r}"
            )

    @staticmethod
    def from_config(cfg: ModelConfig, seed: int, family: InitFamily | None = None) -> "BackboneSpec":
        fam = family if family is not None else InitFamily("normal")
        return BackboneSpec(seed=seed, family=fam, layer_shapes=cfg.layer_shapes())

    @staticmethod
    def from_dict(d: dict) -> "BackboneSpec":
        return BackboneSpec(
            seed=d["seed"],
            family=InitFamily.from_dict(d["family"]),
            layer_shapes=tuple(tuple(s) for s in d["layer_shapes"]),
            algorithm_id=d.get("algorithm_id", ALGORITHM_ID),
        )


def _c_order(a: np.ndarray):
    return a if a.flags.c_contiguous else a.tobytes()


class Model:
    """An assembled network plus its trainable-parameter handles."""

    def __init__(self, cfg: ModelConfig, spec: BackboneSpec):
        self.cfg = cfg
        self.spec = spec
        self.hidden: list = []
        self.head = None
        self.head_bias: Tensor | None = None  # trainable head offset (head_mode "lora_bias")
        self._backbone_streams: list[Stream] = []  # one per LottaLayer, advancing across redraws
        self._dropout_streams: list[Stream] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        cfg, seed = self.cfg, self.spec.seed
        shapes = cfg.layer_shapes()
        if self.spec.layer_shapes and tuple(self.spec.layer_shapes) != shapes:
            raise ConfigError(
                f"backbone spec shapes {self.spec.layer_shapes} do not match config shapes {shapes}"
            )
        n_lotta = cfg.n_lotta()
        layers = []
        for i, (d_out, d_in) in enumerate(shapes):
            if i >= n_lotta:
                layers.append(DenseLayer(d_in, d_out, derive_stream(seed, i, DrawKind.HEAD_INIT)))
                continue
            # the layer draws its frozen state from a copy on first read;
            # the live stream skips ahead to where that draw would leave it
            stream = derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT)
            pending = functools.partial(_draw_frozen, cfg, self.spec.family, i, stream.copy())
            for kind, n in _frozen_plan(cfg, self.spec.family, i):
                stream.skip(kind, n)
            self._backbone_streams.append(stream)
            adapter = init_adapter(
                cfg.rank, d_in, d_out, cfg.alpha, cfg.scaling_mode,
                derive_stream(seed, i, DrawKind.ADAPTER_A_INIT), b_init=cfg.b_init,
            )
            is_hidden = i < len(shapes) - 1
            layers.append(LottaLayer(pending, adapter, use_layernorm=cfg.layernorm and is_hidden))
        *self.hidden, self.head = layers
        self._dropout_streams = [derive_stream(seed, i, DrawKind.DROPOUT_MASK) for i in range(len(self.hidden))]
        if cfg.head_mode == "lora_bias" and n_lotta == len(shapes):
            self.head_bias = tensor(np.zeros(shapes[-1][0]), requires_grad=True)

    # -- inference ---------------------------------------------------------

    def forward_logits(self, batch: np.ndarray) -> Tensor:
        """Eval-mode logits for a [batch, input_dim] array, without dropout.

        Runs each layer's explicit forward rule and keeps nothing for a
        backward pass.  The layers run over ``eval_blocks(n)``, balanced
        row blocks of at most ``EVAL_BLOCK_ROWS`` rows, and the blocks'
        logits are joined, so an eval peaks at one block's activations
        whatever the batch size.  A row's logits are a function of that
        fixed partition, which for n <= ``EVAL_BLOCK_ROWS`` is the whole
        batch.
        """
        self._ready(batch)
        return Tensor(np.concatenate([self._forward_rows(batch[lo:hi]) for lo, hi in eval_blocks(len(batch))]))

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """One training pass over the whole batch: ``(loss, logits)``.

        Runs the forward with dropout, keeping each layer's cache, then
        ``softmax_xent``, then the layers' backward rules in reverse, which
        add every trainable's gradient into its ``grad``.
        """
        self._ready(x)
        layers = [*self.hidden, self.head]
        caches = [{} for _ in layers]
        logits = self._forward_rows(x, caches)
        loss, g = softmax_xent(logits, y)
        if self.head_bias is not None:
            add_grad(self.head_bias, g.sum(axis=0, dtype=np.float64))
        for i in reversed(range(len(layers))):
            cache = caches.pop()
            if i < len(self.hidden):
                # ReLU then dropout followed layer i; a post-dropout entry
                # is positive exactly where the ReLU passed and the mask
                # kept it, and a dropped entry's gradient is zeroed by its
                # scale either way
                if "scale" in cache:
                    g *= cache.pop("scale")
                g *= next_input > 0
            next_input = cache["h"]
            g = layers[i].backward(g, cache, need_dx=i > 0)
        return loss, logits

    def _ready(self, batch: np.ndarray) -> None:
        """Check the batch's shape and run any deferred scaffold draws."""
        if batch.ndim != 2 or batch.shape[1] != self.cfg.input_dim:
            raise DimensionError(f"batch must be [n, {self.cfg.input_dim}], got {batch.shape}")
        # deferred scaffold draws run before any activation exists
        for layer in self.lotta_layers():
            layer.materialize()

    def _forward_rows(self, batch: np.ndarray, caches: list | None = None) -> np.ndarray:
        """The layer loop over one block of rows.  Given one cache dict per
        layer, it is a training forward: it applies dropout, and each
        layer's cache keeps what its backward needs, a hidden layer's
        dropout scale included."""
        p = self.cfg.dropout if caches is not None else 0.0
        caches = caches or [None] * (len(self.hidden) + 1)
        h = np.ascontiguousarray(batch, dtype=np.float32)
        for i, layer in enumerate(self.hidden):
            h = layer.forward(h, caches[i])
            np.maximum(h, 0, out=h)
            if p > 0.0:
                caches[i]["scale"] = _dropout_scale(self._dropout_streams[i], h.shape, p, h.dtype)
                h *= caches[i]["scale"]
        logits = self.head.forward(h, caches[-1])
        if self.head_bias is not None:
            logits += self.head_bias.data
        return logits

    # -- bookkeeping -------------------------------------------------------

    def lotta_layers(self) -> list[LottaLayer]:
        """The layers with a frozen backbone and an adapter, in layer order
        (dense layers, when present, always come after them)."""
        return [*self.hidden, self.head][:self.cfg.n_lotta()]

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in canonical artifact order."""
        named = []
        for i, layer in enumerate(self.hidden):
            named += [(f"layer{i}.{n}", t) for n, t in layer.trainable()]
        named += [(f"head.{n}", t) for n, t in self.head.trainable()]
        if self.head_bias is not None:
            named.append(("head.bias", self.head_bias))
        return named

    def count_trainable(self) -> tuple[int, dict]:
        breakdown: dict[str, int] = {}
        for name, t in self.trainable_params():
            group = name.split(".")[0]
            breakdown[group] = breakdown.get(group, 0) + int(np.prod(t.shape) if t.shape else 1)
        return sum(breakdown.values()), breakdown

    def backbone_hashes(self) -> list[str]:
        """SHA-256 of each layer's frozen bytes (matrix + bias), in order.

        hashlib reads a C-contiguous array in place; a Fortran-ordered
        matrix (``orthogonal``'s wide layers) is hashed from a C-order copy,
        so the digest is always that of ``tobytes()``.
        """
        out = []
        for layer in self.lotta_layers():
            digest = hashlib.sha256(_c_order(layer.backbone.data))
            if layer.frozen_bias is not None:
                digest.update(_c_order(layer.frozen_bias))
            out.append(digest.hexdigest())
        return out

    def _redraw(self) -> None:
        # eager, so a trace charges the draw to the redraw that asked for
        # it; each layer drops its old state first, so a redraw peaks at
        # one chunk's scratch above the live scaffold
        for i, (layer, stream) in enumerate(zip(self.lotta_layers(), self._backbone_streams)):
            layer.drop_backbone()
            layer.set_backbone(*_draw_frozen(self.cfg, self.spec.family, i, stream))

    def resample_backbones(self) -> None:
        """Redraw every layer's frozen state from its continuing stream."""
        if self.cfg.zero_scaffold or self.cfg.mode == "full_training":
            return
        self._redraw()

    def swap_seed_backbones(self, seed: int, drawn: dict | None = None) -> None:
        """Regenerate all frozen state from a different global seed
        (seed gating); adapters and heads are untouched.

        With a ``drawn`` dict, each seed's scaffold is drawn once: the
        first swap to a seed keeps its read-only arrays and the streams
        past them under the seed, and a later swap reinstalls them, so
        every seed's scaffold stays live in the dict.
        """
        if self.cfg.mode == "full_training":
            raise ConfigError("seed swapping requires lottalora mode")
        if drawn is not None and seed in drawn:
            streams, frozen = drawn[seed]
            self._backbone_streams = [stream.copy() for stream in streams]
            for layer, state in zip(self.lotta_layers(), frozen):
                layer.set_backbone(*state)
            return
        self._backbone_streams = [
            derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT) for i in range(self.cfg.n_lotta())
        ]
        self._redraw()
        if drawn is not None:
            drawn[seed] = ([stream.copy() for stream in self._backbone_streams],
                           [(layer.backbone, layer.frozen_bias) for layer in self.lotta_layers()])


def build_model(cfg: ModelConfig, backbone: BackboneSpec) -> Model:
    return Model(cfg, backbone)
