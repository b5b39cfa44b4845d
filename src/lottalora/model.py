"""MLP assembly: presets, head modes, trainable-parameter accounting.

A model is built from a ModelConfig plus a BackboneSpec: the spec's seed
and family and the config's fields in ``scaffold_args`` determine every
frozen matrix, which is what makes models reconstructible from a header.
``draw_scaffold`` is that rule: frozen layer i is drawn from
``derive_stream(seed, i, BACKBONE_WEIGHT)``.  It reads only its
arguments, which ``scaffold_args`` gives for a config and spec, so two
models of one ``scaffold_key`` may share one draw's read-only arrays
(``train_run``'s memo does).  A ``Model`` takes a drawn scaffold, its
streams and frozen arrays, and ``build_model`` draws it afresh.
``ModelConfig.trainable_layout`` names the trainable tensors.
Each layer holds its own trainables (a ``lora_bias`` head its offset too)
and its adapter scale, ``ModelConfig.adapter_scale``; ``trainable_params``
flattens the layers' ``trainable()`` lists in layer order.  The model owns
their values: one f32 buffer ``params``, laid out by ``trainable_layout``,
whose ``ModelConfig.views`` the trainables' ``data`` are.  It holds no
gradient: its caller owns the buffer ``loss_and_grads`` adds into
(``AdamW.grads`` in training), so a built or reconstructed model is its
scaffold and ``params``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError, finite, integer, real, shown
from .initfam import BackboneMatrix, InitFamily, draw_matrix
from .layers import B_INITS, DenseLayer, LottaLayer, init_adapter
from .numerics import Tensor, softmax_xent
from .prng import ALGORITHM_ID, DrawKind, Stream, check_seed, check_tag, derive_stream

PRESETS = {
    "tiny": (128, 64),
    "small": (256, 128, 64),
    "medium": (512, 256, 128, 64),
    "large": (1024, 512, 256, 128, 64),
}

# A config is also read from an artifact's header, and its tensor layout,
# tensor table and scaffold grow with its depth, so a few bytes of deflated
# header must not declare a million layers; the presets use 2 to 5.
MAX_HIDDEN_LAYERS = 1024

HEAD_MODES = ("full", "lora", "lora_bias")
MODES = ("lottalora", "full_training")
SCALING_MODES = ("standard", "rank_stabilized")

# An eval forward runs over row blocks of at most this many rows (>= 256 in
# each block of a larger batch).  A GEMM's rows can differ in a block from
# the whole batch, by shape and BLAS kernel, so eval logits are a function
# of ``eval_blocks(n)`` and the kernel; one build agrees with itself.
EVAL_BLOCK_ROWS = 511

# A backbone that is not C-contiguous is hashed from C-order copies of row
# blocks of at most this many bytes (or one row, if a row is larger).
HASH_BLOCK_BYTES = 1 << 18


def eval_blocks(n: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` row blocks of an n-row eval forward: the fewest
    blocks of at most ``EVAL_BLOCK_ROWS`` rows, sizes differing by <= 1."""
    k = max(1, -(-n // EVAL_BLOCK_ROWS))
    edges = [n * j // k for j in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _draw_frozen(shape: tuple, zero_scaffold: bool, frozen_bias: bool, family: InitFamily, stream: Stream):
    """A frozen ``(d_out, d_in)`` layer's matrix and bias, drawn from ``stream``."""
    d_out, d_in = shape
    if zero_scaffold:
        matrix = BackboneMatrix(np.zeros((d_out, d_in), dtype=np.float32))
    else:
        matrix = draw_matrix(stream, family, d_out, d_in)
    if not frozen_bias:
        return matrix, None
    # frozen counterpart of a dense layer's bias: U(+-1/sqrt(d_in))
    bound = 1.0 / float(d_in) ** 0.5
    return matrix, (bound * (2.0 * stream.unit_block(d_out) - 1.0)).astype(np.float32)


def draw_scaffold(shapes: tuple, zero_scaffold: bool, frozen_bias: bool, family: InitFamily,
                  seed: int) -> tuple[list[Stream], list[tuple]]:
    """A seed's scaffold: each frozen layer i's ``(matrix, bias)`` of
    ``shapes[i]``, drawn from ``derive_stream(seed, i, BACKBONE_WEIGHT)``,
    and those streams, each left just past its layer's draw.  It reads
    nothing but its arguments."""
    streams, frozen = [], []
    for i, shape in enumerate(shapes):
        stream = derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT)
        frozen.append(_draw_frozen(shape, zero_scaffold, frozen_bias, family, stream))
        streams.append(stream)
    return streams, frozen


def scaffold_args(cfg: "ModelConfig", spec: "BackboneSpec") -> tuple:
    """``draw_scaffold``'s arguments for a model of ``cfg`` on ``spec``: the
    frozen layers' shapes, ``zero_scaffold``, ``frozen_bias``, the family
    and the seed.  A spec whose layer shapes are not the config's is
    refused here, before anything is drawn."""
    shapes = cfg.layer_shapes()
    if spec.layer_shapes and tuple(spec.layer_shapes) != shapes:
        raise ConfigError(f"backbone spec shapes {spec.layer_shapes} do not match config shapes {shapes}")
    return shapes[:cfg.n_lotta()], cfg.zero_scaffold, cfg.frozen_bias, spec.family, spec.seed


def scaffold_key(cfg: "ModelConfig", spec: "BackboneSpec") -> str:
    """The ``repr`` of ``scaffold_args``: models with equal keys have equal
    scaffolds, and values that compare equal yet may draw otherwise (1
    and 1.0, 0.0 and -0.0) give different keys."""
    return repr(scaffold_args(cfg, spec))


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
            object.__setattr__(self, name, integer(getattr(self, name), name))
        for name in ("layernorm", "zero_scaffold", "frozen_bias"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be True or False, got {getattr(self, name)!r}")
        if self.hidden_dims is not None:
            if not isinstance(self.hidden_dims, Iterable):
                raise ConfigError(f"hidden_dims must be a sequence of integers, got {self.hidden_dims!r}")
            dims = tuple(itertools.islice(self.hidden_dims, MAX_HIDDEN_LAYERS + 1))
            if len(dims) > MAX_HIDDEN_LAYERS:
                raise ConfigError(f"hidden_dims may list at most {MAX_HIDDEN_LAYERS} layers")
            object.__setattr__(self, "hidden_dims", tuple(integer(d, "hidden_dims") for d in dims))
        elif not isinstance(self.preset, str) or self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected one of {sorted(PRESETS)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.head_mode not in HEAD_MODES:
            raise ConfigError(f"head_mode must be one of {HEAD_MODES}, got {self.head_mode!r}")
        if self.scaling_mode not in SCALING_MODES:
            raise ConfigError(f"scaling_mode must be one of {SCALING_MODES}, got {self.scaling_mode!r}")
        dims = (self.input_dim, *self.dims(), self.num_classes)
        if any(d < 1 for d in dims):
            raise ConfigError(f"input_dim, hidden_dims and num_classes must all be >= 1, "
                              f"got ({', '.join(map(shown, dims))})")
        # checked, never coerced: the header records alpha as given
        if not (finite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be a finite number > 0, got {shown(self.alpha)}")
        if not (real(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout!r}")
        if self.b_init not in B_INITS:
            raise ConfigError(f"b_init must be one of {B_INITS}, got {self.b_init!r}")
        # as TransformerArch.lora_internal bounds its rank by the width: a
        # d_out x d_in adapter product BA has rank at most min(d_out, d_in)
        max_rank = max(min(shape) for shape in self.layer_shapes())
        if not 1 <= self.rank <= max_rank:
            raise ConfigError(f"rank must lie in [1, {shown(max_rank)}], the largest min(d_out, d_in) of a layer, "
                              f"got {shown(self.rank)}")

    def adapter_scale(self) -> float:
        """The adapter scale s: alpha/r, or alpha/sqrt(r) when rank-stabilized."""
        return self.alpha / (math.sqrt(self.rank) if self.scaling_mode == "rank_stabilized" else self.rank)

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
            if self.head_mode == "lora_bias" and not is_hidden:
                layout.append(("head.bias", (d_out,)))
        return layout

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a flat buffer laid out by ``trainable_layout()``, one per
        trainable tensor in that order, each in its tensor's shape."""
        shapes = [shape for _, shape in self.trainable_layout()]
        ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]


@dataclass(frozen=True)
class BackboneSpec:
    """The frozen matrices' seed, family and layer shapes (empty: the
    config's); with ``scaffold_args`` they regenerate them bit-exactly."""

    seed: int
    family: InitFamily = field(default_factory=lambda: InitFamily("normal"))
    layer_shapes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.family, InitFamily):
            raise ConfigError(f"family must be an InitFamily, got {self.family!r}")

    @staticmethod
    def from_config(cfg: ModelConfig, seed: int, family: InitFamily | None = None) -> "BackboneSpec":
        fam = family if family is not None else InitFamily("normal")
        return BackboneSpec(seed=seed, family=fam, layer_shapes=cfg.layer_shapes())

    @staticmethod
    def from_dict(d: dict) -> "BackboneSpec":
        """A header's ``backbone``, whose tag, if any, must be this build's."""
        spec = BackboneSpec(
            seed=d["seed"],
            family=InitFamily.from_dict(d["family"]),
            layer_shapes=tuple(tuple(s) for s in d["layer_shapes"]),
        )
        check_tag(d.get("algorithm_id", ALGORITHM_ID), "backbone")
        return spec


def _hash_into(digest, a: np.ndarray) -> None:
    """Add ``a.tobytes()`` to ``digest`` without copying all of ``a``:
    hashlib reads a C-contiguous array in place, and any other (such as
    ``orthogonal``'s Fortran-ordered wide layers) in C-order row blocks of
    about ``HASH_BLOCK_BYTES``."""
    if a.flags.c_contiguous:
        digest.update(a)
        return
    step = max(1, HASH_BLOCK_BYTES // a[0].nbytes)
    for lo in range(0, len(a), step):
        digest.update(np.ascontiguousarray(a[lo:lo + step]))


class Model:
    """An assembled network plus its trainable-parameter handles.

    ``params`` is the trainables' storage: one flat f32 buffer in
    ``ModelConfig.trainable_layout()`` order, the artifact payload's
    values, whose ``ModelConfig.views`` the trainables' ``data`` are,
    bound once at build, so callers write into it in place.
    """

    def __init__(self, cfg: ModelConfig, spec: BackboneSpec, scaffold: tuple[list[Stream], list[tuple]]):
        self.cfg = cfg
        self.spec = spec
        seed = spec.seed
        shapes = cfg.layer_shapes()
        # what a redraw draws with; refuses a spec of other shapes
        self._scaffold_args = scaffold_args(cfg, spec)
        # draw_scaffold's (streams, frozen): the streams are the model's own,
        # one per LottaLayer and advancing across redraws; the read-only
        # frozen arrays may be shared with other models
        self._backbone_streams, frozen = scaffold
        scale = cfg.adapter_scale()
        layers = []
        for i, (d_out, d_in) in enumerate(shapes):
            if i >= cfg.n_lotta():
                layers.append(DenseLayer(d_in, d_out, derive_stream(seed, i, DrawKind.HEAD_INIT)))
                continue
            a, b = init_adapter(cfg.rank, d_in, d_out, derive_stream(seed, i, DrawKind.ADAPTER_A_INIT), cfg.b_init)
            is_hidden = i < len(shapes) - 1
            layers.append(LottaLayer(*frozen[i], a, b, scale, use_layernorm=cfg.layernorm and is_hidden,
                                     use_bias=cfg.head_mode == "lora_bias" and not is_hidden))
        *self.hidden, self.head = layers
        self._dropout_streams = [derive_stream(seed, i, DrawKind.DROPOUT_MASK) for i in range(len(self.hidden))]
        tensors = [t for _, t in self.trainable_params()]
        self.params = np.concatenate([t.data.ravel() for t in tensors])
        for t, data in zip(tensors, cfg.views(self.params), strict=True):
            t.data = data

    # -- inference ---------------------------------------------------------

    def forward_logits(self, batch: np.ndarray) -> Tensor:
        """Eval-mode logits for a [batch, input_dim] array, without dropout.

        Runs each layer's explicit forward rule and keeps nothing for a
        backward pass.  The layers run over ``eval_blocks(n)``, balanced
        row blocks of at most ``EVAL_BLOCK_ROWS`` rows, and the blocks'
        logits are joined, so an eval peaks at one block's activations
        whatever the batch size.  A row's logits are a function of that
        fixed partition (the whole batch for n <= ``EVAL_BLOCK_ROWS``) and
        of the BLAS kernel; in other blocks they can differ in the last bit.
        """
        self._check_batch(batch)
        return Tensor(np.concatenate([self._forward_rows(batch[lo:hi]) for lo, hi in eval_blocks(len(batch))]))

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, grads: list) -> tuple[float, np.ndarray]:
        """One training pass over the whole batch: ``(loss, logits)``.

        Runs the forward with dropout, keeping each layer's cache, then
        ``softmax_xent``, then the layers' backward rules in reverse, which
        add every trainable's gradient into ``grads``, the caller's arrays
        in ``trainable_layout()`` order (``cfg.views`` of a buffer).  The
        forward's dropout masks are ``Stream.keep_block`` draws, and no
        cache holds one: the gradient through a hidden layer's ReLU and
        dropout is masked by where the next layer's cached input, the
        post-dropout activation, is positive, then scaled by 1/(1-p).
        """
        self._check_batch(x)
        layers = [*self.hidden, self.head]
        ends = list(itertools.accumulate((len(layer.trainable()) for layer in layers), initial=0))
        caches = [{} for _ in layers]
        logits = self._forward_rows(x, caches)
        loss, g = softmax_xent(logits, y)
        p = self.cfg.dropout
        for i in reversed(range(len(layers))):
            cache = caches.pop()
            if i < len(self.hidden):
                # ReLU then dropout followed layer i; a post-dropout entry
                # is positive exactly where the ReLU passed and the mask
                # kept it.  Masking before scaling gives the bits of
                # scaling by the mask's 0 or 1/(1-p) first: g * 1 is g, and
                # a zero factor keeps g's sign either way
                g *= next_input > 0
                if p > 0.0:
                    g *= next_input.dtype.type(1.0 / (1.0 - p))
            next_input = cache["h"]
            g = layers[i].backward(g, cache, grads[ends[i]:ends[i + 1]], need_dx=i > 0)
        return loss, logits

    def _check_batch(self, batch: np.ndarray) -> None:
        """A DimensionError unless the batch is an [n, input_dim] array, and
        a DataError unless its values are boolean, integer or real floating."""
        if not isinstance(batch, np.ndarray):
            raise DimensionError(f"batch must be an [n, {self.cfg.input_dim}] array, got a {type(batch).__name__}")
        if batch.ndim != 2 or batch.shape[1] != self.cfg.input_dim:
            raise DimensionError(f"batch must be [n, {self.cfg.input_dim}], got {batch.shape}")
        if batch.dtype.kind not in "biuf":
            raise DataError(f"batch values must be boolean, integer or real floating, got dtype {batch.dtype}")

    def _forward_rows(self, batch: np.ndarray, caches: list | None = None) -> np.ndarray:
        """The layer loop over one block of rows.  Given one cache dict per
        layer, it is a training forward: after each hidden layer's ReLU it
        applies dropout in place from the layer's dropout stream's
        ``keep_block`` over the activations, reshaped to them, and each
        layer's cache keeps what its backward needs.  No cache keeps the
        mask; the backward reads it back from the next layer's cached
        input."""
        p = self.cfg.dropout if caches is not None else 0.0
        caches = caches or [None] * (len(self.hidden) + 1)
        h = np.ascontiguousarray(batch, dtype=np.float32)
        for i, layer in enumerate(self.hidden):
            h = layer.forward(h, caches[i])
            np.maximum(h, 0, out=h)
            if p > 0.0:
                # h * 0 or h * 1, then times 1/(1-p): the bits of h times
                # the mask's 0 or 1/(1-p) in h's dtype
                h *= self._dropout_streams[i].keep_block(h.size, p).reshape(h.shape)
                h *= h.dtype.type(1.0 / (1.0 - p))
        return self.head.forward(h, caches[-1])

    # -- bookkeeping -------------------------------------------------------

    def lotta_layers(self) -> list[LottaLayer]:
        """The layers with a frozen backbone and an adapter, in layer order
        (dense layers, when present, always come after them)."""
        return [*self.hidden, self.head][:self.cfg.n_lotta()]

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in canonical artifact order, named by
        ``ModelConfig.trainable_layout()``."""
        tensors = [t for layer in (*self.hidden, self.head) for t in layer.trainable()]
        return [(name, t) for (name, _), t in zip(self.cfg.trainable_layout(), tensors, strict=True)]

    def backbone_hashes(self) -> list[str]:
        """SHA-256 of each layer's frozen bytes (matrix + bias), in order.

        The digest is always that of ``tobytes()``, whatever the layout.
        """
        out = []
        for layer in self.lotta_layers():
            digest = hashlib.sha256()
            _hash_into(digest, layer.backbone.data)
            if layer.frozen_bias is not None:
                _hash_into(digest, layer.frozen_bias)
            out.append(digest.hexdigest())
        return out

    def resample_backbones(self) -> None:
        """Redraw every layer's frozen state from its continuing stream."""
        shapes, zero_scaffold, frozen_bias, family, _ = self._scaffold_args
        if zero_scaffold:
            return
        # each layer drops its old state first, so a redraw peaks at one
        # chunk's scratch above the live scaffold
        for layer, stream, shape in zip(self.lotta_layers(), self._backbone_streams, shapes):
            layer.drop_backbone()
            layer.set_backbone(*_draw_frozen(shape, zero_scaffold, frozen_bias, family, stream))


def build_model(cfg: ModelConfig, backbone: BackboneSpec) -> Model:
    """A model on a fresh draw of ``backbone``'s scaffold."""
    return Model(cfg, backbone, draw_scaffold(*scaffold_args(cfg, backbone)))
