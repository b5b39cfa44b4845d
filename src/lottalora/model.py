"""MLP assembly: presets, head modes, trainable-parameter accounting.

A model is built from a ModelConfig plus a BackboneSpec; the BackboneSpec
(seed, generator tag, init family, layer shapes) alone determines every
frozen matrix, which is what makes models reconstructible from a header.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .initfam import BackboneMatrix, InitFamily, draw_matrix
from .layers import SCALING_MODES, DenseLayer, LottaLayer, init_adapter
from .numerics import Tensor, add_bias, dropout, relu, tensor
from .prng import ALGORITHM_ID, DrawKind, Stream, derive_stream

PRESETS = {
    "tiny": (128, 64),
    "small": (256, 128, 64),
    "medium": (512, 256, 128, 64),
    "large": (1024, 512, 256, 128, 64),
}

HEAD_MODES = ("full", "lora", "lora_bias")
MODES = ("lottalora", "full_training")


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
        if self.hidden_dims is not None:
            object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        elif self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected one of {sorted(PRESETS)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.head_mode not in HEAD_MODES:
            raise ConfigError(f"head_mode must be one of {HEAD_MODES}, got {self.head_mode!r}")
        if self.scaling_mode not in SCALING_MODES:
            raise ConfigError(f"scaling_mode must be one of {SCALING_MODES}, got {self.scaling_mode!r}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.b_init not in ("zeros", "kaiming"):
            raise ConfigError(f"b_init must be 'zeros' or 'kaiming', got {self.b_init!r}")

    def dims(self) -> tuple:
        return self.hidden_dims if self.hidden_dims is not None else PRESETS[self.preset]

    def layer_shapes(self) -> tuple:
        """(d_out, d_in) for every weight matrix, hidden layers then head."""
        dims = (self.input_dim,) + self.dims() + (self.num_classes,)
        return tuple((dims[i + 1], dims[i]) for i in range(len(dims) - 1))

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "hidden_dims": list(self.hidden_dims) if self.hidden_dims is not None else None,
            "input_dim": self.input_dim,
            "num_classes": self.num_classes,
            "mode": self.mode,
            "rank": self.rank,
            "alpha": self.alpha,
            "scaling_mode": self.scaling_mode,
            "head_mode": self.head_mode,
            "dropout": self.dropout,
            "layernorm": self.layernorm,
            "zero_scaffold": self.zero_scaffold,
            "frozen_bias": self.frozen_bias,
            "b_init": self.b_init,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        d = dict(d)
        if d.get("hidden_dims") is not None:
            d["hidden_dims"] = tuple(d["hidden_dims"])
        return ModelConfig(**d)


@dataclass(frozen=True)
class BackboneSpec:
    """Everything needed to regenerate the frozen matrices bit-exactly."""

    seed: int
    family: InitFamily = field(default_factory=lambda: InitFamily("normal"))
    layer_shapes: tuple = ()
    algorithm_id: str = ALGORITHM_ID

    @staticmethod
    def from_config(cfg: ModelConfig, seed: int, family: InitFamily | None = None) -> "BackboneSpec":
        fam = family if family is not None else InitFamily("normal")
        return BackboneSpec(seed=seed, family=fam, layer_shapes=cfg.layer_shapes())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "family": self.family.to_dict(),
            "layer_shapes": [list(s) for s in self.layer_shapes],
            "algorithm_id": self.algorithm_id,
        }

    @staticmethod
    def from_dict(d: dict) -> "BackboneSpec":
        return BackboneSpec(
            seed=int(d["seed"]),
            family=InitFamily.from_dict(d["family"]),
            layer_shapes=tuple(tuple(s) for s in d["layer_shapes"]),
            algorithm_id=d.get("algorithm_id", ALGORITHM_ID),
        )


class Model:
    """An assembled network plus its trainable-parameter handles."""

    def __init__(self, cfg: ModelConfig, spec: BackboneSpec):
        self.cfg = cfg
        self.spec = spec
        self.hidden: list = []
        self.head = None
        self.head_bias: Tensor | None = None  # trainable head offset (head_mode "lora_bias")
        self._n_lotta = 0  # leading layers that are LottaLayers
        self._backbone_streams: list[Stream] = []  # one per LottaLayer, advancing across redraws
        self._dropout_streams: list[Stream] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _draw_frozen(self, i: int, stream: Stream, seed: int):
        """Layer i's frozen matrix and bias, drawn from ``stream``."""
        d_out, d_in = self.cfg.layer_shapes()[i]
        if self.cfg.zero_scaffold:
            matrix = BackboneMatrix(d_out, d_in, np.zeros((d_out, d_in), dtype=np.float32),
                                    provenance=(seed, i, "zero"))
        else:
            matrix = draw_matrix(stream, self.spec.family, d_out, d_in, provenance=(seed, i, self.spec.family))
        if not self.cfg.frozen_bias:
            return matrix, None
        # frozen counterpart of a dense layer's bias: U(+-1/sqrt(d_in))
        bound = 1.0 / float(d_in) ** 0.5
        return matrix, (bound * (2.0 * stream.unit_block(d_out) - 1.0)).astype(np.float32)

    def _build(self):
        cfg, seed = self.cfg, self.spec.seed
        shapes = cfg.layer_shapes()
        if self.spec.layer_shapes and tuple(self.spec.layer_shapes) != shapes:
            raise ConfigError(
                f"backbone spec shapes {self.spec.layer_shapes} do not match config shapes {shapes}"
            )
        if cfg.mode == "lottalora":
            self._n_lotta = len(shapes) - (cfg.head_mode == "full")
        layers = []
        for i, (d_out, d_in) in enumerate(shapes):
            if i >= self._n_lotta:
                layers.append(DenseLayer(d_in, d_out, derive_stream(seed, i, DrawKind.HEAD_INIT)))
                continue
            stream = derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT)
            self._backbone_streams.append(stream)
            backbone, frozen_bias = self._draw_frozen(i, stream, seed)
            adapter = init_adapter(
                cfg.rank, d_in, d_out, cfg.alpha, cfg.scaling_mode,
                derive_stream(seed, i, DrawKind.ADAPTER_A_INIT), b_init=cfg.b_init,
            )
            is_hidden = i < len(shapes) - 1
            layers.append(LottaLayer(backbone, adapter, use_layernorm=cfg.layernorm and is_hidden,
                                     frozen_bias=frozen_bias))
        *self.hidden, self.head = layers
        self._dropout_streams = [derive_stream(seed, i, DrawKind.DROPOUT_MASK) for i in range(len(self.hidden))]
        if cfg.head_mode == "lora_bias" and self._n_lotta == len(shapes):
            self.head_bias = tensor(np.zeros(shapes[-1][0]), requires_grad=True)

    # -- inference ---------------------------------------------------------

    def forward_logits(self, batch: np.ndarray, training: bool = False) -> Tensor:
        """Logits for a [batch, input_dim] array; dropout only in training."""
        if batch.ndim != 2 or batch.shape[1] != self.cfg.input_dim:
            raise DimensionError(f"batch must be [n, {self.cfg.input_dim}], got {batch.shape}")
        h = tensor(batch)
        for i, layer in enumerate(self.hidden):
            h = relu(layer.forward(h))
            if training and self.cfg.dropout > 0.0:
                h = dropout(h, self.cfg.dropout, self._dropout_streams[i], training=True)
        logits = self.head.forward(h)
        if self.head_bias is not None:
            logits = add_bias(logits, self.head_bias)
        return logits

    # -- bookkeeping -------------------------------------------------------

    def lotta_layers(self) -> list[LottaLayer]:
        """The layers with a frozen backbone and an adapter, in layer order
        (dense layers, when present, always come after them)."""
        return [*self.hidden, self.head][:self._n_lotta]

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
        """SHA-256 of each layer's frozen bytes (matrix + bias), in order."""
        out = []
        for layer in self.lotta_layers():
            digest = hashlib.sha256(layer.backbone.data.tobytes())
            if layer.frozen_bias is not None:
                digest.update(layer.frozen_bias.tobytes())
            out.append(digest.hexdigest())
        return out

    def _redraw(self, seed: int) -> None:
        for i, (layer, stream) in enumerate(zip(self.lotta_layers(), self._backbone_streams)):
            layer.set_backbone(*self._draw_frozen(i, stream, seed))

    def resample_backbones(self) -> None:
        """Redraw every layer's frozen state from its continuing stream."""
        if self.cfg.zero_scaffold or self.cfg.mode == "full_training":
            return
        self._redraw(self.spec.seed)

    def swap_seed_backbones(self, seed: int) -> None:
        """Regenerate all frozen state from a different global seed
        (seed gating); adapters and heads are untouched."""
        if self.cfg.mode == "full_training":
            raise ConfigError("seed swapping requires lottalora mode")
        self._backbone_streams = [
            derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT) for i in range(self._n_lotta)
        ]
        self._redraw(seed)


def build_model(cfg: ModelConfig, backbone: BackboneSpec) -> Model:
    return Model(cfg, backbone)
