"""Frozen seed-reconstructible random backbones steered by trainable
low-rank adapters, plus the experiment harnesses and cost analytics that
go with them."""

from .artifact import pack, reconstruct, unpack
from .cost import ARCHS, TransformerArch, cost_report, rank_star
from .data import Dataset, load_mnist, make_partition, synthetic_blobs
from .initfam import FAMILY_NAMES, BackboneMatrix, InitFamily, draw_matrix
from .layers import LottaLayer, init_adapter
from .model import BackboneSpec, Model, ModelConfig, build_model
from .prng import ALGORITHM_ID, DrawKind, Stream, derive_stream
from .train import AdamW, RunMetrics, TrainConfig, beta_summary, cosine_lr, seed_gated_train, train_run

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_ID",
    "ARCHS",
    "AdamW",
    "BackboneMatrix",
    "BackboneSpec",
    "Dataset",
    "DrawKind",
    "FAMILY_NAMES",
    "InitFamily",
    "LottaLayer",
    "Model",
    "ModelConfig",
    "RunMetrics",
    "Stream",
    "TrainConfig",
    "TransformerArch",
    "beta_summary",
    "build_model",
    "cosine_lr",
    "cost_report",
    "derive_stream",
    "draw_matrix",
    "init_adapter",
    "load_mnist",
    "make_partition",
    "pack",
    "rank_star",
    "reconstruct",
    "seed_gated_train",
    "synthetic_blobs",
    "train_run",
    "unpack",
    "__version__",
]
