"""Closed-form cost analytics: training FLOPs, optimizer memory,
distributable size, exact transformer parameter counts, and the
minimum-sufficient-rank estimator.

Parameter model for the decoder-only architectures (tied embeddings,
RMSNorm, vocab 32,000):

    total        = vocab*d + n*(4*d^2 + 3*d*m + 2*d) + d
    internal     = total - vocab*d          (excludes tied embeddings)
    lora_internal(r) = n*(8*r*d + 4)        (adapters on the four attention
                                             projections plus per-layer gain)

Formatted sizes use MiB (2^20 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

MIB = float(1 << 20)

BYTES_FULL_PER_PARAM = 16  # bf16 weight + bf16 grad + fp32 moments + fp32 master
BYTES_FROZEN_PER_PARAM = 2
BYTES_TRAINABLE_EXTRA = 14

DIST_FORMATS = ("fp16", "int4_grouped", "lottalora")


@dataclass(frozen=True)
class TransformerArch:
    name: str
    n_layers: int
    hidden: int
    heads: int
    mlp: int
    vocab: int = 32_000
    tied_embeddings: bool = True

    def total_params(self) -> int:
        d, n, m = self.hidden, self.n_layers, self.mlp
        return self.vocab * d + n * (4 * d * d + 3 * d * m + 2 * d) + d

    def internal_params(self) -> int:
        return self.total_params() - self.vocab * self.hidden

    def lora_internal(self, rank: int) -> int:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        return self.n_layers * (8 * rank * self.hidden + 4)

    def lottalora_total(self, rank: int) -> int:
        return self.total_params() + self.lora_internal(rank)

    def norm_params(self) -> int:
        # RMSNorm affine: 2 per-layer norms of width d plus the final norm
        return 2 * self.hidden * self.n_layers + self.hidden


ARCHS = {
    "3M": TransformerArch("3M", 6, 64, 4, 192),
    "30M": TransformerArch("30M", 10, 384, 6, 1_024),
    "300M": TransformerArch("300M", 22, 1_024, 16, 2_816),
    "600M": TransformerArch("600M", 30, 1_344, 21, 3_584),
    "900M": TransformerArch("900M", 34, 1_664, 26, 4_608),
}


def flops(m_tokens: float, n: float, n_tr: float) -> tuple[float, float, float]:
    """(F_full, F_lottalora, ratio).

    Full training costs ~6 FLOPs per token-parameter; freezing removes the
    weight-gradient third for frozen parameters, leaving 4N + 2N_tr.
    """
    if m_tokens < 0:
        raise ValueError(f"token count must be >= 0, got {m_tokens}")
    if not 0 <= n_tr <= n:
        raise ValueError(f"need 0 <= N_tr <= N, got N_tr={n_tr}, N={n}")
    if n == 0:
        raise ValueError("N must be positive for the FLOPs ratio")
    f_full = 6.0 * m_tokens * n
    f_lotta = m_tokens * (4.0 * n + 2.0 * n_tr)
    return f_full, f_lotta, 2.0 / 3.0 + n_tr / (3.0 * n)


def opt_memory(n: float, n_tr: float) -> tuple[float, float, float]:
    """(bytes full, bytes lottalora, ratio) under mixed-precision Adam
    accounting: 16 bytes per trainable parameter, 2 per frozen one."""
    if not 0 <= n_tr <= n:
        raise ValueError(f"need 0 <= N_tr <= N, got N_tr={n_tr}, N={n}")
    if n == 0:
        raise ValueError("N must be positive for the memory ratio")
    mem_full = float(BYTES_FULL_PER_PARAM) * n
    mem_lotta = float(BYTES_FROZEN_PER_PARAM) * n + float(BYTES_TRAINABLE_EXTRA) * n_tr
    return mem_full, mem_lotta, 1.0 / 8.0 + (7.0 / 8.0) * (n_tr / n)


def transformer_counts(arch: TransformerArch, rank: int) -> tuple[int, int, int]:
    """(lottalora total, fully-trained internal, lora internal), exact."""
    return arch.lottalora_total(rank), arch.internal_params(), arch.lora_internal(rank)


def dist_size(arch: TransformerArch, rank: int, fmt: str) -> int:
    """Distributable bytes for one storage format.

    fp16 ships every parameter at 2 bytes.  int4_grouped ships 4-bit
    weights plus an fp16 scale per 32-weight group (4.5 bits/weight).
    lottalora ships an 8-byte seed plus fp16 embeddings, adapters, and
    norm affine; the backbone is regenerated.
    """
    if fmt == "fp16":
        return 2 * arch.total_params()
    if fmt == "int4_grouped":
        return round(arch.total_params() * 4.5 / 8.0)
    if fmt == "lottalora":
        shipped = arch.vocab * arch.hidden + arch.lora_internal(rank) + arch.norm_params()
        return 8 + 2 * shipped
    raise ValueError(f"unknown distribution format {fmt!r}; expected one of {DIST_FORMATS}")


def dist_size_mib(arch: TransformerArch, rank: int, fmt: str) -> float:
    return dist_size(arch, rank, fmt) / MIB


def rank_star(losses: dict, full_loss: float, epsilon: float):
    """Smallest rank whose loss is within epsilon of the fully trained
    baseline; None when no rank qualifies."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if not losses:
        raise ValueError("losses must be nonempty")
    for rank in sorted(losses):
        if losses[rank] <= full_loss + epsilon:
            return rank
    return None


def rmt_sigma1(d: int, sigma_init: float) -> float:
    """Random-matrix prediction for the largest singular value of a d x d
    gaussian matrix with entry std sigma_init: 2 * sqrt(d) * sigma."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if sigma_init <= 0:
        raise ValueError(f"sigma_init must be > 0, got {sigma_init}")
    return 2.0 * (d ** 0.5) * sigma_init


def cost_report(arch: TransformerArch, rank: int, m_tokens: float | None = None) -> dict:
    """The full analytics for one (architecture, rank) pair, as a
    JSON-ready dict."""
    total, internal_full, lora_internal = transformer_counts(arch, rank)
    n = arch.total_params()
    # trainable set: adapters plus embeddings and norms (what actually
    # receives gradients in the frozen-backbone configuration)
    n_tr = lora_internal + arch.vocab * arch.hidden + arch.norm_params()
    tokens = m_tokens if m_tokens is not None else 1.0
    f_full, f_lotta, f_ratio = flops(tokens, n, min(n_tr, n))
    mem_full, mem_lotta, mem_ratio = opt_memory(n, min(n_tr, n))
    dist_bytes = {fmt: dist_size(arch, rank, fmt) for fmt in DIST_FORMATS}
    return {
        "arch": arch.name,
        "rank": rank,
        "m_tokens": tokens,
        "total_params": total,
        "internal_full": internal_full,
        "lora_internal": lora_internal,
        "flops_full": f_full,
        "flops_lottalora": f_lotta,
        "flop_ratio": f_ratio,
        "mem_full_bytes": mem_full,
        "mem_lottalora_bytes": mem_lotta,
        "mem_ratio": mem_ratio,
        "dist_bytes": dist_bytes,
        "dist_mib": {k: v / MIB for k, v in dist_bytes.items()},
    }
