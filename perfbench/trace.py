"""Span recorder for the traced run, installed from outside the program.

``Tracer.install`` wraps the public functions and methods of each
``lottalora`` module.  Modules import functions by name, so a function is
replaced in every loaded ``lottalora`` module that holds it (for example
``lottalora.model.draw_matrix`` as well as ``lottalora.initfam.draw_matrix``).
Spans are kept in memory as ``[name, start_ns, end_ns, parent, op, info]``
and written out when the run ends.  ``per_layer_metrics`` turns them into
the calibrated per-op numbers listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _draws(args, kwargs, result):
    return args[1]


def _family_entries(args, kwargs, result):
    return (args[1].name, args[2] * args[3])


def _gemm_flops(args, kwargs, result):
    m, k = args[0].data.shape
    return (2 * m * k * args[1].data.shape[0], result._backward_fn is not None)


def _matmul_flops(args, kwargs, result):
    m, k = args[0].data.shape
    return (2 * m * k * args[1].data.shape[1], result._backward_fn is not None)


def _tape_node(args, kwargs, result):
    return getattr(result, "_backward_fn", None) is not None


def _training(args, kwargs, result):
    return bool(kwargs.get("training", args[2] if len(args) > 2 else False))


def _final_loss(args, kwargs, result):
    return result.epochs[-1]["train_loss"]


# (module, attribute or "Class.method", info recorder); the span is named
# "<module>.<attribute>"
TARGETS = (
    ("prng", "Stream.u64_block", _draws),
    ("prng", "Stream.unit_block", None),
    ("prng", "Stream.gaussian_block", None),
    ("prng", "Stream.permutation", None),
    ("prng", "derive_stream", None),
    ("initfam", "draw_matrix", _family_entries),
    ("numerics", "Tensor.backward", None),
    ("numerics", "tensor", None),
    ("numerics", "matmul", _matmul_flops),
    ("numerics", "linear", _gemm_flops),
    ("numerics", "add", _tape_node),
    ("numerics", "add_bias", _tape_node),
    ("numerics", "scalar_scale", _tape_node),
    ("numerics", "const_scale", _tape_node),
    ("numerics", "relu", _tape_node),
    ("numerics", "dropout", _tape_node),
    ("numerics", "layernorm", _tape_node),
    ("numerics", "softmax", None),
    ("numerics", "softmax_xent", _tape_node),
    ("layers", "init_adapter", None),
    ("layers", "LottaLayer.forward", None),
    ("layers", "LottaLayer.set_backbone", None),
    ("layers", "DenseLayer.forward", None),
    ("model", "build_model", None),
    ("model", "Model.forward_logits", _training),
    ("model", "Model.resample_backbones", None),
    ("model", "Model.backbone_hashes", None),
    ("model", "Model.trainable_params", None),
    ("train", "train_run", _final_loss),
    ("train", "evaluate", None),
    ("train", "cosine_lr", None),
    ("train", "AdamW.step", None),
    ("train", "AdamW.zero_grad", None),
    ("artifact", "pack", None),
    ("artifact", "unpack", None),
    ("artifact", "reconstruct", None),
    ("data", "synthetic_blobs", None),
    ("data", "split_train_val", None),
)

OP = "op"  # the benchmark's own root span around each traced op
SETUP = "setup"  # op id of spans recorded while setting up


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` patch the program."""

    def __init__(self):
        self.spans: list = []
        self.op = SETUP
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lottalora" or n.startswith("lottalora.")]
        for mod_name, attr, info in TARGETS:
            home = sys.modules["lottalora." + mod_name]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, info))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP, time.process_time_ns(), 0, -1, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.process_time_ns()
        self.op = SETUP

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "info"], "spans": self.spans}, fh)


def per_layer_metrics(tracer: Tracer, setup_reps: int, ns_to_ms: dict, families) -> dict:
    """Calibrated per-op layer numbers from the spans of traced ops.

    ``ns_to_ms`` maps each op id, and ``SETUP``, to the factor from raw CPU
    nanoseconds to calibrated milliseconds.  Every ``.ms`` figure is a mean
    per traced op, except for the set-up work (``data.synthetic_blobs``,
    ``artifact.pack``), which is a mean per set-up pass.  Counts are means
    per traced op.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    n_ops = max(len({s[4] for s in spans if s[0] == OP}), 1)
    total = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    setup_total = defaultdict(float)
    draws = entries = flops = tape_nodes = 0
    fam_ms = defaultdict(float)
    fam_entries = defaultdict(int)
    fwd = {True: 0.0, False: 0.0}
    mask_ms = 0.0
    final_loss = []
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        dur = (end - start) * ns_to_ms[op]
        if op == SETUP:
            setup_total[name] += dur
            continue
        total[name] += dur
        self_ms[name] += dur - child_ns[i] * ns_to_ms[op]
        calls[name] += 1
        if name == "prng.u64_block":
            draws += info
        elif name == "prng.unit_block" and parent >= 0 and spans[parent][0] == "numerics.dropout":
            mask_ms += dur
        elif name == "initfam.draw_matrix":
            fam_ms[info[0]] += dur
            fam_entries[info[0]] += info[1]
            entries += info[1]
        elif name in ("numerics.linear", "numerics.matmul"):
            flops += info[0]
            tape_nodes += info[1]
        elif name == "model.forward_logits":
            fwd[info] += dur
        elif name == "train.train_run":
            final_loss.append(info)
        elif info is True:
            tape_nodes += 1

    def per_op(value):
        return value / n_ops

    def per_item_ns(ms, n):
        return ms * 1e6 / n if n else 0.0

    gemm_s = (self_ms["numerics.linear"] + self_ms["numerics.matmul"]) / 1e3
    out = {
        "prng.u64_block.self_ms": per_op(self_ms["prng.u64_block"]),
        "prng.u64_draws": per_op(draws),
        "prng.ns_per_u64": per_item_ns(self_ms["prng.u64_block"], draws),
        "prng.gaussian_block.self_ms": per_op(self_ms["prng.gaussian_block"]),
        "prng.unit_block.self_ms": per_op(self_ms["prng.unit_block"]),
        "prng.dropout_mask.ms": per_op(mask_ms),
        "prng.permutation.ms": per_op(total["prng.permutation"]),
        "initfam.draw_matrix.ms": per_op(total["initfam.draw_matrix"]),
        "initfam.draw_matrix.self_ms": per_op(self_ms["initfam.draw_matrix"]),
        "initfam.entries_drawn": per_op(entries),
    }
    for fam in families:
        out[f"initfam.ns_per_entry.{fam}"] = per_item_ns(fam_ms[fam], fam_entries[fam])
    out.update({
        "numerics.linear.ms": per_op(total["numerics.linear"]),
        "numerics.linear.calls": per_op(calls["numerics.linear"]),
        "numerics.gemm_gflop": per_op(flops / 1e9),
        "numerics.gemm_gflop_per_s": flops / 1e9 / gemm_s if gemm_s else 0.0,
        "numerics.backward.ms": per_op(total["numerics.backward"]),
        "numerics.dropout.self_ms": per_op(self_ms["numerics.dropout"]),
        "numerics.relu.ms": per_op(total["numerics.relu"]),
        "numerics.softmax_xent.ms": per_op(total["numerics.softmax_xent"]),
        "numerics.tape_nodes": per_op(tape_nodes),
        "layers.forward.self_ms": per_op(self_ms["layers.forward"]),
        "layers.set_backbone.ms": per_op(total["layers.set_backbone"]),
        "model.build.ms": per_op(total["model.build_model"]),
        "model.forward_train.ms": per_op(fwd[True]),
        "model.forward_eval.ms": per_op(fwd[False]),
        "model.resample.ms": per_op(total["model.resample_backbones"]),
        "model.resample.calls": per_op(calls["model.resample_backbones"]),
        "model.backbone_hashes.ms": per_op(total["model.backbone_hashes"]),
        "train.adamw_step.ms": per_op(total["train.step"]),
        "train.adamw_step.calls": per_op(calls["train.step"]),
        "train.evaluate.ms": per_op(total["train.evaluate"]),
        "train.train_run.self_ms": per_op(self_ms["train.train_run"]),
        "train.regen_share": total["model.resample_backbones"] / total[OP] if total[OP] else 0.0,
        "train.final_loss": float(np.mean(final_loss)) if final_loss else 0.0,
        "artifact.pack.ms": setup_total["artifact.pack"] / setup_reps,
        "artifact.unpack.ms": per_op(total["artifact.unpack"]),
        "artifact.reconstruct.self_ms": per_op(self_ms["artifact.reconstruct"]),
        "data.synthetic_blobs.ms": setup_total["data.synthetic_blobs"] / setup_reps,
        "data.split_train_val.ms": per_op(total["data.split_train_val"]),
        "trace.self_coverage": 1.0 - self_ms[OP] / total[OP] if total[OP] else 0.0,
    })
    return out
