#!/usr/bin/env python3
"""Print one digest over the bits that a speedup must not move.

Usage: python scripts/bitcheck.py --src <checkout>/src

Imports ``lottalora`` from the given ``src`` directory, runs a fixed grid
of small cases and prints one line per case, then ``digest <sha256>`` over
all of them.  Two checkouts whose last lines match trained, packed, gated
and evaluated to the same bits on this host.  A change that only moves
what a run ships (its final rounding and packing) leaves every line but
the ``shipped`` ones equal.  The cases:

  * ``train_run`` under every schedule (static, per_epoch, per_batch k=3,
    microbatch k=3) for the ``normal`` and ``orthogonal`` families, with
    and without LayerNorm and a ``lora_bias`` head, dropout 0.2, batch 37,
    and a ``tiny`` model at batch 300, whose dropout masks exceed one
    raw-fill chunk.  Each run gives two lines: ``trajectory`` covers the
    per-epoch metrics, the best epoch, the beta trajectory, the AdamW step
    count and moments, and the backbone hashes; ``shipped`` covers the
    final test numbers and betas, the trained parameters and the
    ``pack()`` bytes;
  * ``seed_gated_train`` on two label groups, plain and out-of-class;
  * a ``full_training`` run, and static runs with a ``lora`` head and with
    a zero scaffold (``b_init="kaiming"``, rank-stabilized scaling);
  * eval-mode logits of a ``tiny`` model with random trainables for row
    counts on both sides of the eval block edges;
  * ``draw_matrix`` for every init family at 512x784, which spans many
    Box-Muller chunks, and at 17x241 from a stream that holds a carry;
    ``student_t`` at each nu of ``STUDENT_T_NUS`` on both sides of the
    pairwise-sum edges (8, 16, 128), at 17x31 after a carry, with its
    float64 entries, whose last bits a float32 cast mostly hides; and
    ``orthogonal`` tall, square and wide after a carry.  Each matrix's
    digest covers its values, its C/F contiguity and the stream after it;
  * raw ``gaussian_block`` values, state and carry for counts on both sides
    of the chunk edges, with and without an incoming carry.

BLAS runs on one thread, as in the benchmark.  The whole grid runs in
seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

SCHEDULES = (("static", 2), ("per_epoch", 2), ("per_batch", 3), ("microbatch", 3))
EVAL_ROWS = (1, 255, 256, 511, 512, 513, 1024, 1025, 2048)
# draws; a Box-Muller chunk is 8192 pairs
GAUSSIAN_COUNTS = (0, 1, 2, 3, 7, 8191, 8192, 16383, 16384, 16385, 24577, 50001)
STUDENT_T_NUS = (1, 2, 7, 8, 9, 16, 17, 129, 300)
ORTHOGONAL_SHAPES = ((784, 512), (300, 300), (128, 256))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _cases():
    """Yield ``(name, digest)`` for every case of the grid."""
    from lottalora import artifact, data, train
    from lottalora.initfam import FAMILY_NAMES, InitFamily, _fill_entries, draw_matrix
    from lottalora.model import BackboneSpec, ModelConfig, build_model
    from lottalora.prng import Stream

    made = []

    class RecordingAdamW(train.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    train.AdamW = RecordingAdamW

    def optimizer_state():
        opt = made[-1]
        return [str(opt.t).encode(), *opt.m, *opt.v, *(p.data for p in opt.params)]

    def as_json(obj) -> bytes:
        return json.dumps(obj, sort_keys=True).encode()

    blobs = data.synthetic_blobs(300, 20, 4, 3.0, seed=7)
    train_set, test_set = blobs.subset(np.arange(240)), blobs.subset(np.arange(240, 300), "test")

    def run_case(name, cfg, family, resample, k, batch_size=37):
        """Yield the ``trajectory`` and ``shipped`` lines of one run."""
        spec = BackboneSpec.from_config(cfg, 11, InitFamily(family))
        train_cfg = train.TrainConfig(lr=3e-3, batch_size=batch_size, epochs=2, resample=resample, resample_k=k)
        metrics = train.train_run(cfg, spec, train_cfg, train_set, test_set)
        opt = made[-1]
        trajectory = [metrics.epochs, metrics.best_epoch, metrics.beta_trajectory, opt.t,
                      metrics.model.backbone_hashes()]
        yield f"{name} trajectory", _digest([as_json(trajectory), *opt.m, *opt.v])
        shipped = [metrics.final_test_accuracy, metrics.final_test_loss, metrics.final_betas]
        yield f"{name} shipped", _digest([as_json(shipped), *(p.data for p in opt.params),
                                          artifact.pack(metrics.model)])

    for family in ("normal", "orthogonal"):
        for layernorm, head in ((False, "full"), (True, "lora_bias")):
            cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, rank=3,
                              dropout=0.2, layernorm=layernorm, head_mode=head)
            for resample, k in SCHEDULES:
                yield from run_case(f"train {family} ln={int(layernorm)} {head} {resample}:{k}", cfg, family,
                                    resample, k)

    # 300 rows of 128 units: dropout masks span a raw-fill chunk edge
    wide = data.synthetic_blobs(800, 784, 10, 3.0, seed=8)
    train_set, test_set = wide.subset(np.arange(700)), wide.subset(np.arange(700, 800), "test")
    cfg = ModelConfig(preset="tiny", rank=4, dropout=0.2)
    for resample, k in (("static", 2), ("per_batch", 3)):
        yield from run_case(f"train tiny batch 300 {resample}:{k}", cfg, "normal", resample, k, batch_size=300)
    train_set, test_set = blobs.subset(np.arange(240)), blobs.subset(np.arange(240, 300), "test")

    full = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, mode="full_training",
                       dropout=0.2)
    yield from run_case("train full_training static", full, "normal", "static", 2)

    # a lora head, and a zero scaffold trained through kaiming-drawn B
    for name, kw in (("lora head", dict(head_mode="lora")),
                     ("zero_scaffold kaiming rank_stabilized",
                      dict(zero_scaffold=True, b_init="kaiming", scaling_mode="rank_stabilized"))):
        cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, rank=3, dropout=0.2, **kw)
        yield from run_case(f"train {name} static", cfg, "normal", "static", 2)

    # out-of-class mode labels rows 10, so the gated model keeps all ten digit outputs
    gate_cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=10, rank=3, dropout=0.2)
    for ooc in (False, True):
        partition = data.make_partition([{0, 1}, {2, 3}], [5, 6], ooc_mode=ooc)
        result = train.seed_gated_train(partition, gate_cfg, train.TrainConfig(lr=3e-3, batch_size=37, epochs=2),
                                        train_set, test_set)
        rates = [result.assigned_accuracy, result.non_assigned_accuracy, result.ooc_digit0_rate]
        yield f"seedgate ooc={int(ooc)}", _digest([json.dumps(rates).encode(), *result.confusion,
                                                   *optimizer_state()])

    cfg = ModelConfig(preset="tiny", rank=4, layernorm=True, head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 3))
    stream = Stream(19)
    for _, t in model.trainable_params():
        t.data[...] = 0.1 * stream.gaussian_block(t.data.size).reshape(t.data.shape)
    rows = data.synthetic_blobs(max(EVAL_ROWS), 784, 10, 3.0, seed=23).images
    for n in EVAL_ROWS:
        yield f"eval n={n}", _digest([model.forward_logits(rows[:n]).data])

    def stream_state(stream):
        return json.dumps([stream.state, stream._gauss_cache]).encode()

    def family_case(fam, rows, cols, carry):
        stream = Stream(29)
        if carry:
            stream.gaussian_block(1)
        m = draw_matrix(stream, fam, rows, cols).data
        layout = json.dumps([m.flags.c_contiguous, m.flags.f_contiguous]).encode()
        return _digest([m, layout, stream_state(stream)])

    for name in FAMILY_NAMES:
        for rows, cols, carry in ((512, 784, False), (17, 241, True)):
            yield f"family {name} {rows}x{cols} carry={int(carry)}", family_case(InitFamily(name), rows, cols, carry)
    for nu in STUDENT_T_NUS:
        fam = InitFamily("student_t", {"nu": nu})
        stream = Stream(29)
        stream.gaussian_block(1)
        entries = np.empty(17 * 31)
        _fill_entries(stream, fam, entries, 31, 17)
        yield f"student_t nu={nu} 17x31 carry=1", _digest([family_case(fam, 17, 31, True).encode(), entries,
                                                           stream_state(stream)])
    for rows, cols in ORTHOGONAL_SHAPES:
        yield f"orthogonal {rows}x{cols} carry=1", family_case(InitFamily("orthogonal", {"gain": 1.7}), rows, cols, True)

    for carry in (False, True):
        for n in GAUSSIAN_COUNTS:
            stream = Stream(31)
            if carry:
                stream.gaussian_block(1)
            values = stream.gaussian_block(n)
            yield f"gaussian n={n} carry={int(carry)}", _digest([values, stream_state(stream)])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of the checkout to check")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "lottalora")):
        parser.error(f"no lottalora package under {src}")
    sys.path.insert(0, src)
    import lottalora

    if os.path.dirname(os.path.abspath(lottalora.__file__)) != os.path.join(src, "lottalora"):
        parser.error(f"imported lottalora from {lottalora.__file__}, not from {src}")
    total = hashlib.sha256()
    for name, case in _cases():
        print(f"{case[:16]}  {name}")
        total.update(f"{name} {case}\n".encode())
    print(f"digest {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
