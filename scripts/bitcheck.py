#!/usr/bin/env python3
"""Print one digest over the bits that a speedup must not move.

Usage: python scripts/bitcheck.py --src <checkout>/src
       python scripts/bitcheck.py --key

Imports ``lottalora`` from the given ``src`` directory, runs a fixed grid
of small cases and prints one line per case, then ``digest <sha256>`` over
all of them.  Two checkouts whose last lines match trained, packed, gated
and evaluated to the same bits on this host.  A change that only moves
what a run ships (its final rounding and packing) leaves every line but
the ``shipped`` ones and the ``shipping grid`` case equal.  The cases:

  * ``train_run`` under every schedule (static, per_epoch, per_batch k=3,
    microbatch k=3) for the ``normal`` and ``orthogonal`` families, with
    and without LayerNorm and a ``lora_bias`` head, dropout 0.2, batch 37,
    and a ``tiny`` model at batch 300, whose dropout masks exceed one
    raw-fill chunk; and a static run at dropout 0, with and without
    LayerNorm.  Each run gives two lines: ``trajectory`` covers the
    per-epoch metrics, the best epoch, the beta trajectory, the AdamW step
    count and moments, and the backbone hashes; ``shipped`` covers the
    final test numbers and betas, the trained parameters and the
    ``pack()`` bytes;
  * ``seed_gated_train`` on two label groups, plain and out-of-class, and
    plain on a test set that spans several eval blocks; and on three
    groups with a ``lora`` head, whose frozen matrix each group swaps too,
    at seeds 5, 6, 7 and at 5, 6, 5, whose last group swaps back to the
    first group's scaffold;
  * a ``full_training`` run, and static runs with a ``lora`` head and with
    a zero scaffold (``b_init="kaiming"``, rank-stabilized scaling);
  * ``to_shipping_precision`` on fixed adversarial tensors: ties at
    q +- 0.5, a largest magnitude exactly at 127 * 2**e and one ulp above
    it, values under the e >= -24 clamp, zeros and -0.0, the grid's top
    and subnormals; then once more after a value past the grid, which it
    must refuse.  The digest covers both answers and both buffers;
  * eval-mode logits of a ``tiny`` model with random trainables, and
    ``evaluate``'s (loss, accuracy), for row counts on both sides of the
    eval block edges, one of them on a strided row view;
  * ``draw_matrix`` for every init family at 512x784, which spans many
    Box-Muller chunks, and at 17x241 from a stream that holds a carry;
    ``student_t`` at each nu of ``STUDENT_T_NUS`` on both sides of the
    pairwise-sum edges (8, 16, 128), at 17x31 after a carry, with its
    float64 entries, whose last bits a float32 cast mostly hides; and
    ``orthogonal`` tall, square and wide after a carry.  Each matrix's
    digest covers its values, its C/F contiguity and the stream after it;
  * raw ``gaussian_block`` values, state and carry for counts on both sides
    of the chunk edges, with and without an incoming carry;
  * the committed trained artifact ``tests/fixtures/tiny_trained_v4.ltlr``
    (format version 4), reconstructed, and the argmax and eval-mode logits
    of a fixed 64-row ``synthetic_blobs`` probe through it.

BLAS runs on one thread, as in the benchmark.  The whole grid runs in
seconds.

The bits depend on the numpy build, the BLAS and the kernel it runs, and
zlib.  ``--key`` prints them as one name, the stem of the file under
``tests/fixtures/bitcheck`` that holds this grid's committed output for
them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

SCHEDULES = (("static", 2), ("per_epoch", 2), ("per_batch", 3), ("microbatch", 3))
# rows on both sides of the 1/2, 2/3 and 3/4 eval block edges (511 rows a block)
EVAL_ROWS = (1, 255, 256, 511, 512, 1022, 1023, 1533, 1534)
# (rows, row view); evaluate runs the same blocks
EVALUATE_ROWS = ((511, False), (512, True), (1022, False), (1023, False), (1533, False), (1534, False))
# draws; a Box-Muller chunk is 8192 pairs
GAUSSIAN_COUNTS = (0, 1, 2, 3, 7, 8191, 8192, 16383, 16384, 16385, 24577, 50001)
STUDENT_T_NUS = (1, 2, 7, 8, 9, 16, 17, 129, 300)
ORTHOGONAL_SHAPES = ((784, 512), (300, 300), (128, 256))
TRAINED_V4 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "fixtures",
                          "tiny_trained_v4.ltlr")


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
        return [str(opt.t).encode(), opt.m, opt.v, opt.params]

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
        yield f"{name} trajectory", _digest([as_json(trajectory), opt.m, opt.v])
        shipped = [metrics.final_test_accuracy, metrics.final_test_loss, metrics.final_betas]
        yield f"{name} shipped", _digest([as_json(shipped), opt.params, artifact.pack(metrics.model)])

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

    # without dropout the backward masks by the ReLU alone
    for layernorm, head in ((False, "full"), (True, "lora_bias")):
        cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, rank=3,
                          dropout=0.0, layernorm=layernorm, head_mode=head)
        yield from run_case(f"train dropout=0 ln={int(layernorm)} {head} static:2", cfg, "normal", "static", 2)

    full = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, mode="full_training",
                       dropout=0.2)
    yield from run_case("train full_training static", full, "normal", "static", 2)

    # a lora head, and a zero scaffold trained through kaiming-drawn B
    for name, kw in (("lora head", dict(head_mode="lora")),
                     ("zero_scaffold kaiming rank_stabilized",
                      dict(zero_scaffold=True, b_init="kaiming", scaling_mode="rank_stabilized"))):
        cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, rank=3, dropout=0.2, **kw)
        yield from run_case(f"train {name} static", cfg, "normal", "static", 2)

    # each tensor repeats one pattern; the 1-value betas take its first entry
    cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=4, rank=3, layernorm=True,
                      head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 11))
    one_ulp_above = float(np.nextafter(np.float32(127 * 2.0**-1), np.float32(np.inf)))
    patterns = (
        [127 * 2.0**-3, *((k + 0.5) * 2.0**-3 for k in range(-40, 40))],  # ties at q +- 0.5
        [127 * 2.0**5, -127 * 2.0**5, 1.0, -31.0],  # m exactly at 127 * 2**e
        [one_ulp_above, 127 * 2.0**-1, -0.25],
        [k * 2.0**-30 for k in range(-70, 70, 3)],  # under the clamp
        [0.0, -0.0],
        [-0.0],
        [127 * 2.0**9, -1e-45, 2.0**-149, 3 * 2.0**-26],  # the grid's top, subnormals
    )
    for (_, t), pattern in zip(model.trainable_params(), itertools.cycle(patterns)):
        t.data[...] = np.resize(np.array(pattern, np.float32), t.data.shape)
    rounded = artifact.to_shipping_precision(model)
    grid = model.params.copy()
    model.params[0] = 65100.0
    refused = artifact.to_shipping_precision(model)
    yield "shipping grid adversarial", _digest([as_json([rounded, refused]), grid, model.params])

    # out-of-class mode labels rows 10, so the gated model keeps all ten digit outputs
    gate_cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=10, rank=3, dropout=0.2)

    def seedgate_case(ooc, test, groups=({0, 1}, {2, 3}), cfg=gate_cfg, seeds=(5, 6)):
        partition = data.make_partition(groups, seeds, ooc_mode=ooc)
        result = train.seed_gated_train(partition, cfg, train.TrainConfig(lr=3e-3, batch_size=37, epochs=2),
                                        train_set, test)
        rates = [result.assigned_accuracy, result.non_assigned_accuracy, result.ooc_digit0_rate]
        return _digest([json.dumps(rates).encode(), *result.confusion, *optimizer_state()])

    for ooc in (False, True):
        yield f"seedgate ooc={int(ooc)}", seedgate_case(ooc, test_set)
    long_test = data.synthetic_blobs(2100, 20, 4, 3.0, seed=41)
    yield f"seedgate ooc=0 test n={len(long_test)}", seedgate_case(False, long_test)
    lora_gate_cfg = ModelConfig(preset=None, hidden_dims=(24, 16), input_dim=20, num_classes=10, rank=3,
                                dropout=0.2, head_mode="lora")
    yield "seedgate ooc=0 3 groups lora head", seedgate_case(False, test_set, ({0}, {1, 2}, {3}), lora_gate_cfg,
                                                             (5, 6, 7))
    yield "seedgate ooc=0 3 groups seeds 5,6,5 lora head", seedgate_case(False, test_set, ({0}, {1, 2}, {3}),
                                                                         lora_gate_cfg, (5, 6, 5))

    cfg = ModelConfig(preset="tiny", rank=4, layernorm=True, head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 3))
    stream = Stream(19)
    for _, t in model.trainable_params():
        t.data[...] = 0.1 * stream.gaussian_block(t.data.size).reshape(t.data.shape)
    rows = data.synthetic_blobs(max(EVAL_ROWS), 784, 10, 3.0, seed=23).images
    for n in EVAL_ROWS:
        yield f"eval n={n}", _digest([model.forward_logits(rows[:n]).data])
    evalset = data.synthetic_blobs(max(n for n, _ in EVALUATE_ROWS), 784, 10, 3.0, seed=37)
    for n, view in EVALUATE_ROWS:
        if view:  # every other row, so each block gathers from the source
            ds = evalset.subset(np.arange(0, 2 * n - 1, 2), "test")
        else:
            ds = data.Dataset(evalset.images[:n], evalset.labels[:n], "test")
        yield f"evaluate n={n} view={int(view)}", _digest([as_json(train.evaluate(model, ds))])

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

    trained = artifact.reconstruct(*artifact.unpack(artifact.load(TRAINED_V4)))
    logits = trained.forward_logits(data.synthetic_blobs(64, 784, 10, 10.0, seed=43).images).data
    yield "trained v4 fixture probe n=64", _digest([logits.argmax(axis=1), logits])


def fixture_key() -> str:
    """``numpy-<v>_<blas>-<v>_<core>_zlib-<v>`` for this process: the numpy
    version, its BLAS build and the kernel that BLAS runs, and zlib's
    runtime version."""
    import zlib

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from portcheck import blas_core

    config = getattr(np, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return (f"numpy-{np.__version__}_{blas.get('name', 'blas')}-{blas.get('version', 'unknown')}_"
            f"{blas_core()}_zlib-{zlib.ZLIB_RUNTIME_VERSION}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="the src directory of the checkout to check")
    parser.add_argument("--key", action="store_true", help="print this process's fixture key and exit")
    args = parser.parse_args()
    if args.key:
        print(fixture_key())
        return 0
    if args.src is None:
        parser.error("--src is required")
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
