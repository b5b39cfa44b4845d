"""The three workloads: closed loops with one client, each op a public
``lottalora`` call sequence whose result is checked.

A workload object is built from the run's seed (data synthesis, artifact
packing, the reference run) and then runs ``op(i)`` for a fixed number of
ops.  ``op`` returns ``(ok, rows)``: whether the op's checks passed and how
many training samples or evaluated rows it processed.
"""

from __future__ import annotations

import gc
import math

import numpy as np

import lottalora as L

CLASSES = 10
INPUT_DIM = 784
# Cluster separation and learning rate are set so that one epoch of eight
# steps lifts test accuracy well above chance (about 0.55-0.65 on the
# seeds tried); at the default 1e-3 a single epoch stays at chance and the
# check could not tell a broken trainer from a working one.  Neither value
# changes the amount of work an op does.
SEP = 16.0
LR = 3e-2
MIN_TEST_ACCURACY = 0.2
N_TEST = 512
SHIP_ROWS = 2048


def model_seed(seed: int) -> int:
    """Backbone seed with a fixed decimal width, so that artifact headers,
    and with them ``artifact_bytes``, have the same size for every seed."""
    return 0x10000000 | (seed & 0x0FFFFFFF)


class TrainWorkload:
    """One op is one ``train.train_run`` call: 1 epoch of ``medium``, rank 8,
    batch 128, dropout 0.1, cosine, then val/test evaluation."""

    cycle = 1

    def __init__(self, seed: int, n_train: int, resample: str):
        self.resample = resample
        blobs = L.synthetic_blobs(n_train + N_TEST, INPUT_DIM, CLASSES, SEP, seed)
        self.train_set = L.Dataset(blobs.images[:n_train], blobs.labels[:n_train], "train")
        self.test_set = L.Dataset(blobs.images[n_train:], blobs.labels[n_train:], "test")
        self.model_cfg = L.ModelConfig(preset="medium", rank=8, dropout=0.1)
        self.spec = L.BackboneSpec.from_config(self.model_cfg, model_seed(seed))
        self.train_cfg = L.TrainConfig(
            lr=LR, batch_size=128, epochs=1, schedule="cosine", resample=resample, resample_k=4,
        )
        self.rows = n_train - int(round(n_train * self.train_cfg.val_fraction))
        # the warm-up op is the reference every timed op must reproduce bit-exactly
        warm = self._train()
        self.reference = self._outcome(warm)
        self.artifact_bytes = float(len(L.pack(warm.model)))

    def _train(self):
        return L.train_run(self.model_cfg, self.spec, self.train_cfg, self.train_set, self.test_set)

    @staticmethod
    def _outcome(metrics) -> tuple:
        return (metrics.epochs[-1]["train_loss"], metrics.final_test_loss,
                metrics.final_test_accuracy, tuple(metrics.final_betas))

    def check(self, metrics) -> bool:
        """Loss finite, the run identical to the warm-up run and, for the
        static schedule, test accuracy above chance.  A one-step run under
        a churning scaffold does not learn, so train-resample checks only
        the first two."""
        outcome = self._outcome(metrics)
        if not math.isfinite(outcome[0]) or outcome != self.reference:
            return False
        return self.resample != "static" or metrics.final_test_accuracy >= MIN_TEST_ACCURACY

    def op(self, i: int) -> tuple[bool, int]:
        metrics = self._train()
        return self.check(metrics), self.rows


class ShipWorkload:
    """The receiving side: one op unpacks an artifact, reconstructs the
    model, evaluates a fixed batch and compares hashes and logits with the
    sender's.  Ops walk the 22 init families in a fixed order."""

    cycle = len(L.FAMILY_NAMES)

    def __init__(self, seed: int):
        self.batch = L.synthetic_blobs(SHIP_ROWS, INPUT_DIM, CLASSES, SEP, seed).images
        rng = np.random.default_rng(seed)
        cfg = L.ModelConfig(preset="medium", rank=8)
        self.blobs, self.hashes, self.logits = [], [], []
        for name in L.FAMILY_NAMES:
            sender = L.build_model(cfg, L.BackboneSpec.from_config(cfg, model_seed(seed), L.InitFamily(name)))
            # stand in for training: a nonzero B makes the adapter path count
            for pname, t in sender.trainable_params():
                if pname.endswith(".B"):
                    t.data[...] = 0.01 * rng.standard_normal(t.data.shape)
            self.blobs.append(L.pack(sender))
            self.hashes.append(sender.backbone_hashes())
            self.logits.append(sender.forward_logits(self.batch).data)
            # the tape is cyclic garbage; free it so set-up does not set peak_alloc_mb
            del sender
            gc.collect()
        self.artifact_bytes = float(np.mean([len(b) for b in self.blobs]))
        self.rows = SHIP_ROWS

    def op(self, i: int) -> tuple[bool, int]:
        k = i % self.cycle
        header, tensors = L.unpack(self.blobs[k])
        model = L.reconstruct(header, tensors)
        logits = model.forward_logits(self.batch)
        ok = model.backbone_hashes() == self.hashes[k] and np.array_equal(logits.data, self.logits[k])
        return ok, self.rows


# name -> (factory, nominal calibrated ms per op, reference slices per op).
# The nominal cost only turns --seconds into an op count; BENCHMARK.json
# says why each workload was chosen.  train-resample trains on one batch:
# each of its steps redraws the scaffold four times, and a larger set would
# not fit 100 ops in a run.
WORKLOADS = {
    "train-static": (lambda seed: TrainWorkload(seed, n_train=1024, resample="static"), 90.0, 1),
    "train-resample": (lambda seed: TrainWorkload(seed, n_train=142, resample="microbatch"), 150.0, 2),
    "ship": (ShipWorkload, 73.0, 1),
}
