"""Splits and label-group views are row views of their source images.

The gathering ``subset``, ``split_train_val`` and plain-mode
``training_view`` that row views replaced survive here as the oracle: a
run on copied datasets and a run on row views must agree bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

import lottalora.train as train_mod
from lottalora.artifact import pack
from lottalora.data import VAL_FRACTION, Dataset, LabelPartition, make_partition, split_train_val, synthetic_blobs
from lottalora.initfam import InitFamily
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.prng import DrawKind, derive_stream
from lottalora.train import TrainConfig, seed_gated_train, train_run

from conftest import peak_bytes

MIB = 1 << 20


# -- the copying oracle -------------------------------------------------------

def copying_subset(dataset, indices, split=None):
    return Dataset(dataset.images[indices], dataset.labels[indices], split or dataset.split)


def copying_split_train_val(dataset, stream):
    n = len(dataset)
    n_val = int(round(n * VAL_FRACTION))
    perm = stream.permutation(n)
    return copying_subset(dataset, perm[n_val:], "train"), copying_subset(dataset, perm[:n_val], "val")


def copying_training_view(partition, dataset, group_index):
    mask = np.isin(dataset.labels, sorted(partition.groups[group_index]))
    if not partition.ooc_mode:
        return copying_subset(dataset, np.nonzero(mask)[0])
    return Dataset(dataset.images, np.where(mask, dataset.labels, partition.ooc_label), dataset.split)


@pytest.fixture
def optimizers(monkeypatch):
    """Every AdamW the training loop makes, so its moments can be compared."""
    made = []

    class RecordingAdamW(train_mod.AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_mod, "AdamW", RecordingAdamW)
    return made


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def moments(optimizer) -> tuple:
    return optimizer.t, digest([optimizer.m]), digest([optimizer.v]), digest([optimizer.params])


def blob_sets(copy: bool):
    """500 training and 2100 test rows: the test set spans two evaluate
    batches.  ``copy`` gives plain datasets, else views of one blob set."""
    full = synthetic_blobs(2600, 784, 10, 6.0, seed=5)
    cut = copying_subset if copy else Dataset.subset
    return cut(full, np.arange(500), "train"), cut(full, np.arange(500, 2600), "test")


TINY = ModelConfig(preset="tiny", rank=4)


def run_outcome(resample, k, family, optimizers, copy):
    train, test = blob_sets(copy)
    spec = BackboneSpec.from_config(TINY, 77, InitFamily(family))
    cfg = TrainConfig(lr=3e-3, epochs=2, batch_size=64, resample=resample, resample_k=k)
    optimizers.clear()
    metrics = train_run(TINY, spec, cfg, train, test)
    summary = metrics.summary()
    del summary["wall_time"]
    return (json.dumps(summary, sort_keys=True), pack(metrics.model), metrics.model.backbone_hashes(),
            moments(optimizers[-1]))


@pytest.mark.parametrize("resample,k", [("static", 2), ("per_epoch", 2), ("microbatch", 4)])
@pytest.mark.parametrize("family", ["normal", "orthogonal"])
def test_train_run_on_row_views_matches_the_copying_split_bitwise(resample, k, family, optimizers, monkeypatch):
    views = run_outcome(resample, k, family, optimizers, copy=False)
    monkeypatch.setattr(train_mod, "split_train_val", copying_split_train_val)
    copies = run_outcome(resample, k, family, optimizers, copy=True)
    assert views == copies


def gate_outcome(ooc, optimizers, copy):
    train, test = blob_sets(copy)
    partition = make_partition([{1, 2, 3}, {4, 5, 6}, {7, 8, 9}], [42, 43, 44], ooc_mode=ooc)
    optimizers.clear()
    result = seed_gated_train(partition, TINY, TrainConfig(lr=3e-3, epochs=2, batch_size=64), train, test)
    return (digest(result.confusion), result.assigned_accuracy, result.non_assigned_accuracy,
            result.ooc_digit0_rate, moments(optimizers[-1]))


@pytest.mark.parametrize("ooc", [False, True])
def test_seed_gating_on_row_views_matches_the_copying_views_bitwise(ooc, optimizers, monkeypatch):
    views = gate_outcome(ooc, optimizers, copy=False)
    monkeypatch.setattr(LabelPartition, "training_view", copying_training_view)
    copies = gate_outcome(ooc, optimizers, copy=True)
    assert views == copies


# -- memory -------------------------------------------------------------------

def test_train_run_does_not_copy_the_training_images():
    # the caller's images are the only copy: the run peaks below one more
    # copy, the scaffold and 1 MiB above what was live before it, and a
    # gathering split alone would cost that whole extra copy
    data = synthetic_blobs(2200, 784, 10, 16.0, seed=3)
    train = Dataset(data.images[:2000], data.labels[:2000], "train")
    test = Dataset(data.images[2000:], data.labels[2000:], "test")
    cfg = ModelConfig(preset="medium", rank=8)
    spec = BackboneSpec.from_config(cfg, 9)
    scaffold = sum(layer.backbone.data.nbytes + layer.frozen_bias.nbytes
                   for layer in build_model(cfg, spec).lotta_layers())
    peak, _ = peak_bytes(lambda: train_run(cfg, spec, TrainConfig(lr=3e-2, epochs=1), train, test))
    assert peak < train.images.nbytes + scaffold + MIB


# -- the view contract ----------------------------------------------------------

def test_split_and_view_of_view_rows_equal_the_gathered_rows_in_order():
    full = synthetic_blobs(300, 7, 3, 4.0, seed=2)
    outer = full.subset(np.arange(40, 290), "train")
    perm = derive_stream(42, 0, DrawKind.DATA_SHUFFLE).permutation(len(outer))
    train, val = split_train_val(outer, derive_stream(42, 0, DrawKind.DATA_SHUFFLE))
    for view, idx in ((train, perm[25:]), (val, perm[:25])):
        rows = 40 + idx
        assert np.array_equal(view.images, full.images[rows])
        assert np.array_equal(view.labels, full.labels[rows])
        inner = view.subset(np.arange(len(view))[::-3])
        assert np.array_equal(inner.images, full.images[rows[::-3]])
        assert np.array_equal(inner.labels, full.labels[rows[::-3]])
        assert np.array_equal(inner.take(slice(2, 9)), full.images[rows[::-3][2:9]])
        assert np.array_equal(inner.take(np.array([4, 0, 4])), full.images[rows[::-3][[4, 0, 4]]])


def test_a_view_never_hands_out_its_source():
    full = synthetic_blobs(30, 5, 3, 4.0, seed=2)
    view = full.subset(np.arange(10, 30))
    source = full.images
    for images in (view.images, view.take(slice(0, 5)), view.take(np.arange(3))):
        assert not np.shares_memory(images, source)


def test_a_plain_dataset_batch_is_a_view_of_its_source():
    full = synthetic_blobs(30, 5, 3, 4.0, seed=2)
    assert full.images is full.images
    assert np.shares_memory(full.take(slice(3, 9)), full.images)


def test_label_group_views_keep_the_source_rows_in_order():
    full = synthetic_blobs(60, 5, 10, 4.0, seed=2)
    outer = full.subset(np.arange(5, 60))
    plain = make_partition([{2, 7}], [1])
    view = plain.training_view(outer, 0)
    rows = 5 + np.flatnonzero(np.isin(full.labels[5:], [2, 7]))
    assert np.array_equal(view.images, full.images[rows])
    assert np.array_equal(view.labels, full.labels[rows])
    ooc = make_partition([{2, 7}], [1], ooc_mode=True).training_view(outer, 0)
    assert np.array_equal(ooc.images, full.images[5:])
    assert np.array_equal(ooc.labels, np.where(np.isin(full.labels[5:], [2, 7]), full.labels[5:], 10))
