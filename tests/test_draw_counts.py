"""How many scaffolds a model draws, per build and per training schedule.

A build draws each frozen layer once.  Training then redraws at every
redraw point of its schedule but the run's first: per_epoch from the
second epoch on, per_batch/microbatch before every sub-batch but the
run's first; seed gating draws each distinct seed's scaffold once.  A
static run after a static run of its scaffold's key draws nothing; every
count here starts from an empty scaffold memo.  The counts
are pinned for a ``tiny`` model (two frozen layers) on 600 rows: a 540-row
training split in five batches of at most 128, over two epochs.
"""

from dataclasses import replace

import numpy as np
import pytest

import lottalora.train as train_mod
from lottalora.artifact import pack, reconstruct, unpack
from lottalora.data import make_partition, synthetic_blobs
from lottalora.errors import ConfigError, FormatError
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.train import TrainConfig, seed_gated_train, train_run

TINY = ModelConfig(preset="tiny", rank=2)


def blobs():
    data = synthetic_blobs(700, 784, 10, 8.0, seed=4)
    return data.subset(np.arange(600), "train"), data.subset(np.arange(600, 700), "test")


def test_a_build_draws_each_frozen_layer_once(draws):
    model = build_model(TINY, BackboneSpec.from_config(TINY, 5))
    assert draws == [(128, 784), (64, 128)]
    pack(model)
    model.forward_logits(np.zeros((2, 784), dtype=np.float32))
    model.backbone_hashes()
    assert len(draws) == 2


# static: the build, and nothing when a static run of its key came first
# (``warm``, whose draws are not counted); per_epoch: the build and one
# redraw; per_batch:3 and microbatch:4: one draw per sub-batch of the 10
# steps, the build's included
@pytest.mark.parametrize("resample,k,warm,count", [
    ("static", 2, False, 2),
    ("static", 2, True, 0),
    ("per_epoch", 2, False, 4),
    ("per_batch", 3, False, 60),
    ("microbatch", 4, False, 80),
])
def test_each_schedule_draws_as_many_scaffolds_as_before(resample, k, warm, count, draws):
    train, test = blobs()
    tcfg = TrainConfig(epochs=2, batch_size=128, resample=resample, resample_k=k)
    for _ in range(1 + warm):
        del draws[:]
        train_run(TINY, BackboneSpec.from_config(TINY, 5), tcfg, train, test)
    assert len(draws) == count


def test_seed_gating_draws_each_groups_scaffold_once(draws):
    train, test = blobs()
    partition = make_partition([{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}], [42, 43])
    seed_gated_train(partition, TINY, TrainConfig(epochs=2, batch_size=128), train, test)
    assert len(draws) == 4


def test_a_partition_that_repeats_a_seed_draws_its_scaffold_once(draws):
    train, test = blobs()
    partition = make_partition([{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}], [42, 43, 42])
    seed_gated_train(partition, TINY, TrainConfig(epochs=2, batch_size=128), train, test)
    assert len(draws) == 4


def test_seed_gating_refuses_full_training_before_it_builds_or_draws(draws, monkeypatch):
    def no_build(*args):
        raise AssertionError("built a model")

    monkeypatch.setattr(train_mod, "build_model", no_build)
    train, test = blobs()
    partition = make_partition([{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}], [42, 43])
    with pytest.raises(ConfigError, match="lottalora mode"):
        seed_gated_train(partition, replace(TINY, mode="full_training"), TrainConfig(epochs=2), train, test)
    assert draws == []


@pytest.mark.parametrize("resample", ["static", "per_epoch"])
def test_a_spec_of_other_shapes_is_refused_before_anything_is_drawn(resample, draws):
    train, test = blobs()
    spec = BackboneSpec.from_config(replace(TINY, preset="small"), 5)
    with pytest.raises(ConfigError, match="do not match"):
        build_model(TINY, spec)
    with pytest.raises(ConfigError, match="do not match"):
        train_run(TINY, spec, TrainConfig(epochs=1, resample=resample), train, test)
    assert draws == []


def test_a_reconstruct_refused_on_its_tensor_table_draws_nothing(draws):
    header, tensors = unpack(pack(build_model(TINY, BackboneSpec.from_config(TINY, 5))))
    del draws[:]
    del tensors[next(iter(tensors))]
    with pytest.raises(FormatError):
        reconstruct(header, tensors)
    assert draws == []
