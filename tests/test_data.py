import struct

import numpy as np
import pytest

from lottalora.errors import ConfigError, DataError, ParseError
from lottalora.data import (
    Dataset,
    MNIST_MEAN,
    MNIST_STD,
    make_partition,
    parse_idx,
    split_train_val,
    synthetic_blobs,
)
from lottalora.prng import DrawKind, Stream, derive_stream

from conftest import requires_mnist


def build_label_buffer(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


def build_image_buffer(pixels, rows, cols):
    n = len(pixels) // (rows * cols)
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels)


def test_parse_labels_hand_built():
    assert parse_idx(build_label_buffer([7, 3])).tolist() == [7, 3]


def test_parse_images_normalization():
    buf = build_image_buffer([0, 255, 128, 64], 2, 2)
    img = parse_idx(buf)
    assert img.shape == (1, 4)
    assert img[0, 1] == pytest.approx((1.0 - MNIST_MEAN) / MNIST_STD, rel=1e-6)
    assert img[0, 1] == pytest.approx(2.8215, abs=1e-4)
    assert img[0, 0] == pytest.approx(-MNIST_MEAN / MNIST_STD, rel=1e-6)


def test_parse_truncated_image_payload():
    buf = build_image_buffer([1] * 8, 2, 2)[:-3]
    with pytest.raises(ParseError):
        parse_idx(buf)


def test_parse_truncated_labels():
    with pytest.raises(ParseError):
        parse_idx(build_label_buffer([1, 2, 3])[:-1])


def test_parse_bad_magic():
    with pytest.raises(ParseError) as exc:
        parse_idx(struct.pack(">II", 0x00000999, 1) + b"\x00")
    assert exc.value.offset == 0


def test_split_is_deterministic_and_90_10():
    ds = synthetic_blobs(1000, 4, 5, 3.0, seed=1)
    s1 = derive_stream(42, 0, DrawKind.DATA_SHUFFLE)
    s2 = derive_stream(42, 0, DrawKind.DATA_SHUFFLE)
    tr1, val1 = split_train_val(ds, s1)
    tr2, val2 = split_train_val(ds, s2)
    assert len(val1) == 100 and len(tr1) == 900
    assert np.array_equal(tr1.images, tr2.images)
    assert np.array_equal(val1.labels, val2.labels)
    # different shuffle seed, different split
    tr3, _ = split_train_val(ds, derive_stream(43, 0, DrawKind.DATA_SHUFFLE))
    assert not np.array_equal(tr1.labels, tr3.labels)


@pytest.mark.parametrize("n,val_fraction", [(4, 0.1), (1, 0.1), (10, 0.95)])
def test_split_leaving_either_side_empty_is_a_data_error(n, val_fraction):
    # round(0.4) == 0 validation rows; round(9.5) == 10 leaves no training rows
    ds = synthetic_blobs(n, 4, 1, 3.0, seed=1)
    with pytest.raises(DataError, match="at least one"):
        split_train_val(ds, derive_stream(42, 0, DrawKind.DATA_SHUFFLE), val_fraction)


def test_smallest_split_keeps_one_row_each_side():
    ds = synthetic_blobs(6, 4, 2, 3.0, seed=1)
    train, val = split_train_val(ds, derive_stream(42, 0, DrawKind.DATA_SHUFFLE))
    assert (len(train), len(val)) == (5, 1)


def test_partition_paper_grouping_valid():
    p = make_partition([{1, 2, 3}, {4, 5, 6}, {7, 8, 9}], [42, 43, 44])
    assert p.seeds == (42, 43, 44)
    assert not p.ooc_mode


def test_partition_overlap_rejected():
    with pytest.raises(ConfigError):
        make_partition([{1, 2}, {2, 3}], [1, 2])


def test_partition_length_mismatch_rejected():
    with pytest.raises(ConfigError):
        make_partition([{1}, {2}], [1])


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_partition_seeds_outside_u64_rejected(seed):
    with pytest.raises(ConfigError, match="seed"):
        make_partition([{1}, {2}], [3, seed])


def test_partition_group_without_rows_is_a_data_error():
    ds = Dataset(np.zeros((6, 2), dtype=np.float32), np.array([0, 1, 2, 0, 1, 2]))
    p = make_partition([{0, 1}, {5}], [7, 8])
    assert len(p.training_view(ds, 0)) == 4
    with pytest.raises(DataError, match=r"\[5\]"):
        p.training_view(ds, 1)
    # OOC mode keeps every row, so no group is ever empty
    assert len(make_partition([{5}], [7], ooc_mode=True).training_view(ds, 0)) == 6


def test_partition_plain_training_view_filters_digits():
    ds = Dataset(np.zeros((6, 2), dtype=np.float32), np.array([0, 1, 2, 3, 4, 5]))
    p = make_partition([{1, 2}, {3, 4}], [7, 8])
    view = p.training_view(ds, 0)
    assert sorted(view.labels.tolist()) == [1, 2]


def test_partition_ooc_relabels_everything_else():
    ds = Dataset(np.zeros((6, 2), dtype=np.float32), np.array([0, 1, 2, 3, 4, 5]))
    p = make_partition([{1, 2}, {3, 4}], [7, 8], ooc_mode=True)
    view = p.training_view(ds, 0)
    assert len(view) == 6  # all samples retained
    assert view.labels.tolist() == [10, 1, 2, 10, 10, 10]
    assert p.num_model_classes() == 11


def test_blobs_deterministic_and_one_point_per_class():
    a = synthetic_blobs(300, 8, 3, 10.0, seed=9)
    b = synthetic_blobs(300, 8, 3, 10.0, seed=9)
    assert np.array_equal(a.images, b.images)
    tiny = synthetic_blobs(3, 8, 3, 10.0, seed=9)
    assert sorted(tiny.labels.tolist()) == [0, 1, 2]
    with pytest.raises(ConfigError):
        synthetic_blobs(2, 8, 3, 10.0, seed=9)


def test_blobs_high_sep_linearly_separable():
    ds = synthetic_blobs(300, 8, 3, 10.0, seed=4)
    # nearest-centroid classification is perfect at sep = 10
    centroids = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(3)])
    d2 = ((ds.images[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert (d2.argmin(axis=1) == ds.labels).mean() == 1.0


@requires_mnist
def test_mnist_round_trip_counts(mnist):
    train, test = mnist
    assert len(train) == 60_000
    assert len(test) == 10_000
    assert np.bincount(train.labels).tolist() == [
        5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949,
    ]
    assert np.bincount(test.labels).tolist() == [
        980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009,
    ]
    assert train.images.shape == (60_000, 784)
    assert float(train.images.max()) == pytest.approx(2.8215, abs=1e-4)


def test_missing_dir_raises_data_error():
    from lottalora.data import load_mnist

    with pytest.raises(DataError):
        load_mnist("/nonexistent/path")
