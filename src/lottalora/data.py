"""MNIST ingestion (IDX containers), deterministic splits, label
partitions for seed gating, and synthetic datasets for fast tests.

Image pixels are scaled to [0, 1] and normalized with the fixed constants
(mean 0.1307, std 0.3081) during parsing, so normalization happens exactly
once.  The 90/10 train/validation split is driven by a caller-supplied
stream (derived from the run seed with the data-shuffle kind), keeping
data order decoupled from backbone bytes.

Splits and label-group views never copy images.  ``Dataset.subset`` (and
so ``split_train_val`` and ``LabelPartition.training_view``) returns a row
view: the source image array plus the indices of the view's rows in it,
composed when a view is cut from a view.  Readers take a batch with
``Dataset.take``, one gather from the source; ``Dataset.images`` gathers
the whole view on each access.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .prng import DRAW_CHUNK, Stream, check_seed

MNIST_MEAN = 0.1307
MNIST_STD = 0.3081

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class Dataset:
    """Labelled rows: images [n, d] float32, labels [n] int64.

    Given ``rows``, the dataset is a row view: its i-th row is
    ``images[rows[i]]``, and the source array is kept instead of a copy.
    Either way ``images`` means this dataset's rows in order (a view
    gathers them on each access, so no caller sees the source), and
    ``take(key)`` is ``images[key]`` in one gather from the source.  A
    plain dataset's ``take`` indexes its array directly, so a slice of it
    is a numpy view, not a copy.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, split: str = "train", rows: np.ndarray | None = None):
        n = len(images if rows is None else rows)
        if n != len(labels):
            raise DataError(f"images/labels length mismatch: {n} vs {len(labels)}")
        self._source = images
        self.rows = rows
        self.labels = labels
        self.split = split

    def __len__(self):
        return len(self.labels)

    @property
    def images(self) -> np.ndarray:
        return self._source if self.rows is None else self._source[self.rows]

    def take(self, key) -> np.ndarray:
        """``images[key]`` for a slice or an index array."""
        return self._source[key] if self.rows is None else self._source[self.rows[key]]

    def subset(self, indices, split: str | None = None) -> "Dataset":
        """A row view of rows ``indices``; labels are gathered, images are not."""
        rows = (np.arange(len(self)) if self.rows is None else self.rows)[indices]
        return Dataset(self._source, self.labels[indices], split or self.split, rows)

    def relabeled(self, labels: np.ndarray) -> "Dataset":
        """The same rows under new labels, sharing this dataset's images."""
        return Dataset(self._source, labels, self.split, self.rows)


def parse_idx(raw: bytes):
    """Parse one IDX buffer.

    Labels (magic 0x801) come back as an int64 vector; images (magic
    0x803) as a normalized float32 matrix flattened to [n, rows*cols].
    """
    if len(raw) < 8:
        raise ParseError("IDX buffer too short for magic/count header", offset=len(raw))
    (magic,) = struct.unpack_from(">I", raw, 0)
    if magic == LABELS_MAGIC:
        (count,) = struct.unpack_from(">I", raw, 4)
        if len(raw) < 8 + count:
            raise ParseError(f"label payload truncated: expected {count} bytes", offset=len(raw))
        labels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=8)
        return labels.astype(np.int64)
    if magic == IMAGES_MAGIC:
        if len(raw) < 16:
            raise ParseError("image header truncated", offset=len(raw))
        count, rows, cols = struct.unpack_from(">III", raw, 4)
        expected = count * rows * cols
        if len(raw) < 16 + expected:
            raise ParseError(f"image payload truncated: expected {expected} bytes", offset=len(raw))
        pixels = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=16)
        images = pixels.reshape(count, rows * cols).astype(np.float32) / 255.0
        return (images - MNIST_MEAN) / MNIST_STD
    raise ParseError(f"bad IDX magic 0x{magic:08X}", offset=0)


def _read_idx_file(data_dir: str, stem: str) -> bytes:
    for name in (stem, stem + ".gz"):
        path = os.path.join(data_dir, name)
        if os.path.exists(path):
            if name.endswith(".gz"):
                with gzip.open(path, "rb") as fh:
                    return fh.read()
            with open(path, "rb") as fh:
                return fh.read()
    raise DataError(f"missing MNIST file {stem}[.gz] in {data_dir}")


def load_mnist(data_dir: str) -> tuple[Dataset, Dataset]:
    """Load the standard 4-file IDX set (raw or gzipped) as (train, test)."""
    if not data_dir or not os.path.isdir(data_dir):
        raise DataError(f"MNIST data directory not found: {data_dir!r}")
    train = Dataset(
        parse_idx(_read_idx_file(data_dir, MNIST_FILES["train_images"])),
        parse_idx(_read_idx_file(data_dir, MNIST_FILES["train_labels"])),
        split="train",
    )
    test = Dataset(
        parse_idx(_read_idx_file(data_dir, MNIST_FILES["test_images"])),
        parse_idx(_read_idx_file(data_dir, MNIST_FILES["test_labels"])),
        split="test",
    )
    return train, test


def split_train_val(dataset: Dataset, stream: Stream, val_fraction: float = 0.1) -> tuple[Dataset, Dataset]:
    """Deterministic 90/10 split from the supplied shuffle stream."""
    n = len(dataset)
    n_val = int(round(n * val_fraction))
    if not 0 < n_val < n:
        raise DataError(
            f"a {val_fraction:g} validation split of {n} rows leaves {n_val} validation and "
            f"{n - n_val} training rows; both need at least one"
        )
    perm = stream.permutation(n)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    return dataset.subset(train_idx, "train"), dataset.subset(val_idx, "val")


@dataclass(frozen=True)
class LabelPartition:
    """Disjoint label groups, each paired with a backbone seed."""

    groups: tuple  # tuple of frozensets
    seeds: tuple  # one u64 per group
    ooc_mode: bool = False

    @property
    def ooc_label(self) -> int:
        return 10

    def num_model_classes(self, num_classes: int = 10) -> int:
        return num_classes + 1 if self.ooc_mode else num_classes

    def training_view(self, dataset: Dataset, group_index: int) -> Dataset:
        """Data seen while training under this group's seed.

        Plain mode: only the group's digits, true labels, as a row view; a
        group with no rows is a DataError.  OOC mode: every sample, with
        out-of-group digits (digit 0 included) relabeled OOC.
        """
        group = self.groups[group_index]
        mask = np.isin(dataset.labels, sorted(group))
        if not self.ooc_mode:
            if not mask.any():
                raise DataError(f"label group {sorted(group)} has no rows in the {dataset.split} set")
            return dataset.subset(np.flatnonzero(mask))
        return dataset.relabeled(np.where(mask, dataset.labels, self.ooc_label))


def make_partition(groups, seeds, ooc_mode: bool = False) -> LabelPartition:
    groups = tuple(frozenset(int(g) for g in group) for group in groups)
    seeds = tuple(check_seed(s) for s in seeds)
    if len(groups) != len(seeds):
        raise ConfigError(f"got {len(groups)} groups but {len(seeds)} seeds")
    if not groups:
        raise ConfigError("partition needs at least one group")
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise ConfigError("empty label group")
        if any(d < 0 or d > 9 for d in group):
            raise ConfigError(f"labels must be digits 0-9, got {sorted(group)}")
        overlap = seen & group
        if overlap:
            raise ConfigError(f"label groups overlap on {sorted(overlap)}")
        seen |= group
    return LabelPartition(groups=groups, seeds=seeds, ooc_mode=ooc_mode)


def synthetic_blobs(n: int, d: int, classes: int, sep: float, seed: int) -> Dataset:
    """Gaussian class clusters; linearly separable when sep is large."""
    if n < classes:
        raise ConfigError(f"need at least one point per class: n={n} < classes={classes}")
    stream = Stream(seed)
    centers = (sep / np.sqrt(d)) * stream.gaussian_block(classes * d).reshape(classes, d)
    labels = (np.arange(n) % classes).astype(np.int64)
    # rows of noise continue the stream chunk by chunk and are summed in
    # f64 straight into the f32 images: the bits of one whole-block draw
    images = np.empty((n, d), dtype=np.float32)
    step = max(1, DRAW_CHUNK // d)
    for lo in range(0, n, step):
        rows = labels[lo:lo + step]
        images[lo:lo + len(rows)] = centers[rows] + stream.gaussian_block(len(rows) * d).reshape(-1, d)
    return Dataset(images, labels, split="train")
