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
import zlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParseError, finite, integral, shown
from .prng import DRAW_CHUNK, Stream, check_seed

MNIST_MEAN = 0.1307
MNIST_STD = 0.3081
VAL_FRACTION = 0.1  # share of the training set held out for validation: a constant, not a setting

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


_KINDS = {LABELS_MAGIC: "labels", IMAGES_MAGIC: "images"}


def parse_idx(raw: bytes, expect: int | None = None):
    """Parse one IDX buffer.

    Labels (magic 0x801) come back as an int64 vector; images (magic
    0x803) as a normalized float32 matrix flattened to [n, rows*cols].
    Given ``expect``, any other magic than that one is a ParseError.
    """
    if len(raw) < 8:
        raise ParseError("IDX buffer too short for magic/count header", offset=len(raw))
    (magic,) = struct.unpack_from(">I", raw, 0)
    if expect is not None and magic != expect:
        raise ParseError(f"expected IDX magic 0x{expect:08X} ({_KINDS[expect]}), got 0x{magic:08X}"
                         + (f" ({_KINDS[magic]})" if magic in _KINDS else ""), offset=0)
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


def _read_idx_file(data_dir: str, stem: str) -> tuple[str, bytes]:
    """The path and the (gunzipped) bytes of MNIST file ``stem``[.gz]."""
    for name in (stem, stem + ".gz"):
        path = os.path.join(data_dir, name)
        if os.path.exists(path):
            if name.endswith(".gz"):
                try:
                    with gzip.open(path, "rb") as fh:
                        return path, fh.read()
                except (EOFError, zlib.error, gzip.BadGzipFile) as err:
                    raise ParseError(f"{path} is not a valid gzip file: {err}") from err
            with open(path, "rb") as fh:
                return path, fh.read()
    raise DataError(f"missing MNIST file {stem}[.gz] in {data_dir}")


def _load_idx(data_dir: str, key: str):
    """Parse the MNIST file of slot ``key``, which must hold that slot's
    kind (images or labels); a ParseError names the file."""
    path, raw = _read_idx_file(data_dir, MNIST_FILES[key])
    try:
        return parse_idx(raw, IMAGES_MAGIC if key.endswith("images") else LABELS_MAGIC)
    except ParseError as err:
        raise ParseError(f"{path}: {err}") from err


def load_mnist(data_dir: str) -> tuple[Dataset, Dataset]:
    """Load the standard 4-file IDX set (raw or gzipped) as (train, test)."""
    if not data_dir or not os.path.isdir(data_dir):
        raise DataError(f"MNIST data directory not found: {data_dir!r}")
    return tuple(Dataset(_load_idx(data_dir, f"{split}_images"), _load_idx(data_dir, f"{split}_labels"), split=split)
                 for split in ("train", "test"))


def split_train_val(dataset: Dataset, stream: Stream) -> tuple[Dataset, Dataset]:
    """Deterministic split, ``VAL_FRACTION`` held out, from the supplied shuffle stream."""
    n = len(dataset)
    n_val = int(round(n * VAL_FRACTION))
    if not 0 < n_val < n:
        raise DataError(
            f"a {VAL_FRACTION:g} validation split of {n} rows leaves {n_val} validation and "
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


def _digit(label) -> int:
    if not integral(label) or not 0 <= label <= 9:
        raise ConfigError(f"labels must be digits 0-9, got {shown(label)}")
    return int(label)


def make_partition(groups, seeds, ooc_mode: bool = False) -> LabelPartition:
    if not (isinstance(groups, Iterable) and isinstance(seeds, Iterable)):
        raise ConfigError(f"groups and seeds must be sequences, got {shown(groups)} and {shown(seeds)}")
    groups = tuple(groups)
    for group in groups:
        if not isinstance(group, Iterable):
            raise ConfigError(f"a label group must be a sequence of digits, got {shown(group)}")
    groups = tuple(frozenset(_digit(g) for g in group) for group in groups)
    seeds = tuple(check_seed(s) for s in seeds)
    if len(groups) != len(seeds):
        raise ConfigError(f"got {len(groups)} groups but {len(seeds)} seeds")
    if not groups:
        raise ConfigError("partition needs at least one group")
    if not isinstance(ooc_mode, bool):
        raise ConfigError(f"ooc_mode must be True or False, got {ooc_mode!r}")
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise ConfigError("empty label group")
        overlap = seen & group
        if overlap:
            raise ConfigError(f"label groups overlap on {sorted(overlap)}")
        seen |= group
    return LabelPartition(groups=groups, seeds=seeds, ooc_mode=ooc_mode)


def synthetic_blobs(n: int, d: int, classes: int, sep: float, seed: int) -> Dataset:
    """Gaussian class clusters; linearly separable when sep is large."""
    for name, value in (("n", n), ("d", d), ("classes", classes)):
        if not integral(value) or value < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {shown(value)}")
    if not finite(sep):
        raise ConfigError(f"sep must be a finite number, got {shown(sep)}")
    if n < classes:
        raise ConfigError(f"need at least one point per class: n={shown(n)} < classes={shown(classes)}")
    stream = Stream(check_seed(seed))
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
