import gc
import gzip
import os
import struct
import tracemalloc

import numpy as np
import pytest

import lottalora.model as model_mod
import lottalora.train as train_mod
from lottalora.data import MNIST_FILES, load_mnist, synthetic_blobs


def mnist_data_dir():
    """Resolve the MNIST IDX directory from the environment, if present."""
    path = os.environ.get("LOTTALORA_DATA_DIR")
    if path and os.path.isdir(path):
        return path
    return None


requires_mnist = pytest.mark.skipif(
    mnist_data_dir() is None,
    reason="MNIST IDX files not found; set LOTTALORA_DATA_DIR (see README)",
)


@pytest.fixture(scope="session")
def mnist_dir():
    path = mnist_data_dir()
    if path is None:
        pytest.skip("MNIST IDX files not found; set LOTTALORA_DATA_DIR (see README)")
    return path


@pytest.fixture(scope="session")
def mnist(mnist_dir):
    return load_mnist(mnist_dir)


def peak_bytes(fn, setup=None):
    """``(peak, result)``: the most bytes ``tracemalloc`` saw allocated
    above the live set while ``fn`` ran, and what it returned.

    Memory allocated before tracing starts is invisible, and freeing it
    does not count.  So state that ``fn`` frees is made by ``setup()``,
    traced, and handed to ``fn`` as its argument.
    """
    gc.collect()
    tracemalloc.start()
    try:
        args = () if setup is None else (setup(),)
        gc.collect()
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - live, out
    finally:
        tracemalloc.stop()


def empty_scaffold_memo():
    """Drop ``train_run``'s scaffold memo, so the next static run draws its
    scaffold whatever ran before it."""
    train_mod._scaffold_memo = None


@pytest.fixture
def draws(monkeypatch):
    """Every ``draw_matrix`` call a model makes, as (rows, cols), from an
    empty scaffold memo, so no count depends on which test ran before."""
    empty_scaffold_memo()
    calls = []
    original = model_mod.draw_matrix

    def counting(stream, fam, rows, cols):
        calls.append((rows, cols))
        return original(stream, fam, rows, cols)

    monkeypatch.setattr(model_mod, "draw_matrix", counting)
    return calls


def write_fake_idx(path, n_train=400, n_test=100, classes=10, side=28):
    """Write a 4-file IDX set with MNIST's layout (uint8 side x side
    images, 28x28 by default), filled with ``synthetic_blobs`` rows of
    digits 0..classes-1 rescaled to [0, 255]."""
    os.makedirs(path, exist_ok=True)
    blobs = synthetic_blobs(n_train + n_test, side * side, classes, sep=6.0, seed=11)
    pixels = np.clip((blobs.images + 3.0) * (255.0 / 6.0), 0, 255).astype(np.uint8)
    for split, rows in (("train", slice(0, n_train)), ("test", slice(n_train, None))):
        images, labels = pixels[rows], blobs.labels[rows].astype(np.uint8)
        with open(os.path.join(path, MNIST_FILES[f"{split}_images"]), "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, len(images), side, side) + images.tobytes())
        with open(os.path.join(path, MNIST_FILES[f"{split}_labels"]), "wb") as fh:
            fh.write(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return str(path)


def spoil_as_gz(data_dir, key, spoil):
    """Replace ``data_dir``'s raw MNIST file ``key`` with its gzip after
    ``spoil`` (bytes -> bytes) edits it; returns the new file's path."""
    raw_path = os.path.join(data_dir, MNIST_FILES[key])
    with open(raw_path, "rb") as fh:
        raw = fh.read()
    os.remove(raw_path)
    with open(raw_path + ".gz", "wb") as fh:
        fh.write(spoil(gzip.compress(raw, mtime=0)))
    return raw_path + ".gz"


def swap_train_files(data_dir):
    """Swap the names of ``data_dir``'s raw train images and labels files;
    returns the (images, labels) paths, each now holding the other kind."""
    images, labels = (os.path.join(data_dir, MNIST_FILES[k]) for k in ("train_images", "train_labels"))
    os.rename(images, images + ".swap")
    os.rename(labels, images)
    os.rename(images + ".swap", labels)
    return images, labels


@pytest.fixture(scope="session")
def fake_mnist_dir(tmp_path_factory):
    """A small MNIST-shaped IDX directory, so the data commands run offline."""
    return write_fake_idx(tmp_path_factory.mktemp("fake_mnist"))
