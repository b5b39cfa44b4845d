import os
import struct

import numpy as np
import pytest

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


def write_fake_idx(path, n_train=400, n_test=100, classes=10):
    """Write a 4-file IDX set with MNIST's layout (uint8 28x28 images),
    filled with ``synthetic_blobs`` rows of digits 0..classes-1 rescaled
    to [0, 255]."""
    os.makedirs(path, exist_ok=True)
    blobs = synthetic_blobs(n_train + n_test, 784, classes, sep=6.0, seed=11)
    pixels = np.clip((blobs.images + 3.0) * (255.0 / 6.0), 0, 255).astype(np.uint8)
    for split, rows in (("train", slice(0, n_train)), ("test", slice(n_train, None))):
        images, labels = pixels[rows], blobs.labels[rows].astype(np.uint8)
        with open(os.path.join(path, MNIST_FILES[f"{split}_images"]), "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, len(images), 28, 28) + images.tobytes())
        with open(os.path.join(path, MNIST_FILES[f"{split}_labels"]), "wb") as fh:
            fh.write(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return str(path)


@pytest.fixture(scope="session")
def fake_mnist_dir(tmp_path_factory):
    """A small MNIST-shaped IDX directory, so the data commands run offline."""
    return write_fake_idx(tmp_path_factory.mktemp("fake_mnist"))
