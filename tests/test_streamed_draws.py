"""Scaffold draws and synthetic batches stream into their float32 result.

The whole-block draw code below is the oracle: each family's n entries
drawn as whole float64 blocks, one per draw kind, then cast to float32.
The chunked draws must give its bits, leave the stream where it leaves
it, and peak at their result plus one chunk's scratch.
"""

import math

import numpy as np
import pytest

from lottalora.data import synthetic_blobs
from lottalora.initfam import FAMILY_NAMES, InitFamily, _quantize, _scale_knob, draw_matrix
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.prng import Stream

from conftest import peak_bytes

MIB = 2 ** 20


def whole_block_entries(stream, fam, n, fan_in, fan_out):
    """n entries (f64) of an entrywise family, each kind drawn as one block."""
    name = fam.name
    p = fam.params
    if name in ("kaiming_normal", "xavier_normal"):
        if name == "kaiming_normal":
            sigma = math.sqrt(2.0 / (fan_in * (1.0 + p["a"] ** 2)))
        else:
            sigma = p["gain"] * math.sqrt(2.0 / (fan_in + fan_out))
        return sigma * stream.gaussian_block(n)
    if name in ("kaiming_uniform", "xavier_uniform"):
        if name == "kaiming_uniform":
            bound = math.sqrt(6.0 / (fan_in * (1.0 + p["a"] ** 2)))
        else:
            bound = p["gain"] * math.sqrt(6.0 / (fan_in + fan_out))
        return bound * (2.0 * stream.unit_block(n) - 1.0)
    s = _scale_knob(fam, fan_in)
    if name == "normal":
        return s * stream.gaussian_block(n)
    if name == "truncated_normal":
        return s * np.clip(stream.gaussian_block(n), -2.0, 2.0)
    if name == "uniform":
        return s * (2.0 * stream.unit_block(n) - 1.0)
    if name == "cauchy":
        return s * np.clip(np.tan(np.pi * (stream.unit_block(n) - 0.5)), -10.0, 10.0)
    if name == "laplace":
        u = np.maximum(stream.unit_block(n), 2.0 ** -53)
        return s * np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    if name == "student_t":
        nu = int(p["nu"])
        g = stream.gaussian_block(n * (nu + 1)).reshape(n, nu + 1)
        return s * g[:, 0] / np.sqrt(np.sum(g[:, 1:] ** 2, axis=1) / nu)
    if name == "gaussian_mixture":
        u = stream.unit_block(n)
        g = stream.gaussian_block(n)
        return s * np.where(u < p["w1"], p["sigma1"], p["sigma2"]) * g
    if name in ("sparse_normal", "sparse_erdos_renyi"):
        u = stream.unit_block(n)
        g = stream.gaussian_block(n)
        return np.where(u < p["p"], 0.0, s * g)
    if name == "beta":
        a, b, c = stream.unit_block(3 * n).reshape(n, 3).T
        return s * (2.0 * np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c)) - 1.0)
    if name == "exponential":
        return s * (-np.log1p(-stream.unit_block(n)) - 1.0)
    if name.startswith("lowbit"):
        return _quantize(s * stream.gaussian_block(n), s, int(p["bits"]))
    if name == "binary":
        return np.where(stream.gaussian_block(n) >= 0.0, s, -s)
    raise AssertionError(f"{name} is not entrywise")


def whole_block_matrix(stream, fam, rows, cols):
    """The float32 rows x cols matrix, from whole float64 blocks."""
    if fam.name == "orthogonal":
        transpose = rows < cols
        r_, c_ = (cols, rows) if transpose else (rows, cols)
        q, r = np.linalg.qr(stream.gaussian_block(r_ * c_).reshape(r_, c_))
        sign = np.sign(np.diag(r))
        sign[sign == 0.0] = 1.0
        q = q * sign[np.newaxis, :]
        data = fam.params["gain"] * (q.T if transpose else q)
    elif fam.name == "spectral_radius":
        g = stream.gaussian_block(rows * cols).reshape(rows, cols)
        data = (fam.params["rho"] / np.linalg.svd(g, compute_uv=False)[0]) * g
    else:
        data = whole_block_entries(stream, fam, rows * cols, cols, rows).reshape(rows, cols)
    return data.astype(np.float32)


ORACLE_FAMILIES = [InitFamily(name) for name in FAMILY_NAMES] + [InitFamily("student_t", {"nu": 2})]
ENTRYWISE = [name for name in FAMILY_NAMES if name not in ("orthogonal", "spectral_radius")]


@pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=lambda f: f"{f.name}{f.params.get('nu', '')}")
@pytest.mark.parametrize("rows,cols", [(1, 1), (7, 9), (17, 241), (512, 784)])
@pytest.mark.parametrize("carry", [False, True])
def test_chunked_draw_matches_the_whole_block_bitwise(fam, rows, cols, carry):
    # 512x784 spans several chunks; an incoming Box-Muller carry puts the
    # chunk boundaries of an odd-sized gaussian draw inside a pair
    stream = Stream(2026)
    if carry:
        stream.gaussian_block(1)
    whole = stream.copy()
    m = draw_matrix(stream, fam, rows, cols)
    expected = whole_block_matrix(whole, fam, rows, cols)
    assert m.data.tobytes() == expected.tobytes()
    assert (stream.state, stream._gauss_cache) == (whole.state, whole._gauss_cache)
    assert type(stream._gauss_cache) is type(whole._gauss_cache)


@pytest.mark.parametrize("n,d,classes", [(12000, 3, 10), (3000, 11, 3), (100, 785, 3)])
def test_synthetic_blobs_match_the_whole_block_bitwise(n, d, classes):
    # an odd d makes the centers or a row chunk (16384 // d rows) an odd
    # number of draws, so a Box-Muller pair straddles a chunk boundary
    data = synthetic_blobs(n, d, classes, 5.0, seed=13)
    stream = Stream(13)
    centers = (5.0 / np.sqrt(d)) * stream.gaussian_block(classes * d).reshape(classes, d)
    labels = (np.arange(n) % classes).astype(np.int64)
    images = (centers[labels] + stream.gaussian_block(n * d).reshape(n, d)).astype(np.float32)
    assert data.images.tobytes() == images.tobytes()
    assert data.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("name", ENTRYWISE)
def test_entrywise_draw_peaks_at_its_result_plus_chunk_scratch(name):
    peak, m = peak_bytes(lambda: draw_matrix(Stream(5), InitFamily(name), 512, 784))
    assert peak < m.data.nbytes + MIB


def test_synthetic_blobs_peak_at_their_result_plus_chunk_scratch():
    peak, data = peak_bytes(lambda: synthetic_blobs(1024, 784, 10, 16.0, seed=3))
    assert peak < data.images.nbytes + data.labels.nbytes + MIB


def test_resample_drops_the_old_scaffold_before_drawing_the_new():
    def live_model():
        cfg = ModelConfig(preset="medium")
        return build_model(cfg, BackboneSpec.from_config(cfg, 3))

    peak, _ = peak_bytes(lambda model: model.resample_backbones(), setup=live_model)
    assert peak <= MIB
