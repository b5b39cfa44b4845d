"""The two matrix-heavy draws against their earlier forms, bit for bit.

``student_t`` sums each entry's chi-square in a written-out pairwise order
over whole rows of squares, and ``orthogonal`` fills a column-major matrix
for LAPACK in row blocks.  The oracles below are the forms they replaced:
numpy's ``np.sum(..., axis=1)`` over each entry's row of squares, and a
C-order matrix from one whole gaussian block.  Values, layout, the stream
state and the Box-Muller carry must all match.
"""

import numpy as np
import pytest
from numpy.linalg import lapack_lite

from lottalora.errors import LottaError
from lottalora.initfam import InitFamily, _fill_entries, _lapack, _pairwise_sum, draw_matrix
from lottalora.prng import DRAW_CHUNK, Stream

from conftest import peak_bytes

MIB = 2 ** 20

# below 8 terms, the 8-sum form with and without a tail, the recursive split
NUS = [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130, 136, 255, 256, 257, 300, 511, 1000]
ORTHOGONAL_SHAPES = [(1, 1), (1, 7), (7, 1), (241, 17), (64, 64), (17, 241), (784, 512), (512, 784), (1024, 784)]


def oracle_student_t_entries(stream, fam, n, fan_in):
    """n float64 entries from one whole block, with numpy's row sums."""
    nu = int(fam.params["nu"])
    s = 1.0 / np.sqrt(fan_in) if fam.scaling == "fan_in" else fam.params["scale"]
    g = stream.gaussian_block(n * (nu + 1)).reshape(n, nu + 1)
    chi2 = np.sum(g[:, 1:] ** 2, axis=1)
    return s * g[:, 0] / np.sqrt(chi2 / nu)


def oracle_student_t(stream, fam, rows, cols):
    return oracle_student_t_entries(stream, fam, rows * cols, cols).reshape(rows, cols).astype(np.float32)


def oracle_orthogonal(stream, fam, rows, cols):
    """QR of a C-order matrix drawn as one gaussian block, cast to float32."""
    transpose = rows < cols
    r_, c_ = (cols, rows) if transpose else (rows, cols)
    q, r = np.linalg.qr(stream.gaussian_block(r_ * c_).reshape(r_, c_))
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    q *= sign
    q *= fam.params["gain"]
    return (q.T if transpose else q).astype(np.float32)


def layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


def stream_pair(carry, seed=13):
    got, want = Stream(seed), Stream(seed)
    if carry:
        got.gaussian_block(1)
        want.gaussian_block(1)
    return got, want


def stream_state(stream):
    return stream.state, stream._gauss_cache


def assert_draw_matches(oracle, fam, rows, cols, carry):
    got_stream, want_stream = stream_pair(carry)
    got = draw_matrix(got_stream, fam, rows, cols).data
    want = oracle(want_stream, fam, rows, cols)
    assert got.tobytes() == want.tobytes()
    assert layout(got) == layout(want)
    assert stream_state(got_stream) == stream_state(want_stream)


def assert_student_t_entries_match(fam, n, fan_in, carry):
    # a float32 cast hides most last-bit changes of the float64 rule
    got_stream, want_stream = stream_pair(carry)
    got = np.empty(n)
    _fill_entries(got_stream, fam, got, fan_in, 1)
    assert got.tobytes() == oracle_student_t_entries(want_stream, fam, n, fan_in).tobytes()
    assert stream_state(got_stream) == stream_state(want_stream)


# 500 and 520: leaves of 8 and of 15-16 blocks of 8 rows; 16383: the largest
# nu a draw chunk holds
@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 16, 17, 23, 64, 127, 128, 129, 130, 135, 136, 137, 255, 256,
                               257, 300, 500, 511, 520, 1000, 1500, 4000, 16383])
def test_pairwise_sum_matches_numpy_row_sums(n):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((37, n)) ** 2 * rng.uniform(0.01, 100.0, (37, n))
    want = np.sum(rows, axis=1)
    assert _pairwise_sum(np.ascontiguousarray(rows.T)).tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("carry", [False, True])
def test_student_t_matches_numpy_row_sums(nu, carry):
    fam = InitFamily("student_t", {"nu": nu})
    assert_draw_matches(oracle_student_t, fam, 17, 31, carry)
    assert_student_t_entries_match(fam, 527, 31, carry)


@pytest.mark.parametrize("carry", [False, True])
def test_student_t_at_the_largest_nu(carry):
    # each entry's nu + 1 = DRAW_CHUNK gaussians fill a whole draw chunk
    fam = InitFamily("student_t", {"nu": DRAW_CHUNK - 1})
    assert_draw_matches(oracle_student_t, fam, 1, 2, carry)
    assert_student_t_entries_match(fam, 2, 2, carry)


@pytest.mark.parametrize("rows,cols", [(1, 1), (241, 17), (64, 64), (17, 241), (512, 784)])
@pytest.mark.parametrize("carry", [False, True])
def test_student_t_shapes_match(rows, cols, carry):
    assert_draw_matches(oracle_student_t, InitFamily("student_t", {"nu": 3, "scale": 0.5}, "explicit"),
                        rows, cols, carry)


@pytest.mark.parametrize("rows,cols", ORTHOGONAL_SHAPES)
@pytest.mark.parametrize("carry", [False, True])
def test_orthogonal_matches_the_c_order_draw(rows, cols, carry):
    assert_draw_matches(oracle_orthogonal, InitFamily("orthogonal", {"gain": 1.7}), rows, cols, carry)


def test_orthogonal_keeps_its_layouts():
    # tall and square come back C-ordered, wide as the transpose of a C-order Q
    for rows, cols, want in ((784, 512, (True, False)), (64, 64, (True, False)), (512, 784, (False, True))):
        assert layout(draw_matrix(Stream(3), InitFamily("orthogonal"), rows, cols).data) == want


def test_orthogonal_rows_span_several_draw_blocks():
    # 20 columns give row blocks of DRAW_CHUNK // 20 rows, the last one short
    rows = 2 * (DRAW_CHUNK // 20) + 3
    assert_draw_matches(oracle_orthogonal, InitFamily("orthogonal"), rows, 20, True)


def test_a_lapack_failure_raises_a_lotta_error():
    # lda 0 is an illegal argument, which LAPACK reports as info -4
    with pytest.raises(LottaError, match="dgeqrf failed with info -4"):
        _lapack(lapack_lite.dgeqrf, 4, 3, np.zeros((3, 4)), 0, np.empty(3))


def assert_draw_peak(name, rows, cols):
    # LAPACK works on the whole float64 matrix; besides it and the float32
    # result, a draw holds only small vectors
    peak, m = peak_bytes(lambda: draw_matrix(Stream(5), InitFamily(name), rows, cols))
    assert m.data.nbytes == rows * cols * 4
    assert peak <= rows * cols * (8 + 4) + 0.1 * MIB


def test_orthogonal_draw_peak():
    assert_draw_peak("orthogonal", 512, 784)  # 4.69 MiB


def test_orthogonal_large_layer_draw_peak():
    assert_draw_peak("orthogonal", 1024, 784)  # 9.29 MiB


def test_spectral_radius_draw_peak():
    assert_draw_peak("spectral_radius", 512, 784)  # 4.69 MiB
