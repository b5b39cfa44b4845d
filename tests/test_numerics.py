import math

import numpy as np
import pytest

from lottalora.errors import DataError, DimensionError
from lottalora.numerics import (
    Tensor,
    add,
    add_bias,
    const_scale,
    dropout,
    layernorm,
    linear,
    matmul,
    relu,
    scalar_scale,
    softmax,
    softmax_xent,
    tensor,
)
from lottalora.prng import Stream
from tape_oracle import finite_diff_check, tape_softmax_xent

F64 = np.float64


def test_matmul_identity():
    m = tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    eye = tensor(np.eye(3))
    assert np.allclose(matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tensor([[1.0], [1.0]])
    assert matmul(a, b).data.tolist() == [[3.0], [7.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradients_match_formula_and_finite_diff():
    rng = np.random.default_rng(0)
    a = tensor(rng.standard_normal((5, 4)), requires_grad=True, dtype=F64)
    b = tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=F64)
    labels = rng.integers(0, 3, size=5)

    def loss_fn():
        return tape_softmax_xent(matmul(a, b), labels)

    err = finite_diff_check(loss_fn, [a, b])
    assert err < 1e-4

    # closed-form check: dA = dY @ B.T, dB = A.T @ dY with dY from the loss
    a.zero_grad()
    b.zero_grad()
    out = matmul(a, b)
    probs = softmax(out.data)
    dy = probs.copy()
    dy[np.arange(5), labels] -= 1.0
    dy /= 5.0
    tape_softmax_xent(out, labels).backward()
    assert np.allclose(a.grad, dy @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ dy, atol=1e-12)


def test_linear_matches_explicit_transpose():
    rng = np.random.default_rng(1)
    x = tensor(rng.standard_normal((6, 4)), dtype=F64)
    w = tensor(rng.standard_normal((3, 4)), dtype=F64)
    assert np.allclose(linear(x, w).data, x.data @ w.data.T)


def test_relu_values():
    out = relu(tensor([[-1.0, 0.0, 2.0]]))
    assert out.data.tolist() == [[0.0, 0.0, 2.0]]


def test_dropout_p_zero_is_identity():
    x = tensor(np.ones((4, 4)))
    assert dropout(x, 0.0, Stream(1), training=True) is x


def test_dropout_eval_mode_is_identity():
    x = tensor(np.ones((4, 4)))
    assert dropout(x, 0.5, Stream(1), training=False) is x


def test_dropout_scales_survivors():
    x = tensor(np.ones((64, 64)))
    out = dropout(x, 0.25, Stream(7), training=True)
    vals = np.unique(out.data)
    assert len(vals) == 2
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0 / 0.75)
    # survivor fraction near 1 - p
    assert 0.7 <= float(np.mean(out.data > 0)) <= 0.8


def test_dropout_rejects_bad_p():
    with pytest.raises(DataError):
        dropout(tensor(np.ones((2, 2))), 1.0, Stream(1))


def test_softmax_xent_uniform_logits():
    loss, dlogits = softmax_xent(np.zeros((8, 10), dtype=np.float32), np.zeros(8, dtype=int))
    assert isinstance(loss, float)
    assert loss == pytest.approx(math.log(10.0), rel=1e-12)
    assert dlogits.dtype == np.float32
    expected = np.full((8, 10), 0.1 / 8)
    expected[:, 0] -= 1.0 / 8
    assert np.allclose(dlogits, expected, atol=1e-8)


def test_softmax_xent_label_out_of_range():
    with pytest.raises(DataError):
        softmax_xent(np.zeros((4, 3)), np.array([0, 1, 3, 0]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
def test_softmax_xent_rejects_non_integer_labels(dtype):
    with pytest.raises(DataError, match="integer dtype"):
        softmax_xent(np.zeros((4, 3)), np.array([0, 1, 1, 0]).astype(dtype))


def test_softmax_xent_takes_unsigned_labels():
    logits = np.random.default_rng(9).standard_normal((6, 4))
    labels = np.array([0, 3, 1, 2, 2, 0])
    signed = softmax_xent(logits, labels)
    unsigned = softmax_xent(logits, labels.astype(np.uint8))
    assert signed[0] == unsigned[0] and signed[1].tobytes() == unsigned[1].tobytes()


def test_softmax_xent_shape_errors():
    with pytest.raises(DimensionError):
        softmax_xent(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(DimensionError):
        softmax_xent(np.zeros((4, 3)), np.zeros(3, dtype=int))


def test_softmax_xent_is_finite_at_a_wide_margin():
    # exp(-1000) underflows float64, so the label's softmax probability is
    # 0 in the second row; the loss is still log(sum exp z) - z_y
    logits = np.array([[0.0, 200.0, 0.0], [1000.0, 0.0, -50.0]])
    labels = np.array([0, 2])
    loss, dlogits = softmax_xent(logits, labels)
    closed = np.mean([200.0 + math.log1p(2.0 * math.exp(-200.0)),
                      1050.0 + math.log1p(math.exp(-1000.0) + math.exp(-1050.0))])
    assert math.isfinite(loss)
    assert loss == pytest.approx(closed, rel=1e-15)
    assert np.all(np.isfinite(dlogits))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_xent_matches_the_tape_form_bitwise(dtype):
    # the tape node's loss and the gradient its backward hands the logits
    rng = np.random.default_rng(10)
    logits = tensor(rng.standard_normal((37, 10)) * 4.0, requires_grad=True, dtype=dtype)
    labels = rng.integers(0, 10, size=37)
    tape = tape_softmax_xent(logits, labels)
    tape.backward()
    loss, dlogits = softmax_xent(logits.data, labels)
    assert loss == tape.item()
    assert dlogits.dtype == logits.grad.dtype
    assert dlogits.tobytes() == logits.grad.tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    probs = softmax(rng.standard_normal((64, 10)) * 30.0)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_layernorm_row_statistics_before_affine():
    # row variance must dominate eps = 1e-5 for the unit-variance check
    rng = np.random.default_rng(4)
    x = tensor(rng.standard_normal((32, 64)) * 8.0 + 1.5, dtype=F64)
    gamma = tensor(np.ones(64), dtype=F64)
    bias = tensor(np.zeros(64), dtype=F64)
    y = layernorm(x, gamma, bias).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-10
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-6


def test_logistic_regression_gradient_oracle():
    # single linear layer + cross entropy: grad has the closed form
    # X.T @ (softmax - onehot) / n
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 6))
    labels = rng.integers(0, 4, size=20)
    w = tensor(rng.standard_normal((4, 6)) * 0.1, requires_grad=True, dtype=F64)
    b = tensor(np.zeros(4), requires_grad=True, dtype=F64)
    xt = tensor(x, dtype=F64)

    def loss_fn():
        return tape_softmax_xent(add_bias(linear(xt, w), b), labels)

    assert finite_diff_check(loss_fn, [w, b]) < 1e-6

    w.zero_grad()
    b.zero_grad()
    loss_fn().backward()
    probs = softmax(x @ w.data.T + b.data)
    dy = probs.copy()
    dy[np.arange(20), labels] -= 1.0
    dy /= 20.0
    assert np.allclose(w.grad, dy.T @ x, atol=1e-12)
    assert np.allclose(b.grad, dy.sum(axis=0), atol=1e-12)


def test_two_layer_mlp_finite_diff():
    rng = np.random.default_rng(6)
    centers = rng.standard_normal((3, 8)) * 4.0
    xs = np.concatenate([centers[i] + rng.standard_normal((12, 8)) for i in range(3)])
    labels = np.repeat(np.arange(3), 12)
    w1 = tensor(rng.standard_normal((16, 8)) * 0.3, requires_grad=True, dtype=F64)
    b1 = tensor(np.zeros(16), requires_grad=True, dtype=F64)
    w2 = tensor(rng.standard_normal((3, 16)) * 0.3, requires_grad=True, dtype=F64)
    b2 = tensor(np.zeros(3), requires_grad=True, dtype=F64)
    xt = tensor(xs, dtype=F64)

    def loss_fn():
        h = relu(add_bias(linear(xt, w1), b1))
        return tape_softmax_xent(add_bias(linear(h, w2), b2), labels)

    assert finite_diff_check(loss_fn, [w1, b1, w2, b2]) < 1e-4


def test_per_op_gradients_finite_diff():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=10)
    x = tensor(rng.standard_normal((10, 5)), dtype=F64)
    w = tensor(rng.standard_normal((3, 5)) * 0.5, requires_grad=True, dtype=F64)
    beta = tensor(np.asarray(1.3), requires_grad=True, dtype=F64)
    gamma = tensor(np.ones(3), requires_grad=True, dtype=F64)
    bias = tensor(np.zeros(3), requires_grad=True, dtype=F64)
    other = tensor(rng.standard_normal((10, 3)), requires_grad=True, dtype=F64)
    mask_stream_state = 99

    def loss_fn():
        y = scalar_scale(linear(x, w), beta)
        y = add(y, other)
        y = layernorm(y, gamma, bias)
        y = const_scale(y, 0.5)
        y = dropout(y, 0.3, Stream(mask_stream_state), training=True)
        y = relu(y)
        return tape_softmax_xent(y, labels)

    err = finite_diff_check(loss_fn, [w, beta, gamma, bias, other])
    assert err < 1e-4


def test_frozen_leaf_gets_no_grad():
    x = tensor(np.ones((4, 3)), dtype=F64)
    w_frozen = tensor(np.ones((2, 3)), requires_grad=False, dtype=F64)
    s = tensor(np.asarray(2.0), requires_grad=True, dtype=F64)
    loss = tape_softmax_xent(scalar_scale(linear(x, w_frozen), s), np.zeros(4, dtype=int))
    loss.backward()
    assert w_frozen.grad is None
    assert s.grad is not None


def test_backward_twice_is_an_error():
    w = tensor(np.ones((2, 2)), requires_grad=True, dtype=F64)
    loss = tape_softmax_xent(linear(tensor(np.ones((3, 2)), dtype=F64), w), np.zeros(3, dtype=int))
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_backward_requires_scalar():
    w = tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        linear(tensor(np.ones((3, 2))), w).backward()


def test_finite_diff_rejects_zero_eps():
    w = tensor(np.ones((2, 2)), requires_grad=True, dtype=F64)
    with pytest.raises(ValueError):
        finite_diff_check(lambda: tape_softmax_xent(linear(tensor(np.ones((1, 2)), dtype=F64), w), [0]), [w], eps=0.0)


def test_gradient_accumulates_across_shared_use():
    # w used twice must match the single-path graph scaled by 2
    rng = np.random.default_rng(8)
    x = tensor(rng.standard_normal((4, 3)), dtype=F64)
    labels = np.array([0, 1, 0, 1])
    w = tensor(rng.standard_normal((2, 3)), requires_grad=True, dtype=F64)
    tape_softmax_xent(add(linear(x, w), linear(x, w)), labels).backward()
    shared = w.grad.copy()
    w.zero_grad()
    tape_softmax_xent(const_scale(linear(x, w), 2.0), labels).backward()
    assert np.allclose(shared, w.grad, atol=1e-12)
    assert float(np.abs(shared).max()) > 0


def test_f32_default_storage():
    t = tensor([[1.0, 2.0]])
    assert t.dtype == np.float32
    assert linear(t, tensor(np.ones((3, 2)))).dtype == np.float32
