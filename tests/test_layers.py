import numpy as np
import pytest

from lottalora.errors import ConfigError, DimensionError
from lottalora.initfam import BackboneMatrix, InitFamily, draw_matrix
from lottalora.layers import DenseLayer, LottaLayer, init_adapter
from lottalora.model import BackboneSpec, ModelConfig, build_model
from lottalora.numerics import softmax
from lottalora.prng import DrawKind, Stream, derive_stream
from helpers import effective_weight, spectral_norm


def make_layer(d_in=32, d_out=16, rank=4, seed=42, use_ln=False):
    backbone = draw_matrix(derive_stream(seed, 0, DrawKind.BACKBONE_WEIGHT),
                           InitFamily("normal", {"sigma": 0.1}, scaling="explicit"), d_out, d_in)
    a, b = init_adapter(rank, d_in, d_out, derive_stream(seed, 0, DrawKind.ADAPTER_A_INIT))
    return LottaLayer(backbone, None, a, b, 1.0 / rank, use_layernorm=use_ln)


def test_fresh_layer_equals_backbone_projection():
    layer = make_layer()
    x = np.random.default_rng(0).standard_normal((8, 32)).astype(np.float32)
    out = layer.forward(x)
    expected = x @ layer.backbone.data.T  # beta = 1, B = 0
    assert np.array_equal(out, expected)


def test_fresh_output_independent_of_a_values():
    a_layer = make_layer(seed=1)
    b_layer = make_layer(seed=1)
    b_layer.a.data[:] = 123.0  # B = 0 kills the adapter path
    x = np.random.default_rng(1).standard_normal((4, 32)).astype(np.float32)
    assert np.array_equal(a_layer.forward(x), b_layer.forward(x))


def test_zero_backbone_leaves_only_adapter_path():
    layer = make_layer()
    zero = BackboneMatrix(np.zeros((16, 32), dtype=np.float32))
    layer.set_backbone(zero)
    layer.b.data[:] = np.random.default_rng(2).standard_normal((16, 4)).astype(np.float32)
    layer.beta.data[()] = 7.0  # any beta: the backbone path is zero
    x = np.random.default_rng(3).standard_normal((8, 32)).astype(np.float32)
    out = layer.forward(x)
    expected = layer.scale * (x @ layer.a.data.T @ layer.b.data.T)
    assert np.allclose(out, expected, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("shape", [(5, 5), (4, 3), (12,), (3, 4, 1)])
def test_a_backbone_of_another_shape_is_refused_before_any_forward(shape):
    # a matrix the layer let through would fail the next forward with a
    # raw matmul ValueError, or not at all for a (3, 4, 1) one
    a, b = init_adapter(2, 4, 3, Stream(1))
    bad = BackboneMatrix(np.zeros(shape, np.float32))
    with pytest.raises(DimensionError, match=r"3x4"):
        LottaLayer(bad, None, a, b, 0.5)
    layer = LottaLayer(BackboneMatrix(np.zeros((3, 4), np.float32)), None, a, b, 0.5)
    with pytest.raises(DimensionError, match=r"3x4"):
        layer.set_backbone(bad)


@pytest.mark.parametrize("shape", [(4,), (2,), (3, 1), ()])
def test_a_frozen_bias_of_another_shape_is_refused(shape):
    layer = make_layer(d_in=4, d_out=3, rank=2)
    with pytest.raises(DimensionError, match=r"\(3,\)"):
        layer.set_backbone(layer.backbone, np.zeros(shape, np.float32))


@pytest.mark.parametrize("h", [np.zeros((2, 5), np.float32), np.zeros((2, 3), np.float32),
                               np.zeros(4, np.float32), np.zeros((2, 4, 1), np.float32)])
def test_an_input_of_another_width_is_refused(h):
    lotta = make_layer(d_in=4, d_out=3, rank=2)
    dense = DenseLayer(4, 3, Stream(1))
    for layer in (lotta, dense):
        with pytest.raises(DimensionError, match="d_in 4"):
            layer.forward(h)
        with pytest.raises(DimensionError, match="d_in 4"):
            layer.forward(h, {})


def test_scale_factor_standard_and_rank_stabilized():
    # s is fixed at build from the config, and every adapted layer holds it
    for mode, alpha, scale in [("standard", 1.0, 0.25), ("rank_stabilized", 1.0, 0.5),
                               ("standard", 2.0, 0.5), ("rank_stabilized", 3.0, 1.5)]:
        cfg = ModelConfig(preset=None, hidden_dims=(16, 8), input_dim=32, num_classes=4, rank=4,
                          alpha=alpha, scaling_mode=mode, head_mode="lora")
        assert cfg.adapter_scale() == scale
        layers = build_model(cfg, BackboneSpec.from_config(cfg, 1)).lotta_layers()
        assert len(layers) == 3 and all(layer.scale == scale for layer in layers)


def test_effective_weight_zero_b_is_beta_w():
    layer = make_layer()
    layer.beta.data[()] = 1.5
    eff = effective_weight(layer)
    assert np.allclose(eff, 1.5 * layer.backbone.data.astype(np.float64))


def test_effective_weight_zero_beta_is_scaled_ba_rank_bounded():
    layer = make_layer(rank=3)
    rng = np.random.default_rng(4)
    layer.b.data[:] = rng.standard_normal((16, 3)).astype(np.float32)
    layer.beta.data[()] = 0.0
    eff = effective_weight(layer)
    expected = layer.scale * (
        layer.b.data.astype(np.float64) @ layer.a.data.astype(np.float64)
    )
    assert np.allclose(eff, expected)
    assert np.linalg.matrix_rank(eff, tol=1e-6) <= 3


def test_forward_matches_effective_weight_product():
    layer = make_layer(rank=5)
    rng = np.random.default_rng(5)
    layer.b.data[:] = 0.3 * rng.standard_normal((16, 5)).astype(np.float32)
    layer.beta.data[()] = 0.8
    x = rng.standard_normal((16, 32)).astype(np.float32)
    out = layer.forward(x).astype(np.float64)
    merged = x.astype(np.float64) @ effective_weight(layer).T
    # matrix-level relative deviation between the two computation routes
    rel = np.abs(out - merged).max() / np.abs(merged).max()
    assert rel < 1e-5


def test_rank_bound_of_update():
    layer = make_layer(rank=4)
    rng = np.random.default_rng(6)
    layer.a.data[:] = rng.standard_normal((4, 32)).astype(np.float32)
    layer.b.data[:] = rng.standard_normal((16, 4)).astype(np.float32)
    layer.beta.data[()] = 0.7
    update = effective_weight(layer) - 0.7 * layer.backbone.data.astype(np.float64)
    singulars = np.linalg.svd(update, compute_uv=False)
    assert np.all(singulars[4:] < 1e-6 * singulars[0])


def test_beta_linearity():
    layer = make_layer()
    rng = np.random.default_rng(7)
    layer.b.data[:] = rng.standard_normal((16, 4)).astype(np.float32)
    ba_part = layer.scale * (
        layer.b.data.astype(np.float64) @ layer.a.data.astype(np.float64)
    )
    layer.beta.data[()] = 1.0
    base = effective_weight(layer) - ba_part
    layer.beta.data[()] = 3.0
    scaled = effective_weight(layer) - ba_part
    assert np.allclose(scaled, 3.0 * base)


def test_init_adapter_contract():
    a, b = init_adapter(8, 784, 512, Stream(9))
    assert a.data.shape == (8, 784) and b.data.shape == (512, 8)
    assert a.requires_grad and b.requires_grad
    assert float(np.abs(b.data).max()) == 0.0
    bound = (6.0 / (784 * 6.0)) ** 0.5
    assert bound == pytest.approx(0.035714, abs=1e-6)
    assert float(np.abs(a.data).max()) <= bound + 1e-7
    # the layer around them starts at beta = 1, with no trainable offset
    layer = LottaLayer(draw_matrix(Stream(1), InitFamily("normal"), 512, 784), None, a, b, 0.125)
    assert float(layer.beta.data) == 1.0 and layer.bias is None
    assert layer.trainable() == [a, b, layer.beta]


def test_init_adapter_rejects_bad_rank_and_b_init():
    with pytest.raises(ConfigError):
        init_adapter(0, 8, 8, Stream(1))
    with pytest.raises(ConfigError, match="b_init"):
        init_adapter(2, 8, 8, Stream(1), b_init="orthogonal")


@pytest.mark.parametrize("rank", [2.5, "2", None, True])
def test_init_adapter_rejects_a_rank_that_is_not_an_integer(rank):
    with pytest.raises(ConfigError, match="rank must be an integer"):
        init_adapter(rank, 8, 8, Stream(1))


def model_layer(use_ln=False):
    """A one-hidden-layer model and its 32 -> 16 hidden LottaLayer."""
    cfg = ModelConfig(preset=None, hidden_dims=(16,), input_dim=32, num_classes=4, rank=4, layernorm=use_ln)
    model = build_model(cfg, BackboneSpec.from_config(cfg, 42))
    return model, model.hidden[0]


def test_backbone_frozen_under_gradient_step():
    model, layer = model_layer()
    before = layer.backbone.data.tobytes()
    rng = np.random.default_rng(8)
    layer.b.data[...] = 0.1 * rng.standard_normal(layer.b.data.shape)  # so A's gradient is not zero
    x = rng.standard_normal((8, 32)).astype(np.float32)
    cache = {}
    out = layer.forward(x, cache)
    g = softmax(out)  # gradient of the mean cross-entropy against label 0
    g[:, 0] -= 1.0
    g /= 8.0
    grads = np.full_like(model.params, -0.0)
    views = model.cfg.views(grads)
    assert layer.backward(g.astype(np.float32), cache, views[:len(layer.trainable())]).shape == x.shape
    # the gradient reaches exactly the layer's trainables; the backbone has no slot
    graded = [(n, p, grad) for (n, p), grad in zip(model.trainable_params(), views) if np.any(grad)]
    assert [n for n, _, _ in graded] == ["layer0.A", "layer0.B", "layer0.beta"]
    assert grads.size == model.params.size == sum(p.data.size for _, p in model.trainable_params())
    for _, p, grad in graded:
        p.data -= 0.1 * grad
    assert layer.backbone.data.tobytes() == before


def test_layernorm_path_has_trainable_affine():
    model, layer = model_layer(use_ln=True)
    named = [(n, t) for n, t in model.trainable_params() if n.startswith("layer0.")]
    assert [n for n, _ in named] == ["layer0.A", "layer0.B", "layer0.beta", "layer0.ln_gamma", "layer0.ln_bias"]
    assert all(t is mine for (_, t), mine in zip(named, layer.trainable(), strict=True))
    x = np.random.default_rng(9).standard_normal((4, 32)).astype(np.float32)
    out = layer.forward(x)
    # unit-affine LayerNorm output has near-zero row means
    assert np.abs(out.mean(axis=-1)).max() < 1e-5


def test_lora_bias_head_holds_its_trainable_offset():
    cfg = ModelConfig(preset=None, hidden_dims=(16,), input_dim=32, num_classes=4, rank=4, head_mode="lora_bias")
    model = build_model(cfg, BackboneSpec.from_config(cfg, 42))
    head = model.head
    assert [n for n, _ in model.trainable_params()][-4:] == ["head.A", "head.B", "head.beta", "head.bias"]
    assert head.trainable() == [head.a, head.b, head.beta, head.bias]
    assert model.trainable_params()[-1][1] is head.bias
    assert all(layer.bias is None for layer in model.hidden)
    rng = np.random.default_rng(11)
    h = rng.standard_normal((8, 16)).astype(np.float32)
    before = head.forward(h)
    head.bias.data[:] = [1.0, -2.0, 0.5, 3.0]
    # added right after the frozen offset: the output moves by exactly d
    assert np.array_equal(head.forward(h), before + head.bias.data)
    g = rng.standard_normal((8, 4)).astype(np.float32)
    cache = {}
    head.forward(h, cache)
    grads = [np.full_like(t.data, -0.0) for t in head.trainable()]
    head.backward(g.copy(), cache, grads)
    # taken from g before the adapter scale (here 1/4) touches it
    assert np.array_equal(grads[-1], g.sum(axis=0, dtype=np.float64).astype(np.float32))


@pytest.mark.parametrize("use_ln", [False, True])
def test_a_layer_adds_its_gradients_into_the_arrays_it_is_given(use_ln):
    backbone = draw_matrix(derive_stream(7, 0, DrawKind.BACKBONE_WEIGHT),
                           InitFamily("normal", {"sigma": 0.1}, scaling="explicit"), 16, 32)
    a, b = init_adapter(4, 32, 16, derive_stream(7, 0, DrawKind.ADAPTER_A_INIT))
    layer = LottaLayer(backbone, None, a, b, 0.25, use_layernorm=use_ln, use_bias=True)
    assert all(t.grad is None for t in layer.trainable())  # a layer holds no gradient
    rng = np.random.default_rng(12)
    layer.b.data[...] = rng.standard_normal(layer.b.data.shape)
    h = rng.standard_normal((8, 32)).astype(np.float32)
    g = rng.standard_normal((8, 16)).astype(np.float32)
    grads = [np.full_like(t.data, -0.0) for t in layer.trainable()]
    cache = {}
    layer.forward(h, cache)
    layer.backward(g.copy(), cache, grads)
    assert all(t.grad is None for t in layer.trainable())
    first = [grad.copy() for grad in grads]
    assert all(np.all(grad != 0) for grad in first)
    if not use_ln:  # closed forms of d(sum(out * g)) for the un-normalised layer
        h64, g64 = h.astype(np.float64), g.astype(np.float64)
        a64, b64 = layer.a.data.astype(np.float64), layer.b.data.astype(np.float64)
        expected = [0.25 * (g64 @ b64).T @ h64, 0.25 * g64.T @ (h64 @ a64.T),
                    np.sum((h64 @ layer.backbone.data.T.astype(np.float64)) * g64), g64.sum(axis=0)]
        for grad, want in zip(first, expected, strict=True):
            assert np.allclose(grad, want, rtol=1e-5, atol=1e-5)
    # a second pass adds onto the first
    layer.forward(h, cache)
    layer.backward(g.copy(), cache, grads)
    for got, grad in zip(grads, first, strict=True):
        assert np.array_equal(got, 2 * grad)


def test_spectral_norm_identity_and_diag():
    assert spectral_norm(np.eye(6)) == pytest.approx(1.0, abs=1e-9)
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_close_to_svd():
    rng = np.random.default_rng(10)
    for shape in [(40, 60), (64, 64), (100, 30)]:
        m = rng.standard_normal(shape)
        exact = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m, iters=200) == pytest.approx(exact, rel=1e-3)


def test_spectral_norm_gaussian_matches_rmt_prediction():
    # sigma1 of a d x d gaussian with entry std 1/sqrt(d) concentrates near 2
    fam = InitFamily("normal")  # fan_in scaling: sigma = 1/sqrt(512)
    m = draw_matrix(Stream(123), fam, 512, 512)
    assert spectral_norm(m.data, iters=300) == pytest.approx(2.0, rel=0.05)
