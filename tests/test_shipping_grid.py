"""The shipping rule ``to_shipping_precision``: each trainable tensor on an
int8 grid with its own power-of-two scale, checked property by property
against a per-tensor float64 loop."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from lottalora.artifact import GRID_MAX, GRID_MIN_EXP, pack, reconstruct, to_shipping_precision, unpack
from lottalora.model import BackboneSpec, ModelConfig, build_model

# scalar betas, vectors and matrices, as the layout of a real model holds them
CFG = ModelConfig(preset=None, hidden_dims=(6, 5), input_dim=4, num_classes=3, rank=2, layernorm=True,
                  head_mode="lora_bias")
MODEL = build_model(CFG, BackboneSpec.from_config(CFG, 1))
SIZES = [math.prod(shape) for _, shape in CFG.trainable_layout()]
# the first of the largest tensors (layer0.B), where the rounding tests write
BIG = SIZES.index(max(SIZES))
BIG_START = sum(SIZES[:BIG])
PROPERTIES = settings(max_examples=100, deadline=None)

F32_MAX = float(np.finfo(np.float32).max)
# every f32 value the grid takes, -0.0 and subnormals included
GRID_FLOATS = st.floats(-GRID_MAX, GRID_MAX, width=32)


@st.composite
def grid_params(draw):
    """A ``params`` buffer of in-range f32 values; each tensor is scaled
    down by its own power of two, so some fall under the clamp."""
    parts = []
    for size in SIZES:
        values = np.array(draw(st.lists(GRID_FLOATS, min_size=size, max_size=size)), np.float32)
        parts.append(np.ldexp(values, -draw(st.integers(0, 60))).astype(np.float32))
    return np.concatenate(parts)


def grid_reference(values: np.ndarray) -> tuple[np.ndarray, list]:
    """The rule tensor by tensor in float64: the rounded values and each
    tensor's exponent e."""
    out, exps, start = values.copy(), [], 0
    for size in SIZES:
        x = values[start:start + size].astype(np.float64)
        m = float(np.abs(x).max())
        e = math.frexp(m)[1] - 8  # 127 * 2**e < m here for any m > 0
        while m > 127 * 2.0**e:
            e += 1
        e = max(e, GRID_MIN_EXP)
        out[start:start + size] = np.rint(x / 2.0**e) * 2.0**e
        exps.append(e)
        start += size
    return out, exps


def bits(values: np.ndarray) -> bytes:
    return values.view(np.uint32).tobytes()


def shipped(values: np.ndarray) -> np.ndarray:
    MODEL.params[...] = values
    assert to_shipping_precision(MODEL)
    return MODEL.params.copy()


@PROPERTIES
@given(grid_params())
def test_the_rule_is_the_per_tensor_reference_loop(values):
    want, _ = grid_reference(values)
    assert bits(shipped(values)) == bits(want)


@PROPERTIES
@given(grid_params())
def test_the_grid_is_f16_exact_and_a_second_call_changes_no_bit(values):
    once = shipped(values)
    assert bits(once.astype(np.float16).astype(np.float32)) == bits(once)
    assert to_shipping_precision(MODEL)
    assert bits(MODEL.params) == bits(once)


@PROPERTIES
@given(grid_params())
def test_each_nonzero_tensors_largest_code_is_at_least_64_unless_clamped(values):
    once = shipped(values)
    _, exps = grid_reference(values)
    start = 0
    for size, e in zip(SIZES, exps):
        codes = np.abs(once[start:start + size].astype(np.float64)) / 2.0**e
        assert np.array_equal(codes, np.rint(codes)) and codes.max() <= 127
        if codes.any() and e > GRID_MIN_EXP:
            assert codes.max() >= 64
        start += size


@PROPERTIES
@given(grid_params())
def test_the_shipped_model_round_trips_as_version_4(values):
    once = shipped(values)
    blob = pack(MODEL)
    assert blob[4:6] == b"\x04\x00"
    assert bits(reconstruct(*unpack(blob)).params) == bits(once)


@PROPERTIES
@given(st.integers(GRID_MIN_EXP, 9), st.sampled_from([1, -1]),
       st.lists(st.integers(-127, 126), min_size=1, max_size=SIZES[BIG] - 2))
def test_ties_round_to_even_and_negative_zero_keeps_its_sign(e, sign, ks):
    # the tensor's largest magnitude 127 * 2**e fixes its scale at 2**e
    codes = [sign * 127, *(k + 0.5 for k in ks), -0.0]
    values = np.zeros(sum(SIZES), np.float32)
    values[BIG_START:BIG_START + len(codes)] = np.ldexp(np.array(codes, np.float32), e)
    out = shipped(values)[BIG_START:BIG_START + len(codes)]
    even = [k if k % 2 == 0 else k + 1 for k in ks]
    assert (out / np.float32(2.0**e)).tolist() == [sign * 127, *even, 0.0]
    assert np.signbit(out[-1]) and all(np.signbit(v) for v, k in zip(out[1:-1], ks) if k == -1)


@PROPERTIES
@given(st.integers(GRID_MIN_EXP, 8))
def test_the_largest_magnitude_at_127_scales_stays_and_one_ulp_above_moves_up_a_scale(e):
    at = np.float32(np.ldexp(127.0, e))
    above = np.nextafter(at, np.float32(np.inf))
    values = np.zeros(sum(SIZES), np.float32)
    values[-1] = at  # the head bias's largest magnitude is exactly 127 * 2**e
    values[:2] = [-above, at]  # layer0.A's is one ulp above, so its scale is 2**(e+1)
    out = shipped(values)
    assert out[-1] == at
    # 127 * 2**e is the tie 63.5 * 2**(e+1), which goes to the even 64
    assert out[:2].tolist() == [-np.ldexp(128.0, e), np.ldexp(128.0, e)]


@PROPERTIES
@given(st.integers(-60, GRID_MIN_EXP - 1), st.integers(1, 127))
def test_a_tensor_under_the_clamp_rounds_to_multiples_of_2_to_the_minus_24(e, code):
    values = np.zeros(sum(SIZES), np.float32)
    values[-1] = np.ldexp(np.float32(code), e)
    want = np.rint(np.ldexp(float(code), e - GRID_MIN_EXP)) * 2.0**GRID_MIN_EXP
    assert shipped(values)[-1] == want


@PROPERTIES
@given(grid_params(), st.integers(0, sum(SIZES) - 1),
       st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                 st.floats(GRID_MAX, F32_MAX, exclude_min=True, width=32),
                 st.floats(-F32_MAX, -GRID_MAX, exclude_max=True, width=32)))
def test_a_value_past_the_grid_leaves_params_bit_identical(values, at, bad):
    values[at] = bad
    MODEL.params[...] = values
    assert not to_shipping_precision(MODEL)
    assert bits(MODEL.params) == bits(values)

