import numpy as np
import pytest

from wtx.errors import ConfigError, ShapeError, StateError
from wtx.gradcheck import max_relative_error, numeric_gradient
from wtx.layers import ClassBatchNorm, GroupNorm, InputStandardizer, Linear, ReLU


def rng(seed=0):
    return np.random.default_rng(seed)


# --- linear -----------------------------------------------------------------

def test_linear_identity_weight_passthrough():
    layer = Linear(3, 3, rng())
    layer.weight.data[...] = np.eye(3)
    layer.bias.data[...] = 0.0
    x = rng(1).standard_normal((4, 3))
    assert np.allclose(layer.forward(x), x)


def test_linear_zero_weight_gives_bias_rows():
    layer = Linear(3, 2, rng())
    layer.weight.data[...] = 0.0
    layer.bias.data[...] = [1.5, -2.0]
    out = layer.forward(np.ones((5, 3)))
    assert np.allclose(out, np.tile([1.5, -2.0], (5, 1)))


def test_linear_matches_scalar_oracle():
    layer = Linear(8, 5, rng(3))
    x = rng(4).standard_normal((4, 8))
    got = layer.forward(x)
    for i in range(4):
        for o in range(5):
            want = layer.bias.data[o]
            for j in range(8):
                want += x[i, j] * layer.weight.data[o, j]
            assert abs(got[i, o] - want) <= 1e-12 * max(1.0, abs(want))


def test_linear_gradients_match_finite_differences():
    layer = Linear(8, 4, rng(5))
    x = rng(6).standard_normal((4, 8))
    r = rng(7).standard_normal((4, 4))
    f = lambda: float(np.sum(layer.forward(x) * r))
    layer.forward(x)
    dx = layer.backward(r)
    assert max_relative_error(dx, numeric_gradient(f, x)) < 1e-5
    assert max_relative_error(layer.weight.grad, numeric_gradient(f, layer.weight.data)) < 1e-5
    assert max_relative_error(layer.bias.grad, numeric_gradient(f, layer.bias.data)) < 1e-5


def test_linear_backward_before_forward_is_state_error():
    layer = Linear(3, 3, rng())
    with pytest.raises(StateError):
        layer.backward(np.zeros((2, 3)))


def test_linear_shape_error():
    layer = Linear(3, 2, rng())
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((4, 5)))


# --- relu -------------------------------------------------------------------

def test_relu_basic():
    relu = ReLU()
    assert np.array_equal(relu.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])


def test_relu_all_negative_gives_zero():
    relu = ReLU()
    assert np.all(relu.forward(-np.abs(rng(0).standard_normal((3, 4)))) == 0.0)


def test_relu_idempotent():
    relu = ReLU()
    x = rng(1).standard_normal((5, 5))
    once = relu.forward(x)
    assert np.array_equal(relu.forward(once), once)


def test_relu_gradient_is_masked_upstream():
    relu = ReLU()
    x = rng(2).standard_normal((4, 6))
    up = rng(3).standard_normal((4, 6))
    relu.forward(x)
    dx = relu.backward(up)
    assert np.array_equal(dx, up * (x > 0))
    assert np.all(dx[x < 0] == 0.0)


def test_relu_has_the_bits_of_the_select_form():
    # Signed zeros, subnormals, infinities, quiet and signaling NaNs of both
    # signs with payloads, and random bit patterns, at several offsets so
    # every SIMD lane and tail sees each.
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, np.inf, -np.inf,
               np.nan, -np.nan]
    nans = [0x7FF0000000000001, 0xFFF4000000000123, 0x7FF8000000000001, 0xFFFC000000000123]
    bits = np.concatenate([np.array(special).view(np.uint64),
                           rng(9).integers(0, 2**64, size=200_000, dtype=np.uint64),
                           np.array(nans, dtype=np.uint64)])
    x = bits.view(np.float64)
    with np.errstate(invalid="ignore"):
        want = np.where(x > 0, x, 0.0)
        for offset in range(9):
            got = ReLU().forward(x[offset:].reshape(1, -1))
            assert got.tobytes() == want[offset:].tobytes(), offset


# --- input standardizer -----------------------------------------------------

def test_standardizer_population_std():
    s = InputStandardizer.fit(np.array([[1.0], [2.0], [3.0]]), epsilon=0.0)
    assert s.mu[0] == 2.0
    assert abs(s.sigma[0] - np.sqrt(2.0 / 3.0)) < 1e-15


def test_standardizer_constant_channel_maps_to_zero():
    w = np.column_stack([np.full(10, 7.0), rng(0).standard_normal(10)])
    s = InputStandardizer.fit(w)
    out = s.forward(w)
    assert np.all(out[:, 0] == 0.0)


def test_standardizer_matches_two_pass_oracle():
    w = rng(1).standard_normal((50, 8)) * rng(2).uniform(0.5, 4.0, 8)
    s = InputStandardizer.fit(w)
    for j in range(8):
        mu = sum(w[i, j] for i in range(50)) / 50.0
        var = sum((w[i, j] - mu) ** 2 for i in range(50)) / 50.0
        assert abs(s.mu[j] - mu) < 1e-12
        assert abs(s.sigma[j] - var ** 0.5) < 1e-12


def test_standardizer_apply_definition():
    w = rng(3).standard_normal((64, 16)) * rng(4).uniform(0.2, 5.0, 16)
    s = InputStandardizer.fit(w, epsilon=1e-5)
    out = s.forward(w)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    expected = s.sigma / (s.sigma + s.epsilon)
    assert np.max(np.abs(out.std(axis=0) - expected)) < 1e-10


def test_standardizer_identity_when_mu0_sigma1_eps0():
    s = InputStandardizer(np.zeros(4), np.ones(4), epsilon=0.0)
    x = rng(5).standard_normal((6, 4))
    assert np.array_equal(s.forward(x), x)


def test_standardizer_rebalances_imbalanced_channels():
    # One channel 28x the scale of another; afterwards all channels carry
    # comparable variance.
    g = rng(6)
    scales = np.geomspace(0.05, 0.05 * 28.0, 8)
    w = g.standard_normal((200, 8)) * scales
    ratio = w.std(axis=0).max() / w.std(axis=0).min()
    assert ratio > 20.0
    s = InputStandardizer.fit(w, epsilon=1e-5)
    out_var = s.forward(w).var(axis=0)
    assert np.all(out_var >= 0.9) and np.all(out_var <= 1.0)


def test_standardizer_idempotent_in_distribution():
    w = rng(7).standard_normal((100, 6)) * rng(8).uniform(0.5, 3.0, 6)
    s1 = InputStandardizer.fit(w, epsilon=1e-9)
    s2 = InputStandardizer.fit(s1.forward(w), epsilon=1e-9)
    assert np.max(np.abs(s2.mu)) < 1e-10
    assert np.max(np.abs(s2.sigma - 1.0)) < 1e-6


def test_standardizer_needs_two_rows():
    with pytest.raises(ValueError):
        InputStandardizer.fit(np.ones((1, 4)))


def test_standardizer_backward_scales_gradient():
    w = rng(9).standard_normal((20, 5)) * [1.0, 2.0, 3.0, 0.5, 4.0]
    s = InputStandardizer.fit(w)
    x = rng(10).standard_normal((7, 5))
    up = rng(11).standard_normal((7, 5))
    s.forward(x)
    assert np.allclose(s.backward(up), up / (s.sigma + s.epsilon))


# --- group norm ---------------------------------------------------------------

def test_groupnorm_constant_row_zeroes():
    gn = GroupNorm(6, 3)
    out = gn.forward(np.full((2, 6), 3.7))
    assert np.max(np.abs(out)) < 1e-6


def test_groupnorm_single_group_matches_layernorm_oracle():
    gn = GroupNorm(8, 1, eps=1e-5)
    x = rng(12).standard_normal((5, 8))
    got = gn.forward(x)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5)
    assert np.max(np.abs(got - want)) < 1e-12


def test_groupnorm_singleton_groups_output_beta():
    gn = GroupNorm(4, 4)
    gn.gamma.data[...] = rng(13).uniform(0.5, 2.0, 4)
    gn.beta.data[...] = [1.0, -1.0, 0.5, 2.0]
    out = gn.forward(rng(14).standard_normal((3, 4)))
    assert np.allclose(out, np.tile(gn.beta.data, (3, 1)))


def test_groupnorm_pre_affine_statistics():
    # group variance well above eps so the eps term stays below tolerance;
    # a fresh layer's affine is the identity (gamma 1, beta 0)
    gn = GroupNorm(16, 4)
    x = rng(15).standard_normal((8, 16)) * 100.0 + 1.0
    normalized = gn.forward(x).reshape(8, 4, 4)
    assert np.max(np.abs(normalized.mean(axis=2))) < 1e-10
    assert np.max(np.abs(normalized.var(axis=2) - 1.0)) < 1e-8


def test_groupnorm_scale_invariance_per_group():
    # Variance well above eps, so the eps term cannot mask the invariance.
    gn = GroupNorm(8, 2)
    x = rng(16).standard_normal((4, 8)) * 100.0
    scaled = x.copy()
    scaled[:, :4] *= 7.3          # scale one whole group
    a = gn.forward(x)
    b = gn.forward(scaled)
    assert np.max(np.abs(a - b)) < 1e-8


def test_groupnorm_gradients_match_finite_differences():
    gn = GroupNorm(4, 2)
    gn.gamma.data[...] = rng(17).uniform(0.5, 1.5, 4)
    gn.beta.data[...] = rng(18).standard_normal(4)
    x = rng(19).standard_normal((3, 4))
    r = rng(20).standard_normal((3, 4))
    f = lambda: float(np.sum(gn.forward(x) * r))
    gn.forward(x)
    dx = gn.backward(r)
    assert max_relative_error(dx, numeric_gradient(f, x)) < 1e-5
    assert max_relative_error(gn.gamma.grad, numeric_gradient(f, gn.gamma.data)) < 1e-5
    assert max_relative_error(gn.beta.grad, numeric_gradient(f, gn.beta.data)) < 1e-5


def test_groupnorm_matches_the_mean_var_formula_bitwise():
    # The oracle is the np.mean / np.var form the layer computes in one pass.
    gn = GroupNorm(64, 8)
    gn.gamma.data[...] = rng(21).uniform(0.5, 1.5, 64)
    gn.beta.data[...] = rng(22).standard_normal(64)
    for x in (rng(23).standard_normal((200, 64)), 1e3 * rng(24).standard_normal((50, 64)) + 7.0):
        r = rng(25).standard_normal(x.shape)
        got = gn.forward(x)
        dx = gn.backward(r)
        g = x.reshape(-1, 8, 8)
        inv_std = 1.0 / np.sqrt(g.var(axis=2, keepdims=True) + gn.eps)
        xhat = ((g - g.mean(axis=2, keepdims=True)) * inv_std).reshape(x.shape)
        assert np.array_equal(got, gn.gamma.data * xhat + gn.beta.data)
        dxhat = (r * gn.gamma.data).reshape(-1, 8, 8)
        xh = xhat.reshape(-1, 8, 8)
        want = inv_std * (dxhat - dxhat.mean(axis=2, keepdims=True)
                          - xh * (dxhat * xh).mean(axis=2, keepdims=True))
        assert np.array_equal(dx, want.reshape(x.shape))


def test_groupnorm_indivisible_channels_rejected():
    with pytest.raises(ConfigError):
        GroupNorm(6, 4)


def test_groupnorm_backward_before_forward():
    gn = GroupNorm(4, 2)
    with pytest.raises(StateError):
        gn.backward(np.zeros((2, 4)))


# --- class batch norm ---------------------------------------------------------

def test_classbatchnorm_identical_rows_give_beta():
    cbn = ClassBatchNorm(5)
    cbn.beta.data[...] = [0.1, 0.2, 0.3, 0.4, 0.5]
    out = cbn.forward(np.tile(rng(21).standard_normal(5), (4, 1)))
    assert np.allclose(out, np.tile(cbn.beta.data, (4, 1)))


def test_classbatchnorm_definition():
    cbn = ClassBatchNorm(6)
    x = rng(22).standard_normal((20, 6)) * 200.0 + 0.7
    out = cbn.forward(x)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-8


def test_classbatchnorm_cross_checks_standardizer():
    # Same statistics as a standardizer fit on the batch, under the
    # sqrt(var + eps) convention.
    x = rng(23).standard_normal((30, 5)) * rng(24).uniform(0.5, 2.0, 5)
    eps = 1e-5
    cbn = ClassBatchNorm(5, eps=eps)
    got = cbn.forward(x)
    want = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + eps)
    assert np.max(np.abs(got - want)) < 1e-12


def test_classbatchnorm_row_permutation_equivariance():
    cbn = ClassBatchNorm(4)
    x = rng(25).standard_normal((10, 4))
    perm = rng(26).permutation(10)
    a = cbn.forward(x)[perm]
    b = cbn.forward(x[perm])
    # summation order changes under the permutation, so exact bits can differ
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_classbatchnorm_single_row_rejected():
    with pytest.raises(ValueError):
        ClassBatchNorm(4).forward(np.ones((1, 4)))


def test_classbatchnorm_gradients_match_finite_differences():
    cbn = ClassBatchNorm(4)
    cbn.gamma.data[...] = rng(27).uniform(0.5, 1.5, 4)
    x = rng(28).standard_normal((5, 4))
    r = rng(29).standard_normal((5, 4))
    f = lambda: float(np.sum(cbn.forward(x) * r))
    cbn.forward(x)
    dx = cbn.backward(r)
    assert max_relative_error(dx, numeric_gradient(f, x)) < 1e-5
    assert max_relative_error(cbn.gamma.grad, numeric_gradient(f, cbn.gamma.data)) < 1e-5

