import numpy as np
import pytest

from wtx.errors import ShapeError
from wtx.gradcheck import max_relative_error, numeric_gradient
from wtx.losses import _logistic, sigmoid_bce, smooth_l1
from wtx.models import DetectionProxyHead, ModelConfig, TransferModel, joint_losses


def rng(seed=0):
    return np.random.default_rng(seed)


# --- smooth L1 ----------------------------------------------------------------

def test_smooth_l1_zero_at_match():
    x = rng(0).standard_normal((3, 4))
    lv = smooth_l1(x, x.copy())
    assert lv.value == 0.0
    assert np.all(lv.grad == 0.0)


@pytest.mark.parametrize("residual,expected", [(0.5, 0.125), (2.0, 1.5), (1.0, 0.5)])
def test_smooth_l1_scalar_branches(residual, expected):
    lv = smooth_l1(np.array([[residual]]), np.array([[0.0]]))
    assert abs(lv.value - expected) < 1e-15


def test_smooth_l1_matches_elementwise_oracle_and_fd():
    pred = rng(1).standard_normal((6, 4)) * 1.5
    target = rng(2).standard_normal((6, 4))
    lv = smooth_l1(pred, target)
    total = 0.0
    for i in range(6):
        for j in range(4):
            r = pred[i, j] - target[i, j]
            total += 0.5 * r * r if abs(r) < 1.0 else abs(r) - 0.5
    assert abs(lv.value - total / 24.0) < 1e-12
    f = lambda: smooth_l1(pred, target).value
    assert max_relative_error(lv.grad, numeric_gradient(f, pred)) < 1e-6


def test_smooth_l1_gradient_is_clamped_residual():
    pred = np.array([[0.5, 2.0, -3.0, -0.25]])
    lv = smooth_l1(pred, np.zeros((1, 4)))
    assert np.allclose(lv.grad, np.array([[0.5, 1.0, -1.0, -0.25]]) / 4.0)


def test_smooth_l1_c1_continuity_at_unit_residual():
    delta = 1e-7
    lo = smooth_l1(np.array([[1.0 - delta]]), np.zeros((1, 1)))
    hi = smooth_l1(np.array([[1.0 + delta]]), np.zeros((1, 1)))
    assert abs(lo.value - hi.value) <= 2 * delta + 1e-12
    # both branch formulas agree at |r| = 1: 0.5 r^2 -> grad r, |r| - 0.5 -> grad 1
    at_kink = smooth_l1(np.array([[1.0]]), np.zeros((1, 1)))
    assert abs(at_kink.value - 0.5) < 1e-15
    assert abs(at_kink.grad[0, 0] - 1.0) < 1e-9
    # and the one-sided gradients differ only at the delta scale itself
    assert abs(lo.grad[0, 0] - hi.grad[0, 0]) <= delta + 1e-12


def test_smooth_l1_shape_mismatch():
    with pytest.raises(ShapeError):
        smooth_l1(np.zeros((2, 2)), np.zeros((2, 3)))


# --- sigmoid BCE ----------------------------------------------------------------

def test_bce_logit_zero_target_one_is_ln2():
    lv = sigmoid_bce(np.zeros((2, 3)), np.ones((2, 3)))
    assert abs(lv.value - np.log(2.0)) < 1e-15


def test_bce_stability_at_extreme_logits():
    lv_hi = sigmoid_bce(np.array([[50.0]]), np.array([[1.0]]))
    assert 0.0 <= lv_hi.value < 1e-20
    lv_lo = sigmoid_bce(np.array([[-50.0]]), np.array([[1.0]]))
    assert abs(lv_lo.value - 50.0) < 1e-12
    huge = sigmoid_bce(np.array([[1e4, -1e4]]), np.array([[0.0, 0.0]]))
    assert np.isfinite(huge.value)


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        sigmoid_bce(np.zeros((2, 2)), np.full((2, 2), 0.5))


def test_bce_matches_finite_differences():
    logits = rng(3).standard_normal((5, 7)) * 2.0
    targets = (rng(4).random((5, 7)) < 0.5).astype(float)
    lv = sigmoid_bce(logits, targets)
    f = lambda: sigmoid_bce(logits, targets).value
    assert max_relative_error(lv.grad, numeric_gradient(f, logits)) < 1e-6


def test_bce_gradient_formula():
    logits = rng(5).standard_normal((3, 3))
    targets = (rng(6).random((3, 3)) < 0.5).astype(float)
    lv = sigmoid_bce(logits, targets)
    sig = 1.0 / (1.0 + np.exp(-logits))
    assert np.allclose(lv.grad, (sig - targets) / 9.0, atol=1e-15)


def test_bce_gradient_equals_the_masked_sigmoid_formula_bitwise():
    # The oracle exponentiates once per sign, on the side that cannot overflow.
    logits = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf, np.nan],
                             rng(7).standard_normal(27) * 20.0]).reshape(6, 6)
    targets = (rng(8).random((6, 6)) < 0.5).astype(float)
    pos = logits >= 0
    sig = np.empty_like(logits)
    sig[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ez = np.exp(logits[~pos])
    sig[~pos] = ez / (1.0 + ez)
    with np.errstate(invalid="ignore"):        # the loss term of an infinite logit
        grad = sigmoid_bce(logits, targets).grad
    assert np.array_equal(grad, (sig - targets) / logits.size, equal_nan=True)


def test_logistic_has_the_bits_of_the_select_form():
    # Special values, quiet and signaling NaNs of both signs with payloads,
    # and random bit patterns, at several offsets so every SIMD lane and
    # tail sees each.
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 709.8, -709.8, 745.2, -745.2,
               800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
    nans = [0x7FF0000000000001, 0xFFF4000000000123, 0x7FF8000000000001, 0xFFFC000000000123]
    bits = np.concatenate([np.array(special).view(np.uint64),
                           rng(9).integers(0, 2**64, size=4000, dtype=np.uint64),
                           np.array(nans, dtype=np.uint64)])
    z = bits.view(np.float64)
    with np.errstate(all="ignore"):
        e = np.exp(-np.abs(z))
        want = np.where(z >= 0, 1.0, e) / (1.0 + e)
        for offset in range(9):
            got = _logistic(z[offset:], e[offset:])
            assert got.tobytes() == want[offset:].tobytes(), offset
        out = np.empty_like(z)
        assert _logistic(z, e, out=out) is out and out.tobytes() == want.tobytes()


# --- the joint objective ------------------------------------------------------

def _ae_wtn_losses(bench, alpha):
    model = TransferModel(ModelConfig("ae_wtn"), bench.source, seed=6)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    feats, labels = bench.sample("train", 64, rng(12))
    return joint_losses(model, head, bench.source, feats, labels, alpha)


def test_total_alpha_zero_equals_cls(default_bench):
    # At alpha 0 there is no reconstruction loss and the objective is l_cls.
    l_cls, l_rec, total = _ae_wtn_losses(default_bench, 0.0)
    assert l_rec is None and total == l_cls.value


def test_total_paper_arithmetic(default_bench):
    # AE-WTN's objective is l_cls + alpha * l_rec, bit for bit.
    l_cls, l_rec, total = _ae_wtn_losses(default_bench, 20.0)
    assert l_rec is not None and l_rec.value > 0.0
    assert total == l_cls.value + 20 * l_rec.value
