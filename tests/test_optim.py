import numpy as np
import pytest

from wtx.layers import Param, flatten
from wtx.optim import AdamW, SGDMomentum

from conftest import make_model


def make_param(value):
    p = Param("p", np.array(value, dtype=np.float64))
    return p


def test_adamw_zero_grad_no_decay_is_noop():
    p = make_param([[1.0, -2.0]])
    opt = AdamW(p.data, p.grad, lr=0.1, weight_decay=0.0)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_zero_grad_pure_decay_shrink():
    p = make_param([[1.0, -2.0]])
    opt = AdamW(p.data, p.grad, lr=0.1, weight_decay=0.5)
    opt.step()
    assert np.allclose(p.data, np.array([[1.0, -2.0]]) * (1.0 - 0.1 * 0.5))


def test_adamw_first_step_is_lr_sized():
    # Hand-executed update: with g=1 the bias-corrected m_hat/sqrt(v_hat) is
    # exactly 1, so the first step moves by lr/(1+eps) ~ lr.
    p = make_param([0.0])
    opt = AdamW(p.data, p.grad, lr=0.1, weight_decay=0.0)
    p.grad[...] = 1.0
    opt.step()
    assert abs(p.data[0] + 0.1) < 1e-8


def test_adamw_two_step_hand_trace():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = make_param([1.0])
    opt = AdamW(p.data, p.grad, lr=lr, betas=(b1, b2), eps=eps, weight_decay=0.0)
    theta, m, v = 1.0, 0.0, 0.0
    for t, g in zip((1, 2), (0.7, -0.3)):
        p.grad[...] = g
        opt.step()
        p.grad[...] = 0.0
        opt.zero_grad()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p.data[0] - theta) < 1e-14


def test_adamw_gradient_scale_free():
    # Multiplying all gradients of a fresh optimizer by c leaves the first
    # adaptive step identical (up to eps effects).
    results = []
    for c in (1.0, 100.0):
        p = make_param([[0.5, -0.5], [1.0, 2.0]])
        opt = AdamW(p.data, p.grad, lr=0.01, weight_decay=0.0)
        p.grad[...] = c * np.array([[1.0, -2.0], [0.5, 3.0]])
        opt.step()
        results.append(p.data.copy())
    assert np.max(np.abs(results[0] - results[1])) < 1e-6


def test_adamw_deterministic():
    runs = []
    for _ in range(2):
        p = make_param([[0.3, 0.7]])
        opt = AdamW(p.data, p.grad, lr=0.02, weight_decay=1e-4)
        for t in range(5):
            p.grad[...] = [[0.1 * (t + 1), -0.2]]
            opt.step()
            opt.zero_grad()
        runs.append(p.data.copy())
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_adamw_on_a_store_slice_matches_the_textbook_expression_bitwise(weight_decay):
    # train_joint steps model.data[:n]; the rest of the store must not move.
    # Huge gradients overflow v to inf, subnormal ones underflow their square.
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    r = np.random.default_rng(1)
    model = make_model("ae_wtn")
    model.data[...] = r.standard_normal(model.data.size)
    n = model.encoder_size
    data, m, v = model.data.copy(), np.zeros(n), np.zeros(n)
    opt = AdamW(model.data[:n], model.grad[:n], lr=lr, betas=(b1, b2), eps=eps,
                weight_decay=weight_decay)
    scales = np.array([0.0, 5e-324, 1e-310, 1e-3, 1.0, 1e150, 1e200])
    with np.errstate(over="ignore"):
        for t in range(1, 51):
            grad = r.standard_normal(n) * r.choice(scales, n)
            model.grad[:n] = grad
            opt.step()
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            w = data[:n]
            w *= 1.0 - lr * weight_decay
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            w -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            assert model.data.tobytes() == data.tobytes(), t
    assert np.isinf(v).any() and np.isfinite(model.data).all()


def test_sgd_plain_gradient_descent():
    p = make_param([2.0])
    opt = SGDMomentum(p.data, p.grad, lr=0.5, momentum=0.0, weight_decay=0.0)
    p.grad[...] = 1.0
    opt.step()
    assert p.data[0] == 1.5


def test_sgd_velocity_geometric_limit():
    # Constant gradient g: velocity approaches g / (1 - mu).
    p = make_param([0.0])
    mu = 0.9
    opt = SGDMomentum(p.data, p.grad, lr=0.0, momentum=mu)   # lr 0 isolates the velocity
    for _ in range(300):
        p.grad[...] = 1.0
        opt.step()
    assert abs(opt.velocity[0] - 1.0 / (1.0 - mu)) < 1e-10


def test_sgd_two_step_hand_trace_with_decay():
    lr, mu, wd = 0.1, 0.9, 0.01
    p = make_param([1.0])
    opt = SGDMomentum(p.data, p.grad, lr=lr, momentum=mu, weight_decay=wd)
    theta, v = 1.0, 0.0
    for g in (0.5, -0.2):
        p.grad[...] = g
        opt.step()
        opt.zero_grad()
        v = mu * v + (g + wd * theta)
        theta -= lr * v
        assert abs(p.data[0] - theta) < 1e-15


def test_sgd_deterministic():
    runs = []
    for _ in range(2):
        p = make_param([[1.0, -1.0]])
        opt = SGDMomentum(p.data, p.grad, lr=0.05, momentum=0.9, weight_decay=1e-4)
        for t in range(7):
            p.grad[...] = [[0.3, 0.1 * t]]
            opt.step()
            opt.zero_grad()
        runs.append(p.data.copy())
    assert np.array_equal(runs[0], runs[1])



SHAPES = [(4, 3), (4,), (4,), (2, 4), (2,)]


def check_store_against_reference(make_opt, reference_step):
    """Runs 50 steps of ``make_opt(data, grad)`` over a store flattened from
    Params of SHAPES and ``reference_step(params, t)`` over separate Params
    with the same values and gradients; the two must agree bit for bit."""
    rng = np.random.default_rng(0)
    init = [rng.standard_normal(shape) for shape in SHAPES]
    ref, stored = [make_param(a) for a in init], [make_param(a) for a in init]
    data, grad = flatten(stored)
    opt = make_opt(data, grad)
    for t in range(1, 51):
        for p, q in zip(ref, stored):
            p.grad[...] = q.grad[...] = rng.standard_normal(p.grad.shape)
        opt.step()
        opt.zero_grad()
        reference_step(ref, t)
    assert not grad.any()
    assert np.array_equal(data, np.concatenate([p.data.ravel() for p in ref]))


def test_adamw_store_matches_per_array_reference_loop():
    lr, b1, b2, eps, wd = 0.01, 0.8, 0.99, 1e-8, 0.1
    states = [(np.zeros(shape), np.zeros(shape)) for shape in SHAPES]

    def reference_step(params, t):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, (m, v) in zip(params, states):
            p.data *= 1.0 - lr * wd
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    check_store_against_reference(
        lambda data, grad: AdamW(data, grad, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd),
        reference_step)


def test_sgd_store_matches_per_array_reference_loop():
    lr, mu, wd = 0.05, 0.9, 0.01
    velocities = [np.zeros(shape) for shape in SHAPES]

    def reference_step(params, t):
        for p, v in zip(params, velocities):
            v *= mu
            v += p.grad + wd * p.data
            p.data -= lr * v

    check_store_against_reference(
        lambda data, grad: SGDMomentum(data, grad, lr=lr, momentum=mu, weight_decay=wd),
        reference_step)
