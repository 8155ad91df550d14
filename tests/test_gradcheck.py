import numpy as np

from wtx.gradcheck import (max_relative_error, numeric_gradient,
                           run_gradient_suite)


def test_numeric_gradient_on_quadratic():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    a = np.array([[2.0, 1.0], [0.5, -1.0]])
    f = lambda: float(np.sum(a * x * x))
    got = numeric_gradient(f, x)
    assert max_relative_error(got, 2.0 * a * x) < 1e-8


def test_max_relative_error_floor_guards_tiny_entries():
    a = np.array([1e-9, 1.0])
    b = np.array([2e-9, 1.0])
    # without the floor the first entry would report rel err 0.5
    assert max_relative_error(a, b, floor=1e-3) < 1e-5


def test_suite_all_pass_two_seeds():
    results = run_gradient_suite(seeds=range(2))
    names = {r.name for r in results}
    assert names == {"linear", "relu", "groupnorm",
                     "classbatchnorm", "smooth_l1", "sigmoid_bce", "detection_loss",
                     "end_to_end", "end_to_end_shared"}
    for r in results:
        assert r.passed, f"{r.name} seed {r.seed}: {r.error:.2e} >= {r.tol}"
