import glob
import multiprocessing

import numpy as np
import pytest

from wtx.bench import BenchConfig, generate_benchmark
from wtx.models import ModelConfig, SourceWeights, TransferModel


def tiny_config(**overrides):
    base = dict(num_classes=24, num_shared=10, num_other=3, dim=16,
                clusters=6, manifold_dim=12, source_samples_per_class=40,
                train_samples_per_class=12, eval_samples_per_class=12,
                min_eval_examples=5)
    base.update(overrides)
    return BenchConfig(**base)


def make_model(variant, source=None, *, dim=8, groups=2, seed=0, **overrides):
    """A TransferModel of hidden width ``dim`` over ``source``, by default a
    random 12-class source of width ``dim``."""
    if source is None:
        w_c = np.random.default_rng(0).standard_normal((12, dim))
        source = SourceWeights.create(w_c, range(5))
    kwargs = dict(hidden_dim=dim, groups=groups)
    kwargs.update(overrides)
    return TransferModel(ModelConfig(variant, **kwargs), source, seed)


def assert_no_worker_left():
    """No pool worker of this process outlives the command that started it.
    The one child that may stay is multiprocessing's resource tracker, which
    the pool's locks start and which exits with the interpreter."""
    assert multiprocessing.active_children() == []
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):     # Linux only
        with open(path) as f:
            pids += f.read().split()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read()
        except FileNotFoundError:      # it exited since the listing
            continue
        assert b"multiprocessing.resource_tracker" in cmdline, (pid, cmdline)


@pytest.fixture(scope="session")
def tiny_bench():
    """Small benchmark instance shared by model and evaluation tests."""
    return generate_benchmark(tiny_config(), seed=7)


@pytest.fixture(scope="session")
def default_bench():
    """One full-size default benchmark for invariants stated at that scale."""
    return generate_benchmark(BenchConfig(), seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
