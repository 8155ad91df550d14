import numpy as np
import pytest

from wtx.bench import BenchConfig, generate_benchmark
from wtx.models import ModelConfig, TransferModel


def tiny_config(**overrides):
    base = dict(num_classes=24, num_shared=10, num_other=3, dim=16,
                clusters=6, manifold_dim=12, source_samples_per_class=40,
                train_samples_per_class=12, eval_samples_per_class=12,
                min_eval_examples=5)
    base.update(overrides)
    return BenchConfig(**base)


def make_model(variant, source=None, *, dim=8, groups=2, seed=0, **overrides):
    """A TransferModel whose input, hidden and output widths are all ``dim``."""
    kwargs = dict(in_dim=dim, hidden_dim=dim, out_dim=dim, groups=groups)
    kwargs.update(overrides)
    return TransferModel(ModelConfig(variant, **kwargs), source, seed)


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
