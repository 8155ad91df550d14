"""The benchmark's tracer reads model internals (layer lists, Linear widths,
the head's weights); a change to them would otherwise only show as failed
units in a traced benchmark run."""

import importlib.util
from pathlib import Path

import wtx.models
from wtx.models import VARIANTS, DetectionProxyHead, ModelConfig, TrainConfig, TransferModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_measures_train_joint_for_every_variant(tiny_bench):
    bench = tiny_bench
    tracer = load_tracer_class()()
    tracer.install()
    try:
        for variant in VARIANTS:
            mc = ModelConfig(variant, hidden_dim=16, groups=4)
            model = TransferModel(mc, bench.source, seed=0)
            head = DetectionProxyHead(bench.num_other, bench.d_feat)
            # Through the module attribute: the tracer rebinds names in wtx modules.
            wtx.models.train_joint(model, head, bench.source, bench,
                                   TrainConfig(iterations=5, batch_size=32))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(units=1, traced_wall=1.0, overhead=0.0)
    assert metrics["models.train_joint.gflops"]["value"] > 0
    for variant in VARIANTS:
        assert metrics[f"models.train_joint.iter_ms.p50.{variant}"]["value"] > 0
