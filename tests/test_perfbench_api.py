"""The benchmark's workloads call wtx through its public API (configs,
TransferModel, train_joint, the CLI entry point); a change to that API would
otherwise only show as failed operations in a benchmark run. Each workload is
built at its tiny size and runs one unit, whose check must fail nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

import wtx
import wtx.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_workload(tmp_path, workload):
    """The child module, the workload at its tiny size, set up, and the
    step timer of a unit."""
    child = load_module("child")
    cfg = child.workload_config(workload, seed=0, tiny=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    runner = child.WORKLOADS[workload](wtx, cfg_path, cfg, tmp_path)
    arrays = child._probe_arrays()
    return runner, child.Steps(arrays, child.probe(arrays))


@pytest.mark.parametrize("workload", ["sweep", "train_long", "reload"])
def test_workload_unit_passes_its_check(tmp_path, workload):
    runner, steps = tiny_workload(tmp_path, workload)
    res = runner.unit(0, steps)
    res["traced"] = False
    attempted, failed = runner.check(0, res)
    assert attempted > 0 and failed == 0
    runner.finish()


def test_reload_unit_passes_its_check_traced(tmp_path):
    # The tracer rebinds every name a wtx module holds for a traced
    # function, so the reloads' scoring shows under evaluation.evaluate
    # whichever module calls it.
    runner, steps = tiny_workload(tmp_path, "reload")
    tracer = load_module("tracer").Tracer()
    tracer.install()
    try:
        res = runner.unit(0, steps)
    finally:
        tracer.uninstall()
    res["traced"] = True
    attempted, failed = runner.check(0, res)
    assert attempted > 0 and failed == 0
    metrics = tracer.metrics(units=1, traced_wall=steps.wall, overhead=0.0)
    assert metrics["evaluation.evaluate.self_s"]["value"] > 0
