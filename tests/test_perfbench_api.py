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

CHILD_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sweep", "train_long", "reload"])
def test_workload_unit_passes_its_check(tmp_path, workload):
    child = load_child()
    cfg = child.workload_config(workload, seed=0, tiny=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    runner = child.WORKLOADS[workload](wtx, cfg_path, cfg, tmp_path)
    arrays = child._probe_arrays()
    steps = child.Steps(arrays, child.probe(arrays))
    res = runner.unit(0, steps)
    res["traced"] = False
    attempted, failed = runner.check(0, res)
    assert attempted > 0 and failed == 0
    runner.finish()
