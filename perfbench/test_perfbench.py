"""Self-test of the benchmark harness, at the test suite's tiny benchmark size.

    python3 -m pytest perfbench -q

Each workload runs once plain and once traced through run.py. The result
must name every metric of BENCHMARK.json with its unit, pass every check and
carry the machine stamp.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# generate_benchmark calls per unit: 3 per seed of the 5-seed sweep; none in
# train_long's timed part; 1 per command of reload except analyze's 3.
GENERATE_CALLS = {"sweep": 15, "train_long": 0, "reload": 10}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert {name: m["unit"] for name, m in got.items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in got.values())
    if trace:
        assert got["bench.generate_benchmark.calls"]["value"] == GENERATE_CALLS[workload]
    else:
        assert all(got[m["name"]]["value"] > 0 for m in wanted)

    stamp = json.loads(record_line)["stamp"]
    assert stamp["nproc"] >= 1 and stamp["numpy"] and "OPENBLAS_NUM_THREADS" in stamp["thread_env"]


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_imported_names_and_attributes_by_parent():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import wtx
    import wtx.cli
    from tracer import Tracer
    from wtx.bench import BenchConfig

    original = wtx.losses.sigmoid_bce
    tracer = Tracer()
    tracer.install()
    try:
        # Imported by name into bench and models, re-exported by the package.
        for module in (wtx.losses, wtx.bench, wtx.models, wtx):
            assert module.sigmoid_bce is not original
        assert wtx.cli.generate_benchmark is wtx.bench.generate_benchmark
        start = len(tracer.spans)
        wtx.cli.generate_benchmark(BenchConfig(num_classes=24, num_shared=10, num_other=3,
                                               dim=16, clusters=6, manifold_dim=12,
                                               source_samples_per_class=40,
                                               train_samples_per_class=12,
                                               eval_samples_per_class=12,
                                               min_eval_examples=5), 0)
    finally:
        tracer.uninstall()
    assert wtx.losses.sigmoid_bce is original and wtx.bench.sigmoid_bce is original
    names = {tracer.names[s[0]] for s in tracer.spans[start:]}
    assert {"bench.generate_benchmark", "losses.sigmoid_bce", "optim.SGDMomentum.step"} <= names

    # The source classifier's losses and steps count under bench.
    metrics = tracer.metrics(units=1, traced_wall=1.0, overhead=0.0)
    assert metrics["bench.generate_benchmark.calls"]["value"] == 1
    assert metrics["losses.sigmoid_bce.self_us.p50"]["value"] == 0
    assert metrics["share.losses"]["value"] == 0 and metrics["share.optim"]["value"] == 0
    assert metrics["share.bench"]["value"] > 0
