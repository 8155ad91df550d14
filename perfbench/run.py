"""Entry point of the wtx benchmark.

    python3 perfbench/run.py --workload sweep|train_long|reload --seed N
                             --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. Each call starts fresh child processes one
at a time (perfbench/child.py) and adds no threads of its own: three set-up
samples, the last of which goes on to the measured run. Set-up time is
measured from starting a child to the child having imported wtx and built
the workload's inputs; setup_s is the median of the three, each scaled to
the reference speed by the probe its child runs right after set-up (see
child.py). norm_wall_s is the median unit time, each unit scaled the same
way by the probe samples around it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are the per-layer metrics, from units
run traced, interleaved with untraced units for ``trace_overhead_frac``. The
line before it is a JSON record of the machine, the outputs' hashes and the
workload details. Both are also written under ``.perfbench_work/``.

``--tiny`` runs the test suite's tiny benchmark for the harness self-test
(perfbench/test_perfbench.py); its numbers are not benchmark results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


def _timed_out(signum, frame):
    raise TimeoutError("benchmark child exceeded the time limit")


def run_child(argv: list[str], deadline: float) -> tuple[int, float, int]:
    """Run one child to completion; return (exit code, spawn time, max RSS KiB).

    The wait blocks, with an alarm for the deadline, rather than polling, so
    the parent takes no CPU time from the child while it runs."""
    spawned_at = time.time()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                            stdout=subprocess.DEVNULL, cwd=ROOT)
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(max(1, int(deadline - time.monotonic())))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, spawned_at, usage.ru_maxrss
    finally:
        signal.alarm(0)
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "train_long", "reload"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wtx" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no wtx sources (src/wtx)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        common.append("--tiny")
    try:
        setups, scales = [], []
        for k in range(SETUP_SAMPLES):
            phase = "run" if k == SETUP_SAMPLES - 1 else "setup"
            out = run_dir / f"child{k}.json"
            rc, spawned_at, rss_kib = run_child(
                common + ["--phase", phase, "--work", str(run_dir / f"work{k}"),
                          "--out", str(out)], deadline)
            if rc != 0:
                print(f"perfbench: {phase} child exited with {rc}", file=sys.stderr)
                return 1
            child = json.loads(out.read_text())
            setups.append(child["ready_at"] - spawned_at)
            scales.append(child["speed_scale"])
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans = out.with_suffix(".spans.csv")
        if spans.exists():
            shutil.move(spans, WORK / f"{tag}.spans.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        metrics = child["layer_metrics"]
    else:
        # Times at the reference speed: see child.py's probe.
        values = {"setup_s": statistics.median(s * f for s, f in zip(setups, scales)),
                  "norm_wall_s": statistics.median(child["norm_unit_s"]),
                  "peak_rss_mb": rss_kib / 1024.0,
                  "ok_frac": (attempted - failed) / attempted}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "setup_samples_s": setups, "setup_speed_scale": scales,
              "wall_s": statistics.median(child["unit_s"]),
              "unit_s": child["unit_s"], "traced_unit_s": child["traced_unit_s"],
              "norm_unit_s": child["norm_unit_s"], "probe_s": child["probe_s"],
              "details": child["details"],
              "stamp": child["stamp"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: metrics[m["name"]] for m in wanted}}
    (WORK / f"{tag}.json").write_text(json.dumps({**record, **result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
