import concurrent.futures
import copy
import hashlib
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from concurrent.futures import Future

import pytest
from hypothesis import given, settings, strategies as st

from wtx.bench import BenchmarkInstance, generate_benchmark
from wtx.cli import main, run_training, staged_output
from wtx.config import config_from_dict, config_to_dict, default_config
from wtx.errors import ConfigError

from conftest import assert_no_worker_left, tiny_config

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tiny_doc(**train_overrides):
    """Experiment config document around the tiny benchmark, fast to train."""
    from dataclasses import asdict
    train = {"iterations": 60, "batch_size": 32}
    train.update(train_overrides)
    return {
        "benchmark": asdict(tiny_config()),
        "model": {"variant": "ae_wtn", "hidden_dim": 16, "groups": 4},
        "train": train,
        "evaluation": {"overlap_ks": [1, 2, 5], "sample_classes": 8},
        "seeds": [0, 1],
    }


def write_config(tmp_path, doc, name="config.json"):
    path = str(tmp_path / name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


# --- config document ------------------------------------------------------------

def test_config_round_trip_lossless():
    cfg = default_config()
    doc = config_to_dict(cfg)
    again = config_to_dict(config_from_dict(doc))
    assert doc == again


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"benchmark": {"num_clases": 10}})
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"weight_decay": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"trian": {}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"variant": "wtnplus"}})
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": []})


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, key = path
    target = doc
    for p in parents:
        target = target[p]
    target[key] = value
    return doc


@pytest.mark.parametrize("path, value", [
    (("seeds",), "12"),
    (("seeds",), [1.5]),
    (("seeds",), ["a"]),
    (("seeds",), [True]),
    (("seeds",), [-1]),
    (("model",), [1]),
    (("benchmark", "dim"), "16"),
    (("benchmark", "dim"), 16.0),
    (("model", "hidden_dim"), 0),
    (("model", "groups"), 0),
    (("model", "input_norm"), 1),
    (("train", "batch_size"), 0),
    (("train", "iterations"), True),
    (("evaluation", "recall_k"), 0),
    (("evaluation", "sample_classes"), 0),
    (("evaluation", "overlap_ks"), [1, 500]),
    (("evaluation", "overlap_ks"), []),
    (("model", "dropout"), 0.0),
    (("benchmark", "noise_std"), float("nan")),
    (("train", "adamw_lr"), float("inf")),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
def test_cli_bad_config_values_exit_2(tmp_path, capsys, path, value):
    cfg_path = write_config(tmp_path, replaced(tiny_doc(), path, value))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert path[-1] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_cli_top_level_list_config_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, [{"seeds": [0]}])
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_repeated_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    # A sweep would write runs/wtn__seed0 twice, and the seed would count
    # twice in each median.
    calls = counting_generate(monkeypatch)
    doc = tiny_doc(iterations=5)
    doc["seeds"] = [0, 1, 0]
    argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv + (["--jobs", "1"] if command == "compare" else [])) == 2
    assert capsys.readouterr().err == "error: seed 0 appears more than once in seeds [0, 1, 0]\n"
    assert calls == []
    assert not os.path.exists(tmp_path / "out")


# Each benchmark setting that must be at least 1, with what it let through
# before it was checked.
BENCH_COUNTS_BELOW_1 = {
    "source_batch": {"source_batch": 0},           # a range() step of 0
    "source_epochs": {"source_epochs": 0},         # an untrained, all-zero W_C
    "min_eval_examples": {"min_eval_examples": 0,  # a NaN top-1 from 0 examples
                          "eval_samples_per_class": 0},
}


@pytest.mark.parametrize("key", sorted(BENCH_COUNTS_BELOW_1))
def test_cli_generate_rejects_a_bench_count_below_1(tmp_path, capsys, monkeypatch, key):
    calls = counting_generate(monkeypatch)
    doc = tiny_doc()
    doc["benchmark"].update(BENCH_COUNTS_BELOW_1[key])
    capsys.readouterr()
    assert main(["generate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be at least 1, got 0\n"
    assert calls == []
    assert not os.path.exists(tmp_path / "out")


# Every field of every section, with the JSON types its values may take.
FIELD_TYPES = {}
for section, fields_ in config_to_dict(default_config()).items():
    if isinstance(fields_, dict):
        FIELD_TYPES[(section,)] = {dict}
        for key, value in fields_.items():
            FIELD_TYPES[(section, key)] = {
                int: {int}, float: {int, float}, str: {str}, list: {list},
                bool: {bool, type(None)}, type(None): {bool, type(None)}}[type(value)]
    else:
        FIELD_TYPES[(section,)] = {list}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_rejects_any_value_of_another_json_type(data):
    path = data.draw(st.sampled_from(sorted(FIELD_TYPES)))
    value = data.draw(JSON_VALUES.filter(lambda v: type(v) not in FIELD_TYPES[path]))
    with pytest.raises(ConfigError):
        config_from_dict(replaced(config_to_dict(default_config()), path, value))


# --- commands ---------------------------------------------------------------------

def test_cli_invalid_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"hiden_dim": 3}})
    code = main(["train", "--config", path, "--out", str(tmp_path / "run")])
    assert code == 2
    assert "hiden_dim" in capsys.readouterr().err


def test_cli_missing_config_file_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "run")]) == 2


TRUNCATED_CONFIG = '{"train": {"iterations": 5}\n'


def test_cli_config_syntax_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(TRUNCATED_CONFIG)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert re.fullmatch(rf"error: {re.escape(str(path))}: not valid JSON \(.+\)\n",
                        capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "run")


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_cli_gradcheck_without_seeds_exits_2(capsys, seeds):
    # A check that ran no case must not pass.
    assert main(["gradcheck", "--seeds", seeds]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --seeds must be at least 1, got {seeds}\n"


def test_cli_generate_train_eval_analyze_compare(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc())

    bench_dir = str(tmp_path / "bench")
    assert main(["generate", "--config", cfg_path, "--out", bench_dir]) == 0
    assert os.path.exists(os.path.join(bench_dir, "manifest.json"))

    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "0"]) == 0
    names = os.listdir(run_dir)
    assert "report.json" in names and "config.json" in names
    assert any(n.startswith("weights__") and n.endswith(".json") for n in names)
    assert any(n.startswith("losses__") for n in names)

    assert main(["eval", run_dir]) == 0
    metrics = [n for n in os.listdir(run_dir) if n.startswith("metrics__")]
    assert len(metrics) == 2   # eval_seen + eval_novel

    assert main(["analyze", run_dir]) == 0
    assert any(n.startswith("overlap__") and n.endswith(".json") for n in os.listdir(run_dir))
    assert any(n.startswith("norm_stats__") for n in os.listdir(run_dir))

    cmp_dir = str(tmp_path / "cmp")
    assert main(["compare", run_dir, "--out", cmp_dir]) == 0
    assert os.path.exists(os.path.join(cmp_dir, "comparison.csv"))


def test_cli_run_directory_format(tmp_path):
    """Each command adds exactly its files to a run directory, and each fact
    is written once: no weights sidecar, no overlap CSV, no config copy."""
    cfg_path = write_config(tmp_path, tiny_doc(iterations=20))
    run_dir = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_dir), "--seed", "1"]) == 0
    trained = {"config.json", "report.json", "losses__ae_wtn__seed1.csv",
               "weights__ae_wtn__seed1.json", "model_params__ae_wtn__seed1.json",
               "head__ae_wtn__seed1.json"}
    assert set(os.listdir(run_dir)) == trained

    # The same run trained in-process gives the losses CSV and report.json.
    same = tmp_path / "same"
    same.mkdir()
    res = run_training(config_from_dict(tiny_doc(iterations=20)), "ae_wtn", 1, str(same))
    curve = res["report"].curve
    want = ["iteration,l_cls,l_rec,total"] + [
        f"{it},{l_cls!r},{l_rec!r},{total!r}" for it, l_cls, l_rec, total
        in zip(curve["iteration"], curve["l_cls"], curve["l_rec"], curve["total"])]
    assert (run_dir / "losses__ae_wtn__seed1.csv").read_text() == "\n".join(want) + "\n"
    assert (run_dir / "report.json").read_text() == res["report"].to_json()
    report = json.loads((run_dir / "report.json").read_text())
    assert "config_echo" not in report and "curve" not in report
    assert report["final_total"] == curve["total"][-1]

    assert main(["eval", str(run_dir)]) == 0
    evaluated = trained | {"metrics__ae_wtn__seed1__eval_seen.json",
                           "metrics__ae_wtn__seed1__eval_novel.json"}
    assert set(os.listdir(run_dir)) == evaluated

    assert main(["analyze", str(run_dir)]) == 0
    assert set(os.listdir(run_dir)) == evaluated | {"overlap__ae_wtn__seed1.json",
                                                    "norm_stats__ae_wtn__seed1.json"}


def test_cli_existing_output_requires_overwrite(tmp_path):
    cfg_path = write_config(tmp_path, tiny_doc())
    out = str(tmp_path / "bench")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    assert main(["generate", "--config", cfg_path, "--out", out]) == 2
    assert main(["generate", "--config", cfg_path, "--out", out, "--overwrite"]) == 0


def test_cli_train_diverged_exits_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc(adamw_lr=1e308, iterations=30))
    code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
    assert code == 3
    assert "iteration" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "run"))   # no partial output


def test_cli_alpha_zero_decoder_untouched_reported(tmp_path):
    cfg_path = write_config(tmp_path, tiny_doc())
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir,
                 "--seed", "1", "--alpha", "0"]) == 0
    with open(os.path.join(run_dir, "report.json")) as f:
        report = json.load(f)
    assert report["decoder_hash_init"] == report["decoder_hash_final"]
    assert "curve" not in report     # the losses CSV holds it


def test_cli_env_seed_override(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, tiny_doc())
    monkeypatch.setenv("WTX_SEED", "1")
    run_dir = str(tmp_path / "run_env")
    assert main(["train", "--config", cfg_path, "--out", run_dir]) == 0
    with open(os.path.join(run_dir, "config.json")) as f:
        doc = json.load(f)
    assert doc["resolved"]["seed"] == 1


@pytest.mark.parametrize("how", ["flag", "env"])
def test_cli_negative_seed_exits_2(tmp_path, monkeypatch, how):
    argv = ["generate", "--config", write_config(tmp_path, tiny_doc()),
            "--out", str(tmp_path / "bench")]
    if how == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("WTX_SEED", "-1")
    assert main(argv) == 2


def test_cli_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, tiny_doc())
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", cfg_path, "--out", a, "--seed", "3"]) == 0
    assert main(["train", "--config", cfg_path, "--out", b, "--seed", "3"]) == 0
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def read_tree(root):
    """Every file under root, by relative path, as bytes."""
    tree = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                tree[os.path.relpath(path, root)] = f.read()
    return tree


def test_cli_compare_sweep_structure(tmp_path):
    doc = tiny_doc()
    doc["train"]["iterations"] = 30
    cfg_path = write_config(tmp_path, doc)
    out = str(tmp_path / "sweep")
    assert main(["compare", "--config", cfg_path, "--out", out, "--jobs", "2"]) == 0
    assert_no_worker_left()
    with open(os.path.join(out, "comparison.json")) as f:
        table = json.load(f)
    # 3 variants x 2 seeds + 3 median rows, method-major
    assert len(table["rows"]) == 9
    assert [(r["method"], r["seed"]) for r in table["rows"][:6]] == [
        (m, s) for m in ("wtn", "wtn_plus", "ae_wtn") for s in (0, 1)]
    medians = [r for r in table["rows"] if r["seed"] == "median"]
    assert len(medians) == 3

    # The worker count changes nothing in the output tree.
    serial = str(tmp_path / "serial")
    assert main(["compare", "--config", cfg_path, "--out", serial, "--jobs", "1"]) == 0
    tree = read_tree(out)
    assert len(tree) == 2 + 6 * 6    # comparison.json/.csv + 6 files per run
    assert read_tree(serial) == tree


class InlineExecutor:
    """Stands in for the process pool: runs each job in this process."""

    def __init__(self, max_workers, mp_context):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def counting_generate(monkeypatch):
    """Count the benchmarks wtx.cli builds; returns the list of seeds."""
    import wtx.cli
    calls = []

    def counting(config, seed):
        calls.append(seed)
        return generate_benchmark(config, seed)

    monkeypatch.setattr(wtx.cli, "generate_benchmark", counting)
    return calls


def test_cli_compare_generates_each_benchmark_once(tmp_path, monkeypatch):
    calls = counting_generate(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    doc = tiny_doc(iterations=5)
    doc["seeds"] = [0, 1, 2, 3, 4]
    cfg_path = write_config(tmp_path, doc)
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep")]) == 0
    assert sorted(calls) == [0, 1, 2, 3, 4]     # not once per (variant, seed)


def test_cli_compare_fingerprints_each_benchmark_once(tmp_path, monkeypatch):
    calls = []
    fingerprint = BenchmarkInstance.fingerprint

    def counting(self):
        calls.append(self.seed)
        return fingerprint(self)

    monkeypatch.setattr(BenchmarkInstance, "fingerprint", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    doc = tiny_doc(iterations=5)
    doc["seeds"] = [0, 1, 2, 3, 4]
    cfg_path = write_config(tmp_path, doc)
    sweep = tmp_path / "sweep"
    assert main(["compare", "--config", cfg_path, "--out", str(sweep)]) == 0
    assert sorted(calls) == [0, 1, 2, 3, 4]     # not once per (method, seed)

    # A run trained on its own computes its own fingerprint; the sweep's
    # shared one gives the same config.json bytes.
    for seed in (0, 4):
        for variant in ("wtn", "wtn_plus", "ae_wtn"):
            run = tmp_path / f"{variant}{seed}"
            assert main(["train", "--config", cfg_path, "--out", str(run), "--seed", str(seed),
                         "--variant", variant]) == 0
            swept = sweep / "runs" / f"{variant}__seed{seed}" / "config.json"
            assert swept.read_bytes() == (run / "config.json").read_bytes()


def test_cli_compare_pool_pins_blas_threads(tmp_path, monkeypatch):
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            started.append({"max_workers": max_workers,
                            "method": mp_context.get_start_method()})
            super().__init__(max_workers=max_workers, mp_context=mp_context)

        def submit(self, fn, *args):
            started.append({name: os.environ.get(name) for name in BLAS_VARS})
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep"),
                 "--jobs", "8"]) == 0
    assert dict(os.environ) == before
    assert started[0] == {"max_workers": 2, "method": "spawn"}    # capped at 2 seeds
    assert started[1:] == [dict.fromkeys(BLAS_VARS, "1")] * 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_compare_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    cfg_path = write_config(tmp_path, tiny_doc())
    out = str(tmp_path / "sweep")
    assert main(["compare", "--config", cfg_path, "--out", out, "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_compare_diverged_exits_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc(adamw_lr=1e308, iterations=30))
    code = main(["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep"),
                 "--jobs", "2"])
    assert code == 3
    # The worker's exception arrives with its message intact.
    assert re.fullmatch(r"error: non-finite loss at iteration \d+\n", capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["config.json"]   # no output, no staging directory
    assert_no_worker_left()


@pytest.mark.parametrize("lr, code", [(1e-3, 0), (1e308, 3)], ids=["ok", "seeds_fail"])
def test_cli_compare_leaves_no_worker_running(tmp_path, lr, code):
    # Three seeds on two workers, so a seed is still queued when the first
    # ones finish or fail; no worker may outlive the command either way.
    doc = tiny_doc(adamw_lr=lr, iterations=10)
    doc["seeds"] = [0, 1, 2]
    cfg_path = write_config(tmp_path, doc)
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep"),
                 "--jobs", "2"]) == code
    assert_no_worker_left()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_bad_alpha_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command,
                                               alpha):
    calls = counting_generate(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out), f"--alpha={alpha}"]) == 2
    assert "--alpha must be finite and >= 0" in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["config.json"]   # no output, no staging directory


BAD_TRAIN_MESSAGES = {"alpha": "train.alpha must be finite and >= 0",
                      "iterations": "iterations must be at least 1"}


@pytest.mark.parametrize("key, value", [("alpha", -1.0), ("alpha", -1e-300),
                                        ("iterations", 0), ("iterations", -3)])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_bad_train_config_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command,
                                                      key, value):
    calls = counting_generate(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_config(tmp_path, tiny_doc(**{"iterations": 5, key: value}))
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert BAD_TRAIN_MESSAGES[key] in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["config.json"]   # no output, no staging directory


WORKER_DEATH_SCRIPT = """
import sys
from conftest import assert_no_worker_left
from wtx.cli import main
code = main(["compare", "--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "2"])
assert_no_worker_left()
sys.exit(code)
"""


def test_cli_compare_worker_death_exits_4(tmp_path):
    # A script read from stdin has no file that a spawned worker could
    # re-import as __main__, so every worker dies as it starts.
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    proc = subprocess.run([sys.executable, "-", cfg_path, str(tmp_path / "sweep")],
                          input=WORKER_DEATH_SCRIPT, capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 4, proc.stderr
    # The dying workers print their own tracebacks to the same pipe, so the
    # command's one message may follow a worker's unfinished line.
    assert proc.stderr.count("error: a sweep worker process died before it finished its "
                             "seed; no output was written") == 1, proc.stderr
    assert "BrokenProcessPool" not in proc.stderr
    assert os.listdir(tmp_path) == ["config.json"]   # no output, no staging directory


def test_cli_eval_malformed_resolved_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "0"]) == 0
    with open(os.path.join(run_dir, "config.json")) as f:
        doc = json.load(f)
    for key in ("seed", "variant", "method", "bad seed"):
        broken = copy.deepcopy(doc)
        if key == "bad seed":
            broken["resolved"]["seed"] = "zero"
        else:
            del broken["resolved"][key]
        write_config(tmp_path, broken, name="run/config.json")
        capsys.readouterr()
        assert main(["eval", run_dir]) == 2
        assert key.split()[-1] in capsys.readouterr().err


def test_cli_run_files_follow_umask(tmp_path):
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = tmp_path / "run"
    old = os.umask(0o022)
    try:
        assert main(["train", "--config", cfg_path, "--out", str(run_dir)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in run_dir.iterdir()}
    assert len(modes) == 6 and set(modes.values()) == {0o644}


def test_cli_reload_checks_the_benchmark_fingerprint(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "0"]) == 0
    with open(os.path.join(run_dir, "config.json")) as f:
        doc = json.load(f)
    stamped = doc["resolved"]["benchmark_sha256"]
    assert main(["eval", run_dir]) == 0

    edited = replaced(doc, ("benchmark", "noise_std"), doc["benchmark"]["noise_std"] + 0.01)
    write_config(tmp_path, edited, name="run/config.json")
    capsys.readouterr()
    assert main(["eval", run_dir]) == 2
    hashes = re.findall(r"[0-9a-f]{64}", capsys.readouterr().err)
    assert len(set(hashes)) == 2 and stamped in hashes

    del doc["resolved"]["benchmark_sha256"]
    write_config(tmp_path, doc, name="run/config.json")
    capsys.readouterr()
    assert main(["analyze", run_dir]) == 2
    assert "retrain" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("eval", "variant", "wtn_minus"),
    ("analyze", "model_overrides", [1]),
    ("analyze", "model_overrides", {"feature_norm": "no"}),
    ("compare", "model_overrides", {"dropout": 0.5}),
    # The variant is resolved on its own; an override may not replace it.
    *[(command, "model_overrides", {"variant": "wtn"})
      for command in ("eval", "analyze", "compare")],
    # The model's width is W_C's and its epsilon the layers' own: not overridable.
    ("analyze", "model_overrides", {"eps": 0.5}),
    ("analyze", "model_overrides", {"in_dim": 8}),
    ("analyze", "model_overrides", {"out_dim": 8}),
    # A seed is a non-negative JSON integer and a method a string.
    ("eval", "seed", 0.7),
    ("eval", "seed", "0"),
    ("eval", "seed", True),
    ("analyze", "seed", -1),
    ("compare", "seed", None),
    ("eval", "method", 0),
    ("compare", "method", ["ae_wtn"]),
])
def test_cli_reload_rejects_bad_resolved_values(tmp_path, capsys, command, key, value):
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "0"]) == 0
    with open(os.path.join(run_dir, "config.json")) as f:
        doc = json.load(f)
    write_config(tmp_path, replaced(doc, ("resolved", key), value), name="run/config.json")
    argv = [command, run_dir] + (["--out", str(tmp_path / "cmp")] if command == "compare" else [])
    capsys.readouterr()
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_cli_compare_grid_structure(tmp_path):
    doc = tiny_doc()
    doc["train"]["iterations"] = 30
    doc["seeds"] = [0]
    cfg_path = write_config(tmp_path, doc)
    out = str(tmp_path / "grid")
    assert main(["compare", "--config", cfg_path, "--out", out, "--grid"]) == 0
    with open(os.path.join(out, "comparison.json")) as f:
        table = json.load(f)
    per_seed = [r for r in table["rows"] if r["seed"] == 0]
    flags = {(r["input_norm"], r["group_norm"]) for r in per_seed}
    assert len(per_seed) == 4
    assert flags == {(False, False), (True, False), (False, True), (True, True)}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A 5-iteration tiny run directory; tests copy it before editing it."""
    root = tmp_path_factory.mktemp("trained")
    cfg_path = write_config(root, tiny_doc(iterations=5))
    assert main(["train", "--config", cfg_path, "--out", str(root / "run"), "--seed", "0"]) == 0
    return root / "run"


def edit_json(path, edit):
    """Apply ``edit``, which changes the parsed document in place, to a file."""
    with open(path) as f:
        obj = json.load(f)
    edit(obj)
    with open(path, "w") as f:
        json.dump(obj, f)


def run_command(command, run_dir, tmp_path):
    argv = [command, str(run_dir)]
    return main(argv + (["--out", str(tmp_path / "cmp")] if command == "compare" else []))


CORRUPTIONS = {
    "data_one_short": lambda m: m.update(data=m["data"][:-1]),
    "no_rows_key": lambda m: m.pop("rows"),
    "one_row_less": lambda m: m.update(rows=m["rows"] - 1, data=m["data"][:-m["cols"]]),
    "reshaped": lambda m: m.update(rows=m["rows"] * m["cols"], cols=1),
    "null_value": lambda m: m["data"].__setitem__(0, None),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("prefix, command", [
    (prefix, command) for prefix in ("weights", "head") for command in ("eval", "analyze", "compare")
] + [("model_params", "analyze")])
def test_cli_reload_rejects_malformed_matrix_files(trained_run, tmp_path, capsys,
                                                   prefix, command, corruption):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    name = f"{prefix}__ae_wtn__seed0.json"
    edit_json(run_dir / name, CORRUPTIONS[corruption])
    capsys.readouterr()
    assert run_command(command, run_dir, tmp_path) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "analyze", "compare"])
def test_cli_reload_config_syntax_error_names_the_file(trained_run, tmp_path, capsys,
                                                       command):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    (run_dir / "config.json").write_text(TRUNCATED_CONFIG)
    capsys.readouterr()
    assert run_command(command, run_dir, tmp_path) == 2
    path = os.path.join(str(run_dir), "config.json")
    assert re.fullmatch(rf"error: {re.escape(path)}: not valid JSON \(.+\)\n",
                        capsys.readouterr().err)


NOT_UTF8 = b"\xff\xfe{}"


def test_cli_non_utf8_config_names_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(NOT_UTF8)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert re.fullmatch(rf"error: {re.escape(str(path))}: not valid JSON \(.+\)\n",
                        capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("name", ["config.json", "weights__ae_wtn__seed0.json"])
def test_cli_reload_non_utf8_file_names_the_file(trained_run, tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    (run_dir / name).write_bytes(NOT_UTF8)
    capsys.readouterr()
    assert main(["eval", str(run_dir)]) == 2
    path = os.path.join(str(run_dir), name)
    assert re.fullmatch(rf"error: {re.escape(path)}: not valid JSON \(.+\)\n",
                        capsys.readouterr().err)


def test_cli_config_that_is_a_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.mkdir()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert re.fullmatch(rf"error: {re.escape(str(path))}: cannot be read \(.+\)\n",
                        capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("name", ["config.json", "weights__ae_wtn__seed0.json"])
def test_cli_reload_directory_in_place_of_a_file_exits_2(trained_run, tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    (run_dir / name).unlink()
    (run_dir / name).mkdir()
    capsys.readouterr()
    assert main(["eval", str(run_dir)]) == 2
    path = os.path.join(str(run_dir), name)
    assert re.fullmatch(rf"error: {re.escape(path)}: cannot be read \(.+\)\n",
                        capsys.readouterr().err)


def test_cli_analyze_rejects_name_keyed_model_params(trained_run, tmp_path, capsys):
    # The format written before the parameter store: one matrix per name.
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    path = run_dir / "model_params__ae_wtn__seed0.json"
    values = json.loads(path.read_text())["data"]
    path.write_text(json.dumps({"enc1.bias": {"rows": 1, "cols": 16, "data": values[:16]},
                                "enc1.weight": {"rows": 16, "cols": 16,
                                                "data": values[16:272]}}))
    assert main(["analyze", str(run_dir)]) == 2
    assert "model_params__ae_wtn__seed0.json" in capsys.readouterr().err


def test_cli_analyze_rejects_params_of_another_model_size(trained_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    edit_json(run_dir / "config.json",
              lambda doc: doc["resolved"].update(model_overrides={"hidden_dim": 8}))
    assert main(["eval", str(run_dir)]) == 0      # eval does not read the parameters
    capsys.readouterr()
    assert main(["analyze", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "model_params__ae_wtn__seed0.json holds a 1x" in err and "is needed" in err


# --- output directory -------------------------------------------------------------

@pytest.mark.parametrize("command", ["generate", "train", "compare", "compare RUN_DIRS"])
def test_cli_out_that_is_a_file_exits_2_before_any_work(trained_run, tmp_path, capsys,
                                                         monkeypatch, command):
    calls = counting_generate(monkeypatch)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    out = tmp_path / "out"
    out.write_text("keep me")
    argv = {"generate": ["generate", "--config", cfg_path],
            "train": ["train", "--config", cfg_path],
            "compare": ["compare", "--config", cfg_path],
            "compare RUN_DIRS": ["compare", str(trained_run)]}[command]
    assert main(argv + ["--out", str(out), "--overwrite"]) == 2
    assert capsys.readouterr().err == \
        f"error: output {out} is not a directory; --overwrite replaces only a directory\n"
    assert calls == []
    assert out.read_text() == "keep me"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]     # no staging dir


def test_cli_out_that_is_a_symlink_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc())
    target = tmp_path / "target"
    target.mkdir()
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main(["generate", "--config", cfg_path, "--out", str(link), "--overwrite"]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert link.is_symlink() and os.listdir(target) == []


def test_staged_output_removes_the_staging_dir_when_the_swap_fails(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("swap failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="swap failed"):
        with staged_output(str(tmp_path / "out"), overwrite=False) as tmp:
            with open(os.path.join(tmp, "a.txt"), "w") as f:
                f.write("x")
    assert os.listdir(tmp_path) == []


# --- reloading run directories ------------------------------------------------------

MATRIX_FAULTS = {
    "missing": lambda path: path.unlink(),
    "malformed": lambda path: edit_json(path, CORRUPTIONS["one_row_less"]),
}


@pytest.mark.parametrize("fault", sorted(MATRIX_FAULTS))
@pytest.mark.parametrize("prefix", ["weights", "head"])
@pytest.mark.parametrize("command", ["eval", "analyze", "compare"])
def test_cli_reload_checks_matrix_files_before_generating(trained_run, tmp_path, capsys,
                                                          monkeypatch, command, prefix, fault):
    calls = counting_generate(monkeypatch)
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    name = f"{prefix}__ae_wtn__seed0.json"
    MATRIX_FAULTS[fault](run_dir / name)
    capsys.readouterr()
    assert run_command(command, run_dir, tmp_path) == 2
    assert name in capsys.readouterr().err
    assert calls == []


@pytest.fixture(scope="module")
def seed_runs(tmp_path_factory):
    """5-iteration run dirs of wtn, wtn_plus and ae_wtn on seed 0, and of wtn
    on seed 1, keyed by (variant, seed)."""
    root = tmp_path_factory.mktemp("seed_runs")
    cfg_path = write_config(root, tiny_doc(iterations=5))
    runs = {}
    for variant, seed in [("wtn", 0), ("wtn", 1), ("wtn_plus", 0), ("ae_wtn", 0)]:
        runs[variant, seed] = root / f"{variant}{seed}"
        assert main(["train", "--config", cfg_path, "--out", str(runs[variant, seed]),
                     "--seed", str(seed), "--variant", variant]) == 0
    return runs


@pytest.mark.parametrize("keys, builds", [
    ([("wtn", 0), ("wtn_plus", 0), ("ae_wtn", 0)], [0]),
    ([("wtn", 0), ("wtn", 1), ("wtn_plus", 0), ("ae_wtn", 0)], [0, 1]),
])
def test_cli_compare_run_dirs_builds_each_benchmark_once(seed_runs, tmp_path, monkeypatch,
                                                         keys, builds):
    calls = counting_generate(monkeypatch)
    assert main(["compare", *(str(seed_runs[k]) for k in keys),
                 "--out", str(tmp_path / "cmp")]) == 0
    assert calls == builds


def test_cli_compare_run_dirs_output_bytes(seed_runs, tmp_path):
    """The sha256 of the table, recorded before compare RUN_DIRS shared its
    benchmarks between run dirs (numpy 2.4, OpenBLAS 0.3.31, x86-64)."""
    out = tmp_path / "cmp"
    assert main(["compare", *(str(seed_runs[k]) for k in [("wtn", 0), ("wtn", 1),
                                                          ("wtn_plus", 0), ("ae_wtn", 0)]),
                 "--out", str(out)]) == 0
    assert {name: hashlib.sha256(data).hexdigest() for name, data in read_tree(out).items()} == {
        "comparison.csv": "5077474e4f1a24c512ffc79c19635bf3a99e1223cc98333fb88bac0485e93c4c",
        "comparison.json": "c5e109dae461e84a51fb0e5d6adc53712d6b5ea031cebd180f63484e71174713",
    }


EVAL_ANALYZE_SHA256 = {
    "metrics__ae_wtn__seed0__eval_novel.json": "69d9692ed9993110ae99305679c398b7dddb9b4e9bca453c3f76f1b8ea97d335",
    "metrics__ae_wtn__seed0__eval_seen.json": "56cd2b249c373caafaf287dba23c07b28e971a5eb1c686e3125de943ad85f118",
    "metrics__wtn__seed0__eval_novel.json": "7245ac7e726684d25a3569dca9b3953ded3a014167648f10c150886fb952cdc1",
    "metrics__wtn__seed0__eval_seen.json": "488e54e0f3ea805881239c2c447d43359dcaf5a83f6327aa8bb9a72d0d82cbba",
    "metrics__wtn__seed1__eval_novel.json": "3de66a5211d95cc7565df94afd345be845e341f565b2a8b2e1b134b8a912a785",
    "metrics__wtn__seed1__eval_seen.json": "47a18064feecd57da40249a478ebf8883392c696beae6759c4ab04968e6db36f",
    "metrics__wtn_plus__seed0__eval_novel.json": "4fdab4db0f554a9eb5837be09dc2b8ee57870f133308c72929413a6c7c2fb86c",
    "metrics__wtn_plus__seed0__eval_seen.json": "a8bec9c3e502f1437eaf806df7d8bf3de9644230a9e599a9b70ba41bee9771d1",
    "norm_stats__ae_wtn__seed0.json": "cb671c5baf496e16750573aa5cb40061fc00ef44ef3f356751d786dcc9d68d47",
    "norm_stats__wtn__seed0.json": "240e9027add8bc8f9fc6d13a95dfe875b1a9826c121745a3d73c9bf446ea53c7",
    "norm_stats__wtn__seed1.json": "1bc5abcfbf7c4914d0bf8e37dfb6a13ccbf9131d2f260daae14ce12abf9a7026",
    "norm_stats__wtn_plus__seed0.json": "cfefc81e955104dbae759c4106cb1854e0bb39c930750849c16b5c7078004b9b",
    "overlap__ae_wtn__seed0.json": "76cf587bf2fd209088220f47fe32310b34f57b518eef7d6b159dd008298b46a1",
    "overlap__wtn__seed0.json": "5f1e982e2ab411868530d5899a34f6a545c5cdb39fd6800578cdc64905f5a8b9",
    "overlap__wtn__seed1.json": "657da1c52d422f8be8232b46db19b0cd3f14a6309e1dbb09b4411c3dd0f57c4b",
    "overlap__wtn_plus__seed0.json": "76cf587bf2fd209088220f47fe32310b34f57b518eef7d6b159dd008298b46a1",
}


def test_cli_eval_and_analyze_output_bytes(seed_runs, tmp_path):
    """The sha256 of every file ``eval`` and ``analyze`` add to a copy of each
    seed run, recorded before top-k hits were counted by rank and the
    generator's loops ran over row blocks (numpy 2.4, OpenBLAS 0.3.31,
    x86-64). Neither command changes a file that was already there."""
    got = {}
    for run in seed_runs.values():
        copy = tmp_path / run.name
        shutil.copytree(run, copy)
        before = read_tree(copy)
        assert main(["eval", str(copy)]) == 0
        assert main(["analyze", str(copy)]) == 0
        after = read_tree(copy)
        assert {name: after[name] for name in before} == before
        got.update({name: hashlib.sha256(data).hexdigest()
                    for name, data in after.items() if name not in before})
    assert got == EVAL_ANALYZE_SHA256


def test_cli_compare_run_dirs_checks_every_fingerprint(seed_runs, tmp_path, capsys,
                                                      monkeypatch):
    # The second run dir reuses the first one's benchmark and must still
    # match its own recorded fingerprint.
    calls = counting_generate(monkeypatch)
    edited = tmp_path / "edited"
    shutil.copytree(seed_runs["wtn_plus", 0], edited)
    with open(seed_runs["wtn", 0] / "config.json") as f:
        actual = json.load(f)["resolved"]["benchmark_sha256"]
    stamped = "0" * 64
    edit_json(edited / "config.json",
              lambda doc: doc["resolved"].update(benchmark_sha256=stamped))
    capsys.readouterr()
    assert main(["compare", str(seed_runs["wtn", 0]), str(edited),
                 "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert str(edited) in err and actual in err and stamped in err
    assert calls == [0]
    assert not os.path.exists(tmp_path / "cmp")


def test_cli_compare_run_dirs_rejects_a_run_given_twice(seed_runs, tmp_path, capsys,
                                                       monkeypatch):
    calls = counting_generate(monkeypatch)
    run = seed_runs["wtn", 0]
    again = os.path.join(str(run), os.pardir, run.name)       # another spelling
    capsys.readouterr()
    assert main(["compare", str(run), str(seed_runs["wtn_plus", 0]), again,
                 "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert str(run) in err and again in err
    assert calls == []
    assert not os.path.exists(tmp_path / "cmp")


def test_cli_compare_run_dirs_rejects_mixed_recall_k(seed_runs, tmp_path, capsys):
    edited = tmp_path / "edited"
    shutil.copytree(seed_runs["wtn_plus", 0], edited)
    edit_json(edited / "config.json", lambda doc: doc["evaluation"].update(recall_k=3))
    assert main(["compare", str(edited), "--out", str(tmp_path / "alone")]) == 0
    capsys.readouterr()
    assert main(["compare", str(seed_runs["wtn", 0]), str(edited),
                 "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert str(seed_runs["wtn", 0]) in err and str(edited) in err and "recall_k" in err
    assert not os.path.exists(tmp_path / "cmp")


# --- generate bytes ---------------------------------------------------------------

TINY_GENERATE_SHA256 = {
    "config.json": "3d2c71479083954a9b486115533d7bad6556277fe00bdb352b76499332b6125c",
    "eval_novel_features.npy": "21d4e90b7832b835ff2c99f9f7c29a8519a2b7d0163072d459480bc9bab19037",
    "eval_novel_class_labels.json":
        "8d01cb44e510f4eff98c946ad3bfe284c3f26f693eb4c9c2c8ec4f145858b7e5",
    "eval_novel_primary.csv": "ebc44d15ef75e72290bb801a5fecf8ef725b44bff30375d0da4184adc1e36433",
    "eval_seen_features.npy": "c95018ce2d0417308e40ef2f28486ee021d0ae4f1864f4365eb7d662cd8f3ea4",
    "eval_seen_class_labels.json":
        "02a4ed1fff473487f28871994c625019315407b32e48c6d27f5d40ad9ec8c771",
    "eval_seen_primary.csv": "73175b94d291d24ed59a6de6bf8b6d261dc26bad9c9cf44d407373a6ce035b35",
    "manifest.json": "6d6d60ee18ced6f0416ae08f77ebd93934c4a206ce344ecefcf368b74568c636",
    "other_prototypes.json": "ecabb8accc0ccbc2d4686a4db3aa54a83051e6387931eb03e387a9361a478b5b",
    "prototypes.json": "3d8377eafdd275e3b3233c5a15b9f6555d777c16c7687ede3654636977492b67",
    "rotation.json": "212d8e9ffe40bea303336bb0453cb859705ee5fe8c522e45e5d1c83a88caa05d",
    "source_weights.json": "d771511a2646695dd72c9d1572c5d12d5f4ea4df3bed01e6ce8746237d75d8c0",
    "train_features.npy": "11b5bb5c497597093933e1d35573e1eac64c14eb532064d8f525d2c4b45cf411",
    "train_class_labels.json":
        "02a4ed1fff473487f28871994c625019315407b32e48c6d27f5d40ad9ec8c771",
    "train_primary.csv": "73175b94d291d24ed59a6de6bf8b6d261dc26bad9c9cf44d407373a6ce035b35",
}


def test_cli_generate_tiny_bytes(tmp_path):
    """The sha256 of every file of a tiny ``wtx generate``, recorded before
    the generator drew each split's noise in one call and the writers
    formatted row by row (numpy 2.4, OpenBLAS 0.3.31, x86-64). The
    ``*_class_labels.json`` hashes were recorded when those files replaced
    the per-example ``*_labels.csv`` matrices, and the ``*_features.npy``
    hashes when those files replaced the repr-text ``*_features.csv``; no
    other hash changed either time."""
    out = tmp_path / "bench"
    assert main(["generate", "--config", write_config(tmp_path, tiny_doc()),
                 "--out", str(out)]) == 0
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in read_tree(out).items()} == TINY_GENERATE_SHA256
