import concurrent.futures
import copy
import json
import os
import re
import stat
from concurrent.futures import Future

import pytest
from hypothesis import given, settings, strategies as st

from wtx.bench import generate_benchmark
from wtx.cli import main
from wtx.config import config_from_dict, config_to_dict, default_config
from wtx.errors import ConfigError

from conftest import tiny_config

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
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
def test_cli_bad_config_values_exit_2(tmp_path, capsys, path, value):
    cfg_path = write_config(tmp_path, replaced(tiny_doc(), path, value))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert path[-1] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_cli_top_level_list_config_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, [{"seeds": [0]}])
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2


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


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_generate_train_eval_analyze_compare(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_doc())

    bench_dir = str(tmp_path / "bench")
    assert main(["generate", "--config", cfg_path, "--out", bench_dir]) == 0
    assert os.path.exists(os.path.join(bench_dir, "manifest.json"))

    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "0"]) == 0
    names = os.listdir(run_dir)
    assert "report.json" in names and "config.json" in names
    assert any(n.startswith("weights__") and n.endswith(".json") and
               "manifest" not in n for n in names)
    assert any(n.startswith("losses__") for n in names)

    assert main(["eval", run_dir]) == 0
    metrics = [n for n in os.listdir(run_dir) if n.startswith("metrics__")]
    assert len(metrics) == 2   # eval_seen + eval_novel

    assert main(["analyze", run_dir]) == 0
    assert any(n.startswith("overlap__") and n.endswith(".csv") for n in os.listdir(run_dir))
    assert any(n.startswith("norm_stats__") for n in os.listdir(run_dir))

    cmp_dir = str(tmp_path / "cmp")
    assert main(["compare", run_dir, "--out", cmp_dir]) == 0
    assert os.path.exists(os.path.join(cmp_dir, "comparison.csv"))


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
    assert len(tree) == 2 + 6 * 7    # comparison.json/.csv + 7 files per run
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


def test_cli_compare_generates_each_benchmark_once(tmp_path, monkeypatch):
    import wtx.cli
    calls = []

    def counting(config, seed):
        calls.append(seed)
        return generate_benchmark(config, seed)

    monkeypatch.setattr(wtx.cli, "generate_benchmark", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    doc = tiny_doc(iterations=5)
    doc["seeds"] = [0, 1, 2, 3, 4]
    cfg_path = write_config(tmp_path, doc)
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep")]) == 0
    assert sorted(calls) == [0, 1, 2, 3, 4]     # not once per (variant, seed)


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
    assert len(modes) == 7 and set(modes.values()) == {0o644}


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
