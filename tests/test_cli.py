import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtx.bench import BenchConfig, generate_benchmark, instance_entry, load_instance_entry
import wtx.cli
from wtx.cli import (GRID_METHODS, _load_config, blas_threads, build_parser, main, run_training,
                     staged_output)
from wtx.config import (EvalSettings, ExperimentConfig, config_from_dict, config_to_dict,
                        default_config)
from wtx.errors import ConfigError
from wtx.evaluation import comparison_table, norm_stats
from wtx.matrix import load_matrix_json, matrix_hash
from wtx.models import (METHODS, VARIANTS, Baseline, DetectionProxyHead, Layers, ModelConfig,
                        SourceWeights, TrainConfig, TransferModel, baseline_lsda_bias,
                        baseline_nn_transfer, train_conventional_head, train_joint)

from conftest import assert_no_worker_left, assert_same_instance, tiny_config

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def blas_counts():
    """The thread count of each OpenBLAS loaded in this process."""
    return [get_n() for _, get_n in wtx.cli._openblas()]


needs_openblas = pytest.mark.skipif(not wtx.cli._openblas(), reason="no OpenBLAS is loaded")


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


@pytest.mark.parametrize("name, classes, clusters", [("oi_shape", 557, 56),
                                                    ("vg_shape", 700, 70)])
def test_preset_builds_its_benchmark_and_trains_ae_wtn(name, classes, clusters):
    # The presets differ from the default config in the class counts alone.
    cfg = _load_config(os.path.join(PRESETS, f"{name}.json"), None)
    want = dataclasses.replace(default_config().benchmark, num_classes=classes,
                               num_shared=500, clusters=clusters)
    assert cfg == dataclasses.replace(default_config(), benchmark=want)
    seed = cfg.seeds[0]
    bench = generate_benchmark(cfg.benchmark, seed)
    assert len(bench.source.shared_index) == 500
    assert len(bench.source.novel_index) == classes - 500
    model = TransferModel(cfg.model_config("ae_wtn"), bench.source, seed)
    head = DetectionProxyHead(bench.num_other, bench.d_feat)
    report = train_joint(model, head, bench.source, bench,
                         dataclasses.replace(cfg.train_config(seed), iterations=3))
    assert len(report.losses) == 3
    assert np.isfinite(report.final_total)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"benchmark": {"num_clases": 10}})
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"weight_decay": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"trian": {}})
    # The variant alone fixes a model's layers; these flags are gone.
    for key in ("input_norm", "feature_norm"):
        for value in (True, False, None):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"model": {key: value}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"variant": "wtnplus"}})
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": []})
    # Optimizer settings that ascend the gradient, train nothing, diverge or
    # grow the weights.
    for key, value in (("adamw_lr", -0.001), ("adamw_lr", 0), ("head_lr", 0),
                       ("head_lr", -0.02), ("head_momentum", 1.5), ("head_momentum", 1),
                       ("head_momentum", -0.1), ("adamw_weight_decay", -5),
                       ("head_weight_decay", -1e-4)):
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            config_from_dict({"train": {key: value}})
    for key, value in (("head_momentum", 0), ("adamw_weight_decay", 0),
                       ("head_weight_decay", 0), ("adamw_lr", 1e-300)):
        config_from_dict({"train": {key: value}})     # the edges stay valid


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
    (("evaluation", "analysis_seed"), -1),
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


# Each benchmark setting out of its range, with what it let through before
# it was checked.
BENCH_OUT_OF_RANGE = [
    ("multilabel_fraction", 1.5),    # a traceback from np.quantile, exit 1
    ("num_other", -1),               # a traceback from a negative array size, exit 1
    ("source_lr", 0.0),              # an untrained, all-zero W_C
    ("source_lr", -1.0),             # a W_C trained by gradient ascent
    ("feature_scale", 0.0),          # a divide by zero; every example multi-labeled
    ("domain_warp", -0.5),           # silently treated as 0
]


@pytest.mark.parametrize("key, value", BENCH_OUT_OF_RANGE)
def test_cli_generate_rejects_a_bench_setting_out_of_range(tmp_path, capsys, monkeypatch,
                                                           key, value):
    calls = counting_generate(monkeypatch)
    doc = tiny_doc()
    doc["benchmark"][key] = value
    capsys.readouterr()
    assert main(["generate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert calls == []
    assert not os.path.exists(tmp_path / "out")


# Each config section with a bad value, and the start of its message
# (test_bench.py checks BenchConfig's the same way). The first three
# TrainConfig cases were accepted while only ExperimentConfig checked the
# train section: iterations=0 trained nothing and reported losses of zero,
# alpha=nan failed only later, as TrainingDiverged, and batch_size=0 gave
# a RuntimeWarning, then TrainingDiverged.
SECTION_FAULTS = [
    (TrainConfig, {"iterations": 0}, "iterations must be at least 1"),
    (TrainConfig, {"alpha": float("nan")}, "train.alpha must be finite and >= 0"),
    (TrainConfig, {"batch_size": 0}, "batch_size must be at least 1"),
    (TrainConfig, {"head_momentum": 1.0}, "head_momentum must be in [0, 1)"),
    (TrainConfig, {"adamw_weight_decay": -1e-4}, "adamw_weight_decay must be >= 0"),
    (ModelConfig, {"variant": "wtn_minus"}, "unknown variant 'wtn_minus'"),
    (ModelConfig, {"hidden_dim": 9}, "hidden_dim (9) not divisible by groups (8)"),
    (ModelConfig, {"norm_kind": "layer"}, "unknown norm_kind 'layer'"),
    (EvalSettings, {"recall_k": 0}, "recall_k and sample_classes must be at least 1"),
    (EvalSettings, {"sample_classes": 0}, "recall_k and sample_classes must be at least 1"),
    # Accepted once, and then `wtx analyze` died with a ValueError traceback.
    (EvalSettings, {"analysis_seed": -1}, "analysis_seed must be a non-negative integer"),
    (ExperimentConfig, {"seeds": (-1,)}, "seeds must be a non-empty list"),
    (ExperimentConfig, {"seeds": (0, 0)}, "seed 0 appears more than once"),
    (ExperimentConfig, {"evaluation": EvalSettings(overlap_ks=(1, 200))},
     "overlap_ks must be a non-empty list inside [1, 199]"),
]


@pytest.mark.parametrize("cls, bad, message", SECTION_FAULTS,
                         ids=[f"{cls.__name__}.{key}={value!r}"
                              for cls, bad, _ in SECTION_FAULTS for key, value in bad.items()])
def test_each_config_section_checks_itself_when_built(cls, bad, message):
    # Built directly or by replace, a section with a bad value raises;
    # no caller has to remember to check it.
    base = {"benchmark": BenchConfig()} if cls is ExperimentConfig else {}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        cls(**base, **bad)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        dataclasses.replace(cls(**base), **bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cls(**base), *next(iter(bad.items())))


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
               "weights__ae_wtn__seed1.json", "head__ae_wtn__seed1.json",
               "norm_stats__ae_wtn__seed1.json"}
    assert set(os.listdir(run_dir)) == trained

    # The same run trained in-process gives the losses CSV and report.json.
    same = tmp_path / "same"
    same.mkdir()
    res = run_training(config_from_dict(tiny_doc(iterations=20)), "ae_wtn", 1, str(same))
    losses = res["report"].losses
    want = ["iteration,l_cls,l_rec,total"] + [
        f"{it},{l_cls!r},{l_rec!r},{total!r}" for it, (l_cls, l_rec, total) in enumerate(losses)]
    assert (run_dir / "losses__ae_wtn__seed1.csv").read_text() == "\n".join(want) + "\n"
    assert (run_dir / "report.json").read_text() == res["report"].to_json()
    assert (run_dir / "norm_stats__ae_wtn__seed1.json").read_text() == \
        norm_stats(res["model"], res["bench"].source).to_json()
    report = json.loads((run_dir / "report.json").read_text())
    assert not {"config_echo", "losses", "variant", "seed"} & set(report)
    # config.json is the config the run was trained with, its method and
    # seed included, and the benchmark fingerprint.
    doc = json.loads((run_dir / "config.json").read_text())
    assert doc.pop("resolved") == {"benchmark_sha256": res["bench"].fingerprint}
    assert doc == config_to_dict(res["config"])
    assert (doc["model"]["variant"], doc["seeds"]) == ("ae_wtn", [1])
    assert report["final_total"] == losses[-1][2]

    assert main(["eval", str(run_dir)]) == 0
    evaluated = trained | {"metrics__ae_wtn__seed1__eval_seen.json",
                           "metrics__ae_wtn__seed1__eval_novel.json"}
    assert set(os.listdir(run_dir)) == evaluated

    assert main(["analyze", str(run_dir)]) == 0
    assert set(os.listdir(run_dir)) == evaluated | {"overlap__ae_wtn__seed1.json"}


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
    cfg_path = write_config(tmp_path, tiny_doc(alpha=0.0))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "1"]) == 0
    with open(os.path.join(run_dir, "report.json")) as f:
        report = json.load(f)
    assert report["decoder_hash_init"] == report["decoder_hash_final"]
    assert "losses" not in report     # the losses CSV holds them


def test_cli_seed_replaces_the_configs_seeds(tmp_path, monkeypatch):
    # --seed need not be one of the config's seeds; a sweep runs it alone.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    argv = ["--config", cfg_path, "--seed", "4", "--out"]
    assert main(["train", *argv, str(tmp_path / "run")]) == 0
    assert json.loads((tmp_path / "run" / "config.json").read_text())["seeds"] == [4]
    assert main(["generate", *argv, str(tmp_path / "bench")]) == 0
    assert json.loads((tmp_path / "bench" / "manifest.json").read_text())["seed"] == 4
    assert main(["compare", *argv, str(tmp_path / "sweep")]) == 0
    assert sorted(os.listdir(tmp_path / "sweep" / "runs")) == \
        sorted(f"{method}__seed4" for method in VARIANTS)


def test_cli_train_and_generate_use_the_first_configured_seed(tmp_path):
    # Without --seed, the first of the config's seeds, not the smallest.
    cfg_path = write_config(tmp_path, dict(tiny_doc(iterations=5), seeds=[1, 0]))
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
    assert "weights__ae_wtn__seed1.json" in os.listdir(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", str(tmp_path / "bench")]) == 0
    assert json.loads((tmp_path / "bench" / "manifest.json").read_text())["seed"] == 1


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, how):
    # The config's own check covers a seed from either place.
    doc = dict(tiny_doc(), seeds=[-1]) if how == "config" else tiny_doc()
    argv = ["generate", "--config", write_config(tmp_path, doc),
            "--out", str(tmp_path / "bench")] + (["--seed", "-1"] if how == "flag" else [])
    assert main(argv) == 2
    assert "seeds must be a non-empty list of non-negative integers, got [-1]" in \
        capsys.readouterr().err
    assert not os.path.exists(tmp_path / "bench")


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
    # 3 variants x 2 seeds + 3 median rows, sorted by method, then seed
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
    # A fingerprint hashes W_C first, and nothing else in wtx.bench hashes
    # it; each seed has its own W_C, whose hash each run's report records.
    import wtx.bench
    digests = []

    def counting(m):
        digests.append(matrix_hash(m))
        return digests[-1]

    monkeypatch.setattr(wtx.bench, "matrix_hash", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    doc = tiny_doc(iterations=5)
    doc["seeds"] = [0, 1, 2, 3, 4]
    cfg_path = write_config(tmp_path, doc)
    sweep = tmp_path / "sweep"
    assert main(["compare", "--config", cfg_path, "--out", str(sweep)]) == 0
    w_c = {json.loads(report.read_text())["w_c_hash_before"]
           for report in (sweep / "runs").glob("*/report.json")}
    assert len(w_c) == 5
    assert sorted(d for d in digests if d in w_c) == sorted(w_c)  # not once per (method, seed)

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
    # Spawned workers, no more than there are seeds, and no write to this
    # process's environment.
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            started.append({"max_workers": max_workers,
                            "method": mp_context.get_start_method()})
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    before = dict(os.environ)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep"),
                 "--jobs", "8"]) == 0
    assert dict(os.environ) == before
    assert started == [{"max_workers": 2, "method": "spawn"}]    # capped at 2 seeds

    # A job trains and scores at 1 thread; the caller's count is back after.
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, blas_counts()))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    for name in ("train_joint", "evaluate"):
        monkeypatch.setattr(wtx.cli, name, recording(getattr(wtx.cli, name)))
    with blas_threads(2):
        assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "inline")]) == 0
        assert blas_counts() == [2] * len(wtx.cli._openblas())
    assert dict(os.environ) == before
    ones = [1] * len(wtx.cli._openblas())
    # 2 seeds x 3 variants, each trained once and scored on 2 splits
    assert seen == [("train_joint", ones), ("evaluate", ones), ("evaluate", ones)] * 6


def test_the_blas_finder_finds_numpys_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")):
        pytest.skip(f"numpy is built on {blas.get('name')}, not OpenBLAS")
    assert wtx.cli._openblas()


@needs_openblas
def test_blas_threads_pins_the_count_restores_it_and_nests():
    n = len(wtx.cli._openblas())
    with blas_threads(2):
        assert blas_counts() == [2] * n
        with blas_threads(1):
            assert blas_counts() == [1] * n
            with blas_threads(2):
                assert blas_counts() == [2] * n
            assert blas_counts() == [1] * n
        assert blas_counts() == [2] * n
        with pytest.raises(KeyError), blas_threads(1):
            assert blas_counts() == [1] * n
            raise KeyError("x")
        assert blas_counts() == [2] * n


def test_blas_threads_does_nothing_without_openblas(monkeypatch):
    real = wtx.cli._openblas()
    with blas_threads(2):
        monkeypatch.setattr(wtx.cli, "_openblas", lambda: ())
        with blas_threads(1):
            assert [get_n() for _, get_n in real] == [2] * len(real)


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
    # train.alpha is the one way to set the weight. A non-finite one is no
    # JSON number (json writes NaN and Infinity, which the loader refuses),
    # and a negative one fails the train section's own check.
    calls = counting_generate(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5, alpha=float(alpha)))
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"train.alpha must be of type float, got {float(alpha)}" in err
            if alpha in ("nan", "inf", "-inf") else "train.alpha must be finite and >= 0" in err)
    assert calls == []
    assert os.listdir(tmp_path) == ["config.json"]   # no output, no staging directory


BAD_TRAIN_MESSAGES = {"alpha": "train.alpha must be finite and >= 0",
                      "iterations": "iterations must be at least 1",
                      "adamw_lr": "error: adamw_lr must be > 0, got -0.001"}


@pytest.mark.parametrize("key, value", [("alpha", -1.0), ("alpha", -1e-300),
                                        ("iterations", 0), ("iterations", -3),
                                        ("adamw_lr", -0.001)])
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


def test_cli_eval_malformed_resolved_exits_2(trained_run, tmp_path, capsys):
    # The resolved block is an object that holds the benchmark fingerprint
    # and nothing else.
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    doc = json.loads((run_dir / "config.json").read_text())
    stamped = doc["resolved"]["benchmark_sha256"]
    for resolved in (None, [], "x", {"benchmark_sha256": stamped, "seed": 0}):
        broken = copy.deepcopy(doc)
        if resolved is None:
            del broken["resolved"]
        else:
            broken["resolved"] = resolved
        write_config(tmp_path, broken, name="run/config.json")
        capsys.readouterr()
        assert main(["eval", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'config.json'}: the 'resolved' block ")
        assert "retrain the run" in err


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
    # The resolved block holds the benchmark fingerprint alone. Older run
    # dirs record more there: the variant and some the model overrides, or
    # the method, seed and alpha that the config itself now holds. Whatever
    # the value, such a key exits 2, names itself and asks for a retrain.
    ("eval", "variant", "wtn_minus"),
    ("analyze", "model_overrides", [1]),
    ("analyze", "model_overrides", {"feature_norm": "no"}),
    ("compare", "model_overrides", {"dropout": 0.5}),
    *[(command, "model_overrides", {"variant": "wtn"})
      for command in ("eval", "analyze", "compare")],
    ("analyze", "model_overrides", {"eps": 0.5}),
    ("analyze", "model_overrides", {"in_dim": 8}),
    ("analyze", "model_overrides", {"out_dim": 8}),
    ("eval", "seed", 0.7),
    ("eval", "seed", "0"),
    ("eval", "seed", True),
    ("analyze", "seed", -1),
    ("compare", "seed", None),
    ("eval", "method", 0),
    ("compare", "method", ["ae_wtn"]),
    ("eval", "method", "x/../../escaped"),
    ("analyze", "method", "benchmark"),
    # The values an older run dir held: the ones its config agreed with.
    ("compare", "variant", "ae_wtn"),
    ("eval", "variant", "wtn"),
    ("analyze", "model_overrides", {"feature_norm": False}),
    ("eval", "alpha", 20.0),
    ("compare", "method", "ae_wtn"),
])
def test_cli_reload_rejects_bad_resolved_values(tmp_path, capsys, monkeypatch, command, key,
                                                value):
    import wtx.cli
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run_dir, "--seed", "0"]) == 0
    with open(os.path.join(run_dir, "config.json")) as f:
        doc = json.load(f)
    write_config(tmp_path, replaced(doc, ("resolved", key), value), name="run/config.json")
    for name in ("weights__x", "head__x"):      # would let "x/../../escaped" resolve
        os.mkdir(os.path.join(run_dir, name))
    opened = []
    monkeypatch.setattr(wtx.cli, "load_matrix_json", lambda *a: opened.append(a))
    argv = [command, run_dir] + (["--out", str(tmp_path / "cmp")] if command == "compare" else [])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "retrain the run" in err
    assert opened == []         # no file named from the tag was opened


@pytest.mark.parametrize("path, value", [
    # A run has one seed.
    (("seeds",), []),
    (("seeds",), [0, 1]),
    # The variant names the run's files: it must be a label of METHODS.
    (("model", "variant"), "x/../../escaped"),
    (("model", "variant"), 0),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
@pytest.mark.parametrize("command", ["eval", "analyze", "compare"])
def test_cli_reload_of_a_config_that_names_no_run_exits_2(trained_run, tmp_path, capsys,
                                                          monkeypatch, command, path, value):
    import wtx.cli
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    doc = json.loads((run_dir / "config.json").read_text())
    write_config(tmp_path, replaced(doc, path, value), name="run/config.json")
    opened = []
    monkeypatch.setattr(wtx.cli, "load_matrix_json", lambda *a: opened.append(a))
    capsys.readouterr()
    assert run_command(command, run_dir, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / 'config.json'}: ") and path[-1] in err
    assert opened == []         # no file named from the tag was opened


def test_cli_a_runs_config_trains_the_run_again(tmp_path):
    # A run's config.json, without its resolved block, is the config it
    # was trained with: the method, the seed and train.alpha are in it.
    cfg_path = write_config(tmp_path, tiny_doc(iterations=20, alpha=0.0))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["train", "--config", cfg_path, "--out", str(first),
                 "--variant", "wtn_plus_gn_only", "--seed", "3"]) == 0
    doc = json.loads((first / "config.json").read_text())
    del doc["resolved"]
    assert (doc["model"]["variant"], doc["seeds"], doc["train"]["alpha"]) == \
        ("wtn_plus_gn_only", [3], 0.0)
    assert main(["train", "--config", write_config(tmp_path, doc, name="own.json"),
                 "--out", str(again)]) == 0
    trained = read_tree(first)
    assert "weights__wtn_plus_gn_only__seed3.json" in trained
    assert read_tree(again) == trained      # config.json included


@pytest.mark.parametrize("command", ["eval", "analyze", "compare"])
def test_cli_reload_of_another_methods_label_reads_that_methods_files(trained_run, tmp_path,
                                                                       capsys, command):
    # The method alone names the run's files and model: an ae_wtn run
    # relabelled wtn is read as a wtn run, whose weights are not there.
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    edit_json(run_dir / "config.json", lambda doc: doc["model"].update(variant="wtn"))
    capsys.readouterr()
    assert run_command(command, run_dir, tmp_path) == 2
    assert re.fullmatch(rf"error: {re.escape(str(run_dir / 'weights__wtn__seed0.json'))}: "
                        rf"cannot be read \(.+\)\n", capsys.readouterr().err)


def test_cli_reload_of_an_unknown_method_names_the_file_and_the_labels(trained_run, tmp_path,
                                                                       capsys):
    import wtx.cli
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    edit_json(run_dir / "config.json", lambda doc: doc["model"].update(variant="ridge"))
    capsys.readouterr()
    assert main(["eval", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "config.json") in err and "'ridge'" in err
    assert all(label in err for label in METHODS)


def test_the_method_table_is_the_one_list_of_methods():
    # The transfer variants come first, then the baselines; the sweeps pick
    # their labels from the table.
    kinds = [type(spec) for spec in METHODS.values()]
    assert kinds == [Layers] * 5 + [Baseline] * 2
    assert list(METHODS)[5:] == ["nn_copy", "lsda"]
    assert set(VARIANTS) | set(GRID_METHODS) <= set(METHODS)
    # Every label is a valid model section, and train --variant takes it.
    for label in METHODS:
        assert ModelConfig(label).variant == label
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    variant = next(a for a in sub.choices["train"]._actions if a.dest == "variant")
    assert variant.choices == list(METHODS)
    # A table orders its rows as the table does, whatever order they come in.
    rows = [{"method": label, "seed": seed, "input_norm": spec.input_norm,
             "group_norm": spec.feature_norm, "seen_top1": 0.5, "novel_top1": 0.1,
             "novel_recall": 0.2, "benchmark_echo": {}}
            for seed in (1, 0) for label, spec in reversed(METHODS.items())]
    table = comparison_table(rows)
    assert [(r["method"], r["seed"]) for r in table["rows"]] == \
        [(label, seed) for label in METHODS for seed in (0, 1)] + \
        [(label, "median") for label in METHODS]
    # Only a transfer variant builds a transfer network.
    source = SourceWeights.create(np.random.default_rng(0).standard_normal((12, 8)), range(5))
    for label, spec in METHODS.items():
        config = ModelConfig(label, hidden_dim=8, groups=2)
        if isinstance(spec, Layers):
            assert TransferModel(config, source, 0).variant == label
        else:
            with pytest.raises(ConfigError, match=f"^method '{label}' has no transfer network$"):
                TransferModel(config, source, 0)


@pytest.mark.parametrize("argv, method", [
    (["compare", "--jobs", "2"], "wtn_plus"),
    (["compare", "--grid", "--jobs", "2"], "wtn_plus_gn_only"),
    (["train", "--variant", "ae_wtn"], "ae_wtn"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_cli_a_model_section_invalid_for_a_method_exits_2_before_any_benchmark(
        tmp_path, capsys, cache_home, argv, method):
    # hidden_dim 65 suits wtn, which has no group norm, but no method with one.
    cfg_path = write_config(tmp_path, {"model": {"variant": "wtn", "hidden_dim": 65},
                                       "seeds": [7, 8]})
    capsys.readouterr()
    assert main([argv[0], "--config", cfg_path, "--out", str(tmp_path / "out"),
                 *argv[1:]]) == 2
    assert capsys.readouterr().err == \
        f"error: method {method!r}: hidden_dim (65) not divisible by groups (8)\n"
    assert cache_entries(cache_home) == []
    assert os.listdir(tmp_path) == ["config.json"]   # no output, no staging directory
    assert_no_worker_left()


BASELINE_FITS = {"nn_copy": ("plain", baseline_nn_transfer),
                 "lsda": ("lsda", baseline_lsda_bias)}


def test_cli_baseline_run_dirs_train_reload_and_compare(trained_run, tmp_path):
    """A baseline's run dir holds the three files every run has. Its W_D is
    the baseline's, at k = 1, bit for bit; its config trains it again; and
    eval, analyze and compare score it as they score a transfer run."""
    cfg_path = write_config(tmp_path, tiny_doc(iterations=20))
    bench = generate_benchmark(tiny_config(), 0)
    run_dirs = [str(trained_run)]       # ae_wtn, seed 0, on the same benchmark config
    for method, (mode, rule) in BASELINE_FITS.items():
        run_dir = tmp_path / method
        assert main(["train", "--config", cfg_path, "--out", str(run_dir),
                     "--variant", method, "--seed", "0"]) == 0
        tag = f"{method}__seed0"
        assert sorted(os.listdir(run_dir)) == \
            ["config.json", f"head__{tag}.json", f"weights__{tag}.json"]

        run_cfg = _load_config(cfg_path, 0)
        w_seen, head = train_conventional_head(bench.source, bench, mode,
                                               run_cfg.train_config(0))
        want = rule(w_seen, bench.source, k=1)
        got = load_matrix_json(str(run_dir / f"weights__{tag}.json"), want.shape)
        assert got.tobytes() == want.tobytes()
        got = load_matrix_json(str(run_dir / f"head__{tag}.json"))
        assert got.tobytes() == head.other_weights.data.tobytes()

        doc = json.loads((run_dir / "config.json").read_text())
        assert doc.pop("resolved") == {"benchmark_sha256": bench.fingerprint}
        assert (doc["model"]["variant"], doc["seeds"]) == (method, [0])
        again = tmp_path / f"{method}_again"
        assert main(["train", "--config", write_config(tmp_path, doc, name=f"{method}.json"),
                     "--out", str(again)]) == 0
        assert read_tree(again) == read_tree(run_dir)

        assert main(["eval", str(run_dir)]) == 0
        assert main(["analyze", str(run_dir)]) == 0
        assert sorted(os.listdir(run_dir)) == sorted(
            ["config.json", f"head__{tag}.json", f"weights__{tag}.json",
             f"metrics__{tag}__eval_seen.json", f"metrics__{tag}__eval_novel.json",
             f"overlap__{tag}.json"])
        run_dirs.append(str(run_dir))

    out = tmp_path / "cmp"
    assert main(["compare", *reversed(run_dirs), "--out", str(out)]) == 0
    rows = json.loads((out / "comparison.json").read_text())["rows"]
    assert [(r["method"], r["seed"], r["input_norm"], r["group_norm"]) for r in rows] == [
        ("ae_wtn", 0, True, True), ("nn_copy", 0, False, False), ("lsda", 0, False, False),
        ("ae_wtn", "median", True, True), ("nn_copy", "median", False, False),
        ("lsda", "median", False, False)]


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
    # Recorded before the sweep's methods came from one method table (numpy
    # 2.4, OpenBLAS 0.3.31, x86-64).
    tree = read_tree(out)
    assert hashlib.sha256(tree["comparison.json"]).hexdigest() == \
        "21993953d7ad535b5d569cef05315881feb04a6d9e7482e68043848ee34deafa"
    assert hashlib.sha256(tree["comparison.csv"]).hexdigest() == \
        "ba7174b66813c4548a22387769f60b6b1b62a6d4c57a3c4ff71bf067ab6fab0f"


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
])
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
    path = os.path.join(str(run_dir), "config.json")
    for text, message in [(TRUNCATED_CONFIG, r"not valid JSON \(.+\)"),
                          # Valid JSON, but not an object: the message of a
                          # top-level config.
                          ("[]", "the config must be a JSON object, got list"),
                          ('"x"', "the config must be a JSON object, got str"),
                          ("3", "the config must be a JSON object, got int")]:
        (run_dir / "config.json").write_text(text)
        capsys.readouterr()
        assert run_command(command, run_dir, tmp_path) == 2
        assert re.fullmatch(rf"error: {re.escape(path)}: {message}\n", capsys.readouterr().err)


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


@pytest.mark.parametrize("command, name", [("eval", "metrics__ae_wtn__seed0__eval_seen.json"),
                                           ("analyze", "overlap__ae_wtn__seed0.json")])
def test_cli_reload_output_that_cannot_be_written_exits_2(trained_run, tmp_path, capsys,
                                                          command, name):
    # eval and analyze write into the run dir itself, not a staged --out.
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    (run_dir / name).mkdir()
    before = sorted(os.listdir(run_dir))
    capsys.readouterr()
    assert main([command, str(run_dir)]) == 2
    path = os.path.join(str(run_dir), name)
    assert re.fullmatch(rf"error: {re.escape(path)} cannot be written \(.+\)\n",
                        capsys.readouterr().err)
    assert sorted(os.listdir(run_dir)) == before        # no temp file left


# --- output directory -------------------------------------------------------------

def out_command(command, cfg_path, run_dir):
    """The argv, less ``--out``, of each command that writes an output
    directory."""
    return {"generate": ["generate", "--config", cfg_path],
            "train": ["train", "--config", cfg_path],
            "compare": ["compare", "--config", cfg_path],
            "compare RUN_DIRS": ["compare", str(run_dir)]}[command]


@pytest.mark.parametrize("command", ["generate", "train", "compare", "compare RUN_DIRS"])
def test_cli_out_that_is_a_file_exits_2_before_any_work(trained_run, tmp_path, capsys,
                                                         monkeypatch, command):
    calls = counting_generate(monkeypatch)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    out = tmp_path / "out"
    out.write_text("keep me")
    argv = out_command(command, cfg_path, trained_run)
    assert main(argv + ["--out", str(out), "--overwrite"]) == 2
    assert capsys.readouterr().err == \
        f"error: output {out} is not a directory; --overwrite replaces only a directory\n"
    assert calls == []
    assert out.read_text() == "keep me"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]     # no staging dir


@pytest.mark.parametrize("command", ["generate", "train", "compare", "compare RUN_DIRS"])
def test_cli_out_that_cannot_be_created_exits_2_before_any_work(trained_run, tmp_path, capsys,
                                                                monkeypatch, command):
    calls = counting_generate(monkeypatch)
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    (tmp_path / "file").write_text("keep me")
    out = tmp_path / "file" / "x"
    argv = out_command(command, cfg_path, trained_run)
    assert main(argv + ["--out", str(out)]) == 2
    assert re.fullmatch(rf"error: output {re.escape(str(out))} cannot be created \(.+\)\n",
                        capsys.readouterr().err)
    assert calls == []
    assert (tmp_path / "file").read_text() == "keep me"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "file"]


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


def test_cli_compare_run_dirs_in_any_order_writes_the_sweep_table(tmp_path, monkeypatch):
    # The rows of both are sorted by method, then seed: a sweep over
    # unsorted seeds, and compare over its runs in reversed order, write the
    # same bytes.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_config(tmp_path, dict(tiny_doc(iterations=5), seeds=[1, 0]))
    sweep = tmp_path / "sweep"
    assert main(["compare", "--config", cfg_path, "--out", str(sweep)]) == 0
    runs = sorted((str(p) for p in (sweep / "runs").iterdir()), reverse=True)
    assert main(["compare", *runs, "--out", str(tmp_path / "cmp")]) == 0
    for name in ("comparison.json", "comparison.csv"):
        assert (tmp_path / "cmp" / name).read_bytes() == (sweep / name).read_bytes(), name
    rows = json.loads((sweep / "comparison.json").read_text())["rows"]
    assert [(r["method"], r["seed"]) for r in rows] == \
        [(m, s) for m in VARIANTS for s in (0, 1)] + [(m, "median") for m in VARIANTS]


EVAL_ANALYZE_SHA256 = {
    "metrics__ae_wtn__seed0__eval_novel.json": "ffa0277bf67b6f6a005e28341ba28f93fc3aa439e0bc36ecb2244305fcd87805",
    "metrics__ae_wtn__seed0__eval_seen.json": "ead08d25b67fe43a985225d95e0b222ddef707f3e9c4246224e7b03c8f1cb237",
    "metrics__wtn__seed0__eval_novel.json": "0b32cd50e94f5319d685d0f6179770912537ac873f442616702f4212b592de03",
    "metrics__wtn__seed0__eval_seen.json": "3b8218972e3e770d286dab9ec15454fb4382e4dbbc254057b81b0f0ff0f940d4",
    "metrics__wtn__seed1__eval_novel.json": "b6523e2c21a0754848f6d70e730040b3943e7ab641e9e45794294fc37455d27a",
    "metrics__wtn__seed1__eval_seen.json": "759c23928216ee984eafa5ffb256fba71df019e9a8c919a7db7c17d68e238d02",
    "metrics__wtn_plus__seed0__eval_novel.json": "febb90999b463b13ba10a6ed39fab8e0ebe1579aa069261072aad555dfb2f57b",
    "metrics__wtn_plus__seed0__eval_seen.json": "ead08d25b67fe43a985225d95e0b222ddef707f3e9c4246224e7b03c8f1cb237",
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
    """The sha256 of the norm stats ``train`` writes and of every file
    ``eval`` and ``analyze`` add to a copy of each seed run, recorded before
    top-k hits were counted by rank and the generator's loops ran over row
    blocks (numpy 2.4, OpenBLAS 0.3.31, x86-64). The metrics hashes were
    recorded again when the resolved block, which their ``config_echo``
    restates, lost ``variant``, and again when it kept only
    ``benchmark_sha256`` and the metrics lost ``universe``; no other hash
    changed, and the norm stats kept theirs when ``train`` took them over
    from ``analyze``. Neither command changes a file that was already
    there."""
    got = {}
    for run in seed_runs.values():
        copy = tmp_path / run.name
        shutil.copytree(run, copy)
        before = read_tree(copy)
        assert main(["eval", str(copy)]) == 0
        assert main(["analyze", str(copy)]) == 0
        after = read_tree(copy)
        assert {name: after[name] for name in before} == before
        got.update({name: hashlib.sha256(data).hexdigest() for name, data in after.items()
                    if name not in before or name.startswith("norm_stats__")})
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
    # A run is its (method, seed), the key of a table row: the same dir
    # spelled another way and a copy of it both count its scores twice.
    calls = counting_generate(monkeypatch)
    run = seed_runs["wtn", 0]
    copy = tmp_path / "copy"
    shutil.copytree(run, copy)
    for again in (os.path.join(str(run), os.pardir, run.name), str(copy)):
        capsys.readouterr()
        assert main(["compare", str(run), str(seed_runs["wtn_plus", 0]), again,
                     "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert str(run) in err and again in err
        assert calls == []
        assert not os.path.exists(tmp_path / "cmp")


@pytest.mark.parametrize("flags", [["--config", "/nonexistent/config.json"], ["--seed", "0"],
                                   ["--grid"]], ids=lambda f: f[0])
def test_cli_compare_run_dirs_rejects_the_sweep_flags(seed_runs, tmp_path, capsys, monkeypatch,
                                                      flags):
    # The sweep flags do nothing to runs that are already trained; given
    # with RUN_DIRS they exit 2 before any run dir is read.
    import wtx.cli
    read = []
    monkeypatch.setattr(wtx.cli, "_read_run_dir", read.append)
    capsys.readouterr()
    assert main(["compare", str(seed_runs["wtn", 0]), str(seed_runs["wtn", 1]), *flags,
                 "--out", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} configures a sweep")
    assert read == []
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


def test_cli_compare_run_dirs_rejects_mixed_benchmark_configs(seed_runs, tmp_path, capsys,
                                                              cache_home):
    # Two runs of one table must come from one benchmark config; the check
    # comes before any benchmark is built, and names both dirs.
    doc = tiny_doc(iterations=5)
    doc["benchmark"]["noise_std"] = 0.5
    noisier = tmp_path / "noisier"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(noisier),
                 "--variant", "wtn_plus", "--seed", "0"]) == 0
    shutil.rmtree(cache_home / "wtx")
    capsys.readouterr()
    assert main(["compare", str(seed_runs["wtn", 1]), str(noisier),
                 "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert str(seed_runs["wtn", 1]) in err and str(noisier) in err and "benchmark config" in err
    assert cache_entries(cache_home) == []
    assert not os.path.exists(tmp_path / "cmp")


# --- generate bytes ---------------------------------------------------------------

TINY_GENERATE_SHA256 = {
    "benchmark.npz": "1aa030e84ce5d1a5c97bcb76085fe208e603337dc26454dabfa7cf2361535657",
    "manifest.json": "c6a25a565ef811f308532366a6fbf7b6059010d38db23340500a278b0d8155d6",
    "source_weights.json": "d771511a2646695dd72c9d1572c5d12d5f4ea4df3bed01e6ce8746237d75d8c0",
}


def test_cli_generate_tiny_bytes(tmp_path):
    """The sha256 of every file of a tiny ``wtx generate`` (numpy 2.4,
    OpenBLAS 0.3.31, x86-64). ``source_weights.json`` keeps the hash it had
    when generate wrote a 15-file export tree. The ``benchmark.npz`` and
    ``manifest.json`` hashes were recorded when that tree gave way to the
    benchmark's cache-entry archive and the archive's ``meta`` document,
    again when ``meta`` gained ``array_hashes`` and again when those came
    to cover every array, not only W_C and the features; the rest of
    ``meta`` kept its text."""
    out = tmp_path / "bench"
    assert main(["generate", "--config", write_config(tmp_path, tiny_doc()),
                 "--out", str(out)]) == 0
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in read_tree(out).items()} == TINY_GENERATE_SHA256


def tree_digest(root):
    """The sha256 of the sorted ``relpath\\0sha256(file)\\n`` lines of every
    file under ``root``, and the number of files."""
    lines = sorted(f"{path}\0{hashlib.sha256(data).hexdigest()}\n"
                   for path, data in read_tree(root).items())
    return hashlib.sha256("".join(lines).encode()).hexdigest(), len(lines)


DEFAULT_COMPARISON_SHA256 = "adbe2fd2081742a45adfc6e0c619cc715b9196f0a52cc53d6c63d0f00d72e723"
DEFAULT_RUNS_DIGEST = ("54145306b9ebff2ad124dd80441eba8459e29547b5ce8212e33abb7b9110213b", 90)


def test_cli_default_sweep_comparison_bytes(tmp_path):
    """The sha256 of the ``comparison.json`` of the default sweep, ``wtx
    compare --jobs 2`` with the bundled config and a cold benchmark cache:
    3 methods x 5 seeds at the default size, and the digest of every file
    under its ``runs/``: W_D, the head, the reports, the norm stats and the
    loss records. They are the referee for a change that must keep every
    output byte (numpy 2.4.6, scipy-openblas 0.3.31, x86-64)."""
    out = tmp_path / "sweep"
    assert main(["compare", "--jobs", "2", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "comparison.json").read_bytes()).hexdigest() == \
        DEFAULT_COMPARISON_SHA256
    assert tree_digest(out / "runs") == DEFAULT_RUNS_DIGEST


GRID_COMPARISON_SHA256 = "8f809cd8c184fb538beb0efe56523583d60d3084a86308cd5208f19cdc4c8e18"
GRID_RUNS_DIGEST = ("a8ba66c405c1a592fb9d66d358d625e021d11d2153b66a24e6f80322b10d3c5e", 120)


def test_cli_grid_sweep_comparison_bytes(tmp_path):
    """The sha256 of the ``comparison.json`` of ``wtx compare --grid --jobs
    2`` with the bundled config, the four labels of ``GRID_METHODS`` x 5
    seeds, and the digest of every file under its ``runs/``. Only the grid
    trains ``wtn_plus_in_only`` and ``wtn_plus_gn_only``, so it referees
    those two for a change that must keep every output byte (numpy 2.4.6,
    scipy-openblas 0.3.31, x86-64)."""
    out = tmp_path / "grid"
    assert main(["compare", "--grid", "--jobs", "2", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "comparison.json").read_bytes()).hexdigest() == \
        GRID_COMPARISON_SHA256
    assert tree_digest(out / "runs") == GRID_RUNS_DIGEST


def test_cli_generate_writes_the_cache_entry(tmp_path, monkeypatch, cache_home):
    """generate's archive is the cache entry of its config and seed, built
    cold or read warm, and reads back as the generator's instance; the
    output holds nothing else but its meta document and W_C."""
    cfg_path = write_config(tmp_path, tiny_doc())
    calls = counting_generate(monkeypatch)
    for name in ("cold", "warm"):
        out = tmp_path / name
        assert main(["generate", "--config", cfg_path, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["benchmark.npz", "manifest.json",
                                           "source_weights.json"]
        [entry] = cache_entries(cache_home)
        assert (out / "benchmark.npz").read_bytes() == \
            (cache_home / "wtx" / "benchmarks" / entry).read_bytes()
    assert calls == [0]             # the first of the config's seeds, built once
    assert_same_instance(load_instance_entry(str(out / "benchmark.npz"), tiny_config(), 0),
                         generate_benchmark(tiny_config(), 0))


# --- benchmark cache --------------------------------------------------------------

def cache_entries(cache_home):
    """The file names in the benchmark cache under ``cache_home``."""
    root = cache_home / "wtx" / "benchmarks"
    return sorted(os.listdir(root)) if root.exists() else []


def test_cache_hit_equals_a_fresh_build(cache_home):
    import wtx.cli
    config = tiny_config()
    built, cached = wtx.cli._benchmark(config, 5)
    assert not cached and len(cache_entries(cache_home)) == 1
    hit, cached = wtx.cli._benchmark(config, 5)
    assert cached and hit is not built
    fresh = generate_benchmark(config, 5)
    assert_same_instance(built, fresh)
    assert_same_instance(hit, fresh)
    assert not hit.source.weights.flags.writeable      # W_C and features are read-only
    assert stat.S_IMODE(os.stat(cache_home / "wtx" / "benchmarks").st_mode) == 0o700


def run_all_reloads(root):
    """eval and analyze on every run of a sweep tree, then compare over the
    runs; returns the tree."""
    runs = sorted(str(p) for p in (root / "runs").iterdir())
    for run in runs:
        assert main(["eval", run]) == 0
        assert main(["analyze", run]) == 0
    assert main(["compare", *runs, "--out", str(root / "table")]) == 0
    return read_tree(root)


def test_cli_cold_and_warm_commands_give_the_same_bytes(tmp_path, monkeypatch, cache_home):
    doc = tiny_doc(iterations=5)
    cfg_path = write_config(tmp_path, doc)
    # Cold, in spawned workers: each writes the entry of its seed.
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "cold"),
                 "--jobs", "2"]) == 0
    assert len(cache_entries(cache_home)) == len(doc["seeds"])
    calls = counting_generate(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "warm")]) == 0
    assert calls == []
    assert read_tree(tmp_path / "warm") == read_tree(tmp_path / "cold")

    for name in ("a", "b"):
        shutil.copytree(tmp_path / "cold", tmp_path / name)
    shutil.rmtree(cache_home / "wtx")
    cold = run_all_reloads(tmp_path / "a")
    assert sorted(calls) == doc["seeds"]        # once per seed, then from the cache
    warm = run_all_reloads(tmp_path / "b")
    assert sorted(calls) == doc["seeds"]        # no build at all
    assert warm == cold


def rewrite_entry(path, edit):
    """Apply ``edit`` to the arrays of a cache entry, by name, and write them
    back as an entry."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    np.savez(path, **arrays)


def stale_entry(path, bench):
    """An entry whose arrays hash to its stored fingerprint, but not to the
    generator's: one train feature is changed before the entry is made."""
    features = bench.splits["train"].features.copy()
    features[0, 0] += 1.0
    splits = dict(bench.splits, train=dataclasses.replace(bench.splits["train"],
                                                          features=features))
    with open(path, "wb") as f:
        f.write(instance_entry(dataclasses.replace(bench, splits=splits)))


def altered(member):
    """An edit for ``rewrite_entry`` that changes the array ``member`` and
    keeps the stored hashes and fingerprint."""
    def edit(arrays):
        arrays[member] = arrays[member] + 1.0
    return edit


# The array that an "altered" fault changes for each command: one it reads.
# Labels are hashed as features are: a zeroed or shifted label row would
# score every method wrong and still exit 0.
ALTERED_MEMBER = {("altered", "train"): "train.features",
                  ("altered", "eval"): "eval_novel.features",
                  ("altered", "analyze"): "source_weights",
                  ("altered_labels", "eval"): "eval_novel.class_labels"}


@pytest.mark.parametrize("fault, command", [
    ("truncated", "train"), ("truncated", "eval"), ("altered", "train"), ("altered", "eval"),
    ("altered", "analyze"), ("altered_labels", "eval"),
    # Its own fingerprint checks out; only the run's record shows it stale.
    ("stale", "eval"),
])
def test_cli_rebuilds_and_replaces_a_bad_entry(tmp_path, monkeypatch, cache_home, fault,
                                               command):
    import wtx.cli
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = tmp_path / "run"
    train = ["train", "--config", cfg_path, "--seed", "0", "--out"]
    assert main(train + [str(run_dir)]) == 0
    trained = read_tree(run_dir)
    assert main(["eval", str(run_dir)]) == 0
    assert main(["analyze", str(run_dir)]) == 0
    evaluated = read_tree(run_dir)
    [name] = cache_entries(cache_home)
    path = cache_home / "wtx" / "benchmarks" / name
    config = tiny_config()
    if fault == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif fault.startswith("altered"):
        rewrite_entry(path, altered(ALTERED_MEMBER[fault, command]))
    else:
        stale_entry(path, generate_benchmark(config, 0))
        bench, cached = wtx.cli._benchmark(config, 0)     # a hit, by its own fingerprint
        assert cached and bench.fingerprint != generate_benchmark(config, 0).fingerprint
    calls = counting_generate(monkeypatch)
    if command == "train":
        assert main(train + [str(tmp_path / "again")]) == 0
        assert read_tree(tmp_path / "again") == trained
    else:
        assert main([command, str(run_dir)]) == 0
        assert read_tree(run_dir) == evaluated
    assert calls == [0]
    assert cache_entries(cache_home) == [name]
    assert_same_instance(load_instance_entry(str(path), config, 0),
                         generate_benchmark(config, 0))


def test_cli_a_damaged_array_is_repaired_by_the_first_command_that_reads_it(
        tmp_path, monkeypatch, cache_home):
    # eval reads no train split: it scores from an entry with altered train
    # features and leaves the entry as it is; train reads them and rebuilds.
    cfg_path = write_config(tmp_path, tiny_doc(iterations=5))
    run_dir = tmp_path / "run"
    train = ["train", "--config", cfg_path, "--seed", "0", "--out"]
    assert main(train + [str(run_dir)]) == 0
    trained = read_tree(run_dir)
    assert main(["eval", str(run_dir)]) == 0
    evaluated = read_tree(run_dir)
    [name] = cache_entries(cache_home)
    path = cache_home / "wtx" / "benchmarks" / name
    rewrite_entry(path, altered("train.features"))
    damaged = path.read_bytes()
    calls = counting_generate(monkeypatch)
    assert main(["eval", str(run_dir)]) == 0
    assert read_tree(run_dir) == evaluated
    assert calls == [] and path.read_bytes() == damaged
    assert main(train + [str(tmp_path / "again")]) == 0
    assert read_tree(tmp_path / "again") == trained
    assert calls == [0]
    assert cache_entries(cache_home) == [name]
    assert_same_instance(load_instance_entry(str(path), tiny_config(), 0),
                         generate_benchmark(tiny_config(), 0))


def loaded_members(monkeypatch):
    """Record the name of every archive member that an ``np.load`` archive
    hands out; returns the list."""
    loaded = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recording(self, key):
        loaded.append(key)
        return getitem(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
    return loaded


def test_cli_commands_load_only_the_arrays_they_use(tmp_path, monkeypatch, cache_home):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg_path = write_config(tmp_path, dict(tiny_doc(iterations=5), seeds=[0]))
    # A cold generate writes the entry that every command below reads.
    assert main(["generate", "--config", cfg_path, "--out", str(tmp_path / "cold")]) == 0
    with np.load(tmp_path / "cold" / "benchmark.npz") as archive:
        every = set(archive.files)
    loaded = loaded_members(monkeypatch)
    run = str(tmp_path / "run")
    commands = {
        "generate": ["generate", "--config", cfg_path, "--out", str(tmp_path / "warm")],
        "train": ["train", "--config", cfg_path, "--out", run],
        "sweep": ["compare", "--config", cfg_path, "--out", str(tmp_path / "sweep")],
        "eval": ["eval", run],
        "analyze": ["analyze", run],
        "compare RUN_DIRS": ["compare", run, "--out", str(tmp_path / "cmp")],
    }
    members = {}
    for command, argv in commands.items():
        loaded.clear()
        assert main(argv) == 0, command
        members[command] = set(loaded)
    split_members = {m for m in every if "." in m}
    train_members = {m for m in split_members if m.startswith("train.")}
    assert len(train_members) == 4 and len(split_members) == 12
    assert members == {"generate": every, "train": every, "sweep": every,
                       "eval": every - train_members, "analyze": every - split_members,
                       "compare RUN_DIRS": every - train_members}


def test_cli_unwritable_cache_changes_no_exit_code_or_byte(tmp_path, monkeypatch, capsys):
    """The same commands, in two directories of the same layout: one with
    a working cache, one whose cache location is a file, so that no entry
    can be read or written. Exit codes, output and trees are the same."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    commands = [["generate", "--config", "config.json", "--out", "bench"],
                ["train", "--config", "config.json", "--out", "run", "--seed", "1"],
                ["eval", "run"], ["analyze", "run"], ["eval", "missing"],
                ["compare", "--config", "config.json", "--out", "sweep"],
                ["compare", "run", "sweep/runs/wtn__seed0", "--out", "table"]]
    results = {}
    for name in ("working", "broken"):
        root = tmp_path / name
        root.mkdir()
        write_config(root, tiny_doc(iterations=5))
        (root / "cache").write_text("not a directory")
        if name == "broken":
            monkeypatch.setenv("XDG_CACHE_HOME", str(root / "cache"))
        monkeypatch.chdir(root)
        capsys.readouterr()
        codes = [main(argv) for argv in commands]
        results[name] = codes, capsys.readouterr(), read_tree(root)
    assert results["working"][0] == [0, 0, 0, 0, 2, 0, 0]
    assert results["broken"] == results["working"]


def test_cache_key_changes_with_the_seed_each_config_field_and_the_stamp(monkeypatch):
    import wtx.cli
    config = BenchConfig()
    stamp = wtx.cli._cache_stamp()
    assert set(stamp) == {"sources", "python", "numpy", "blas", "host", "arch"}
    keys = [wtx.cli._cache_key(config, 0), wtx.cli._cache_key(config, 1)]
    for f in dataclasses.fields(BenchConfig):
        # A valid value: multilabel_fraction stays inside [0, 1].
        value = getattr(config, f.name)
        value = value / 2 if f.name == "multilabel_fraction" else value + 1
        keys.append(wtx.cli._cache_key(dataclasses.replace(config, **{f.name: value}), 0))
    for name in stamp:
        with monkeypatch.context() as mp:
            mp.setattr(wtx.cli, "_cache_stamp", lambda name=name: {**stamp, name: "other"})
            keys.append(wtx.cli._cache_key(config, 0))
    assert len(set(keys)) == len(keys) == 2 + len(dataclasses.fields(BenchConfig)) + len(stamp)
    assert wtx.cli._cache_key(BenchConfig(), 0) == keys[0]


def test_cache_evicts_the_least_recently_used_first(monkeypatch, cache_home):
    import wtx.cli
    config = tiny_config()
    root = cache_home / "wtx" / "benchmarks"
    paths = {}
    for seed in range(3):
        wtx.cli._benchmark(config, seed)
        [paths[seed]] = set(root.iterdir()) - set(paths.values())
        os.utime(paths[seed], ns=(10**18 + seed * 10**9,) * 2)     # seed 0 oldest
    assert wtx.cli._benchmark(config, 0)[1]                         # a hit: now the newest
    size = max(p.stat().st_size for p in paths.values())
    # The temp file of a writer killed before its rename, older than every
    # entry: it counts against the cap and goes first.
    orphan = root / f".tmp-{'0' * 16}-{paths[1].name}"
    orphan.write_bytes(b"\0" * size)
    os.utime(orphan, ns=(10**18 - 10**9,) * 2)
    monkeypatch.setattr(wtx.cli, "CACHE_BYTES", int(2.5 * size))
    wtx.cli._benchmark(config, 3)
    [new] = set(root.iterdir()) - set(paths.values())
    assert set(root.iterdir()) == {paths[0], new}      # the orphan, seeds 1 and 2 went
    assert sum(p.stat().st_size for p in root.iterdir()) <= wtx.cli.CACHE_BYTES


@needs_openblas
def test_cli_preset_bits_do_not_depend_on_the_command(tmp_path, cache_home):
    """At oi_shape the benchmark built at 2 BLAS threads differs in its last
    bits from the one built at 1 (fingerprint 43b93bc5... against
    62e1fefe... for seed 0, numpy 2.4, OpenBLAS 0.3.31, x86-64). Every
    command builds and trains at 1 thread, so a sweep worker and an
    in-process command give the same bits whatever the caller's count."""
    with open(os.path.join(PRESETS, "oi_shape.json")) as f:
        doc = dict(json.load(f), train={"iterations": 2}, seeds=[0])
    cfg_path = write_config(tmp_path, doc)
    sweep = tmp_path / "sweep"
    n = len(wtx.cli._openblas())

    def command(*argv):
        assert main(list(argv)) == 0
        assert blas_counts() == [2] * n

    def fingerprint(path):
        doc = json.loads(path.read_text())
        return doc["fingerprint"] if "fingerprint" in doc else doc["resolved"]["benchmark_sha256"]

    with blas_threads(2):
        # Each command builds the benchmark on its own: the cache is cold.
        command("generate", "--config", cfg_path, "--out", str(tmp_path / "bench"))
        shutil.rmtree(cache_home / "wtx")
        command("train", "--config", cfg_path, "--variant", "wtn", "--out", str(tmp_path / "run"))
        shutil.rmtree(cache_home / "wtx")
        command("compare", "--config", cfg_path, "--jobs", "1", "--out", str(sweep))
        sweep_run = sweep / "runs" / "wtn__seed0"
        assert len({fingerprint(tmp_path / "bench" / "manifest.json"),
                    fingerprint(tmp_path / "run" / "config.json"),
                    fingerprint(sweep_run / "config.json")}) == 1
        assert read_tree(tmp_path / "run") == read_tree(sweep_run)

        shutil.rmtree(cache_home / "wtx")
        command("eval", str(sweep_run))
        command("compare", *sorted(str(p) for p in (sweep / "runs").iterdir()),
                "--out", str(tmp_path / "table"))
    assert read_tree(tmp_path / "table") == {name: (sweep / name).read_bytes()
                                             for name in ("comparison.json", "comparison.csv")}
