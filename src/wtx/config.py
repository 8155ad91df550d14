"""Experiment configuration: one JSON document driving generation, training,
evaluation, and analysis.

Loading is strict: unknown keys anywhere in the document are configuration
errors, so a typo in a hyperparameter name fails fast instead of silently
running with a default, and so is a value whose JSON type does not match its
field (an int field takes no bool or float, a float field no NaN or
Infinity). Configs round-trip through JSON losslessly.

A config object is valid once built: each section (``BenchConfig``,
``ModelConfig``, ``TrainConfig``, ``EvalSettings``) checks its own values
when it is constructed, ``replace`` included, and ``ExperimentConfig``
checks its seeds and the one rule that spans two sections, ``overlap_ks``
against the benchmark's class count. Bad values raise ConfigError.

The ``model`` section is ``models.ModelConfig`` as it is. It holds no width:
a model's rows are as wide as the source weights, ``benchmark.dim``. Its
``variant`` is a label of ``models.METHODS``, the one method table: a
transfer variant, whose entry fixes the layers the model builds, or a
baseline with no transfer network, which reads no other key of the section.
The key keeps its name for every method, so that every ``config.json``
keeps its bytes.

A trained run's ``config.json`` is the config it was trained with: its
``model.variant`` is the run's method, its ``seeds`` the run's one seed and
its ``train.alpha`` the weight it trained with, so that file, without the
``resolved`` block the CLI adds, trains the run again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

from .bench import BenchConfig
from .errors import ConfigError
from .models import ModelConfig, TrainConfig


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_seed(value) -> bool:
    """A seed is a non-negative JSON integer."""
    return _is_int(value) and value >= 0


@dataclass(frozen=True)
class EvalSettings:
    recall_k: int = 5
    overlap_ks: tuple = (1, 2, 5, 10, 20, 50)
    sample_classes: int = 20
    # Analyses sample with their own seed so analysis noise stays decoupled
    # from training noise.
    analysis_seed: int = 990001

    def __post_init__(self):
        if self.recall_k < 1 or self.sample_classes < 1:
            raise ConfigError(f"recall_k and sample_classes must be at least 1, "
                              f"got {self.recall_k} and {self.sample_classes}")
        if not is_seed(self.analysis_seed):
            raise ConfigError(f"analysis_seed must be a non-negative integer, "
                              f"got {self.analysis_seed!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: BenchConfig
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    evaluation: EvalSettings = EvalSettings()
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if not self.seeds or not all(map(is_seed, self.seeds)):
            raise ConfigError(f"seeds must be a non-empty list of non-negative integers, "
                              f"got {list(self.seeds)!r}")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} appears more than once in seeds "
                              f"{list(self.seeds)!r}")
        last = self.benchmark.num_classes - 1
        ks = self.evaluation.overlap_ks
        if not ks or not all(1 <= k <= last for k in ks):
            raise ConfigError(f"overlap_ks must be a non-empty list inside [1, {last}], "
                              f"got {list(ks)}")

    def model_config(self, variant: str) -> ModelConfig:
        """The model section with ``variant``, a label of ``METHODS``; a
        section invalid for that method raises ConfigError naming it."""
        try:
            return replace(self.model, variant=variant)
        except ConfigError as e:
            raise ConfigError(f"method {variant!r}: {e}") from None

    def train_config(self, seed: int) -> TrainConfig:
        return replace(self.train, seed=seed)


# The seed is per run, not part of the experiment document.
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")


# The JSON values each field annotation admits (annotations are strings here).
_TYPE_CHECKS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
    "str": lambda v: isinstance(v, str),
    "tuple": lambda v: isinstance(v, (list, tuple)) and all(_is_int(x) for x in v),
}


def check_section(cls, mapping, where: str, keys=None) -> dict:
    """Return ``mapping`` if it is a JSON object whose keys are fields of the
    dataclass ``cls`` (restricted to ``keys`` if given) and whose values have
    the types the fields are annotated with; raise ConfigError otherwise."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where!r} must be a JSON object, got {type(mapping).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    known = set(types if keys is None else keys)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where!r} "
                          f"(known: {sorted(known)})")
    for key, value in mapping.items():
        if not _TYPE_CHECKS[types[key]](value):
            raise ConfigError(f"{where}.{key} must be of type {types[key]}, got {value!r}")
    return mapping


def config_to_dict(cfg: ExperimentConfig) -> dict:
    train = {k: v for k, v in asdict(cfg.train).items() if k in _TRAIN_KEYS}
    ev = asdict(cfg.evaluation)
    ev["overlap_ks"] = list(ev["overlap_ks"])
    return {
        "benchmark": asdict(cfg.benchmark),
        "model": asdict(cfg.model),
        "train": train,
        "evaluation": ev,
        "seeds": list(cfg.seeds),
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"the config must be a JSON object, got {type(doc).__name__}")
    allowed = {"benchmark", "model", "train", "evaluation", "seeds"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)} "
                          f"(known: {sorted(allowed)})")
    bench = BenchConfig(**check_section(BenchConfig, doc.get("benchmark", {}), "benchmark"))
    model = ModelConfig(**check_section(ModelConfig, doc.get("model", {}), "model"))
    train = TrainConfig(**check_section(TrainConfig, doc.get("train", {}), "train",
                                        _TRAIN_KEYS))
    ev = dict(check_section(EvalSettings, doc.get("evaluation", {}), "evaluation"))
    if "overlap_ks" in ev:
        ev["overlap_ks"] = tuple(ev["overlap_ks"])
    seeds = doc.get("seeds", list(ExperimentConfig.seeds))
    if not isinstance(seeds, list):
        raise ConfigError(f"seeds must be a list of integers, got {seeds!r}")
    return ExperimentConfig(benchmark=bench, model=model, train=train,
                            evaluation=EvalSettings(**ev), seeds=tuple(seeds))


def default_config() -> ExperimentConfig:
    """The bundled configuration. The comparison sweep run with it does not
    reproduce the paper's ordering on novel classes (AE-WTN > WTN+ > WTN):
    over seeds 0-4, plain WTN scores highest on novel top-1 (see ROADMAP)."""
    return ExperimentConfig(benchmark=BenchConfig())
