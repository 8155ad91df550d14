"""Experiment configuration: one JSON document driving generation, training,
evaluation, and analysis.

Loading is strict: unknown keys anywhere in the document are configuration
errors, so a typo in a hyperparameter name fails fast instead of silently
running with a default, and so is a value whose JSON type does not match its
field (an int field takes no bool or float, a float field no NaN or
Infinity). Configs round-trip through JSON losslessly.

The ``model`` section is ``models.ModelConfig`` as it is. It holds no width:
a model's rows are as wide as the source weights, ``benchmark.dim``.
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


def check_alpha(alpha: float, name: str) -> None:
    """The reconstruction-loss weight ``name`` must be finite and >= 0."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"{name} must be finite and >= 0, got {alpha}")


@dataclass(frozen=True)
class EvalSettings:
    recall_k: int = 5
    overlap_ks: tuple = (1, 2, 5, 10, 20, 50)
    sample_classes: int = 20
    # Analyses sample with their own seed so analysis noise stays decoupled
    # from training noise.
    analysis_seed: int = 990001


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: BenchConfig
    model: ModelConfig = ModelConfig()
    train: TrainConfig = None
    evaluation: EvalSettings = None
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.train is None:
            object.__setattr__(self, "train", TrainConfig())
        if self.evaluation is None:
            object.__setattr__(self, "evaluation", EvalSettings())
        if not self.seeds or not all(map(is_seed, self.seeds)):
            raise ConfigError(f"seeds must be a non-empty list of non-negative integers, "
                              f"got {list(self.seeds)!r}")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} appears more than once in seeds "
                              f"{list(self.seeds)!r}")
        if self.train.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.train.batch_size}")
        if self.train.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.train.iterations}")
        check_alpha(self.train.alpha, "train.alpha")
        self.benchmark.validate()
        ev, last = self.evaluation, self.benchmark.num_classes - 1
        if ev.recall_k < 1 or ev.sample_classes < 1:
            raise ConfigError(f"recall_k and sample_classes must be at least 1, "
                              f"got {ev.recall_k} and {ev.sample_classes}")
        if not ev.overlap_ks or not all(1 <= k <= last for k in ev.overlap_ks):
            raise ConfigError(f"overlap_ks must be a non-empty list inside [1, {last}], "
                              f"got {list(ev.overlap_ks)}")
        self.model.validate()

    def model_config(self, variant: str | None = None, **overrides) -> ModelConfig:
        """The model section with ``variant`` (if given) and ``overrides`` applied."""
        return replace(self.model, variant=variant or self.model.variant, **overrides)

    def train_config(self, seed: int, alpha: float | None = None) -> TrainConfig:
        tc = replace(self.train, seed=seed)
        if alpha is not None:
            tc = replace(tc, alpha=alpha)
        return tc


# The seed is per run, not part of the experiment document.
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")


# The JSON values each field annotation admits (annotations are strings here).
_TYPE_CHECKS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
    "str": lambda v: isinstance(v, str),
    "bool | None": lambda v: v is None or isinstance(v, bool),
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
    seeds = doc.get("seeds", [0, 1, 2, 3, 4])
    if not isinstance(seeds, list):
        raise ConfigError(f"seeds must be a list of integers, got {seeds!r}")
    return ExperimentConfig(benchmark=bench, model=model, train=train,
                            evaluation=EvalSettings(**ev), seeds=tuple(seeds))


def default_config() -> ExperimentConfig:
    """The bundled configuration. The comparison sweep run with it does not
    reproduce the paper's ordering on novel classes (AE-WTN > WTN+ > WTN):
    over seeds 0-4, plain WTN scores highest on novel top-1 (see ROADMAP)."""
    return ExperimentConfig(benchmark=BenchConfig())
