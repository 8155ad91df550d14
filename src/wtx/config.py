"""Experiment configuration: one JSON document driving generation, training,
evaluation, and analysis.

Loading is strict: unknown keys anywhere in the document are configuration
errors, so a typo in a hyperparameter name fails fast instead of silently
running with a default. Configs round-trip through JSON losslessly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from .bench import BenchConfig
from .errors import ConfigError
from .models import ModelConfig, TrainConfig, VARIANTS


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
    variant: str = "ae_wtn"
    hidden_dim: int = 64
    groups: int = 8
    norm_kind: str = "group"
    input_norm: bool | None = None
    feature_norm: bool | None = None
    dropout: float = 0.0
    activity_coef: float = 0.0
    train: TrainConfig = None
    evaluation: EvalSettings = None
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.train is None:
            object.__setattr__(self, "train", TrainConfig())
        if self.evaluation is None:
            object.__setattr__(self, "evaluation", EvalSettings())
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not self.seeds:
            raise ConfigError("seeds list must not be empty")
        self.benchmark.validate()
        self.model_config().validate()

    def model_config(self, variant: str | None = None, **overrides) -> ModelConfig:
        kwargs = dict(variant=variant or self.variant,
                      in_dim=self.benchmark.dim, hidden_dim=self.hidden_dim,
                      out_dim=self.benchmark.dim, groups=self.groups,
                      norm_kind=self.norm_kind, input_norm=self.input_norm,
                      feature_norm=self.feature_norm, dropout=self.dropout,
                      activity_coef=self.activity_coef)
        kwargs.update(overrides)
        return ModelConfig(**kwargs)

    def train_config(self, seed: int, alpha: float | None = None) -> TrainConfig:
        tc = replace(self.train, seed=seed)
        if alpha is not None:
            tc = replace(tc, alpha=alpha)
        return tc


_MODEL_KEYS = ("variant", "hidden_dim", "groups", "norm_kind", "input_norm",
               "feature_norm", "dropout", "activity_coef")
_TRAIN_EXCLUDE = ("seed",)   # per-run, not part of the experiment document


def _build(cls, mapping: dict, where: str, exclude=()):
    known = {f.name for f in fields(cls)} - set(exclude)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where!r} "
                          f"(known: {sorted(known)})")
    return cls(**mapping)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    train = {k: v for k, v in asdict(cfg.train).items() if k not in _TRAIN_EXCLUDE}
    ev = asdict(cfg.evaluation)
    ev["overlap_ks"] = list(ev["overlap_ks"])
    return {
        "benchmark": asdict(cfg.benchmark),
        "model": {k: getattr(cfg, k) for k in _MODEL_KEYS},
        "train": train,
        "evaluation": ev,
        "seeds": list(cfg.seeds),
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    allowed = {"benchmark", "model", "train", "evaluation", "seeds"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)} "
                          f"(known: {sorted(allowed)})")
    bench = _build(BenchConfig, doc.get("benchmark", {}), "benchmark")
    model = dict(doc.get("model", {}))
    unknown = set(model) - set(_MODEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in 'model' "
                          f"(known: {sorted(_MODEL_KEYS)})")
    train = _build(TrainConfig, doc.get("train", {}), "train", exclude=_TRAIN_EXCLUDE)
    ev = dict(doc.get("evaluation", {}))
    if "overlap_ks" in ev:
        ev["overlap_ks"] = tuple(ev["overlap_ks"])
    evaluation = _build(EvalSettings, ev, "evaluation")
    seeds = tuple(int(s) for s in doc.get("seeds", (0, 1, 2, 3, 4)))
    return ExperimentConfig(benchmark=bench, train=train, evaluation=evaluation,
                            seeds=seeds, **model)


def default_config() -> ExperimentConfig:
    """The bundled configuration. The comparison sweep run with it does not
    reproduce the paper's ordering on novel classes (AE-WTN > WTN+ > WTN):
    over seeds 0-4, plain WTN scores highest on novel top-1 (see ROADMAP)."""
    return ExperimentConfig(benchmark=BenchConfig())
