"""Run configuration for the estimation pipeline.

A run is fully described by a PipelineConfig: input paths, the analysis
grid (reply types, category types, confounder variants, estimators) and
every model hyperparameter.  Identical configs with identical inputs
must produce identical reports, so anything that can change a number
lives here, including the seed, which is mandatory.

Configs load from JSON files; command line flags override file values
field by field.  Every field is checked against its annotation by
``records.record_values``, the reader that report rows and corpus lines
share; a config also wants every float finite.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..corpus import ReplyType
from ..estimators import DEFAULT_BOOTSTRAP_REPLICATES, AipwVariant, Estimator
from ..inference import DEFAULT_CLIP_EPSILON, DEFAULT_REGULARIZATION, ConfounderVariant
from ..lexicon import CategoryType, default_grouping_path, default_lexicon_path
from ..topics import DEFAULT_MAX_DF, DEFAULT_MIN_DF
from .records import decode_json, json_record, read_input, record_values


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run depends on besides the corpus bytes."""

    posts_path: str
    annotations_path: str
    out_dir: str
    seed: int

    lexicon_path: str = ""
    grouping_path: str = ""

    reply_types: tuple[ReplyType, ...] = tuple(ReplyType)
    category_types: tuple[CategoryType, ...] = tuple(CategoryType)
    confounder_variants: tuple[ConfounderVariant, ...] = tuple(ConfounderVariant)
    estimators: tuple[Estimator, ...] = tuple(Estimator)
    aipw_variant: AipwVariant = AipwVariant.STABILIZED

    k: int = 50
    min_df: float = DEFAULT_MIN_DF
    max_df: float = DEFAULT_MAX_DF
    lda_max_iters: int = 200
    lda_tol: float = 1e-4

    folds: int = 5
    cv_category_type: CategoryType = CategoryType.POSITIVE_SENTIMENT

    regularization: float = DEFAULT_REGULARIZATION
    outcome_ridge: float = 1e-6
    clip_epsilon: float = DEFAULT_CLIP_EPSILON
    bootstrap_replicates: int = DEFAULT_BOOTSTRAP_REPLICATES
    bootstrap_refit: bool = True

    jobs: int = 1

    def __post_init__(self) -> None:
        # an empty or null path means the shipped file; any other value is type-checked below
        if self.lexicon_path in ("", None):
            object.__setattr__(self, "lexicon_path", str(default_lexicon_path()))
        if self.grouping_path in ("", None):
            object.__setattr__(self, "grouping_path", str(default_grouping_path()))
        try:
            values = record_values(PipelineConfig, vars(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, value in values.items():
            # a report may hold NaN, a config may not
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, value)
        self.validate()

    def validate(self) -> None:
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must lie in [0, 2**63), got {self.seed}")
        if self.k < 2:
            raise ConfigError(f"k must be at least 2, got {self.k}")
        if not 0.0 <= self.min_df < self.max_df <= 1.0:
            raise ConfigError(
                f"need 0 <= min_df < max_df <= 1, got {self.min_df}, {self.max_df}"
            )
        if self.lda_max_iters < 1:
            raise ConfigError(f"lda_max_iters must be at least 1, got {self.lda_max_iters}")
        if self.lda_tol <= 0:
            raise ConfigError(f"lda_tol must be positive, got {self.lda_tol}")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if not 0.0 <= self.clip_epsilon < 0.5:
            raise ConfigError(f"clip_epsilon must lie in [0, 0.5), got {self.clip_epsilon}")
        if self.regularization < 0:
            raise ConfigError(f"regularization must be nonnegative, got {self.regularization}")
        # each cell's outcome design is rank deficient by construction: each
        # theta row sums to 1 and the topic one-hot to the arm intercept
        if self.outcome_ridge <= 0:
            raise ConfigError(f"outcome_ridge must be positive, got {self.outcome_ridge}")
        if self.bootstrap_replicates < 0 or self.bootstrap_replicates == 1:
            raise ConfigError(
                f"bootstrap_replicates must be 0 or at least 2, got {self.bootstrap_replicates}"
            )
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        for name in ("reply_types", "category_types", "confounder_variants", "estimators"):
            entries = getattr(self, name)
            if not entries:
                raise ConfigError(f"{name} must not be empty")
            if len(set(entries)) < len(entries):
                raise ConfigError(
                    f"{name} must not name an entry twice, got {[e.value for e in entries]}"
                )

    def to_dict(self) -> dict[str, Any]:
        return json_record(self)


_FIELD_NAMES = {f.name for f in dataclasses.fields(PipelineConfig)}
_REQUIRED = tuple(
    f.name for f in dataclasses.fields(PipelineConfig) if f.default is dataclasses.MISSING
)


def config_from_dict(raw: Mapping[str, Any], overrides: Mapping[str, Any] | None = None) -> PipelineConfig:
    """Build a config from a plain mapping, with optional field overrides."""
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    unknown = set(merged) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = [name for name in _REQUIRED if name not in merged]
    if missing:
        raise ConfigError(f"missing required config fields: {missing}")
    return PipelineConfig(**merged)


def load_config(path: str | Path, overrides: Mapping[str, Any] | None = None) -> PipelineConfig:
    """Load a JSON config file, applying overrides on top."""
    try:
        raw = decode_json(read_input(path))
    except ValueError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(raw, overrides)

