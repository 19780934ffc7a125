"""Average treatment effect estimators and bootstrap standard errors.

All estimators consume an EstimationInput bundling treatments, outcomes
and fitted nuisance values (treated probabilities and per-arm outcome
predictions) for one analysis cell.  Four estimators are provided:

* unadjusted: difference of observed arm means, no adjustment;
* q: mean difference of outcome-model predictions under both arms;
* ipw: inverse-propensity weighting of observed outcomes;
* aipw: the doubly robust combination of the two nuisances, either in
  plain form or with the residual terms normalized by the realized
  weight mass in each arm ("stabilized", the default).  Stabilization
  makes the estimate invariant to shifting all outcomes by a constant
  when the outcome model is held fixed, which the plain form is not.

Every estimator also scores a stack of replicates at once: an
EstimationInput whose arrays have shape (R, n) gives one estimate per
row.

Standard errors come from a nonparametric bootstrap over units, one
pass per analysis cell.  Each replicate draws its own generator from
(seed, replicate index), so any replicate can be reproduced in isolation
and results do not depend on evaluation order or on the replicate
count.  With refit enabled the nuisance models are refit on every
resample, propagating their variability into the interval, and every
requested estimator is scored from that one fit.  The usable resamples
are refit in chunks, as stacked solves over all resamples of a chunk;
a chunk holds as many resamples as fit ``CHUNK_BYTES`` for one
n x (d + 1) float stack, which bounds the memory of a pass whatever the
replicate count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .inference import (
    DEFAULT_CLIP_EPSILON,
    DEFAULT_REGULARIZATION,
    fit_outcome_models,
    fit_outcome_stack,
    fit_propensity,
    fit_propensity_stack,
    predict_outcome,
    predict_propensity,
)

DEFAULT_BOOTSTRAP_REPLICATES = 1000
Z_CRITICAL_95 = 1.96
# bytes of the (R, n, d + 1) float stack that one chunk of bootstrap
# resamples is refit on
CHUNK_BYTES = 256 * 1024
# draws per bootstrap replicate before a resample in one arm is skipped
MAX_REDRAWS = 10


class EstimationError(ValueError):
    """Invalid input to an effect estimator."""


class Estimator(str, Enum):
    UNADJUSTED = "unadjusted"
    Q = "q"
    IPW = "ipw"
    AIPW = "aipw"


class AipwVariant(str, Enum):
    PLAIN = "plain"
    STABILIZED = "stabilized"


@dataclass(eq=False)
class EstimationInput:
    """One analysis cell: data plus fitted nuisance values per unit.

    ``features`` may be omitted when only precomputed nuisances are
    needed; bootstrap refitting requires it.  A stack of R samples of
    one cell, every array of shape (R, n) and no features, is checked
    the same way row by row.
    """

    treatments: np.ndarray
    outcomes: np.ndarray
    propensity: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.treatments = np.asarray(self.treatments)
        if self.treatments.ndim not in (1, 2) or not np.all(np.isin(self.treatments, (0, 1))):
            raise EstimationError("treatments must be a flat 0/1 vector or a stack of them")
        n = self.n
        if np.any(self.treatments.min(axis=-1) == self.treatments.max(axis=-1)):
            raise EstimationError("both treatment arms must be present")
        self.treatments = self.treatments.astype(float)
        shape = self.treatments.shape
        for name in ("outcomes", "propensity", "q0", "q1"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise EstimationError(f"{name} must have shape {shape}, got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise EstimationError(f"{name} contains non-finite values")
            setattr(self, name, value)
        if np.any(self.propensity <= 0.0) or np.any(self.propensity >= 1.0):
            raise EstimationError("propensity values must lie strictly inside (0, 1)")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)
            if self.treatments.ndim != 1 or self.features.ndim != 2 or self.features.shape[0] != n:
                raise EstimationError(
                    f"features must have {n} rows, got shape {self.features.shape}"
                )
            if not np.all(np.isfinite(self.features)):
                raise EstimationError("features contain non-finite values")

    @property
    def n(self) -> int:
        return self.treatments.shape[-1]


def build_estimation_input(
    features: np.ndarray,
    treatments: np.ndarray | Sequence[int],
    outcomes: np.ndarray | Sequence[float],
    regularization: float = DEFAULT_REGULARIZATION,
    ridge: float = 0.0,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
) -> EstimationInput:
    """Fit both nuisance models on the full sample and bundle their values."""
    features = np.asarray(features, dtype=float)
    propensity_model = fit_propensity(features, treatments, regularization=regularization)
    scores = predict_propensity(propensity_model, features, clip_epsilon=clip_epsilon)
    model0, model1 = fit_outcome_models(features, treatments, outcomes, ridge=ridge)
    return EstimationInput(
        treatments=np.asarray(treatments),
        outcomes=np.asarray(outcomes, dtype=float),
        propensity=scores,
        q0=predict_outcome(model0, features),
        q1=predict_outcome(model1, features),
        features=features,
    )


def _value(estimate: np.ndarray) -> float | np.ndarray:
    """A float for one sample, one value per row for a stack."""
    return float(estimate) if np.ndim(estimate) == 0 else estimate


def ate_unadjusted(data: EstimationInput) -> float | np.ndarray:
    """Difference of observed arm means."""
    t, y = data.treatments, data.outcomes
    treated = np.sum(t * y, axis=-1) / np.sum(t, axis=-1)
    control = np.sum((1.0 - t) * y, axis=-1) / np.sum(1.0 - t, axis=-1)
    return _value(treated - control)


def ate_q(data: EstimationInput) -> float | np.ndarray:
    """Mean difference of the outcome model's two potential predictions."""
    return _value(np.mean(data.q1 - data.q0, axis=-1))


def ate_ipw(data: EstimationInput) -> float | np.ndarray:
    """Inverse-propensity weighted difference of observed outcomes."""
    t, y, p = data.treatments, data.outcomes, data.propensity
    return _value(np.mean(t * y / p - (1.0 - t) * y / (1.0 - p), axis=-1))


def ate_aipw(
    data: EstimationInput, variant: AipwVariant = AipwVariant.STABILIZED
) -> float | np.ndarray:
    """Doubly robust estimate combining both nuisances.

    The plain form averages the weighted residual corrections directly.
    The stabilized form divides each arm's weighted residual sum by that
    arm's realized weight mass, so the correction terms use weights that
    sum to one within each arm.
    """
    variant = AipwVariant(variant)
    t, y, p = data.treatments, data.outcomes, data.propensity
    q0, q1 = data.q0, data.q1
    residual1 = t * (y - q1) / p
    residual0 = (1.0 - t) * (y - q0) / (1.0 - p)
    if variant is AipwVariant.PLAIN:
        return _value(np.mean(residual1 - residual0 + q1 - q0, axis=-1))
    weight1 = np.sum(t / p, axis=-1)
    weight0 = np.sum((1.0 - t) / (1.0 - p), axis=-1)
    correction = np.sum(residual1, axis=-1) / weight1 - np.sum(residual0, axis=-1) / weight0
    return _value(np.mean(q1 - q0, axis=-1) + correction)


def point_estimate(
    data: EstimationInput,
    estimator: Estimator,
    aipw_variant: AipwVariant = AipwVariant.STABILIZED,
) -> float | np.ndarray:
    estimator = Estimator(estimator)
    if estimator is Estimator.UNADJUSTED:
        return ate_unadjusted(data)
    if estimator is Estimator.Q:
        return ate_q(data)
    if estimator is Estimator.IPW:
        return ate_ipw(data)
    return ate_aipw(data, variant=aipw_variant)


@dataclass(eq=False)
class BootstrapResult:
    """Replicate estimates of every requested estimator from one bootstrap pass.

    Every estimator is scored on the same usable resamples, so all share
    ``skipped``, and ``unconverged`` counts the propensity refits of those
    resamples that ended unconverged.
    """

    estimates: dict[Estimator, np.ndarray]
    skipped: int
    unconverged: int

    @property
    def standard_errors(self) -> dict[Estimator, float]:
        return {
            estimator: float(values.std(ddof=1))
            for estimator, values in self.estimates.items()
        }

    @property
    def standard_error(self) -> float:
        """The standard error of the only requested estimator."""
        if len(self.estimates) != 1:
            raise EstimationError(
                f"standard_error needs one estimator, this result holds {len(self.estimates)}"
            )
        (standard_error,) = self.standard_errors.values()
        return standard_error


def _resample_indices(
    rng: np.random.Generator, treatments: np.ndarray, max_redraws: int
) -> np.ndarray | None:
    """Draw a with-replacement resample containing both arms, or None."""
    n = treatments.shape[0]
    for _ in range(max_redraws):
        idx = rng.integers(0, n, size=n)
        drawn = treatments[idx]
        if drawn.min() != drawn.max():
            return idx
    return None


def bootstrap_se(
    data: EstimationInput,
    estimator: Estimator | Sequence[Estimator],
    replicates: int = DEFAULT_BOOTSTRAP_REPLICATES,
    seed: int = 0,
    refit: bool = True,
    aipw_variant: AipwVariant = AipwVariant.STABILIZED,
    regularization: float = DEFAULT_REGULARIZATION,
    ridge: float = 0.0,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
) -> BootstrapResult:
    """Nonparametric bootstrap of one estimator or several, in one pass.

    ``estimator`` is one ``Estimator`` or a sequence of them.  Replicate
    ``i`` draws its resample from ``default_rng([seed, i])``.  A resample
    that lands entirely in one arm is redrawn up to ``MAX_REDRAWS`` times
    and then skipped; the result's ``skipped`` counts the skips, which
    are not logged.  With ``refit``, and when any requested estimator
    uses the nuisances, the propensity and outcome models are refit on
    every usable resample and every requested estimator is scored from
    that one fit; otherwise the stored per-unit nuisance values are
    reused, which is cheaper but ignores nuisance variability.  Resamples are fit and scored in
    chunks of ``CHUNK_BYTES``, each chunk as one stack; a replicate's
    value depends neither on the chunk it lands in nor on
    ``replicates``, and each estimator's values equal those of a call
    that requests it alone.  Propensity refits that end unconverged are
    counted in the result's ``unconverged``, and are not logged either.
    """
    if isinstance(estimator, str):
        estimator = [estimator]
    requested = list(dict.fromkeys(Estimator(e) for e in estimator))
    if not requested:
        raise EstimationError("no estimator requested")
    if replicates < 2:
        raise EstimationError(f"need at least 2 bootstrap replicates, got {replicates}")
    needs_nuisances = any(e is not Estimator.UNADJUSTED for e in requested)
    do_refit = refit and needs_nuisances
    if do_refit and data.features is None:
        raise EstimationError(
            "bootstrap refitting needs the feature matrix; "
            "provide features or pass refit=False"
        )

    width = data.features.shape[1] + 1 if do_refit else 1
    chunk = max(1, CHUNK_BYTES // (8 * data.n * width))
    draws = (
        _resample_indices(np.random.default_rng([seed, i]), data.treatments, MAX_REDRAWS)
        for i in range(replicates)
    )
    usable = (idx for idx in draws if idx is not None)
    estimates: dict[Estimator, list[np.ndarray]] = {e: [] for e in requested}
    used = unconverged = 0
    while drawn := list(itertools.islice(usable, chunk)):
        idx = np.stack(drawn)
        used += len(drawn)
        t, y = data.treatments[idx], data.outcomes[idx]
        if do_refit:
            z = data.features[idx]
            propensity_models = fit_propensity_stack(z, t, regularization=regularization)
            unconverged += int(np.count_nonzero(~propensity_models.converged))
            p = predict_propensity(propensity_models, z, clip_epsilon=clip_epsilon)
            q0, q1 = predict_outcome(fit_outcome_stack(z, t, y, ridge=ridge), z)
        else:
            p, q0, q1 = data.propensity[idx], data.q0[idx], data.q1[idx]
        replicate = EstimationInput(treatments=t, outcomes=y, propensity=p, q0=q0, q1=q1)
        for e, values in estimates.items():
            values.append(point_estimate(replicate, e, aipw_variant=aipw_variant))
    if used < 2:
        raise EstimationError(f"only {used} of {replicates} bootstrap replicates usable")
    return BootstrapResult(
        estimates={e: np.concatenate(values) for e, values in estimates.items()},
        skipped=replicates - used,
        unconverged=unconverged,
    )


@dataclass(frozen=True)
class AteEstimate:
    """One estimator's result for one analysis cell."""

    estimator: Estimator
    psi: float
    standard_error: float | None
    n: int
    reply_type: str | None = None
    category_type: str | None = None
    aipw_variant: AipwVariant | None = None
    confounder_variant: str | None = None

    @property
    def significant(self) -> bool | None:
        """Whether zero lies outside the 95 percent normal interval."""
        if self.standard_error is None:
            return None
        return bool(abs(self.psi) > Z_CRITICAL_95 * self.standard_error)
