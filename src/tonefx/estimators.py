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

``estimate_cell`` fits a cell's full sample in the same pass: the full
sample, as the identity resample ``np.arange(n)``, is row 0 of the
first chunk and gives the cell's nuisances and point estimates, and the
rows after it are the replicates.  A sample's stacked fit does not
depend on the other samples of its stack, so row 0 gets the bits of a
fit of its own.  Without refitting (``--no-refit``) the pass is row 0
alone, and every replicate indexes row 0's values.

A pass allocates one working set, three buffers of one stack each, and
refits every chunk in it: the resampled features, the standardized and
augmented designs, the Hessians and their x * s products, each outcome
arm's design and the predictions' scratch all live in views of those
buffers, so no stack-sized array is allocated per chunk, Newton step or
arm.  (The buffers are a little larger, to fit the Hessians, when a
chunk holds one resample or a cell has about d + 1 units or fewer.)
Under ``tracemalloc`` a 60-replicate pass peaks at 3.54 stacks at
n = 60, d = 28 (2.82 MiB) and at 3.39 stacks at n = 300, d = 116
(2.73 MiB); the rest of the peak is the per-resample vectors.

Each chunk pays its own Newton loop, about 11 iterations at the sizes
below, so a larger chunk spreads that loop over more resamples.  Per
resample at n = 60, d = 28 (best of 5, one OpenBLAS thread of a 2-core
Xeon, numpy 2.4), a propensity refit through ``inference._fit_propensity``
and the whole refit pass of ``bootstrap_se`` take:

    resamples per chunk    propensity refit    whole pass
                      1             1155 us       1643 us
                     18              334 us        482 us
                     60              263 us        380 us

The 1 MiB budget holds a whole 60-replicate cell at that size, with
its full sample, as one chunk of 61 rows (61 x 60 x 29 x 8 B = 849 KB),
and 3 resamples per chunk at n = 300, d = 116.
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
    _check_cell,
    _check_settings,
    _is_integer,
    _log_unconverged,
    _refit_resamples,
    _sample,
    _workspace,
)

DEFAULT_BOOTSTRAP_REPLICATES = 1000
Z_CRITICAL_95 = 1.96
# bytes of the (R, n, d + 1) float stack that one chunk of bootstrap
# resamples is refit on; the module docstring times chunk sizes
CHUNK_BYTES = 1024 * 1024
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
        self.treatments = t = np.asarray(self.treatments)
        if t.ndim not in (1, 2) or not np.all((t == 0) | (t == 1)):
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
    """Fit both nuisance models on the full sample and bundle their values.

    ``estimate_cell`` without a bootstrap: a pass of row 0 alone.
    """
    return estimate_cell(
        features,
        treatments,
        outcomes,
        regularization=regularization,
        ridge=ridge,
        clip_epsilon=clip_epsilon,
    )[0]


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


def _check_bootstrap(
    estimator: Estimator | Sequence[Estimator], replicates: int, seed: int
) -> list[Estimator]:
    """The requested estimators, once each in order, after checking the pass's arguments."""
    if isinstance(estimator, str):
        estimator = [estimator]
    requested = list(dict.fromkeys(Estimator(e) for e in estimator))
    if not requested:
        raise EstimationError("no estimator requested")
    for name, value in (("replicates", replicates), ("seed", seed)):
        if not _is_integer(value):
            raise EstimationError(f"{name} must be an integer, got {value!r}")
    if replicates < 2:
        raise EstimationError(f"need at least 2 bootstrap replicates, got {replicates}")
    if seed < 0:
        raise EstimationError(f"seed must be nonnegative, got {seed}")
    return requested


def _refits(requested: Sequence[Estimator], refit: bool) -> bool:
    """Whether a bootstrap of these estimators refits the nuisances on its resamples."""
    return refit and any(e is not Estimator.UNADJUSTED for e in requested)


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
    reused, which is cheaper but ignores nuisance variability.  Resamples
    are fit and scored in chunks of ``CHUNK_BYTES``, each chunk as one
    stack refit in one working set that the call allocates once; a
    replicate's value depends neither on the chunk it lands in nor on
    ``replicates``, and each estimator's values equal those of a call
    that requests it alone.  Propensity refits that end unconverged are
    counted in the result's ``unconverged``, and are not logged either.
    ``replicates`` and ``seed`` are integers, Python's or numpy's, and
    ``seed`` is nonnegative.  ``data`` is checked on construction, so a
    refitting call checks only the fit settings, once.
    """
    requested = _check_bootstrap(estimator, replicates, seed)
    if not _refits(requested, refit):
        nuisances = (data.propensity, data.q0, data.q1)
    elif data.features is None:
        raise EstimationError(
            "bootstrap refitting needs the feature matrix; "
            "provide features or pass refit=False"
        )
    else:
        nuisances = None
        _check_settings(regularization, ridge, clip_epsilon)
    return _pass(
        data.features, data.treatments, data.outcomes, requested, replicates, seed,
        aipw_variant, regularization, ridge, clip_epsilon, nuisances=nuisances,
    )[1]


def estimate_cell(
    features: np.ndarray | Sequence[Sequence[float]],
    treatments: np.ndarray | Sequence[int],
    outcomes: np.ndarray | Sequence[float],
    estimators: Estimator | Sequence[Estimator] = (),
    replicates: int = 0,
    seed: int = 0,
    refit: bool = True,
    aipw_variant: AipwVariant = AipwVariant.STABILIZED,
    regularization: float = DEFAULT_REGULARIZATION,
    ridge: float = 0.0,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
) -> tuple[EstimationInput, BootstrapResult | None]:
    """One cell's full-sample nuisances and its bootstrap, from one refit pass.

    Checks the cell's inputs once, as ``build_estimation_input`` always
    has, then refits the full sample, as the identity resample
    ``np.arange(n)``, in row 0 of the pass's first chunk, ahead of the
    resamples that ``bootstrap_se`` would draw and refit.  Row 0 gives
    the returned ``EstimationInput``, and an unconverged row 0 is logged
    as ``fit_propensity`` logs it; rows 1.. give the replicates, and the
    result's ``unconverged`` counts only them.  With ``replicates`` 0 the
    pass is row 0 alone and there is no result; otherwise ``estimators``,
    ``replicates`` and ``seed`` are checked as ``bootstrap_se`` checks
    them.  Without refitting (see ``bootstrap_se``) the pass is row 0
    alone and the replicates then index its values.  Every value equals
    those of ``build_estimation_input`` followed by ``bootstrap_se`` on
    its result.
    """
    matrix, t, y = _check_cell(features, treatments, outcomes, regularization, ridge, clip_epsilon)
    no_bootstrap = _is_integer(replicates) and replicates == 0
    requested = [] if no_bootstrap else _check_bootstrap(estimators, replicates, seed)
    refits = _refits(requested, refit)
    settings = aipw_variant, regularization, ridge, clip_epsilon
    full, result = _pass(
        matrix, t, y, requested, replicates if refits else 0, seed, *settings, full_sample=True
    )
    data = EstimationInput(
        treatments=t, outcomes=y, propensity=full[0], q0=full[1], q1=full[2], features=matrix
    )
    if requested and not refits:
        nuisances = (data.propensity, data.q0, data.q1)
        _, result = _pass(
            matrix, t, y, requested, replicates, seed, *settings, nuisances=nuisances
        )
    return data, result


def _pass(
    features: np.ndarray | None,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    requested: Sequence[Estimator],
    replicates: int,
    seed: int,
    aipw_variant: AipwVariant,
    regularization: float,
    ridge: float,
    clip_epsilon: float,
    nuisances: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    full_sample: bool = False,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray] | None, BootstrapResult | None]:
    """The chunk loop of a cell's bootstrap, on checked input.

    Refits both nuisances on every usable resample, or, given the
    full-sample ``nuisances`` (p, q0, q1 per unit), indexes those.  With
    ``full_sample`` the refit pass fits the full sample first, as row 0
    of its first chunk, and returns its p, q0 and q1.  The replicate
    result is None when ``replicates`` is 0.
    """
    n = treatments.shape[0]
    width = 1 if nuisances is not None else features.shape[1] + 1
    chunk = max(1, CHUNK_BYTES // (8 * n * width))
    # every chunk is refit in this one working set
    work = (
        _workspace(3, min(chunk, replicates + full_sample), *features.shape)
        if nuisances is None
        else None
    )
    draws = (
        _resample_indices(np.random.default_rng([seed, i]), treatments, MAX_REDRAWS)
        for i in range(replicates)
    )
    rows = itertools.chain(
        [np.arange(n)] if full_sample else [], (idx for idx in draws if idx is not None)
    )
    estimates: dict[Estimator, list[np.ndarray]] = {e: [] for e in requested}
    full = None
    used = unconverged = 0
    while drawn := list(itertools.islice(rows, chunk)):
        idx = np.stack(drawn)
        t, y = treatments[idx], outcomes[idx]
        if nuisances is None:
            p, q0, q1, propensity = _refit_resamples(
                features, idx, t, y, regularization, ridge, clip_epsilon, work
            )
        else:
            p, q0, q1 = (values[idx] for values in nuisances)
        # the full sample, when the pass fits it, is row 0 of its first chunk
        head = int(full_sample and full is None)
        if head:
            _log_unconverged(_sample(propensity, 0))
            full = p[0], q0[0], q1[0]
        if nuisances is None:
            unconverged += int(np.count_nonzero(~propensity.converged[head:]))
        if head == len(drawn):
            continue
        used += len(drawn) - head
        replicate = EstimationInput(
            treatments=t[head:], outcomes=y[head:], propensity=p[head:], q0=q0[head:], q1=q1[head:]
        )
        for e, values in estimates.items():
            values.append(point_estimate(replicate, e, aipw_variant=aipw_variant))
    if not replicates:
        return full, None
    if used < 2:
        raise EstimationError(f"only {used} of {replicates} bootstrap replicates usable")
    return full, BootstrapResult(
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
