"""Confounder vectors and nuisance models for treatment and outcome.

Two confounder variants are supported per triple.  The full variant
concatenates the topic proportions of p1 and p2 under their debate
topic's model with p1's category row (all three category types), so its
length is 2k plus the total category count.  The caller featurizes the
text and infers the topic proportions: it passes both as tables keyed by
post id, so one run tokenizes, categorizes and infers each post once
however many confounder matrices it builds, and building a matrix is a
lookup.  The topics-only variant is a one-hot encoding of the triples'
own debate topics and serves as the weak baseline adjustment set.

The propensity model is an L2-penalized logistic regression fit by
damped Newton iteration on the mean log-loss; it stops when the gradient
norm falls below tolerance, so refits are deterministic.  Outcome models
are per-arm linear least squares (optionally ridge-regularized when the
design is small or collinear).  Features are standardized with training
statistics stored on the model, which keeps prediction consistent and
the optimization well conditioned.  Cross-validation reports fold-wise
held-out RMSE per arm and propensity F1 with seeded fold assignment.

Both nuisance fits work on a stack of samples at once, shape
(samples, n, d): ``fit_propensity_stack`` and ``fit_outcome_stack`` run
one Newton iteration and one least-squares solve for every sample of
the stack, with stacked matrix products and solves, and each sample's
fit is the one it would get alone.  They return the same model types as
the one-sample fits, with a leading sample axis on every field (arm,
then sample, for outcomes).  ``fit_propensity`` and
``fit_outcome_models`` return sample 0 of a stack of one, used for
full-sample fits and cross-validation folds; the bootstrap refits whole
stacks of resamples.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from .corpus import Triple

logger = logging.getLogger(__name__)

DEFAULT_REGULARIZATION = 1e-4
DEFAULT_CLIP_EPSILON = 0.01


class InferenceError(ValueError):
    """Invalid input to confounder construction or model fitting."""


class ConfounderVariant(str, Enum):
    FULL = "full"
    DEBATE_TOPICS_ONLY = "debate_topics_only"


def build_confounder_matrix(
    triples: Sequence[Triple],
    variant: ConfounderVariant,
    thetas: Mapping[str, np.ndarray],
    category_rows: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Confounder rows for the triples, looked up from per-post tables.

    ``thetas`` maps the id of every p1 and p2 to its topic proportions
    and ``category_rows`` maps the id of every p1 to its category row
    from ``lexicon.vectorize_forms``; a full row is theta[p1], theta[p2] and
    category_rows[p1], concatenated.  The topics-only variant reads
    neither table and one-hot encodes the debate topic over the sorted
    debate topics of the given triples, so posts outside them change no
    column.  Row order follows the input triples.
    """
    variant = ConfounderVariant(variant)
    if not triples:
        raise InferenceError("no triples to build confounders for")
    if variant is ConfounderVariant.DEBATE_TOPICS_ONLY:
        topics = sorted({triple.debate_topic for triple in triples})
        topic_index = {topic: i for i, topic in enumerate(topics)}
        return np.eye(len(topics))[[topic_index[t.debate_topic] for t in triples]]

    try:
        pairs = [(thetas[triple.p1.id], thetas[triple.p2.id]) for triple in triples]
    except KeyError as exc:
        raise InferenceError(f"no topic proportions for post {exc.args[0]!r}") from None
    ks = {len(theta) for pair in pairs for theta in pair}
    if len(ks) > 1:
        raise InferenceError(f"topic proportions disagree on k: {sorted(ks)}")
    return np.array(
        [np.concatenate((*pair, category_rows[t.p1.id])) for pair, t in zip(pairs, triples)]
    )


def as_feature_matrix(features: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Coerce feature rows to a finite 2-d float matrix; one row becomes 1 x d."""
    if len(features) == 0:
        raise InferenceError("no feature rows given")
    matrix = np.atleast_2d(np.asarray(features, dtype=float))
    bad = np.flatnonzero(~np.all(np.isfinite(matrix), axis=1))
    if bad.size:
        raise InferenceError(f"non-finite feature values in row {bad[0]}")
    return matrix


def _standardize(
    matrix: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize every sample of a (..., n, d) stack over its marked rows.

    ``rows`` (..., n) holds 1.0 for the rows that count and 0.0 for the
    rest, which come out as zero rows.  Constant columns get scale 1.
    Returns the standardized stack with the means and scales it used.
    """
    weight = rows[..., np.newaxis]
    count = rows.sum(axis=-1)[..., np.newaxis]
    means = (matrix * weight).sum(axis=-2) / count
    deviations = (matrix - means[..., np.newaxis, :]) * weight
    scales = np.sqrt((deviations * deviations).sum(axis=-2) / count)
    scales = np.where(scales < 1e-12, 1.0, scales)
    return deviations / scales[..., np.newaxis, :], means, scales


def _check_treatments(treatments: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """A (samples, n) stack of 0/1 treatments with both arms in every sample."""
    t = np.asarray(treatments)
    if t.ndim != 2 or not np.all(np.isin(t, (0, 1))):
        raise InferenceError("treatments must be a flat 0/1 vector per sample")
    if np.any(t.min(axis=-1) == t.max(axis=-1)):
        raise InferenceError("all units share one treatment arm; need both arms to fit")
    return t.astype(float)


def _rows(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given samples of a stack, without a copy when that is all of them."""
    return stack if rows.size == stack.shape[0] else stack[rows]


def _lstsq(
    design: np.ndarray, targets: np.ndarray, rows: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solutions of a stack of systems, and their ranks.

    Singular values at or below ``eps * max(rows, p)`` times the largest
    count as zero, which is the cutoff of ``np.linalg.lstsq``; ``rows``
    counts the real rows of each system, not zero rows that mask others.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = np.finfo(float).eps * np.maximum(rows, design.shape[-1]) * s[..., 0]
    keep = s > cutoff[..., np.newaxis]
    inverse = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    coordinates = inverse * (np.swapaxes(u, -1, -2) @ targets[..., np.newaxis])[..., 0]
    solution = (np.swapaxes(vt, -1, -2) @ coordinates[..., np.newaxis])[..., 0]
    return solution, keep.sum(axis=-1)


def _solve(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Solve a stack of square systems, by least squares if one is singular."""
    try:
        return np.linalg.solve(matrices, vectors[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        return _lstsq(matrices, vectors, matrices.shape[-1])[0]


def _linear_predictor(model: _LinearModel, features: np.ndarray) -> np.ndarray:
    """Intercept plus standardized features times weights.

    A stacked model, with leading axes on every field, scores a checked
    (samples, n, d) feature stack, each sample under its own model.
    """
    if np.ndim(features) == 3:
        matrix = np.asarray(features, dtype=float)
    else:
        matrix = as_feature_matrix(features)
    design = (matrix - model.feature_means[..., np.newaxis, :]) / model.feature_scales[
        ..., np.newaxis, :
    ]
    return (
        np.asarray(model.intercept)[..., np.newaxis]
        + (design @ model.weights[..., np.newaxis])[..., 0]
    )


def logistic_loss_and_grad(
    params: np.ndarray,
    features: np.ndarray,
    treatments: np.ndarray,
    regularization: float,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean logistic log-loss with an L2 penalty on the non-intercept weights.

    ``params`` packs the intercept first.  Returns (loss, gradient), the
    pair Newton iterates on and the pair finite-difference checks probe.
    A stack of samples (params (R, d + 1), features (R, n, d), treatments
    (R, n)) gives one loss and one gradient per sample.
    """
    intercept, weights = params[..., :1], params[..., 1:]
    scores = intercept + (features @ weights[..., np.newaxis])[..., 0]
    # log(1 + exp(-s)) for y=1 and log(1 + exp(s)) for y=0, stably
    loss = np.mean(np.logaddexp(0.0, scores) - treatments * scores, axis=-1)
    loss = loss + 0.5 * regularization * np.sum(weights * weights, axis=-1)
    diff = expit(scores) - treatments
    slopes = (diff[..., np.newaxis, :] @ features)[..., 0, :] / np.shape(treatments)[-1]
    grad = np.concatenate(
        (diff.mean(axis=-1, keepdims=True), slopes + regularization * weights), axis=-1
    )
    return (float(loss) if np.ndim(loss) == 0 else loss), grad


@dataclass(eq=False)
class _LinearModel:
    """Weights and intercept in a feature space standardized by the stored statistics.

    A stacked fit has leading axes on every field.
    """

    weights: np.ndarray
    intercept: float | np.ndarray
    feature_means: np.ndarray
    feature_scales: np.ndarray


@dataclass(eq=False)
class PropensityModel(_LinearModel):
    """Logistic treatment model, one per sample of a stacked fit.

    Each sample has its own standardization.  ``stalled`` marks a fit
    whose line search failed; ``converged`` one whose gradient norm fell
    below the tolerance.
    """

    iterations: int | np.ndarray
    gradient_norm: float | np.ndarray
    stalled: bool | np.ndarray
    converged: bool | np.ndarray


@dataclass(eq=False)
class OutcomeModel(_LinearModel):
    """Linear outcome model of one arm; a stacked fit is indexed by arm, then sample.

    Predictions of a stacked fit on a (samples, n, d) feature stack have
    shape (2, samples, n) and unpack into q0 and q1.
    """


def _sample(model: _LinearModel, index: int | tuple[int, ...]) -> _LinearModel:
    """One fit of a stacked model, its scalar fields as Python scalars."""
    fields = {}
    for field in dataclasses.fields(model):
        value = getattr(model, field.name)[index]
        fields[field.name] = value.item() if np.ndim(value) == 0 else value
    return type(model)(**fields)


def fit_propensity_stack(
    features: np.ndarray,
    treatments: np.ndarray,
    regularization: float = DEFAULT_REGULARIZATION,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> PropensityModel:
    """Fit one treatment model per sample of a (samples, n, d) stack.

    Every sample runs its own damped Newton iteration and stops when its
    gradient norm drops below ``tol``.  The Hessians, gradients and steps
    of all samples still iterating are computed together, as stacked
    products and one stacked solve.  Each sample halves its own step
    until the Armijo condition holds; a sample whose line search finds no
    such step freezes at its last accepted parameters and is marked
    stalled.  A sample's fit does not depend on the other samples of its
    stack.
    """
    t = _check_treatments(treatments)
    matrix = np.asarray(features, dtype=float)
    if matrix.ndim != 3 or matrix.shape[:2] != t.shape:
        raise InferenceError(f"{matrix.shape[-2]} feature rows but {t.shape[-1]} treatments")
    if regularization < 0:
        raise InferenceError("regularization must be nonnegative")

    samples, n, d = matrix.shape
    design, means, scales = _standardize(matrix, np.ones((samples, n)))
    augmented = np.concatenate((np.ones((samples, n, 1)), design), axis=-1)
    penalty = np.diag(np.concatenate(([0.0], np.full(d, regularization))))
    params = np.zeros((samples, d + 1))
    loss, grad = logistic_loss_and_grad(params, design, t, regularization)
    grad_norm = np.linalg.norm(grad, axis=-1)
    iterations = np.zeros(samples, dtype=int)
    stalled = np.zeros(samples, dtype=bool)
    for _ in range(max_iters):
        active = np.flatnonzero(~stalled & (grad_norm >= tol))
        if not active.size:
            break
        x, g = _rows(augmented, active), grad[active]
        mu = expit((x @ params[active, :, np.newaxis])[..., 0])
        s = mu * (1.0 - mu)
        hessian = np.swapaxes(x * s[..., np.newaxis], -1, -2) @ x / n + penalty
        step = _solve(hessian, g)
        slope = np.sum(g * step, axis=-1)
        # halve each sample's step until its Armijo condition holds;
        # protects near-separable fits
        scale = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(60):
            rows = active[pending]
            candidate = params[rows] - scale[pending, np.newaxis] * step[pending]
            new_loss, new_grad = logistic_loss_and_grad(
                candidate, _rows(design, rows), _rows(t, rows), regularization
            )
            ok = new_loss <= loss[rows] - 1e-4 * scale[pending] * slope[pending]
            accepted = rows[ok]
            params[accepted] = candidate[ok]
            loss[accepted] = new_loss[ok]
            grad[accepted] = new_grad[ok]
            iterations[accepted] += 1
            pending = pending[~ok]
            if not pending.size:
                break
            scale[pending] *= 0.5
        stalled[active[pending]] = True
        grad_norm[active] = np.linalg.norm(grad[active], axis=-1)
    return PropensityModel(
        weights=params[:, 1:],
        intercept=params[:, 0],
        feature_means=means,
        feature_scales=scales,
        iterations=iterations,
        gradient_norm=grad_norm,
        stalled=stalled,
        converged=grad_norm < tol,
    )


def fit_propensity(
    features: np.ndarray,
    treatments: np.ndarray | Sequence[int],
    regularization: float = DEFAULT_REGULARIZATION,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> PropensityModel:
    """Fit the treatment model by damped Newton iteration.

    Returns sample 0 of ``fit_propensity_stack`` on a stack of one
    sample.  It converges when the gradient norm drops below ``tol``.
    The penalty keeps the Hessian positive definite, and a halving line
    search guards the occasional overshoot, so the fit is deterministic
    and never requires randomness.  If the line search finds no step that
    lowers the loss enough, the fit stops at the last accepted parameters
    and reports itself unconverged (``gradient_norm >= tol``).
    """
    matrix = as_feature_matrix(features)
    stack = fit_propensity_stack(
        matrix[np.newaxis],
        np.asarray(treatments)[np.newaxis],
        regularization=regularization,
        max_iters=max_iters,
        tol=tol,
    )
    model = _sample(stack, 0)
    if model.stalled:
        logger.warning(
            "propensity fit stopped after %d iterations: line search failed "
            "with gradient norm %.2e",
            model.iterations, model.gradient_norm,
        )
    elif not model.converged:
        logger.warning(
            "propensity fit stopped at iteration cap %d with gradient norm %.2e",
            max_iters, model.gradient_norm,
        )
    return model


def predict_propensity(
    model: PropensityModel,
    features: np.ndarray,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
) -> np.ndarray:
    """Treated probability per row, clipped into [clip_epsilon, 1 - clip_epsilon].

    A stacked model scores a (samples, n, d) feature stack and returns
    (samples, n) probabilities.
    """
    if not 0.0 <= clip_epsilon < 0.5:
        raise InferenceError(f"clip_epsilon must lie in [0, 0.5), got {clip_epsilon!r}")
    raw = expit(_linear_predictor(model, features))
    return np.clip(raw, clip_epsilon, 1.0 - clip_epsilon)


def predict_outcome(model: OutcomeModel, features: np.ndarray) -> np.ndarray:
    """Predicted outcome per row; a stacked model scores a feature stack for both arms."""
    return _linear_predictor(model, features)


def fit_outcome_stack(
    features: np.ndarray,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    ridge: float = 0.0,
) -> OutcomeModel:
    """Fit Q(Z, 0) and Q(Z, 1) by per-arm least squares on every sample of a stack.

    Each arm of each sample is standardized over its own rows; the rows
    of the other arm become zero rows of its design, so all samples and
    both arms solve as one stack.  With ridge > 0 the normal equations
    are solved directly.  With ridge == 0 a stacked SVD gives the
    least-squares solution with the rank cutoff of ``np.linalg.lstsq``,
    which leaves residuals orthogonal to the design; a rank-deficient arm
    raises with a suggestion to pass ridge > 0 instead of silently
    picking one of many solutions.
    """
    t = _check_treatments(treatments)
    y = np.asarray(outcomes, dtype=float)
    matrix = np.asarray(features, dtype=float)
    if y.shape != t.shape or matrix.ndim != 3 or matrix.shape[:2] != t.shape:
        raise InferenceError("features, treatments and outcomes must align")
    if not np.all(np.isfinite(y)):
        raise InferenceError("outcomes must be finite")
    if ridge < 0:
        raise InferenceError("ridge must be nonnegative")
    arms = np.stack((1.0 - t, t))
    design, means, scales = _standardize(matrix, arms)
    design = np.concatenate((arms[..., np.newaxis], design), axis=-1)
    p = design.shape[-1]
    targets = arms * y
    counts = arms.sum(axis=-1).astype(int)
    if ridge > 0:
        transposed = np.swapaxes(design, -1, -2)
        gram = transposed @ design + ridge * np.diag(np.concatenate(([0.0], np.ones(p - 1))))
        solution = np.linalg.solve(gram, transposed @ targets[..., np.newaxis])[..., 0]
    else:
        solution, rank = _lstsq(design, targets, counts)
        # report the first deficient arm in (sample, arm) order
        deficient = np.argwhere((rank < p).T)
        if deficient.size:
            sample, arm = deficient[0]
            raise InferenceError(
                f"outcome design for arm {arm} is rank deficient "
                f"({counts[arm, sample]} units, rank {rank[arm, sample]} of {p}); "
                "pass ridge > 0 to regularize"
            )
    return OutcomeModel(
        weights=solution[..., 1:],
        intercept=solution[..., 0],
        feature_means=means,
        feature_scales=scales,
    )


def fit_outcome_models(
    features: np.ndarray,
    treatments: np.ndarray | Sequence[int],
    outcomes: np.ndarray | Sequence[float],
    ridge: float = 0.0,
) -> tuple[OutcomeModel, OutcomeModel]:
    """Fit Q(Z, 0) and Q(Z, 1) by per-arm least squares.

    Returns arm 0 and arm 1 of sample 0 of ``fit_outcome_stack`` on a
    stack of one sample.
    """
    matrix = as_feature_matrix(features)
    stack = fit_outcome_stack(
        matrix[np.newaxis],
        np.asarray(treatments)[np.newaxis],
        np.asarray(outcomes, dtype=float)[np.newaxis],
        ridge=ridge,
    )
    return _sample(stack, (0, 0)), _sample(stack, (1, 0))


def f1_score(truth: np.ndarray, predictions: np.ndarray) -> float:
    """F1 of the positive class; 0.0 when there is no positive truth or prediction."""
    truth = np.asarray(truth)
    predictions = np.asarray(predictions)
    tp = float(np.sum((truth == 1) & (predictions == 1)))
    fp = float(np.sum((truth == 0) & (predictions == 1)))
    fn = float(np.sum((truth == 1) & (predictions == 0)))
    denominator = 2 * tp + fp + fn
    return 2 * tp / denominator if denominator > 0 else 0.0


@dataclass(eq=False)
class CvReport:
    """Cross-validated nuisance diagnostics for one reply type and variant."""

    fold_count: int
    rmse_q1: tuple[float, ...]
    rmse_q0: tuple[float, ...]
    f1: tuple[float, ...]
    skipped_folds: tuple[str, ...] = ()
    reply_type: str | None = None
    variant: str | None = None
    category_type: str | None = None

    @property
    def mean_rmse_q1(self) -> float:
        return float(np.mean(self.rmse_q1))

    @property
    def mean_rmse_q0(self) -> float:
        return float(np.mean(self.rmse_q0))

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.f1))


def cross_validate(
    features: np.ndarray,
    treatments: np.ndarray | Sequence[int],
    outcomes: np.ndarray | Sequence[float],
    folds: int = 5,
    seed: int = 0,
    regularization: float = DEFAULT_REGULARIZATION,
    ridge: float = 0.0,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
    reply_type: str | None = None,
    variant: str | None = None,
    category_type: str | None = None,
) -> CvReport:
    """Seeded k-fold diagnostics for both nuisance models.

    Folds are a random partition from the seed.  Per fold, the propensity
    model's F1 (threshold 0.5) and each arm's held-out RMSE are recorded.
    A fold whose training or test split lacks an arm is skipped, and its
    reason goes to ``skipped_folds`` (it is not logged); if every fold is
    skipped, the split is unusable and that is an error.
    """
    matrix = as_feature_matrix(features)
    t = np.asarray(treatments)
    y = np.asarray(outcomes, dtype=float)
    n = matrix.shape[0]
    if not isinstance(folds, int) or folds < 2:
        raise InferenceError(f"folds must be an integer >= 2, got {folds!r}")
    if folds > n:
        raise InferenceError(f"cannot split {n} units into {folds} folds")

    rng = np.random.default_rng(seed)
    assignment = np.array_split(rng.permutation(n), folds)

    rmse_q1: list[float] = []
    rmse_q0: list[float] = []
    f1s: list[float] = []
    skipped: list[str] = []
    for fold_index, test_idx in enumerate(assignment):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        t_train, t_test = t[train_idx], t[test_idx]
        if len(np.unique(t_train)) < 2:
            skipped.append(f"fold {fold_index}: training split lacks a treatment arm")
            continue
        if len(np.unique(t_test)) < 2:
            skipped.append(f"fold {fold_index}: test split lacks a treatment arm")
            continue
        propensity = fit_propensity(matrix[train_idx], t_train, regularization=regularization)
        scores = predict_propensity(propensity, matrix[test_idx], clip_epsilon=clip_epsilon)
        f1s.append(f1_score(t_test, (scores >= 0.5).astype(int)))
        model0, model1 = fit_outcome_models(
            matrix[train_idx], t_train, y[train_idx], ridge=ridge
        )
        for arm, model, sink in ((0, model0, rmse_q0), (1, model1, rmse_q1)):
            mask = t_test == arm
            predicted = predict_outcome(model, matrix[test_idx][mask])
            sink.append(float(np.sqrt(np.mean((y[test_idx][mask] - predicted) ** 2))))
    if not f1s:
        raise InferenceError(
            "every fold was skipped: " + "; ".join(skipped) if skipped else "no folds ran"
        )
    return CvReport(
        fold_count=len(f1s),
        rmse_q1=tuple(rmse_q1),
        rmse_q0=tuple(rmse_q0),
        f1=tuple(f1s),
        skipped_folds=tuple(skipped),
        reply_type=reply_type,
        variant=variant,
        category_type=category_type,
    )
