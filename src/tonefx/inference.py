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

Every nuisance fit runs through two private cores that work on a
stack of samples at once, shape (samples, n, d): ``_fit_propensity``
and ``_fit_outcome`` run one Newton iteration and one least-squares
solve for every sample of the stack, with stacked matrix products and
solves, and each sample's fit is the one it would get alone.  They
return the public model types with a leading sample axis on every field
(arm, then sample, for outcomes), and every stack-sized intermediate
lives in the flat buffers of one working set (``_workspace``).
``fit_propensity`` and ``fit_outcome_models`` fit a stack of one in a
working set of their own.  Cross-validation checks its input once and
fits its folds as one stack per training size, each in one working
set; a cell's bootstrap pass refits its full sample, as row 0, and its
resamples in whole stacks, all in one working set per pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import numbers
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


def _is_integer(value: object) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _workspace(count: int, samples: int, n: int, d: int) -> np.ndarray:
    """``count`` flat float buffers for the stacked fits of a (samples, n, d) stack.

    Each buffer holds one (samples, n, d + 1) stack, or, when that is the
    larger, the (samples, d + 1, d + 1) Hessians with the x * s products
    of one sample beside them.
    """
    p = d + 1
    return np.empty((count, max(samples * n * p, samples * p * p + n * p)))


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous array of the given shape on the leading elements of a flat buffer."""
    return buffer[: math.prod(shape)].reshape(shape)


def _standardize(
    matrix: np.ndarray, rows: np.ndarray | None, out: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize every sample of a C-contiguous (samples, n, d) stack over its marked rows.

    ``rows`` (samples, n) holds 1.0 for the rows that count and 0.0 for
    the rest, which come out as zero rows; ``None`` counts every row, with
    the bits of a mask of ones.  Constant columns get scale 1.  The
    standardized stack is written to ``out``; ``scratch``, of the same
    shape, takes the products on the way.  Returns ``out`` with the means
    and scales it used.
    """
    if rows is None:
        count = matrix.shape[-2]
        means = matrix.sum(axis=-2) / count
        deviations = np.subtract(matrix, means[..., np.newaxis, :], out=out)
    else:
        weight = rows[..., np.newaxis]
        count = rows.sum(axis=-1)[..., np.newaxis]
        means = np.multiply(matrix, weight, out=scratch).sum(axis=-2) / count
        deviations = np.subtract(matrix, means[..., np.newaxis, :], out=out)
        deviations *= weight
    scales = np.sqrt(np.multiply(deviations, deviations, out=scratch).sum(axis=-2) / count)
    scales = np.where(scales < 1e-12, 1.0, scales)
    deviations /= scales[..., np.newaxis, :]
    return deviations, means, scales


def _check_treatments(
    treatments: np.ndarray | Sequence[int], both_arms: bool = True
) -> np.ndarray:
    """A flat vector of 0/1 treatments as floats, with both arms unless ``both_arms`` is false."""
    t = np.asarray(treatments)
    if t.ndim != 1 or not np.all((t == 0) | (t == 1)):
        raise InferenceError("treatments must be a flat 0/1 vector")
    if both_arms and t.min() == t.max():
        raise InferenceError("all units share one treatment arm; need both arms to fit")
    return t.astype(float, copy=False)


def _rows(stack: np.ndarray, rows: np.ndarray, buffer: np.ndarray | None = None) -> np.ndarray:
    """The given samples of a stack, without a copy when that is all of them.

    A copy goes to the leading elements of the flat ``buffer`` when one
    is given.
    """
    if rows.size == stack.shape[0]:
        return stack
    if buffer is None:
        return stack[rows]
    # the rows come from flatnonzero, so clipping never moves one
    out = _view(buffer, rows.size, *stack.shape[1:])
    return np.take(stack, rows, axis=0, out=out, mode="clip")


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


def _ridge_solve(
    design: np.ndarray, targets: np.ndarray, penalty: np.ndarray, buffer: np.ndarray
) -> np.ndarray:
    """Ridge solutions of a stack of least-squares systems, from their normal equations.

    The Gram matrices go to the leading elements of the flat ``buffer``.
    """
    samples, _, p = design.shape
    transposed = np.swapaxes(design, -1, -2)
    gram = np.matmul(transposed, design, out=_view(buffer, samples, p, p))
    gram += penalty
    return np.linalg.solve(gram, transposed @ targets[..., np.newaxis])[..., 0]


def _solve(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Solve a stack of square systems, by least squares if one is singular."""
    try:
        return np.linalg.solve(matrices, vectors[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError:
        return _lstsq(matrices, vectors, matrices.shape[-1])[0]


def _linear_predictor(
    model: _LinearModel, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Intercept plus standardized features times weights.

    A stacked model, with leading axes on every field, scores a checked
    (samples, n, d) feature stack, each sample under its own model.  The
    standardized features go to ``out`` when it is given.
    """
    if np.ndim(features) == 3:
        matrix = np.asarray(features, dtype=float)
    else:
        matrix = as_feature_matrix(features)
    design = np.subtract(matrix, model.feature_means[..., np.newaxis, :], out=out)
    design /= model.feature_scales[..., np.newaxis, :]
    return _scores(model, design)


def _scores(model: _LinearModel, design: np.ndarray) -> np.ndarray:
    """Intercept plus already standardized features times weights."""
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


def _check_penalty(name: str, value: float) -> None:
    """Reject a penalty weight that is negative, NaN or infinite."""
    if not 0 <= value < math.inf:
        raise InferenceError(f"{name} must be finite and nonnegative, got {value!r}")


def _propensity_input(
    features: np.ndarray | Sequence[Sequence[float]],
    treatments: np.ndarray | Sequence[int],
    regularization: float,
    both_arms: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The checked (n, d) features and float treatments of a propensity fit.

    The features come back C-contiguous, the layout ``_standardize`` sums.
    """
    matrix = np.ascontiguousarray(as_feature_matrix(features))
    t = _check_treatments(treatments, both_arms)
    if t.shape[0] != matrix.shape[0]:
        raise InferenceError(f"{matrix.shape[0]} feature rows but {t.shape[0]} treatments")
    _check_penalty("regularization", regularization)
    return matrix, t


def _fit_propensity(
    matrix: np.ndarray,
    t: np.ndarray,
    regularization: float,
    max_iters: int,
    tol: float,
    design_buffer: np.ndarray,
    augmented_buffer: np.ndarray,
    product_buffer: np.ndarray,
) -> tuple[PropensityModel, np.ndarray]:
    """Fit one treatment model per sample of a checked (samples, n, d) stack.

    Every sample runs its own damped Newton iteration and stops when its
    gradient norm drops below ``tol``.  The Hessians, gradients and steps
    of all samples still iterating are computed together, as stacked
    products and one stacked solve.  Each sample halves its own step
    until the Armijo condition holds; a sample whose line search finds no
    such step freezes at its last accepted parameters and is marked
    stalled.  A sample's fit does not depend on the other samples of its
    stack.

    The fit runs in the three buffers of a ``_workspace``.  Returns the
    model and the standardized design, a view of ``design_buffer``.
    ``augmented_buffer`` holds the design with a leading column of ones,
    and keeps only the rows of the samples still iterating.
    ``product_buffer`` takes the Hessian's x * s products and the design
    rows of a line search, and is first written after the design is
    built, so ``matrix`` may lie in it.
    """
    samples, n, d = matrix.shape
    design, means, scales = _standardize(
        matrix,
        None,
        _view(design_buffer, samples, n, d),
        _view(augmented_buffer, samples, n, d),
    )
    augmented = _view(augmented_buffer, samples, n, d + 1)
    augmented[..., 0] = 1.0
    augmented[..., 1:] = design
    penalty = np.diag(np.concatenate(([0.0], np.full(d, regularization))))
    params = np.zeros((samples, d + 1))
    loss, grad = logistic_loss_and_grad(params, design, t, regularization)
    grad_norm = np.linalg.norm(grad, axis=-1)
    iterations = np.zeros(samples, dtype=int)
    stalled = np.zeros(samples, dtype=bool)
    held = np.arange(samples)  # the samples whose rows ``augmented`` holds, in order
    for _ in range(max_iters):
        active = np.flatnonzero(~stalled & (grad_norm >= tol))
        if not active.size:
            break
        if active.size < held.size:
            # a sample never resumes, so its rows are dropped by moving
            # later rows up, each to a place already read
            for row, source in enumerate(np.searchsorted(held, active)):
                if row != source:
                    augmented[row] = augmented[source]
            held, augmented = active, augmented[: active.size]
        x, g = augmented, grad[active]
        mu = expit((x @ params[active, :, np.newaxis])[..., 0])
        s = np.multiply(mu, 1.0 - mu, out=mu)
        step = _solve(_hessian(x, s, penalty, product_buffer), g)
        slope = np.sum(g * step, axis=-1)
        # halve each sample's step until its Armijo condition holds;
        # protects near-separable fits
        scale = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(60):
            rows = active[pending]
            candidate = params[rows] - scale[pending, np.newaxis] * step[pending]
            new_loss, new_grad = logistic_loss_and_grad(
                candidate, _rows(design, rows, product_buffer), _rows(t, rows), regularization
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
    ), design


def _hessian(
    x: np.ndarray, s: np.ndarray, penalty: np.ndarray, buffer: np.ndarray
) -> np.ndarray:
    """The penalized mean log-loss Hessians of a (samples, n, d + 1) design stack.

    ``s`` (samples, n) holds each row's mu * (1 - mu).  The Hessians take
    the tail of the flat ``buffer`` (see ``_workspace``) and the products
    x * s its head, for as many samples at a time as fit there.
    """
    samples, n, p = x.shape
    hessian = _view(buffer[buffer.size - samples * p * p :], samples, p, p)
    block = (buffer.size - hessian.size) // (n * p)
    for start in range(0, samples, block):
        rows = slice(start, start + block)
        weighted = np.multiply(
            x[rows], s[rows, :, np.newaxis], out=_view(buffer, *x[rows].shape)
        )
        np.matmul(np.swapaxes(weighted, -1, -2), x[rows], out=hessian[rows])
    hessian /= n
    hessian += penalty
    return hessian


def fit_propensity(
    features: np.ndarray,
    treatments: np.ndarray | Sequence[int],
    regularization: float = DEFAULT_REGULARIZATION,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> PropensityModel:
    """Fit the treatment model by damped Newton iteration.

    Returns sample 0 of ``_fit_propensity`` on a stack of one sample.
    It converges when the gradient norm drops below ``tol``.
    The penalty keeps the Hessian positive definite, and a halving line
    search guards the occasional overshoot, so the fit is deterministic
    and never requires randomness.  If the line search finds no step that
    lowers the loss enough, the fit stops at the last accepted parameters
    and reports itself unconverged (``gradient_norm >= tol``).
    """
    matrix, t = _propensity_input(features, treatments, regularization)
    work = _workspace(3, 1, *matrix.shape)
    stack, _ = _fit_propensity(
        matrix[np.newaxis], t[np.newaxis], regularization, max_iters, tol, *work
    )
    model = _sample(stack, 0)
    _log_unconverged(model)
    return model


def _log_unconverged(model: PropensityModel) -> None:
    """Log why one sample's propensity fit ended unconverged, if it did.

    A fit that never stalled accepted a step at every iteration, so an
    unconverged one stopped at the iteration cap, after ``iterations``
    steps.
    """
    if model.stalled:
        logger.warning(
            "propensity fit stopped after %d iterations: line search failed "
            "with gradient norm %.2e",
            model.iterations, model.gradient_norm,
        )
    elif not model.converged:
        logger.warning(
            "propensity fit stopped at iteration cap %d with gradient norm %.2e",
            model.iterations, model.gradient_norm,
        )


def predict_propensity(
    model: PropensityModel,
    features: np.ndarray,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
) -> np.ndarray:
    """Treated probability per row, clipped into [clip_epsilon, 1 - clip_epsilon].

    A stacked model scores a (samples, n, d) feature stack and returns
    (samples, n) probabilities.
    """
    _check_clip_epsilon(clip_epsilon)
    return _probabilities(_linear_predictor(model, features), clip_epsilon)


def _check_clip_epsilon(clip_epsilon: float) -> None:
    if not 0.0 <= clip_epsilon < 0.5:
        raise InferenceError(f"clip_epsilon must lie in [0, 0.5), got {clip_epsilon!r}")


def _probabilities(scores: np.ndarray, clip_epsilon: float) -> np.ndarray:
    """Treated probabilities of linear scores, clipped away from 0 and 1."""
    return np.clip(expit(scores), clip_epsilon, 1.0 - clip_epsilon)


def predict_outcome(model: OutcomeModel, features: np.ndarray) -> np.ndarray:
    """Predicted outcome per row; a stacked model scores a feature stack for both arms."""
    return _linear_predictor(model, features)


def _outcome_input(
    matrix: np.ndarray, t: np.ndarray, outcomes: np.ndarray | Sequence[float], ridge: float
) -> np.ndarray:
    """The checked outcomes of an outcome fit on checked (n, d) features and treatments."""
    y = np.asarray(outcomes, dtype=float)
    if y.shape != t.shape or matrix.shape[0] != t.shape[0]:
        raise InferenceError("features, treatments and outcomes must align")
    if not np.all(np.isfinite(y)):
        raise InferenceError("outcomes must be finite")
    _check_penalty("ridge", ridge)
    return y


def _fit_outcome(
    matrix: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    ridge: float,
    design_buffer: np.ndarray,
    scratch_buffer: np.ndarray,
) -> OutcomeModel:
    """Fit Q(Z, 0) and Q(Z, 1) by per-arm least squares on every sample of a checked stack.

    Each arm of each sample is standardized over its own rows; the rows
    of the other arm become zero rows of its design, so all samples and
    both arms solve as one stack.  With ridge > 0 the normal equations
    are solved directly.  With ridge == 0 a stacked SVD gives the
    least-squares solution with the rank cutoff of ``np.linalg.lstsq``,
    which leaves residuals orthogonal to the design; a rank-deficient arm
    raises with a suggestion to pass ridge > 0 instead of silently
    picking one of many solutions, the first such arm in (sample, arm)
    order.

    The fit runs in two buffers of a ``_workspace``.  The arms are fit
    one after the other, each arm's design built in ``design_buffer``;
    ``scratch_buffer`` takes its standardized features and then its Gram
    matrices.
    """
    samples, n, d = matrix.shape
    p = d + 1
    arms = np.stack((1.0 - t, t))
    targets = arms * y
    counts = arms.sum(axis=-1).astype(int)
    penalty = ridge * np.diag(np.concatenate(([0.0], np.ones(p - 1))))
    fits, ranks = [], []
    for arm, target, count in zip(arms, targets, counts):
        standardized, means, scales = _standardize(
            matrix, arm, _view(scratch_buffer, samples, n, d), _view(design_buffer, samples, n, d)
        )
        design = _view(design_buffer, samples, n, p)
        design[..., 0] = arm
        design[..., 1:] = standardized
        if ridge > 0:
            solution = _ridge_solve(design, target, penalty, scratch_buffer)
        else:
            solution, rank = _lstsq(design, target, count)
            ranks.append(rank)
        fits.append((solution, means, scales))
    solution, means, scales = (np.stack(field) for field in zip(*fits))
    if ranks:
        rank = np.stack(ranks)
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


def _check_cell(
    features: np.ndarray | Sequence[Sequence[float]],
    treatments: np.ndarray | Sequence[int],
    outcomes: np.ndarray | Sequence[float],
    regularization: float,
    ridge: float,
    clip_epsilon: float,
    both_arms: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked (n, d) features, float treatments and outcomes of one cell.

    Runs, once, the checks that ``fit_propensity``, ``fit_outcome_models``
    and ``predict_propensity`` make on a full sample: the feature matrix
    and the propensity input, the outcome input, then ``clip_epsilon``,
    with their exceptions and messages.  Without ``both_arms`` the
    treatments may all share one arm.
    """
    matrix, t = _propensity_input(features, treatments, regularization, both_arms)
    y = _outcome_input(matrix, t, outcomes, ridge)
    _check_clip_epsilon(clip_epsilon)
    return matrix, t, y


def _check_settings(regularization: float, ridge: float, clip_epsilon: float) -> None:
    """Reject the fit settings that a cell's input checks reject."""
    _check_penalty("regularization", regularization)
    _check_clip_epsilon(clip_epsilon)
    _check_penalty("ridge", ridge)


def _refit_resamples(
    features: np.ndarray,
    index: np.ndarray,
    treatments: np.ndarray,
    outcomes: np.ndarray,
    regularization: float,
    ridge: float,
    clip_epsilon: float,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, PropensityModel]:
    """Refit both nuisance models on a stack of resamples and score the resamples.

    ``index`` (samples, n) picks the rows of the (units, d) ``features``
    that form each resample, whose float treatments and outcomes are
    given.  A row ``np.arange(units)`` is the full sample, whose fit the
    other samples of the stack do not change: ``estimate_cell`` makes it
    row 0 of a cell's first chunk, ahead of the resamples (61 rows for a
    60-replicate cell at d = 28, one chunk), and without refitting the
    pass is that row alone, whose values the replicates reuse.  The
    caller has checked the cell (see ``_check_cell``) and the settings,
    and every resample holds both arms, so nothing is checked again
    here.  Returns the clipped treated probabilities, q0 and q1, each of
    shape (samples, n), and the stacked propensity model, whose
    iterations, gradient norms, stalled and converged flags say how each
    fit ended.  Each sample's fits equal ``fit_propensity`` and
    ``fit_outcome_models`` on its rows of ``features``, and its scores
    ``predict_propensity`` and ``predict_outcome``, but the fits run in
    ``work``, from ``_workspace(3, samples, n, d)`` or a larger one.  The
    resampled features go to its first buffer, which ``_fit_outcome`` and
    the predictions read and ``_fit_propensity`` then overwrites.
    """
    samples, n = index.shape
    # the resamples draw their rows from range(units), so clipping never moves one
    z = np.take(
        features, index, axis=0, out=_view(work[0], samples, n, features.shape[1]), mode="clip"
    )
    q0, q1 = _outcome_predictions(z, treatments, outcomes, ridge, work)
    propensity, design = _fit_propensity(
        z, treatments, regularization, 100, 1e-8, work[1], work[2], work[0]
    )
    p = _probabilities(_scores(propensity, design), clip_epsilon)
    return p, q0, q1, propensity


def _outcome_predictions(
    z: np.ndarray, t: np.ndarray, y: np.ndarray, ridge: float, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """q0 and q1 of an outcome fit on a stack, scored on that stack, in ``work[1:]``.

    The models go out of scope on return, before the propensity fit's
    memory peak.
    """
    model = _fit_outcome(z, t, y, ridge, work[1], work[2])
    q0, q1 = (
        _linear_predictor(_sample(model, arm), z, out=_view(work[1], *z.shape))
        for arm in (0, 1)
    )
    return q0, q1


def fit_outcome_models(
    features: np.ndarray,
    treatments: np.ndarray | Sequence[int],
    outcomes: np.ndarray | Sequence[float],
    ridge: float = 0.0,
) -> tuple[OutcomeModel, OutcomeModel]:
    """Fit Q(Z, 0) and Q(Z, 1) by per-arm least squares.

    Returns arm 0 and arm 1 of sample 0 of ``_fit_outcome`` on a stack of
    one sample (see there for ridge 0 and rank deficiency).
    """
    matrix = as_feature_matrix(features)
    t = _check_treatments(treatments)
    y = _outcome_input(matrix, t, outcomes, ridge)
    work = _workspace(2, 1, *matrix.shape)
    stack = _fit_outcome(matrix[np.newaxis], t[np.newaxis], y[np.newaxis], ridge, *work)
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

    The features, treatments, outcomes and fit settings are checked
    once, as ``estimate_cell`` checks a cell, except that the treatments
    may share one arm.  The folds that run are fit as one stack per
    training size, in one working set, outcomes first as a cell's refit
    pass fits them, and each fold's fits are the ones
    ``fit_outcome_models`` and ``fit_propensity`` give it alone; each
    fold is scored on its held-out rows.  ``np.array_split`` gives at
    most two sizes, the smaller one to the first folds, so the
    unconverged-fit warnings and the first rank-deficiency error come in
    fold order.  ``folds`` and ``seed`` are integers, Python's or
    numpy's, and ``seed`` is nonnegative.
    """
    matrix, t, y = _check_cell(
        features, treatments, outcomes, regularization, ridge, clip_epsilon, both_arms=False
    )
    n, d = matrix.shape
    for name, value in (("folds", folds), ("seed", seed)):
        if not _is_integer(value):
            raise InferenceError(f"{name} must be an integer, got {value!r}")
    if folds < 2:
        raise InferenceError(f"folds must be an integer >= 2, got {folds!r}")
    if seed < 0:
        raise InferenceError(f"seed must be nonnegative, got {seed}")
    if folds > n:
        raise InferenceError(f"cannot split {n} units into {folds} folds")

    rng = np.random.default_rng(seed)
    assignment = np.array_split(rng.permutation(n), folds)

    # (training units, test units) of each fold that runs, in fold order
    usable: list[tuple[np.ndarray, np.ndarray]] = []
    skipped: list[str] = []
    for fold_index, test_idx in enumerate(assignment):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        if len(np.unique(t[train_idx])) < 2:
            skipped.append(f"fold {fold_index}: training split lacks a treatment arm")
        elif len(np.unique(t[test_idx])) < 2:
            skipped.append(f"fold {fold_index}: test split lacks a treatment arm")
        else:
            usable.append((train_idx, test_idx))

    rmse_q1: list[float] = []
    rmse_q0: list[float] = []
    f1s: list[float] = []
    for _, same_size in itertools.groupby(usable, key=lambda fold: fold[0].size):
        group = list(same_size)
        train = np.stack([train_idx for train_idx, _ in group])
        work = _workspace(3, *train.shape, d)
        # the training units come from range(n), so clipping never moves one
        z = np.take(matrix, train, axis=0, out=_view(work[0], *train.shape, d), mode="clip")
        t_train = t[train]
        outcome = _fit_outcome(z, t_train, y[train], ridge, work[1], work[2])
        propensity, _ = _fit_propensity(
            z, t_train, regularization, 100, 1e-8, work[1], work[2], work[0]
        )
        for i, (_, test_idx) in enumerate(group):
            model = _sample(propensity, i)
            _log_unconverged(model)
            test, t_test, y_test = matrix[test_idx], t[test_idx], y[test_idx]
            scores = _probabilities(_linear_predictor(model, test), clip_epsilon)
            f1s.append(f1_score(t_test, (scores >= 0.5).astype(int)))
            for arm, sink in ((0, rmse_q0), (1, rmse_q1)):
                mask = t_test == arm
                predicted = _linear_predictor(_sample(outcome, (arm, i)), test[mask])
                sink.append(float(np.sqrt(np.mean((y_test[mask] - predicted) ** 2))))
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
