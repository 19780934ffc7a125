"""Point estimators, their algebraic identities, and the bootstrap."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from tonefx import estimators, inference
from tonefx.estimators import (
    AipwVariant,
    AteEstimate,
    EstimationError,
    EstimationInput,
    Estimator,
    ate_aipw,
    ate_ipw,
    ate_q,
    ate_unadjusted,
    bootstrap_se,
    build_estimation_input,
    estimate_cell,
    point_estimate,
)
from tonefx.harness import pipeline
from tonefx.harness.config import PipelineConfig
from tonefx.inference import (
    DEFAULT_CLIP_EPSILON,
    DEFAULT_REGULARIZATION,
    InferenceError,
    fit_outcome_models,
    fit_propensity,
    predict_outcome,
    predict_propensity,
)

from conftest import skip_odd_first_unit, stall_line_search


def _saturated() -> EstimationInput:
    """Four units whose outcome models are exactly right and p is known.

    Every estimator agrees here: the arm means under q are (q1, q0) =
    ((1+1+3+3)/4, (0+0+1+1)/4) = (2.0, 0.5), difference 1.5, and the
    weighting corrections all cancel.
    """
    return EstimationInput(
        treatments=np.array([1, 0, 1, 0]),
        outcomes=np.array([1.0, 0.0, 3.0, 1.0]),
        propensity=np.full(4, 0.5),
        q0=np.array([0.0, 0.0, 1.0, 1.0]),
        q1=np.array([1.0, 1.0, 3.0, 3.0]),
    )


def _random_input(seed=0, n=200) -> EstimationInput:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 2))
    treatments = rng.binomial(1, expit(features @ np.array([0.7, -0.7])))
    if treatments.min() == treatments.max():
        treatments[0] = 1 - treatments[0]
    outcomes = treatments + features[:, 0] + rng.normal(size=n)
    propensity = np.clip(expit(features @ np.array([0.7, -0.7])), 0.01, 0.99)
    q1 = 1.0 + features[:, 0]
    q0 = features[:, 0] + rng.normal(scale=0.2, size=n)
    return EstimationInput(
        treatments=treatments, outcomes=outcomes, propensity=propensity,
        q0=q0, q1=q1, features=features,
    )


# ----------------------------------------------------------------- oracle


def test_all_estimators_agree_on_saturated_data():
    data = _saturated()
    for fn in (ate_unadjusted, ate_q, ate_ipw):
        assert fn(data) == pytest.approx(1.5, abs=1e-10)
    for variant in AipwVariant:
        assert ate_aipw(data, variant) == pytest.approx(1.5, abs=1e-10)


def test_point_estimate_dispatch():
    data = _saturated()
    for estimator in Estimator:
        assert point_estimate(data, estimator) == pytest.approx(1.5, abs=1e-10)
    assert point_estimate(data, "ipw") == pytest.approx(1.5, abs=1e-10)


# ------------------------------------------------------------- identities


def test_aipw_plain_reduces_to_ipw_when_q_is_zero():
    data = _random_input(1)
    zeroed = dataclasses.replace(data, q0=np.zeros(data.n), q1=np.zeros(data.n))
    assert ate_aipw(zeroed, AipwVariant.PLAIN) == pytest.approx(
        ate_ipw(zeroed), abs=1e-12
    )


def test_aipw_reduces_to_q_when_residuals_vanish():
    data = _random_input(2)
    q1 = data.outcomes.copy()
    q0 = data.outcomes.copy()
    # each arm's model predicts its own observed outcomes exactly
    exact = dataclasses.replace(data, q0=q0, q1=q1)
    for variant in AipwVariant:
        assert ate_aipw(exact, variant) == pytest.approx(ate_q(exact), abs=1e-12)


def test_ipw_reduces_to_unadjusted_at_constant_propensity():
    data = _random_input(3)
    share = data.treatments.mean()
    flat = dataclasses.replace(data, propensity=np.full(data.n, share))
    assert ate_ipw(flat) == pytest.approx(ate_unadjusted(flat), abs=1e-12)


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), finite)
def test_shift_invariance_of_outcome_anchored_estimators(seed, shift):
    # a location shift of Y and both q arms cancels in every contrast the
    # stabilized forms take; the plain IPW terms do not share this property
    data = _random_input(seed, n=60)
    moved = dataclasses.replace(
        data,
        outcomes=data.outcomes + shift,
        q0=data.q0 + shift,
        q1=data.q1 + shift,
    )
    assert ate_unadjusted(moved) == pytest.approx(ate_unadjusted(data), abs=1e-9)
    assert ate_q(moved) == pytest.approx(ate_q(data), abs=1e-9)
    assert ate_aipw(moved, AipwVariant.STABILIZED) == pytest.approx(
        ate_aipw(data, AipwVariant.STABILIZED), abs=1e-9
    )


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.floats(min_value=-4.0, max_value=4.0))
def test_scale_equivariance_of_all_estimators(seed, scale):
    data = _random_input(seed, n=60)
    scaled = dataclasses.replace(
        data,
        outcomes=data.outcomes * scale,
        q0=data.q0 * scale,
        q1=data.q1 * scale,
    )
    assert ate_unadjusted(scaled) == pytest.approx(scale * ate_unadjusted(data), abs=1e-8)
    assert ate_q(scaled) == pytest.approx(scale * ate_q(data), abs=1e-8)
    assert ate_ipw(scaled) == pytest.approx(scale * ate_ipw(data), abs=1e-8)
    for variant in AipwVariant:
        assert ate_aipw(scaled, variant) == pytest.approx(
            scale * ate_aipw(data, variant), abs=1e-8
        )


# --------------------------------------------------------------- validity


def test_estimation_input_validation():
    base = _saturated()
    with pytest.raises(EstimationError, match="arm"):
        EstimationInput(
            treatments=np.ones(4, dtype=int), outcomes=base.outcomes,
            propensity=base.propensity, q0=base.q0, q1=base.q1,
        )
    with pytest.raises(EstimationError, match="0/1"):
        EstimationInput(
            treatments=np.array([0, 1, 2, 1]), outcomes=base.outcomes,
            propensity=base.propensity, q0=base.q0, q1=base.q1,
        )
    with pytest.raises(EstimationError, match=r"\(0, 1\)"):
        EstimationInput(
            treatments=base.treatments, outcomes=base.outcomes,
            propensity=np.array([0.5, 1.0, 0.5, 0.5]), q0=base.q0, q1=base.q1,
        )
    with pytest.raises(EstimationError, match="finite"):
        EstimationInput(
            treatments=base.treatments,
            outcomes=np.array([1.0, np.nan, 3.0, 1.0]),
            propensity=base.propensity, q0=base.q0, q1=base.q1,
        )
    with pytest.raises(EstimationError, match=r"shape \(4,\)"):
        EstimationInput(
            treatments=base.treatments, outcomes=base.outcomes[:3],
            propensity=base.propensity, q0=base.q0, q1=base.q1,
        )


_NO_UNITS = np.ones((3, 2)), [], []
_ROWS = "3 feature rows but 0 treatments"


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: fit_propensity(*_NO_UNITS[:2]), InferenceError, _ROWS),
        (lambda: fit_outcome_models(*_NO_UNITS), InferenceError, "must align"),
        (lambda: build_estimation_input(*_NO_UNITS), InferenceError, _ROWS),
        (lambda: estimate_cell(*_NO_UNITS), InferenceError, _ROWS),
        (lambda: EstimationInput([], [], [], [], []), EstimationError, "no units"),
    ],
    ids=["fit_propensity", "fit_outcome_models", "build_estimation_input", "estimate_cell",
         "EstimationInput"],
)
def test_entry_points_name_zero_units(call, error, match):
    # an empty treatment vector once escaped as numpy's "zero-size array" error
    with pytest.raises(error, match=match):
        call()


def test_build_estimation_input_wires_nuisances():
    rng = np.random.default_rng(0)
    n = 400
    features = rng.normal(size=(n, 2))
    treatments = rng.binomial(1, expit(features[:, 0]))
    outcomes = 2.0 * treatments + features.sum(axis=1) + rng.normal(size=n)
    data = build_estimation_input(features, treatments, outcomes, clip_epsilon=0.02)
    assert data.n == n
    assert data.features is not None
    assert data.propensity.min() >= 0.02 and data.propensity.max() <= 0.98
    assert ate_aipw(data) == pytest.approx(2.0, abs=0.3)


# -------------------------------------------------------------- bootstrap


def test_bootstrap_is_deterministic_in_seed():
    data = _random_input(5)
    a = bootstrap_se(data, Estimator.Q, replicates=50, seed=3)
    b = bootstrap_se(data, Estimator.Q, replicates=50, seed=3)
    np.testing.assert_array_equal(a.estimates[Estimator.Q], b.estimates[Estimator.Q])
    assert a.standard_error == b.standard_error
    c = bootstrap_se(data, Estimator.Q, replicates=50, seed=4)
    assert a.standard_error != c.standard_error


def test_bootstrap_refit_requires_features():
    data = _random_input(6)
    stripped = dataclasses.replace(data, features=None)
    with pytest.raises(EstimationError, match="refit=False"):
        bootstrap_se(stripped, Estimator.AIPW, replicates=10, seed=0, refit=True)
    result = bootstrap_se(stripped, Estimator.AIPW, replicates=10, seed=0, refit=False)
    assert result.skipped == 0 and len(result.estimates[Estimator.AIPW]) == 10
    # one estimator that needs the nuisances makes the whole pass refit
    with pytest.raises(EstimationError, match="refit=False"):
        bootstrap_se(
            stripped, (Estimator.UNADJUSTED, Estimator.Q), replicates=10, seed=0, refit=True
        )


def test_bootstrap_unadjusted_never_needs_features():
    data = _random_input(7)
    stripped = dataclasses.replace(data, features=None)
    result = bootstrap_se(stripped, Estimator.UNADJUSTED, replicates=20, seed=0)
    assert result.standard_error > 0


def test_bootstrap_skips_single_arm_resamples(monkeypatch):
    rng = np.random.default_rng(0)
    treatments = np.array([1, 0, 0, 0, 0, 0])
    outcomes = rng.normal(size=6)
    data = EstimationInput(
        treatments=treatments, outcomes=outcomes,
        propensity=np.full(6, 1 / 6), q0=np.zeros(6), q1=np.zeros(6),
    )
    monkeypatch.setattr(estimators, "MAX_REDRAWS", 1)
    result = bootstrap_se(data, Estimator.UNADJUSTED, replicates=200, seed=0)
    assert result.skipped > 0
    assert len(result.estimates[Estimator.UNADJUSTED]) + result.skipped == 200


@pytest.mark.parametrize("variant", list(AipwVariant))
@pytest.mark.parametrize("refit", [True, False])
@pytest.mark.parametrize("seed,n", [(0, 40), (1, 120), (2, 40)])
def test_one_pass_matches_one_estimator_calls(seed, n, refit, variant):
    data = _random_input(seed, n=n)
    kwargs = dict(replicates=12, seed=seed, refit=refit, aipw_variant=variant)
    together = bootstrap_se(data, list(Estimator), **kwargs)
    assert list(together.estimates) == list(Estimator)
    for estimator in Estimator:
        alone = bootstrap_se(data, estimator, **kwargs)
        assert list(alone.estimates) == [estimator]
        np.testing.assert_array_equal(together.estimates[estimator], alone.estimates[estimator])
        assert together.standard_errors[estimator] == alone.standard_error
        assert together.skipped == alone.skipped == 0


def test_one_pass_matches_one_estimator_calls_with_skips(monkeypatch, caplog):
    skip_odd_first_unit(monkeypatch)
    data = _random_input(3, n=60)
    with caplog.at_level("WARNING", logger="tonefx"):
        together = bootstrap_se(data, list(Estimator), replicates=20, seed=5)
    # the result is the one channel for skips
    assert not caplog.records
    assert together.skipped > 0
    with pytest.raises(EstimationError, match="one estimator"):
        together.standard_error
    for estimator in Estimator:
        alone = bootstrap_se(data, estimator, replicates=20, seed=5)
        assert alone.skipped == together.skipped
        np.testing.assert_array_equal(together.estimates[estimator], alone.estimates[estimator])
        assert together.standard_errors[estimator] == alone.standard_error


def test_bootstrap_refits_once_per_usable_resample(monkeypatch):
    skip_odd_first_unit(monkeypatch)
    # the stacked fits that the pass runs in its working set
    rows = {"_fit_propensity": 0, "_fit_outcome": 0}

    def counted(name):
        fit = getattr(inference, name)

        def wrapper(features, *args, **kwargs):
            rows[name] += features.shape[0]
            return fit(features, *args, **kwargs)

        return wrapper

    for name in rows:
        monkeypatch.setattr(inference, name, counted(name))
    data = _random_input(4, n=80)
    replicates = 15
    result = bootstrap_se(data, list(Estimator), replicates=replicates, seed=2, refit=True)
    assert list(result.estimates) == list(Estimator)
    assert 0 < result.skipped < replicates
    used = replicates - result.skipped
    assert rows == {"_fit_propensity": used, "_fit_outcome": used}


def _one_resample_replicates(data, replicates, seed, refit, variant, ridge):
    """The bootstrap as a loop of one-resample fits and scores."""
    values = {e: [] for e in Estimator}
    for i in range(replicates):
        idx = estimators._resample_indices(np.random.default_rng([seed, i]), data.treatments, 10)
        if idx is None:
            continue
        t, y = data.treatments[idx], data.outcomes[idx]
        if refit:
            z = data.features[idx]
            p = predict_propensity(fit_propensity(z, t), z)
            model0, model1 = fit_outcome_models(z, t, y, ridge=ridge)
            q0, q1 = predict_outcome(model0, z), predict_outcome(model1, z)
        else:
            p, q0, q1 = data.propensity[idx], data.q0[idx], data.q1[idx]
        one = EstimationInput(treatments=t, outcomes=y, propensity=p, q0=q0, q1=q1)
        for e, sink in values.items():
            sink.append(point_estimate(one, e, aipw_variant=variant))
    return {e: np.array(sink) for e, sink in values.items()}


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(30, 90),
    st.sampled_from([0.0, 1e-6, 0.3]),
    st.booleans(),
    st.sampled_from(list(AipwVariant)),
    st.booleans(),
)
def test_stacked_bootstrap_matches_one_resample_fits(seed, n, ridge, refit, variant, skips):
    data = _random_input(seed, n=n)
    draw = estimators._resample_indices

    def odd_first_unit_skipped(rng, treatments, max_redraws):
        idx = draw(rng, treatments, max_redraws)
        return None if idx[0] % 2 else idx

    with mock.patch.object(
        estimators, "_resample_indices", odd_first_unit_skipped if skips else draw
    ):
        try:
            expected = _one_resample_replicates(data, 16, seed, refit, variant, ridge)
        except InferenceError:
            # without a ridge a resample's arm design can be rank deficient;
            # the stacked refit must then fail as the one-resample fits do
            with pytest.raises(InferenceError, match="rank deficient"):
                bootstrap_se(
                    data, list(Estimator), replicates=16, seed=seed, refit=refit,
                    aipw_variant=variant, ridge=ridge,
                )
            return
        if min(len(v) for v in expected.values()) < 2:
            return
        result = bootstrap_se(
            data, list(Estimator), replicates=16, seed=seed, refit=refit,
            aipw_variant=variant, ridge=ridge,
        )
    assert 16 - result.skipped == len(expected[Estimator.Q])
    for e in Estimator:
        np.testing.assert_allclose(result.estimates[e], expected[e], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("refit", [True, False])
def test_replicate_values_do_not_depend_on_replicate_count(monkeypatch, refit):
    data = _random_input(12, n=50)
    # chunks of 7 refit resamples, so 40 replicates span six chunks
    monkeypatch.setattr(estimators, "CHUNK_BYTES", 7 * 8 * data.n * 3)
    full = bootstrap_se(data, list(Estimator), replicates=40, seed=6, refit=refit)
    for m in (2, 7, 11, 23):
        head = bootstrap_se(data, list(Estimator), replicates=m, seed=6, refit=refit)
        for e in Estimator:
            np.testing.assert_array_equal(head.estimates[e], full.estimates[e][:m])


def _wide_cell(n, d):
    """The features, treatments and outcomes of a cell of n units with d features."""
    rng = np.random.default_rng(n)
    features = rng.normal(size=(n, d))
    treatments = rng.binomial(1, expit(features[:, :2] @ np.array([0.7, -0.7])))
    outcomes = treatments + features[:, 0] + rng.normal(size=n)
    return features, treatments, outcomes


def _wide_input(n, d, ridge):
    """A cell of n units with d features, its nuisances fit on the full sample."""
    return build_estimation_input(*_wide_cell(n, d), ridge=ridge)


@pytest.mark.parametrize("n, d", [(60, 28), (300, 116)])
def test_replicate_values_do_not_depend_on_chunk_size(monkeypatch, n, d):
    data = _wide_input(n, d, 1e-6)
    results = []
    for per_chunk in (1, 7, 12):
        monkeypatch.setattr(estimators, "CHUNK_BYTES", per_chunk * 8 * n * (d + 1))
        results.append(bootstrap_se(data, list(Estimator), replicates=12, seed=3, ridge=1e-6))
    assert results[0].skipped == 0
    for result in results[1:]:
        for e in Estimator:
            np.testing.assert_array_equal(result.estimates[e], results[0].estimates[e])


# The stacked refit of a bootstrap chunk as the pass first computed it,
# each intermediate in a fresh array: the fits, predictions and scores
# below must give every replicate the same bits.  Line searches call
# inference.logistic_loss_and_grad through the module, so that
# conftest.stall_line_search reaches them as it reaches the pass.


def _reference_standardize(matrix, rows):
    weight = rows[..., np.newaxis]
    count = rows.sum(axis=-1)[..., np.newaxis]
    means = (matrix * weight).sum(axis=-2) / count
    deviations = (matrix - means[..., np.newaxis, :]) * weight
    scales = np.sqrt((deviations * deviations).sum(axis=-2) / count)
    scales = np.where(scales < 1e-12, 1.0, scales)
    return deviations / scales[..., np.newaxis, :], means, scales


def _reference_linear_predictor(intercept, weights, means, scales, matrix):
    design = (matrix - means[..., np.newaxis, :]) / scales[..., np.newaxis, :]
    return intercept[..., np.newaxis] + (design @ weights[..., np.newaxis])[..., 0]


def _reference_lstsq(design, targets, rows):
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = np.finfo(float).eps * np.maximum(rows, design.shape[-1]) * s[..., 0]
    keep = s > cutoff[..., np.newaxis]
    inverse = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    coordinates = inverse * (np.swapaxes(u, -1, -2) @ targets[..., np.newaxis])[..., 0]
    solution = (np.swapaxes(vt, -1, -2) @ coordinates[..., np.newaxis])[..., 0]
    return solution, keep.sum(axis=-1)


def _reference_propensity(z, t, regularization=DEFAULT_REGULARIZATION, max_iters=100, tol=1e-8):
    """Fitted treated probabilities of every sample, and how many fits ended unconverged."""
    samples, n, d = z.shape
    design, means, scales = _reference_standardize(z, np.ones((samples, n)))
    augmented = np.concatenate((np.ones((samples, n, 1)), design), axis=-1)
    penalty = np.diag(np.concatenate(([0.0], np.full(d, regularization))))
    params = np.zeros((samples, d + 1))
    loss, grad = inference.logistic_loss_and_grad(params, design, t, regularization)
    grad_norm = np.linalg.norm(grad, axis=-1)
    stalled = np.zeros(samples, dtype=bool)
    for _ in range(max_iters):
        active = np.flatnonzero(~stalled & (grad_norm >= tol))
        if not active.size:
            break
        x = augmented if active.size == samples else augmented[active]
        g = grad[active]
        mu = expit((x @ params[active, :, np.newaxis])[..., 0])
        s = mu * (1.0 - mu)
        hessian = np.swapaxes(x * s[..., np.newaxis], -1, -2) @ x / n + penalty
        try:
            step = np.linalg.solve(hessian, g[..., np.newaxis])[..., 0]
        except np.linalg.LinAlgError:
            step = _reference_lstsq(hessian, g, d + 1)[0]
        slope = np.sum(g * step, axis=-1)
        scale = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(60):
            rows = active[pending]
            candidate = params[rows] - scale[pending, np.newaxis] * step[pending]
            whole = rows.size == samples
            new_loss, new_grad = inference.logistic_loss_and_grad(
                candidate, design if whole else design[rows], t if whole else t[rows],
                regularization,
            )
            ok = new_loss <= loss[rows] - 1e-4 * scale[pending] * slope[pending]
            accepted = rows[ok]
            params[accepted] = candidate[ok]
            loss[accepted] = new_loss[ok]
            grad[accepted] = new_grad[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            scale[pending] *= 0.5
        stalled[active[pending]] = True
        grad_norm[active] = np.linalg.norm(grad[active], axis=-1)
    raw = expit(_reference_linear_predictor(params[:, 0], params[:, 1:], means, scales, z))
    p = np.clip(raw, DEFAULT_CLIP_EPSILON, 1.0 - DEFAULT_CLIP_EPSILON)
    return p, int(np.count_nonzero(grad_norm >= tol))


def _reference_outcome(z, t, y, ridge):
    """Both arms' fitted outcomes of every sample, shape (2, samples, n)."""
    arms = np.stack((1.0 - t, t))
    design, means, scales = _reference_standardize(z, arms)
    design = np.concatenate((arms[..., np.newaxis], design), axis=-1)
    p = design.shape[-1]
    targets = arms * y
    if ridge > 0:
        transposed = np.swapaxes(design, -1, -2)
        gram = transposed @ design + ridge * np.diag(np.concatenate(([0.0], np.ones(p - 1))))
        solution = np.linalg.solve(gram, transposed @ targets[..., np.newaxis])[..., 0]
    else:
        solution, rank = _reference_lstsq(design, targets, arms.sum(axis=-1).astype(int))
        assert np.all(rank == p)
    return _reference_linear_predictor(solution[..., 0], solution[..., 1:], means, scales, z)


def _reference_bootstrap(data, replicates, seed, ridge, refit=True):
    """Replicate values of every estimator, refit chunk by chunk, and the unconverged count.

    Without ``refit`` the replicates index the full-sample nuisances of ``data``.
    """
    n, d = data.features.shape
    chunk = max(1, estimators.CHUNK_BYTES // (8 * n * (d + 1)))
    draws = (
        estimators._resample_indices(np.random.default_rng([seed, i]), data.treatments, 10)
        for i in range(replicates)
    )
    usable = [idx for idx in draws if idx is not None]
    values = {e: [] for e in Estimator}
    unconverged = 0
    for start in range(0, len(usable), chunk):
        idx = np.stack(usable[start : start + chunk])
        t, y = data.treatments[idx], data.outcomes[idx]
        if refit:
            z = data.features[idx]
            p, misses = _reference_propensity(z, t)
            unconverged += misses
            q0, q1 = _reference_outcome(z, t, y, ridge)
        else:
            p, q0, q1 = data.propensity[idx], data.q0[idx], data.q1[idx]
        replicate = EstimationInput(treatments=t, outcomes=y, propensity=p, q0=q0, q1=q1)
        for e, sink in values.items():
            sink.append(point_estimate(replicate, e))
    return {e: np.concatenate(sink) for e, sink in values.items()}, unconverged


@pytest.mark.parametrize(
    "n, d, replicates, per_chunk, ridge",
    [
        (60, 28, 60, None, 1e-6),
        (300, 116, 11, 3, 1e-6),
        (60, 5, 30, None, 0.0),
        (300, 20, 11, 3, 0.0),
    ],
)
def test_replicates_match_reference_refit_bit_for_bit(
    monkeypatch, n, d, replicates, per_chunk, ridge
):
    if per_chunk is not None:
        # the last chunk is shorter than the others
        monkeypatch.setattr(estimators, "CHUNK_BYTES", per_chunk * 8 * n * (d + 1))
    data = _wide_input(n, d, ridge)
    expected, unconverged = _reference_bootstrap(data, replicates, 3, ridge)
    result = bootstrap_se(data, list(Estimator), replicates=replicates, seed=3, ridge=ridge)
    assert (result.skipped, result.unconverged) == (0, unconverged)
    for e in Estimator:
        np.testing.assert_array_equal(result.estimates[e], expected[e])


def test_stalled_replicate_matches_reference_refit_bit_for_bit(monkeypatch):
    data = _wide_input(60, 28, 1e-6)
    idx = estimators._resample_indices(np.random.default_rng([3, 17]), data.treatments, 10)
    stall_line_search(monkeypatch, data.treatments[idx])
    expected, unconverged = _reference_bootstrap(data, 60, 3, 1e-6)
    result = bootstrap_se(data, list(Estimator), replicates=60, seed=3, ridge=1e-6)
    assert (result.skipped, result.unconverged, unconverged) == (0, 1, 1)
    for e in Estimator:
        np.testing.assert_array_equal(result.estimates[e], expected[e])


def _reference_cell(features, treatments, outcomes, replicates, seed, refit, ridge):
    """A cell's full-sample nuisances as a stack of one, then its bootstrap.

    Returns the cell's EstimationInput, every estimator's replicate
    values and how many resample refits ended unconverged.
    """
    z, t = features[np.newaxis], treatments[np.newaxis].astype(float)
    p, _ = _reference_propensity(z, t)
    q0, q1 = _reference_outcome(z, t, outcomes[np.newaxis], ridge)
    data = EstimationInput(
        treatments=treatments, outcomes=outcomes, propensity=p[0], q0=q0[0], q1=q1[0],
        features=features,
    )
    return (data, *_reference_bootstrap(data, replicates, seed, ridge, refit))


def _cell(features, treatments, outcomes, replicates, seed, refit, ridge):
    """The cell's EstimationInput and its bootstrap, as the pipeline runs them."""
    return estimate_cell(
        features, treatments, outcomes, list(Estimator), replicates=replicates, seed=seed,
        refit=refit, ridge=ridge,
    )


def _assert_cell_equal(data, result, expected_data, expected, unconverged):
    for name in ("propensity", "q0", "q1"):
        np.testing.assert_array_equal(getattr(data, name), getattr(expected_data, name))
    assert (result.skipped, result.unconverged) == (0, unconverged)
    for e in Estimator:
        np.testing.assert_array_equal(result.estimates[e], expected[e])


@pytest.mark.parametrize("refit", [True, False])
@pytest.mark.parametrize(
    "n, d, replicates, per_chunk, ridge",
    [
        (60, 28, 60, None, 1e-6),
        (300, 116, 11, 3, 1e-6),
        (60, 5, 30, None, 0.0),
        (300, 20, 11, 3, 0.0),
    ],
)
def test_cell_matches_reference_fit_and_refit_bit_for_bit(
    monkeypatch, n, d, replicates, per_chunk, ridge, refit
):
    if per_chunk is not None:
        monkeypatch.setattr(estimators, "CHUNK_BYTES", per_chunk * 8 * n * (d + 1))
    cell = _wide_cell(n, d)
    expected = _reference_cell(*cell, replicates, 3, refit, ridge)
    _assert_cell_equal(*_cell(*cell, replicates, 3, refit, ridge), *expected)


@pytest.mark.parametrize("stalled", ["resample", "full sample"])
def test_stalled_cell_matches_reference_bit_for_bit(monkeypatch, caplog, stalled):
    features, treatments, outcomes = cell = _wide_cell(60, 28)
    if stalled == "resample":
        idx = estimators._resample_indices(np.random.default_rng([3, 17]), treatments, 10)
        stall_line_search(monkeypatch, treatments[idx])
    else:
        stall_line_search(monkeypatch, treatments)
    expected = _reference_cell(*cell, 60, 3, True, 1e-6)
    assert expected[2] == (stalled == "resample")
    with caplog.at_level("WARNING"):
        data, result = _cell(*cell, 60, 3, True, 1e-6)
    _assert_cell_equal(data, result, *expected)
    # a stalled full-sample fit is logged, once; resample refits are only counted
    lines = [r.getMessage() for r in caplog.records if "propensity fit" in r.getMessage()]
    assert len(lines) == (stalled == "full sample")


def test_bootstrap_logs_unconverged_refits_once(monkeypatch, caplog):
    data = _random_input(11, n=60)
    idx = estimators._resample_indices(np.random.default_rng([4, 3]), data.treatments, 10)
    stall_line_search(monkeypatch, data.treatments[idx])
    with caplog.at_level("WARNING"):
        result = bootstrap_se(data, list(Estimator), replicates=10, seed=4)
    assert (result.skipped, result.unconverged) == (0, 1)
    # the caller, which knows the cell, logs the count
    assert not caplog.records


def test_bootstrap_rejects_unusable_setups():
    data = _random_input(8)
    with pytest.raises(EstimationError, match="at least 2"):
        bootstrap_se(data, Estimator.Q, replicates=1)


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"replicates": 10.0}, "replicates"),
        ({"replicates": "7"}, "replicates"),
        ({"replicates": True}, "replicates"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": np.True_}, "seed"),
    ],
)
def test_bootstrap_rejects_malformed_replicates_and_seed(overrides, name):
    data = _random_input(8, n=40)
    with pytest.raises(EstimationError, match=name):
        bootstrap_se(data, Estimator.Q, **{"replicates": 10, "seed": 3, **overrides})


@pytest.mark.parametrize(
    "replicates, match",
    [(1, "at least 2"), (-3, "at least 2"), (0.0, "replicates"), (False, "replicates")],
)
def test_estimate_cell_rejects_malformed_replicates(replicates, match):
    data = _random_input(8, n=40)
    with pytest.raises(EstimationError, match=match):
        estimate_cell(
            data.features, data.treatments, data.outcomes, Estimator.Q, replicates=replicates
        )


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["regularization", "ridge"])
def test_entry_points_reject_non_finite_penalties(name, value):
    data = _random_input(8, n=40)
    cell = (data.features, data.treatments, data.outcomes)
    message = f"{name} must be finite and nonnegative"
    with pytest.raises(InferenceError, match=message):
        build_estimation_input(*cell, **{name: value})
    with pytest.raises(InferenceError, match=message):
        estimate_cell(*cell, Estimator.Q, replicates=10, **{name: value})
    with pytest.raises(InferenceError, match=message):
        bootstrap_se(data, Estimator.Q, replicates=10, **{name: value})


def test_estimate_cell_without_replicates_is_build_estimation_input():
    data = _random_input(8, n=40)
    cell, result = estimate_cell(
        data.features, data.treatments, data.outcomes, replicates=np.int64(0)
    )
    alone = build_estimation_input(data.features, data.treatments, data.outcomes)
    assert result is None
    for name in ("treatments", "outcomes", "propensity", "q0", "q1", "features"):
        np.testing.assert_array_equal(getattr(cell, name), getattr(alone, name))


def test_bootstrap_accepts_numpy_integers():
    data = _random_input(8, n=40)
    plain = bootstrap_se(data, Estimator.Q, replicates=10, seed=3)
    numpy = bootstrap_se(data, Estimator.Q, replicates=np.int64(10), seed=np.uint32(3))
    np.testing.assert_array_equal(numpy.estimates[Estimator.Q], plain.estimates[Estimator.Q])


def test_bootstrap_pass_peaks_within_four_stacks():
    # a stack is the (R, n, d + 1) float array that CHUNK_BYTES sizes, and
    # all 60 resamples at n = 60, d = 28 fit one chunk: 0.835 MB
    n, d, replicates = 60, 28, 60
    assert estimators.CHUNK_BYTES // (8 * n * (d + 1)) >= replicates
    stack = replicates * n * (d + 1) * 8
    data = _wide_input(n, d, 1e-6)
    kwargs = dict(replicates=replicates, seed=3, ridge=1e-6)
    bootstrap_se(data, list(Estimator), **kwargs)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        bootstrap_se(data, list(Estimator), **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * stack, f"peak {peak / stack:.2f} stacks"


def test_bootstrap_se_close_to_analytic_two_sample_form():
    rng = np.random.default_rng(12)
    n = 800
    treatments = rng.binomial(1, 0.5, size=n)
    if treatments.min() == treatments.max():
        treatments[0] = 1 - treatments[0]
    outcomes = treatments * 1.0 + rng.normal(size=n)
    data = EstimationInput(
        treatments=treatments, outcomes=outcomes,
        propensity=np.full(n, 0.5), q0=np.zeros(n), q1=np.zeros(n),
    )
    result = bootstrap_se(data, Estimator.UNADJUSTED, replicates=400, seed=2)
    y1, y0 = outcomes[treatments == 1], outcomes[treatments == 0]
    analytic = np.sqrt(y1.var(ddof=1) / y1.size + y0.var(ddof=1) / y0.size)
    assert result.standard_error == pytest.approx(analytic, rel=0.2)


def test_estimate_all_labels_and_order():
    # one estimate cell scores every configured estimator, in order, and
    # labels each estimate with its cell
    data = _random_input(9)
    config = PipelineConfig(
        posts_path="posts.jsonl", annotations_path="annotations.jsonl",
        out_dir="out", seed=0, bootstrap_replicates=0,
    )
    estimates, warnings, failed, unconverged = pipeline._run_cell(pipeline._CellTask(
        config=config, reply_type="nasty_nice", category_type="positive_sentiment",
        variant="full", features=data.features, treatments=data.treatments,
        outcomes=data.outcomes, seed=0,
    ))
    assert (warnings, failed, unconverged) == ([], False, None)
    assert [e.estimator for e in estimates] == list(Estimator)
    for estimate in estimates:
        assert estimate.standard_error is None
        assert estimate.significant is None
        assert estimate.n == data.n
        assert estimate.reply_type == "nasty_nice"
        assert estimate.category_type == "positive_sentiment"
        assert estimate.confounder_variant == "full"
        expected = AipwVariant.STABILIZED if estimate.estimator is Estimator.AIPW else None
        assert estimate.aipw_variant == expected


def test_significance_threshold():
    significant = AteEstimate(Estimator.Q, psi=1.0, standard_error=0.4, n=10)
    borderline = AteEstimate(Estimator.Q, psi=0.5, standard_error=0.3, n=10)
    unknown = AteEstimate(Estimator.Q, psi=0.5, standard_error=None, n=10)
    assert significant.significant is True
    assert borderline.significant is False
    assert unknown.significant is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        significant.psi = 0.0
