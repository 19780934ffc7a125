"""Confounder assembly, nuisance models, and cross-validated diagnostics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from tonefx.corpus import Triple
from tonefx import inference
from tonefx.inference import (
    ConfounderVariant,
    InferenceError,
    as_feature_matrix,
    build_confounder_matrix,
    cross_validate,
    f1_score,
    fit_outcome_models,
    fit_outcome_stack,
    fit_propensity,
    fit_propensity_stack,
    logistic_loss_and_grad,
    predict_outcome,
    predict_propensity,
)
from tonefx.lexicon import vectorize_post

from conftest import make_post, stall_line_search


# ----------------------------------------------------------- confounders

def _triple(i=0, topic="gun control", text1="the w00 w01 w02", text2="w03 w04"):
    p1 = make_post(f"p{i}a", 3 * i, author="a", debate_topic=topic, text=text1)
    p2 = make_post(f"p{i}b", 3 * i + 1, author="b", debate_topic=topic, text=text2)
    p3 = make_post(f"p{i}c", 3 * i + 2, author="a", debate_topic=topic, text="w05")
    return Triple(
        id=f"nasty_nice:p{i}a:p{i}b",
        p1=p1,
        p2=p2,
        p3=p3,
        debate_topic=topic,
        treatment=i % 2,
    )


def _tables(triples, lexicon_grouping, k=None):
    """Topic proportions of each p1 and p2 and category rows of each p1, keyed by post id.

    ``k`` maps a debate topic to its number of topics, 2 by default.
    """
    lexicon, grouping = lexicon_grouping
    rng = np.random.default_rng(0)
    thetas = {
        post.id: rng.dirichlet(np.ones((k or {}).get(triple.debate_topic, 2)))
        for triple in triples
        for post in (triple.p1, triple.p2)
    }
    rows = {t.p1.id: vectorize_post(lexicon, grouping, t.p1.text) for t in triples}
    return thetas, rows


def test_full_confounder_layout(lexicon_grouping):
    triples = [_triple()]
    thetas, rows = _tables(triples, lexicon_grouping)
    matrix = build_confounder_matrix(triples, ConfounderVariant.FULL, thetas, rows)
    assert matrix.shape == (1, 2 * 2 + 16)
    # theta of p1, theta of p2, then p1's category row, bit for bit
    np.testing.assert_array_equal(matrix[0, :2], thetas["p0a"])
    np.testing.assert_array_equal(matrix[0, 2:4], thetas["p0b"])
    np.testing.assert_array_equal(matrix[0, 4:], rows["p0a"])
    assert matrix[0, 4:].any()


def test_topics_only_confounder_is_one_hot(lexicon_grouping):
    triples = [_triple(topic="evolution"), _triple(1, "gun control")]
    # the topics-only variant reads neither table
    matrix = build_confounder_matrix(triples, ConfounderVariant.DEBATE_TOPICS_ONLY, {}, {})
    np.testing.assert_array_equal(matrix, [[1.0, 0.0], [0.0, 1.0]])


def test_confounder_matrix_matches_single_path(lexicon_grouping):
    # a full row equals the one-triple matrix of that triple; the topics-only
    # columns depend on the cell's topics, so only its row order is checked
    triples = [
        _triple(0, "gun control"),
        _triple(1, "evolution", text1="w06 w07", text2="w08"),
        _triple(2, "gun control", text1="w00 w09", text2="w10 w11 w00"),
    ]
    tables = _tables(triples, lexicon_grouping)
    matrix = build_confounder_matrix(triples, ConfounderVariant.FULL, *tables)
    for row, triple in zip(matrix, triples):
        single = build_confounder_matrix([triple], ConfounderVariant.FULL, *tables)
        np.testing.assert_array_equal(row, single[0])
    for variant in ConfounderVariant:
        matrix = build_confounder_matrix(triples, variant, *tables)
        assert matrix.shape[0] == 3
        reordered = build_confounder_matrix(triples[::-1], variant, *tables)
        np.testing.assert_array_equal(reordered, matrix[::-1])


def test_topics_only_block_covers_only_the_cells_topics():
    # a cell whose triples all come from one of two debate topics gets
    # one topic column, whatever other topics the corpus holds
    triples = [_triple(0, "gun control"), _triple(1, "gun control")]
    matrix = build_confounder_matrix(triples, ConfounderVariant.DEBATE_TOPICS_ONLY, {}, {})
    np.testing.assert_array_equal(matrix, [[1.0], [1.0]])


def test_confounder_matrix_names_a_post_missing_from_the_table(lexicon_grouping):
    triples = [_triple(0), _triple(1, "evolution")]
    thetas, rows = _tables(triples, lexicon_grouping)
    del thetas["p1b"]
    with pytest.raises(InferenceError, match="no topic proportions for post 'p1b'"):
        build_confounder_matrix(triples, ConfounderVariant.FULL, thetas, rows)


def test_confounder_matrix_rejects_mismatched_k(lexicon_grouping):
    triples = [_triple(0), _triple(1, "evolution")]
    tables = _tables(triples, lexicon_grouping, k={"evolution": 3})
    with pytest.raises(InferenceError, match="disagree on k"):
        build_confounder_matrix(triples, ConfounderVariant.FULL, *tables)


def test_as_feature_matrix_flags_non_finite():
    with pytest.raises(InferenceError, match="row 1"):
        as_feature_matrix(np.array([[0.0, 1.0], [np.nan, 0.0]]))
    with pytest.raises(InferenceError, match="no feature rows"):
        as_feature_matrix([])


# ------------------------------------------------------------- propensity


def _raw_parameters(model):
    """Intercept and weights of a fitted linear model in the unstandardized feature space."""
    coefficients = model.weights / model.feature_scales
    return model.intercept - np.sum(coefficients * model.feature_means, axis=-1), coefficients


def _logistic_data(n=4000, seed=0, weights=(0.8, -0.5, 0.3), intercept=0.2):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, len(weights)))
    logits = intercept + features @ np.asarray(weights)
    treatments = rng.binomial(1, expit(logits))
    return features, treatments


def test_logistic_loss_at_zero_is_log_two():
    features, treatments = _logistic_data(n=100)
    params = np.zeros(4)
    loss, grad = logistic_loss_and_grad(params, features, treatments, 0.0)
    assert loss == pytest.approx(np.log(2.0))
    assert grad.shape == (4,)


def test_logistic_gradient_matches_finite_differences():
    features, treatments = _logistic_data(n=60, seed=3)
    rng = np.random.default_rng(1)
    params = rng.normal(scale=0.5, size=4)
    _, grad = logistic_loss_and_grad(params, features, treatments, 0.01)
    h = 1e-6
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        up, _ = logistic_loss_and_grad(params + step, features, treatments, 0.01)
        down, _ = logistic_loss_and_grad(params - step, features, treatments, 0.01)
        assert grad[j] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)


def test_regularization_skips_intercept():
    features, treatments = _logistic_data(n=100)
    params = np.array([1.0, 0.5, -0.5, 0.25])
    loss0, grad0 = logistic_loss_and_grad(params, features, treatments, 0.0)
    loss1, grad1 = logistic_loss_and_grad(params, features, treatments, 2.0)
    penalty = 0.5 * 2.0 * float(params[1:] @ params[1:])
    assert loss1 == pytest.approx(loss0 + penalty)
    assert grad1[0] == pytest.approx(grad0[0])
    np.testing.assert_allclose(grad1[1:], grad0[1:] + 2.0 * params[1:])


def test_fit_propensity_converges_and_recovers():
    features, treatments = _logistic_data()
    model = fit_propensity(features, treatments, regularization=1e-4)
    assert model.gradient_norm < 1e-8
    intercept, coefficients = _raw_parameters(model)
    np.testing.assert_allclose(coefficients, [0.8, -0.5, 0.3], atol=0.15)
    assert intercept == pytest.approx(0.2, abs=0.15)


def test_fit_propensity_standardization_is_internal():
    # predictions must be expressible with the raw-space parameters
    features, treatments = _logistic_data(n=500, seed=2)
    features[:, 0] = features[:, 0] * 100 + 50  # wildly different scale
    model = fit_propensity(features, treatments)
    intercept, coefficients = _raw_parameters(model)
    direct = expit(intercept + features @ coefficients)
    np.testing.assert_allclose(
        predict_propensity(model, features, clip_epsilon=0.0), direct, atol=1e-10
    )


def test_fit_propensity_requires_both_arms():
    features, _ = _logistic_data(n=50)
    with pytest.raises(InferenceError, match="arm"):
        fit_propensity(features, np.ones(50, dtype=int))
    with pytest.raises(InferenceError, match="0/1"):
        fit_propensity(features, np.full(50, 2))


def test_fit_propensity_stops_when_line_search_fails(monkeypatch, caplog):
    features, treatments = _logistic_data(n=200, seed=4)
    real = inference.logistic_loss_and_grad
    calls = []

    def no_descent(params, *args):
        # the starting point is scored truly; every candidate step loses
        calls.append(params)
        loss, grad = real(params, *args)
        return (loss, grad) if len(calls) == 1 else (loss + 1.0, grad)

    monkeypatch.setattr(inference, "logistic_loss_and_grad", no_descent)
    model = fit_propensity(features, treatments, tol=1e-8)
    assert len(calls) == 1 + 60
    assert model.iterations == 0
    assert model.gradient_norm >= 1e-8
    np.testing.assert_array_equal(model.weights, np.zeros(3))
    assert model.intercept == 0.0
    assert "line search failed" in caplog.text


def test_fit_propensity_names_its_iteration_cap(caplog):
    features, treatments = _logistic_data(n=200, seed=4)
    for max_iters in (0, 2):
        caplog.clear()
        model = fit_propensity(features, treatments, max_iters=max_iters)
        assert model.iterations == max_iters
        assert caplog.messages == [
            f"propensity fit stopped at iteration cap {max_iters} "
            f"with gradient norm {model.gradient_norm:.2e}"
        ]


def _resample_stack(features, treatments, outcomes, samples, seed):
    """Seeded with-replacement resamples with both arms, stacked on a leading axis."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < samples:
        idx = rng.integers(0, len(treatments), size=len(treatments))
        if treatments[idx].min() != treatments[idx].max():
            rows.append(idx)
    idx = np.stack(rows)
    return features[idx], treatments[idx], outcomes[idx]


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 9),
    st.integers(12, 90),
    st.sampled_from([0.0, 1e-4, 0.1]),
)
def test_propensity_stack_matches_one_sample_fits(seed, samples, n, regularization):
    features, treatments = _logistic_data(n=n, seed=seed)
    # data of one arm has no resample with both arms (12 draws at seed 1109)
    assume(treatments.min() != treatments.max())
    z, t, _ = _resample_stack(features, treatments, np.zeros(n), samples, seed)
    stack = fit_propensity_stack(z, t, regularization=regularization)
    scores = predict_propensity(stack, z)
    for r in range(samples):
        alone = fit_propensity(z[r], t[r], regularization=regularization)
        assert stack.iterations[r] == alone.iterations
        assert stack.converged[r] == (alone.gradient_norm < 1e-8)
        np.testing.assert_allclose(stack.weights[r], alone.weights, rtol=1e-10, atol=1e-10)
        assert stack.intercept[r] == pytest.approx(alone.intercept, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(
            _raw_parameters(stack)[0][r], _raw_parameters(alone)[0], rtol=1e-10, atol=1e-10
        )
        np.testing.assert_allclose(
            scores[r], predict_propensity(alone, z[r]), rtol=1e-10, atol=1e-10
        )


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 9),
    st.integers(24, 90),
    st.sampled_from([0.0, 1e-6, 0.5]),
)
def test_outcome_stack_matches_one_sample_fits(seed, samples, n, ridge):
    features, treatments = _logistic_data(n=n, seed=seed)
    # data of one arm has no resample with both arms
    assume(treatments.min() != treatments.max())
    outcomes = treatments + features @ np.array([1.0, -2.0, 0.5])
    outcomes += np.random.default_rng(seed).normal(size=n)
    z, t, y = _resample_stack(features, treatments, outcomes, samples, seed)
    try:
        stack = fit_outcome_stack(z, t, y, ridge=ridge)
    except InferenceError as exc:
        # some resample has an arm with too few distinct units; the first
        # such sample in fit order raises the same error alone
        for r in range(samples):
            try:
                fit_outcome_models(z[r], t[r], y[r], ridge=ridge)
            except InferenceError as alone:
                assert str(alone) == str(exc)
                return
        raise
    q0, q1 = predict_outcome(stack, z)
    for r in range(samples):
        for arm, model, q in zip((0, 1), fit_outcome_models(z[r], t[r], y[r], ridge=ridge), (q0, q1)):
            np.testing.assert_allclose(stack.weights[arm, r], model.weights, rtol=1e-10, atol=1e-10)
            for stacked, alone in zip(_raw_parameters(stack), _raw_parameters(model)):
                np.testing.assert_allclose(stacked[arm, r], alone, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(q[r], predict_outcome(model, z[r]), rtol=1e-10, atol=1e-10)


def test_propensity_stack_freezes_only_the_stalled_sample(monkeypatch):
    features, treatments = _logistic_data(n=120, seed=6)
    z, t, _ = _resample_stack(features, treatments, np.zeros(120), 5, 6)
    expected = [fit_propensity(z[r], t[r]) for r in range(5)]
    stall_line_search(monkeypatch, t[2])
    stack = fit_propensity_stack(z, t)
    assert stack.stalled.tolist() == [False, False, True, False, False]
    assert stack.converged.tolist() == [True, True, False, True, True]
    assert stack.iterations[2] == 0
    np.testing.assert_array_equal(stack.weights[2], np.zeros(3))
    assert stack.intercept[2] == 0.0
    for r in (0, 1, 3, 4):
        assert stack.iterations[r] == expected[r].iterations > 0
        np.testing.assert_allclose(stack.weights[r], expected[r].weights, rtol=1e-10, atol=1e-10)
        assert stack.intercept[r] == pytest.approx(expected[r].intercept, rel=1e-10, abs=1e-10)


def test_stack_fits_check_their_inputs():
    features, treatments = _logistic_data(n=40, seed=7)
    z, t, y = features[np.newaxis], treatments[np.newaxis], np.zeros((1, 40))
    with pytest.raises(InferenceError, match="arm"):
        fit_propensity_stack(np.concatenate([z, z]), np.stack([treatments, np.ones(40)]))
    with pytest.raises(InferenceError, match="feature rows"):
        fit_propensity_stack(z[:, :30], t)
    with pytest.raises(InferenceError, match="0/1"):
        fit_outcome_stack(z, treatments, y[0])
    with pytest.raises(InferenceError, match="align"):
        fit_outcome_stack(z, t, y[:, :30])


def test_predict_propensity_clips_and_keeps_row_shape():
    features, treatments = _logistic_data(n=300, seed=5, weights=(3.0, 3.0, 3.0))
    model = fit_propensity(features, treatments)
    scores = predict_propensity(model, features, clip_epsilon=0.05)
    assert scores.min() >= 0.05 and scores.max() <= 0.95
    single = predict_propensity(model, features[0], clip_epsilon=0.05)
    assert single.shape == (1,)
    assert single[0] == pytest.approx(scores[0])
    with pytest.raises(InferenceError, match="clip_epsilon"):
        predict_propensity(model, features, clip_epsilon=0.5)


# ---------------------------------------------------------------- outcome


def test_outcome_models_recover_linear_truth():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(80, 2))
    treatments = np.repeat([0, 1], 40)
    outcomes = np.where(
        treatments == 1,
        1.5 + features @ np.array([2.0, -1.0]),
        -0.5 + features @ np.array([0.5, 0.5]),
    )
    for model, expected in zip(
        fit_outcome_models(features, treatments, outcomes), ((-0.5, 0.5, 0.5), (1.5, 2.0, -1.0))
    ):
        intercept, coefficients = _raw_parameters(model)
        np.testing.assert_allclose([intercept, *coefficients], expected, atol=1e-9)


def test_outcome_residuals_orthogonal_to_features():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(60, 3))
    treatments = rng.integers(0, 2, size=60)
    outcomes = rng.normal(size=60)
    model0, model1 = fit_outcome_models(features, treatments, outcomes)
    for arm, model in ((0, model0), (1, model1)):
        mask = treatments == arm
        residuals = outcomes[mask] - predict_outcome(model, features[mask])
        design = np.column_stack([np.ones(mask.sum()), features[mask]])
        np.testing.assert_allclose(design.T @ residuals, 0.0, atol=1e-8)


def test_outcome_rank_deficiency_needs_ridge():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(30, 2))
    features = np.column_stack([base, base[:, 0]])  # duplicated column
    treatments = np.repeat([0, 1], 15)
    outcomes = rng.normal(size=30)
    with pytest.raises(InferenceError, match="ridge"):
        fit_outcome_models(features, treatments, outcomes)
    model0, _ = fit_outcome_models(features, treatments, outcomes, ridge=1e-6)
    assert np.all(np.isfinite(model0.weights))


# ------------------------------------------------------------ diagnostics


def test_f1_conventions():
    truth = np.array([1, 1, 0, 0, 1])
    predictions = np.array([1, 0, 1, 0, 1])
    # tp=2 fp=1 fn=1
    assert f1_score(truth, predictions) == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
    assert f1_score(np.zeros(4), np.zeros(4)) == 0.0  # empty denominator


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40),
    st.integers(0, 2**31 - 1),
)
def test_f1_stays_in_unit_interval(truth, seed):
    rng = np.random.default_rng(seed)
    predictions = rng.integers(0, 2, size=len(truth))
    value = f1_score(np.array(truth), predictions)
    assert 0.0 <= value <= 1.0


def _cv_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 2))
    treatments = rng.binomial(1, expit(features @ np.array([1.0, -1.0])))
    outcomes = treatments * 1.0 + features[:, 0] + rng.normal(scale=0.1, size=n)
    return features, treatments, outcomes


def _wide_cv_data(n, d, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    treatments = rng.binomial(1, expit(features[:, :2] @ np.array([1.0, -1.0])))
    outcomes = treatments + features[:, 0] + rng.normal(scale=0.5, size=n)
    return features, treatments, outcomes


def _fold_by_fold(features, treatments, outcomes, folds, seed, ridge):
    """cross_validate's numbers from one propensity and one outcome fit per fold."""
    n = len(treatments)
    rmse_q1, rmse_q0, f1s, skipped = [], [], [], []
    assignment = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    for fold, test in enumerate(assignment):
        train = np.setdiff1d(np.arange(n), test)
        if len(np.unique(treatments[train])) < 2:
            skipped.append(f"fold {fold}: training split lacks a treatment arm")
            continue
        if len(np.unique(treatments[test])) < 2:
            skipped.append(f"fold {fold}: test split lacks a treatment arm")
            continue
        scores = predict_propensity(fit_propensity(features[train], treatments[train]), features[test])
        f1s.append(f1_score(treatments[test], (scores >= 0.5).astype(int)))
        models = fit_outcome_models(features[train], treatments[train], outcomes[train], ridge=ridge)
        for arm, model, sink in zip((0, 1), models, (rmse_q0, rmse_q1)):
            mask = treatments[test] == arm
            predicted = predict_outcome(model, features[test][mask])
            sink.append(float(np.sqrt(np.mean((outcomes[test][mask] - predicted) ** 2))))
    return tuple(rmse_q1), tuple(rmse_q0), tuple(f1s), tuple(skipped)


def test_cross_validate_is_deterministic():
    features, treatments, outcomes = _cv_data()
    a = cross_validate(features, treatments, outcomes, folds=4, seed=11)
    b = cross_validate(features, treatments, outcomes, folds=4, seed=11)
    assert a.rmse_q1 == b.rmse_q1
    assert a.f1 == b.f1
    c = cross_validate(features, treatments, outcomes, folds=4, seed=12)
    assert a.f1 != c.f1


def test_cross_validate_fold_accounting():
    features, treatments, outcomes = _cv_data()
    report = cross_validate(
        features, treatments, outcomes, folds=4, seed=0,
        reply_type="nasty_nice", variant="full", category_type="positive_sentiment",
    )
    assert report.fold_count == 4
    assert report.skipped_folds == ()
    assert len(report.rmse_q0) == len(report.rmse_q1) == len(report.f1) == 4
    assert report.mean_f1 == pytest.approx(float(np.mean(report.f1)))
    assert report.reply_type == "nasty_nice"


def test_cross_validate_skips_single_arm_folds():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(40, 2))
    treatments = np.zeros(40, dtype=int)
    treatments[:2] = 1  # two treated units, so some folds lack the arm
    outcomes = rng.normal(size=40)
    # ridge keeps the one-unit treated arm solvable in the folds that run
    report = cross_validate(features, treatments, outcomes, folds=5, seed=1, ridge=1e-3)
    assert report.fold_count + len(report.skipped_folds) == 5
    assert report.fold_count >= 1
    assert all("lacks a treatment arm" in reason for reason in report.skipped_folds)
    expected = _fold_by_fold(features, treatments, outcomes, 5, 1, 1e-3)
    assert (report.rmse_q1, report.rmse_q0, report.f1, report.skipped_folds) == expected


def test_cross_validate_all_folds_skipped_is_error():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(40, 2))
    treatments = np.zeros(40, dtype=int)
    treatments[0] = 1
    with pytest.raises(InferenceError, match="every fold was skipped"):
        cross_validate(features, treatments, rng.normal(size=40), folds=5, seed=0)


def test_cross_validate_rejects_bad_folds():
    features, treatments, outcomes = _cv_data(n=10)
    with pytest.raises(InferenceError, match="folds"):
        cross_validate(features, treatments, outcomes, folds=1)
    with pytest.raises(InferenceError, match="cannot split"):
        cross_validate(features, treatments, outcomes, folds=11)


@pytest.mark.parametrize(
    "n, d, folds, ridge",
    [(63, 28, 5, 1e-6), (61, 2, 5, 0.0), (47, 10, 4, 0.0), (300, 116, 5, 1e-6)],
)
def test_cross_validate_equals_one_fit_per_fold(n, d, folds, ridge):
    # n % folds > 0 gives two training sizes
    features, treatments, outcomes = _wide_cv_data(n, d, seed=n)
    report = cross_validate(features, treatments, outcomes, folds=folds, seed=5, ridge=ridge)
    expected = _fold_by_fold(features, treatments, outcomes, folds, 5, ridge)
    assert (report.rmse_q1, report.rmse_q0, report.f1, report.skipped_folds) == expected
    assert report.fold_count == len(expected[2]) == folds


@pytest.mark.parametrize("n, d", [(47, 15), (61, 20)])
def test_cross_validate_raises_the_first_failing_folds_error(n, d):
    # without a ridge, an arm with fewer than d + 1 training units is rank
    # deficient: fold 4 alone at (47, 15), folds 2 and 3 at (61, 20)
    features, treatments, outcomes = _wide_cv_data(n, d, seed=n)
    with pytest.raises(InferenceError, match="rank deficient") as alone:
        _fold_by_fold(features, treatments, outcomes, 5, 5, 0.0)
    with pytest.raises(InferenceError) as stacked:
        cross_validate(features, treatments, outcomes, folds=5, seed=5)
    assert str(stacked.value) == str(alone.value)


def test_cross_validate_logs_a_stalled_fold_once(monkeypatch, caplog):
    features, treatments, outcomes = _cv_data(n=63, seed=4)
    test = np.array_split(np.random.default_rng(2).permutation(63), 5)[3]
    stall_line_search(monkeypatch, np.delete(treatments, test))
    with caplog.at_level("WARNING", logger="tonefx.inference"):
        report = cross_validate(features, treatments, outcomes, folds=5, seed=2)
    (message,) = [record.getMessage() for record in caplog.records]
    assert message.startswith("propensity fit stopped after 0 iterations: line search failed")
    # the stalled fold keeps its zero-parameter fit, which scores every unit 0.5
    assert report.fold_count == 5
    assert report.f1[3] == f1_score(treatments[test], np.ones(len(test), dtype=int))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**31 - 1))
def test_propensity_predictions_respect_clipping(seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(30, 2)) * rng.uniform(0.5, 3.0)
    treatments = rng.binomial(1, expit(2.0 * features[:, 0]))
    if len(np.unique(treatments)) < 2:
        return
    model = fit_propensity(features, treatments)
    scores = predict_propensity(model, features, clip_epsilon=0.01)
    assert np.all(scores >= 0.01) and np.all(scores <= 0.99)
