"""Estimate causal effects of reply tone in threaded debate corpora.

The package walks from raw corpus files to adjusted effect estimates:
quote-response triples with binarized tone treatments (``corpus``),
lexicon category rows and outcome distances (``lexicon``), per-debate
topic models whose proportions act as ideology confounders (``topics``),
propensity and outcome nuisance models with cross-validated diagnostics
(``inference``), plain and doubly robust effect estimators with
bootstrap uncertainty (``estimators``), and an orchestrating pipeline
with synthetic validation worlds and report rendering (``harness``).
"""

from .corpus import (
    AnnotationCollection,
    CorpusError,
    Post,
    PostCollection,
    QuoteResponseAnnotation,
    ReplyType,
    TreatmentAssignment,
    Triple,
    binarize_score,
    extract_triples,
    load_annotations,
    load_posts,
    write_annotations,
    write_posts,
)
from .lexicon import (
    CategoryLexicon,
    CategoryType,
    CategoryTypeGrouping,
    LexiconError,
    categorize_token,
    compute_outcome,
    default_grouping_path,
    default_lexicon_path,
    load_lexicon,
    vectorize_post,
)
from .topics import (
    DocumentTermMatrix,
    LdaModel,
    TopicModelError,
    Tokenizer,
    Vocabulary,
    build_dtm,
    build_vocabulary,
    default_tokenizer,
    fit_lda,
    infer_theta_batch,
    load_model,
    save_model,
    surface_tokenizer,
    top_words,
)
from .inference import (
    ConfounderVariant,
    CvReport,
    InferenceError,
    OutcomeModel,
    PropensityModel,
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
from .estimators import (
    AipwVariant,
    AteEstimate,
    BootstrapResult,
    EstimationError,
    EstimationInput,
    Estimator,
    ate_aipw,
    ate_ipw,
    ate_q,
    ate_unadjusted,
    bootstrap_se,
    build_estimation_input,
    estimate_all,
    point_estimate,
)

__version__ = "0.1.0"
