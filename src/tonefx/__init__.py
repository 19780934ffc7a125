"""Estimate causal effects of reply tone in threaded debate corpora.

The package walks from raw corpus files to adjusted effect estimates:
quote-response triples with binarized tone treatments (``corpus``),
lexicon category rows and outcome distances (``lexicon``), per-debate
topic models whose proportions act as ideology confounders (``topics``),
propensity and outcome nuisance models with cross-validated diagnostics
(``inference``), plain and doubly robust effect estimators with
bootstrap uncertainty (``estimators``), and an orchestrating pipeline
with synthetic validation worlds and report rendering (``harness``).
Import names from those submodules; the package root re-exports none.
"""

__version__ = "0.1.0"
