"""The package's public names: ``__all__`` is the declared list, and each
listed name resolves. A name leaves or joins the list here, on purpose."""

import discretefit

DECLARED = sorted([
    # bayes
    "ChainDraws", "PriorSpec", "gibbs_binary_probit", "gibbs_ordinal_probit",
    "posterior_summary",
    # data
    "Covariate", "Dataset", "EncodingError", "EncodingReport", "ParseError",
    "RawTable", "SchemaConfig", "SchemaError", "build_dataset", "parse_csv",
    "simulate_dataset",
    # distributions
    "Link", "trunc_norm_draws",
    # effects
    "ColumnKindError", "CovariateEffect", "EffectsTable", "UnsupportedLinkError",
    "cumulative_odds", "effects_table", "odds_ratio_logit",
    # estimation
    "EstimationError", "FitOptions", "FitResult", "SeparationError",
    "fit_intercept_only", "fit_ml", "hit_rate", "lr_test", "mcfadden_r2",
    "predict_prob", "summary_table",
    # likelihood
    "ModelSpec", "ParamVector", "cutpoints_from_delta", "grad_loglik",
    "hess_loglik", "loglik",
])


def test_all_is_the_declared_list():
    assert sorted(discretefit.__all__) == DECLARED


def test_every_listed_name_resolves():
    assert [name for name in discretefit.__all__ if not hasattr(discretefit, name)] == []
