"""Binary and ordinal probit/logit regression.

Maximum-likelihood estimation with analytic derivatives, average covariate
effects, goodness-of-fit measures, and data-augmentation Gibbs sampling for
the probit models. See the README for the CLI and the schema file grammar.
"""

from .bayes import ChainDraws, PriorSpec, gibbs_binary_probit, gibbs_ordinal_probit, posterior_summary
from .data import (
    Covariate,
    Dataset,
    EncodingError,
    EncodingReport,
    ParseError,
    RawTable,
    SchemaConfig,
    SchemaError,
    build_dataset,
    parse_csv,
    simulate_dataset,
)
from .distributions import (
    Link,
    logistic_cdf,
    logistic_pdf,
    norm_cdf,
    norm_inv_cdf,
    norm_pdf,
    trunc_norm_draws,
)
from .effects import (
    ColumnKindError,
    CovariateEffect,
    EffectsTable,
    UnsupportedLinkError,
    ce_continuous,
    ce_indicator,
    cumulative_odds,
    effects_table,
    odds_ratio_logit,
)
from .estimation import (
    EstimationError,
    FitOptions,
    FitResult,
    SeparationError,
    fit_intercept_only,
    fit_ml,
    hit_rate,
    lr_test,
    mcfadden_r2,
    predict_prob,
    summary_table,
)
from .likelihood import (
    ModelSpec,
    ParamVector,
    cell_logprob,
    cutpoints_from_delta,
    grad_loglik,
    hess_loglik,
    loglik,
)

__version__ = "0.1.0"

__all__ = [
    "ChainDraws", "PriorSpec", "gibbs_binary_probit", "gibbs_ordinal_probit",
    "posterior_summary", "Covariate", "Dataset", "EncodingError",
    "EncodingReport", "ParseError", "RawTable", "SchemaConfig", "SchemaError",
    "build_dataset", "parse_csv", "simulate_dataset", "Link",
    "logistic_cdf", "logistic_pdf", "norm_cdf", "norm_inv_cdf", "norm_pdf",
    "trunc_norm_draws", "ColumnKindError",
    "CovariateEffect", "EffectsTable", "UnsupportedLinkError", "ce_continuous",
    "ce_indicator", "cumulative_odds", "effects_table", "odds_ratio_logit",
    "EstimationError", "FitOptions", "FitResult", "SeparationError",
    "fit_intercept_only", "fit_ml", "hit_rate", "lr_test", "mcfadden_r2",
    "predict_prob", "summary_table", "ModelSpec", "ParamVector",
    "cell_logprob", "cutpoints_from_delta", "grad_loglik", "hess_loglik",
    "loglik",
]
