"""costwalk: distributional technology-cost forecasting.

Models annual log costs as a (correlated) geometric random walk with drift,
derives the forecast-error distribution analytically, validates it by
exhaustive hindcasting plus surrogate-data Monte Carlo, and answers applied
questions such as the probability that one technology undercuts another at
a given horizon.
"""

from ._kernels import backend as kernel_backend
from .dataset import (
    DataFormatError,
    DataWarning,
    MuKRegression,
    SeriesSummary,
    corpus_template,
    ingest_csv,
    load_reference_params,
    mu_k_regression,
    select_improving,
    summarize_corpus,
    write_corpus_csv,
    write_summary_csv,
)
from .forecast import (
    DistributionalForecast,
    VarianceFactors,
    distributional_forecast,
    null_xi_mean,
    variance_factors,
)
from .hindcast import (
    CorpusHindcast,
    Ecdf,
    ErrorGrowthCurve,
    HindcastRecords,
    bias_test,
    error_growth,
    hindcast_corpus,
    pooled_rescaled_distribution,
)
from .models import (
    EstimationError,
    ImaParams,
    RwdEstimate,
    estimate_rwd,
    fit_ima_mle,
    fit_ima_mle_corpus,
)
from .scenarios import (
    CrossingSpec,
    NoCrossingError,
    TechState,
    crossing_probability,
    deterministic_trend_crossing,
    even_odds_horizon,
    forecast_technology,
)
from .series import TechnologySeries
from .stats import (
    OlsFit,
    derive_rng,
    make_rng,
    normal_cdf,
    ols_fit,
    one_sided_t_test,
    student_t_cdf,
    student_t_quantile,
)
from .surrogate import (
    DEVIATION_STATISTICS,
    NullEnsemble,
    SurrogateConfig,
    ThetaMatched,
    ThetaSweep,
    ThetaWeighted,
    distribution_deviation_test,
    estimate_theta_matched,
    estimate_theta_weighted,
    null_xi_band,
    robustness_suite,
    surrogate_corpus,
    theta_forecast_sweep,
    validation_nulls,
)

__version__ = "0.1.0"
