"""Inference-time MPC adaptation of pre-trained portfolio policies."""

from .env import EnvConfig, PortfolioState, run_episode, softmax_weights, step, transaction_cost
from .forecast import (
    CheatForecaster,
    ContextMeanForecaster,
    ExternalForecastSource,
    ForecastTrajectory,
    NoiseCalibration,
    PerfectForecaster,
    RidgeForecaster,
    ZeroForecaster,
    build_trajectories,
    calibrate_cheat,
    context_mean_baseline,
    fit_noise_calibration,
    fit_ridge,
    perturb,
    r_squared,
)
from .marketdata import (
    Bar,
    FeatureView,
    MarketSeries,
    Normalizer,
    StateFeatures,
    compute_features,
    fit_normalizer,
    load_csv,
)
from .metrics import MetricsReport, calmar, compute_report, max_drawdown, sharpe, sortino, total_return
from .pilot import (
    MpcConfig,
    StepReport,
    imagined_reward,
    planner_objective,
    run_pilot,
    run_pilots,
)
from .policy import (
    Agent,
    PolicyConfig,
    PolicyParams,
    act,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)

__version__ = "0.1.0"
