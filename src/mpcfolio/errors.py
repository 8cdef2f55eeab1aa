"""Exception types raised across the package."""


class MpcfolioError(Exception):
    """Base class for all package errors."""


class DataError(MpcfolioError):
    """Malformed, misaligned, or invalid market data."""


class FeatureError(MpcfolioError):
    """Feature computation outside the valid index range."""


class DegenerateFeatureError(MpcfolioError):
    """A (asset, feature) column has zero variance on the fitted split."""


class ConditioningError(MpcfolioError):
    """Normal equations are singular or numerically unusable."""


class InfeasibleTargetError(MpcfolioError):
    """Requested blend quality is below the base forecaster's quality."""


class CoverageError(MpcfolioError):
    """An external forecast file does not cover the requested grid."""


class ConfigError(MpcfolioError):
    """Invalid or inconsistent configuration values."""


class NumericError(MpcfolioError):
    """A forward or backward pass produced non-finite values."""


class ShapeError(MpcfolioError):
    """Parameter snapshot does not match the target architecture."""


class TrainingError(MpcfolioError):
    """Pretraining diverged (non-finite loss)."""
