"""kronlift: Kronecker-product dimension lifting and random-matrix
anomaly detection for multichannel sensor streams."""

__version__ = "0.1.0"

from .autoencoder import TrainConfig, run_sae_detailed, score_sae
from .data_model import (
    IndicatorSeries,
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    load_matrix,
    residual_matrix,
    save_matrix,
)
from .errors import (
    ConfigError,
    KronliftError,
    NumericalError,
    PreconditionError,
)
from .lift import lift_matrix
from .rmt_detector import (
    DetectionReport,
    DeviationRule,
    RmtDetectorConfig,
    run_rmt,
)
from .spectral import mp_law, summarize_window
from .synth import AnomalySpec, NoiseConfig, ScenarioConfig, generate

__all__ = [
    "AnomalySpec",
    "ConfigError",
    "DetectionReport",
    "DeviationRule",
    "IndicatorSeries",
    "KronliftError",
    "LiftConfig",
    "NoiseConfig",
    "NumericalError",
    "PreconditionError",
    "RmtDetectorConfig",
    "ScenarioConfig",
    "SpatioTemporalMatrix",
    "TrainConfig",
    "WindowSpec",
    "__version__",
    "generate",
    "lift_matrix",
    "load_matrix",
    "mp_law",
    "residual_matrix",
    "run_rmt",
    "run_sae_detailed",
    "save_matrix",
    "score_sae",
    "summarize_window",
]
