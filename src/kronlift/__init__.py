"""kronlift: Kronecker-product dimension lifting and random-matrix
anomaly detection for multichannel sensor streams."""

from importlib import import_module

__version__ = "0.1.0"

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
from .synth import AnomalySpec, NoiseConfig, ScenarioConfig, generate

# Generating and saving a scenario needs only the imports above; these
# names import their submodule on first access (PEP 562).
_LAZY = {
    "autoencoder": ("TrainConfig", "run_sae_detailed", "score_sae"),
    "lift": ("lift_matrix",),
    "rmt_detector": ("DetectionReport", "DeviationRule", "RmtDetectorConfig",
                     "run_rmt"),
    "spectral": ("mp_law", "summarize_window"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(
                import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
