"""Kronecker dimension lifting.

Each data column of length P = k*n is cut into k contiguous segments of
length n.  Every segment is scaled to unit Euclidean norm and the k unit
segments are Kronecker-multiplied left to right, producing a unit vector
of dimension n**k.  In sqrt-dim mode the result is additionally scaled by
sqrt(n**k) so that windowed covariances with 1/N' weights are comparable
to a unit-variance reference spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import LiftConfig, SpatioTemporalMatrix
from .errors import ConfigError, PreconditionError

SCALE_MODES = ("unit-norm", "sqrt-dim")


@dataclass(frozen=True)
class LiftedMatrix:
    """Lifted data: dim x samples; column j is at public time t0 + j."""

    values: np.ndarray
    t0: int = 1

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def samples(self) -> int:
        return self.values.shape[1]


def lift_matrix(
    D: SpatioTemporalMatrix,
    cfg: LiftConfig,
    scale_mode: str = "unit-norm",
) -> LiftedMatrix:
    """Lift every column of D.  Vectorized over time.

    Any zero segment aborts with the offending public time index.
    """
    if scale_mode not in SCALE_MODES:
        raise ConfigError(f"scale_mode must be one of {SCALE_MODES}")
    if D.channels != cfg.channels:
        raise PreconditionError(
            f"{D.channels} channels do not match k*n = {cfg.channels}"
        )
    N = D.samples
    segs = D.values.reshape(cfg.k, cfg.n, N)
    norms = np.linalg.norm(segs, axis=1)  # (k, N)
    bad = np.argwhere(norms == 0.0)
    if bad.size:
        l, j = bad[0]
        raise PreconditionError(f"zero segment {l + 1} at t={D.t0 + j}")
    unit = segs / norms[:, None, :]
    out = unit[0]
    for l in range(1, cfg.k):
        # batched kronecker across all columns at once
        out = (out[:, None, :] * unit[l][None, :, :]).reshape(-1, N)
    if scale_mode == "sqrt-dim":
        out *= np.sqrt(cfg.lifted_dim)
    return LiftedMatrix(values=out, t0=D.t0)
