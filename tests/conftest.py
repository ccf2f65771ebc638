"""Run the suite at one BLAS thread unless the caller chose a count.

pytest loads this file before any test module imports numpy, so the BLAS
reads the variables when it starts.  With one BLAS thread the detector
gives each CPU its own windows (`kronlift._workers`) instead of
oversubscribing them; outputs match other thread counts to about 1e-10
(see README), and the suite asserts none of those last digits.
"""

import os

import pytest

if not any(os.environ.get(var) for var in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
        "MKL_NUM_THREADS")):
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")


@pytest.fixture
def workers(monkeypatch):
    """workers(n) makes `_workers.worker_count()` return n in this test."""
    from kronlift import _workers  # loads numpy, so not before the pin above

    return lambda n: monkeypatch.setattr(_workers, "worker_count", lambda: n)
