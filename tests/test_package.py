"""The top-level namespace: what `import kronlift` loads, and every name
in `__all__`."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import kronlift


def test_import_loads_only_setup_modules():
    """Generating and saving a scenario needs only these three submodules;
    the detectors, the lift and the spectral code load on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(kronlift.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import kronlift, sys; print(' '.join(sorted("
         "m for m in sys.modules if m.startswith('kronlift'))))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["kronlift", "kronlift.data_model",
                                   "kronlift.errors", "kronlift.synth"]


def test_every_public_name_is_its_submodules_object():
    for name in kronlift.__all__:
        if name == "__version__":
            continue
        value = getattr(kronlift, name)
        module = import_module(value.__module__)
        assert module.__name__.startswith("kronlift."), name
        assert getattr(module, name) is value, name


def test_from_import_of_a_lazy_name():
    from kronlift import run_rmt
    from kronlift.rmt_detector import run_rmt as defined

    assert run_rmt is defined


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="module 'kronlift' has no attribute 'no_such_name'"):
        kronlift.no_such_name
