import importlib

import numpy as np
import pytest

from helpers import TRANSFORMS


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260825)


@pytest.fixture
def no_transforms(monkeypatch):
    """Fail the test if a reconstruction reaches any of its fast transforms."""
    # By module path: the package's own `reconstruct` name is the function.
    rec = importlib.import_module("phasorfield.reconstruct")

    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran before the input was refused")

    for name in TRANSFORMS:
        monkeypatch.setattr(rec, name, refuse)
