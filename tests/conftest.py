import numpy as np
import pytest

from etaparity import density, level1


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def fresh_result_dicts(monkeypatch):
    """Each test starts with no kept density scan and no kept Hecke row,
    so a count or a patched operator sees the work done afresh."""
    monkeypatch.setattr(density, "_scans", {})
    monkeypatch.setattr(level1, "_rows", {})
