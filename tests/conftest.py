import numpy as np
import pytest

from handleopt import fixture_path
from handleopt.scenario_io import read_scenario_file


@pytest.fixture
def rng():
    """Fresh seeded generator per test, so property tests are repeatable."""
    return np.random.default_rng(20260818)


@pytest.fixture(scope="session")
def segments():
    """The 60 kg anthropometry that every packaged fixture shares."""
    return read_scenario_file(fixture_path("sit_to_stand_bed")).segments
