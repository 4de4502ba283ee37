import random

import pytest
from hypothesis import settings

from cli_cases import ENV
from logcy2.sampling import seed_from_env

# No property test runs against the clock: on a shared machine a wall-clock
# deadline fails examples that are merely slow, not wrong.  Draws are
# derandomized, so every run tries the same examples and takes the same time.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def srng() -> random.Random:
    """Seeded RNG; set LOGCY2_SEED to reproduce a run."""
    return random.Random(seed_from_env())


@pytest.fixture
def cli_env(monkeypatch):
    """The environment every row of ``cli_cases`` runs under."""
    for name, value in ENV.items():
        monkeypatch.setenv(name, value)
