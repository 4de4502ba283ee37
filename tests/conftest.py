import random

import pytest
from hypothesis import settings

from logcy2.sampling import seed_from_env

# No property test runs against the clock: on a shared machine a wall-clock
# deadline fails examples that are merely slow, not wrong.
settings.register_profile("tier1", deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def srng() -> random.Random:
    """Seeded RNG; set LOGCY2_SEED to reproduce a run."""
    return random.Random(seed_from_env())
