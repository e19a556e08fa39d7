import pytest
from hypothesis import settings

from geomgates.config import load_config
from geomgates.evolve import PropagatorConfig

# Property tests draw a fixed, bounded set of examples: the suite stays
# deterministic and its run time bounded.  No example database is written.
settings.register_profile(
    "geomgates", derandomize=True, max_examples=8, deadline=5000, database=None
)
settings.load_profile("geomgates")


@pytest.fixture(scope="session")
def cfg():
    return load_config()


@pytest.fixture(scope="session")
def quick():
    """Cheap fixed-order stepper for unit tests that only need ~1e-6."""
    return PropagatorConfig(steps_per_period=512, tolerance=1e-7)


@pytest.fixture(scope="session")
def accurate():
    """Packaged-default resolution, used wherever a tight tolerance is asserted."""
    return PropagatorConfig(steps_per_period=4096, tolerance=1e-10)
