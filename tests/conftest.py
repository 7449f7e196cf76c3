import numpy as np
import pytest

from laue_lab.exterior import Signature
from laue_lab.fields import MetricField

from field_builders import make_conserved_blob, make_static_dust


@pytest.fixture(scope="session")
def sig4():
    return Signature.mostly_minus(4)


@pytest.fixture(scope="session")
def eta4():
    return MetricField.minkowski(4)


@pytest.fixture(scope="session")
def conserved_blob():
    return make_conserved_blob()


@pytest.fixture(scope="session")
def sample_points4():
    rng = np.random.default_rng(2718)
    return rng.uniform(-1.5, 1.5, size=(40, 4))


@pytest.fixture(scope="session")
def static_dust():
    return make_static_dust()
