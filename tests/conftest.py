import math

import pytest

from polydet import make_metric, tetrahedron_metric

PI = math.pi


@pytest.fixture(scope="session")
def tetra():
    return tetrahedron_metric()


@pytest.fixture(scope="session")
def corpus5():
    """Asymmetric 5-vertex metric: exponents (-0.7, -0.6, -0.5, -0.4, 0.2),
    generic positions; b = 0.2 puts one cone angle at 2.4 pi."""
    return make_metric(1.3, [
        (1.1 + 0.3j, -0.7),
        (-0.8 + 0.9j, -0.6),
        (-1.0 - 0.7j, -0.5),
        (0.7 - 1.1j, -0.4),
        (0.1 + 0.15j, 0.2),
    ])


@pytest.fixture(scope="session")
def near_degenerate():
    """Two vertices 1e-3 apart; exercises step auto-shrinking."""
    return make_metric(1.0, [
        (1.0 + 0.0j, -0.5),
        (1.0 + 1e-3j, -0.5),
        (-1.0 + 0.4j, -0.6),
        (-0.3 - 1.2j, -0.4),
    ])

