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


@pytest.fixture(scope="session")
def three_vertex():
    """The fewest vertices: an angle step of vertex q touches only pairs
    that hold vertex 1 or q."""
    return make_metric(0.9, [(0.2 + 0.1j, -0.7), (1.3 - 0.4j, -0.6), (-0.6 + 0.9j, -0.7)])


@pytest.fixture(scope="session")
def eight_vertex():
    """Eight vertices, one angle above 2 pi (b = 0.3)."""
    return make_metric(2.1, [(0.9 + 0.2j, -0.5), (-0.4 + 1.1j, -0.3), (-1.2 - 0.3j, -0.4),
                             (0.3 - 0.8j, -0.2), (1.7 + 1.4j, 0.3), (-0.1 + 0.05j, -0.35),
                             (-2.2 + 0.7j, -0.25), (0.6 - 2.3j, -0.3)])


@pytest.fixture(scope="session")
def above_two_pi():
    """Cone angles from 0.1 pi to 4.2 pi (b = 1.1)."""
    return make_metric(0.7, [(0.0, -0.95), (1.3, 1.1), (-0.9 + 0.8j, -0.85),
                             (0.2 - 1.4j, -0.7), (-0.4 + 0.1j, -0.6)])


@pytest.fixture(scope="session")
def near_minus_one():
    """One exponent at b = -0.999, a cone angle of 0.002 pi."""
    return make_metric(1.0, [(0.3j, -0.999), (1.0, -0.5), (-1.0 + 0.2j, -0.2),
                             (0.4 - 0.9j, -0.301)])
