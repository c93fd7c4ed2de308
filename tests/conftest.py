import numpy as np
import pytest

from bowlab.diagrams import embed_stability
from bowlab.quiver import integerize_weights
from bowlab.total_space import _bow_data, _compiled, check_shapes


def cgauss(rng, rows, cols, scale=1.0):
    """Complex gaussian matrix, unit entry variance."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im) / np.sqrt(2.0)


def maxabs(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def bow_data(d, p, theta) -> dict:
    """find_destabilizer's arguments for the bow point p at the weights
    theta, as check_semistable builds them."""
    nu = embed_stability(d, integerize_weights(theta))
    return _bow_data(_compiled(d), check_shapes(d, p), nu)


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)
