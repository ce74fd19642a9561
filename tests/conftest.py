import numpy as np
import pytest

from capdisc.geometry import random_unit_vectors


def uniform_directions(count: int, seed: int = 0) -> np.ndarray:
    """(count, 3) i.i.d. uniform unit vectors, reused across test modules."""
    return random_unit_vectors(np.random.default_rng(seed), count)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
