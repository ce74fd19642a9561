import errno
import os

import numpy as np
import pytest

from capdisc.geometry import random_unit_vectors


def uniform_directions(count: int, seed: int = 0) -> np.ndarray:
    """(count, 3) i.i.d. uniform unit vectors, reused across test modules."""
    return random_unit_vectors(np.random.default_rng(seed), count)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_left():
    """No test may leave a child process behind, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid gave pid {pid}, status {status}")


@pytest.fixture
def one_process(monkeypatch):
    """Covers walk phase 1's lower band in the calling process, as on a host that refuses a fork.

    A spy patched into the engine then sees the calls of both bands.
    """

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
