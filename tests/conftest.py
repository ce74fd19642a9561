import errno
import os

import numpy as np
import pytest

from capdisc.geometry import random_unit_vectors


def uniform_directions(count: int, seed: int = 0) -> np.ndarray:
    """(count, 3) i.i.d. uniform unit vectors, reused across test modules."""
    return random_unit_vectors(np.random.default_rng(seed), count)


def count_table_dis(s):
    """Dis of sorted rows `s`, (t,) or (m, t), by the count-table sweep: halve 1 - s, then compare.

    max over i of max((t - i)/t - area_i, area_i - (t - 1 - i)/t), area_i = (1 - s_i)/2, in
    float64: the engine's sweep before the closed form (max |s - m| + 1/t)/2, and its bits.
    """
    t = s.shape[-1]
    frac = np.arange(t, -1, -1) / t
    area = np.subtract(1.0, s)
    area *= 0.5
    return np.maximum(frac[:-1] - area, area - frac[1:]).max(axis=-1)


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
