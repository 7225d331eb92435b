import os

# Pin BLAS to one thread before numpy loads it: the suite's small dense
# products gain nothing from threads, and on a shared host an unpinned
# OpenBLAS ran a 3x3 matrix exponential 100x slower from oversubscription.
# The library itself leaves the default alone.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from uqd import models


def ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


@pytest.fixture
def qutrit_a():
    return models.qutrit_a()


@pytest.fixture
def qutrit_a_min():
    return models.qutrit_a_minimal()


@pytest.fixture
def qutrit_b0():
    return models.qutrit_b(theta=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
