import numpy as np
import pytest
from hypothesis import settings

# one profile for every property test: a fixed example sequence keeps the
# suite deterministic, and no per-example deadline on a shared machine
settings.register_profile("mpoq", derandomize=True, deadline=None)
settings.load_profile("mpoq")


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


def kron_chain(mats):
    """Dense Kronecker product of a list of small matrices or vectors."""
    out = np.array([1.0 + 0.0j])
    if mats and np.asarray(mats[0]).ndim == 2:
        out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def is_right_orthonormal(state, tol=1e-10):
    """Whether cores 2..n of ``state`` have orthonormal right unfoldings."""
    for core in state.cores[1:]:
        mat = core.reshape(core.shape[0], -1)
        if np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) > tol:
            return False
    return True
