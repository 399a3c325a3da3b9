"""Matrix product state and operator containers plus the algebra on them.

States live in a chain of order-3 cores of shape ``(r_left, d, r_right)``,
operators in a chain of order-4 cores of shape ``(R_left, d, d, R_right)``
with the row (output) physical index first.  Boundary bond dimensions are
always 1.  All values are immutable after construction: every operation
returns a new object, and the stored arrays are marked read-only so they
can be shared freely across threads.  The site steps at the end of the
module (``svd_step``, ``move_center``, ``apply_window``) are the
exception: they replace entries of a caller-owned list of state cores in
place, so an executor can keep one chain in mixed-canonical form across
many operators.

Bond indices use one fixed lumping convention throughout (first index
varies fastest, i.e. Fortran-order reshapes), which keeps the SVD sweeps
deterministic.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_DENSE_CAP = 2 ** 20

#: Tolerance used to certify bond orthonormality.
ORTH_TOL = 1e-10


class DenseCapExceeded(ValueError):
    """Raised when a dense reconstruction would exceed the size guard."""


def dense_cap() -> int:
    """Largest dense object size allowed, overridable via ``MPOQ_DENSE_CAP``."""
    value = os.environ.get("MPOQ_DENSE_CAP")
    return int(value) if value else DEFAULT_DENSE_CAP


@dataclass(frozen=True)
class TruncationPolicy:
    """Singular-value cut-off rule for orthonormalization sweeps.

    Singular values below ``rel_threshold * sigma_max`` are discarded;
    ``max_rank``, when set, caps the number of kept values.  The default
    strips numerical noise only; ``rel_threshold=0`` with no cap is
    lossless up to floating point.
    """

    rel_threshold: float = 1e-12
    max_rank: int | None = None

    def __post_init__(self) -> None:
        if self.rel_threshold < 0:
            raise ValueError("rel_threshold must be >= 0")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")

    def keep_count(self, singular_values: np.ndarray) -> int:
        smax = singular_values[0] if singular_values.size else 0.0
        if smax <= 0.0:
            keep = 1
        else:
            keep = int(np.count_nonzero(singular_values > self.rel_threshold * smax))
            keep = max(keep, 1)
        if self.max_rank is not None:
            keep = min(keep, self.max_rank)
        return keep


#: Policy used by the circuit executors: strips numerical noise only.
DEFAULT_POLICY = TruncationPolicy()

#: Keeps every nonzero singular value.
LOSSLESS = TruncationPolicy(rel_threshold=0.0)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.flags.writeable = False
    return out


class MPS:
    """Matrix product state: a chain of order-3 complex cores.

    Core ``i`` has shape ``(r_{i-1}, d_i, r_i)`` with ``r_0 = r_n = 1``.
    ``right_orthonormal=True`` certifies that every core except the first
    has an orthonormal right unfolding; only the sweep routines set it.
    """

    __slots__ = ("cores", "right_orthonormal")

    def __init__(self, cores, *, right_orthonormal: bool = False) -> None:
        cores = [_freeze(c) for c in cores]
        if not cores:
            raise ValueError("an MPS needs at least one core")
        for i, core in enumerate(cores):
            if core.ndim != 3:
                raise ValueError(f"core {i} must have order 3, got shape {core.shape}")
            if core.shape[1] < 1:
                raise ValueError(f"core {i} has empty physical dimension")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for i in range(1, len(cores)):
            if cores[i].shape[0] != cores[i - 1].shape[2]:
                raise ValueError(f"bond mismatch between cores {i - 1} and {i}")
        self.cores = tuple(cores)
        self.right_orthonormal = right_orthonormal

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def element(self, indices) -> complex:
        """Single tensor entry: the product of the selected core slices."""
        if len(indices) != self.n:
            raise ValueError("index list length must match the number of sites")
        vec = None
        for core, x in zip(self.cores, indices):
            if not 0 <= x < core.shape[1]:
                raise IndexError(f"physical index {x} out of range [0, {core.shape[1]})")
            vec = core[:, x, :] if vec is None else vec @ core[:, x, :]
        return complex(vec[0, 0])

    def to_dense(self) -> np.ndarray:
        """Full contraction into a vector of size ``prod(dims)`` (guarded)."""
        size = int(np.prod(self.dims, dtype=np.int64))
        if size > dense_cap():
            raise DenseCapExceeded(f"dense state of size {size} exceeds cap {dense_cap()}")
        acc = self.cores[0].reshape(self.dims[0], -1)
        for core in self.cores[1:]:
            acc = np.tensordot(acc, core, axes=([1], [0]))
            acc = acc.reshape(-1, core.shape[2])
        return acc[:, 0]

    def norm(self) -> float:
        """Euclidean norm of the represented tensor."""
        env = np.ones((1, 1), dtype=np.complex128)
        for core in self.cores:
            env = np.einsum("kl,kxm,lxn->mn", env, core.conj(), core, optimize=True)
        return float(np.sqrt(abs(env[0, 0])))

    def normalized(self) -> "MPS":
        nrm = self.norm()
        if nrm == 0.0:
            raise ZeroDivisionError("cannot normalize the zero tensor")
        cores = list(self.cores)
        cores[0] = cores[0] / nrm
        return MPS(cores, right_orthonormal=self.right_orthonormal)

    def scaled(self, factor: complex) -> "MPS":
        cores = list(self.cores)
        cores[0] = cores[0] * factor
        return MPS(cores)


class MPO:
    """Matrix product operator: a chain of order-4 complex cores.

    Core ``i`` has shape ``(R_{i-1}, d_i, d_i, R_i)`` with the output
    (row) physical index before the input (column) one.
    """

    __slots__ = ("cores",)

    def __init__(self, cores) -> None:
        cores = [_freeze(c) for c in cores]
        if not cores:
            raise ValueError("an MPO needs at least one core")
        for i, core in enumerate(cores):
            if core.ndim != 4:
                raise ValueError(f"core {i} must have order 4, got shape {core.shape}")
            if core.shape[1] != core.shape[2]:
                raise ValueError(f"core {i} must act on square physical slots")
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for i in range(1, len(cores)):
            if cores[i].shape[0] != cores[i - 1].shape[3]:
                raise ValueError(f"bond mismatch between cores {i - 1} and {i}")
        self.cores = tuple(cores)

    @classmethod
    def identity(cls, n: int, d: int = 2) -> "MPO":
        eye = np.eye(d, dtype=np.complex128)[None, :, :, None]
        return cls([eye] * n)

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[3] for c in self.cores)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def to_dense(self) -> np.ndarray:
        """Full contraction into a ``prod(dims) x prod(dims)`` matrix (guarded)."""
        size = int(np.prod(self.dims, dtype=np.int64))
        if size * size > dense_cap():
            raise DenseCapExceeded(f"dense operator of size {size}^2 exceeds cap {dense_cap()}")
        acc = self.cores[0]
        for core in self.cores[1:]:
            acc = np.einsum("aijb,bklc->aikjlc", acc, core, optimize=True)
            s = acc.shape
            acc = acc.reshape(s[0], s[1] * s[2], s[3] * s[4], s[5])
        return acc[0, :, :, 0]

    def support(self) -> tuple[int, int] | None:
        """0-based span ``(lo, hi)`` between the outermost cores that are not
        the rank-1 identity; ``None`` when every core is."""
        lo, hi = 0, self.n - 1
        while lo <= hi and _is_identity_core(self.cores[lo]):
            lo += 1
        if lo > hi:
            return None
        while _is_identity_core(self.cores[hi]):
            hi -= 1
        return lo, hi

    def apply(self, state: MPS) -> MPS:
        """Operator-state product; output ranks are the exact products."""
        if self.dims != state.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {state.dims}")
        return MPS([apply_core(g, t) for g, t in zip(self.cores, state.cores)])

    def __matmul__(self, other):
        if isinstance(other, MPS):
            return self.apply(other)
        if not isinstance(other, MPO):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return MPO([apply_core(g, h) for g, h in zip(self.cores, other.cores)])

    def conj(self) -> "MPO":
        """Elementwise complex conjugate of the represented operator."""
        return MPO([c.conj() for c in self.cores])

    def adjoint(self) -> "MPO":
        """Conjugate transpose of the represented operator."""
        return MPO([c.conj().transpose(0, 2, 1, 3) for c in self.cores])


@functools.lru_cache(maxsize=None)
def _identity_bytes(d: int) -> bytes:
    # cached: MPO.support tests up to n cores per gate, and building eye(d)
    # each time costs about 15 times the byte comparison itself
    return np.eye(d, dtype=np.complex128).tobytes()


def _is_identity_core(core: np.ndarray) -> bool:
    r, d, _, s = core.shape
    return r == 1 and s == 1 and core.tobytes() == _identity_bytes(d)


def apply_core(op_core: np.ndarray, core: np.ndarray) -> np.ndarray:
    """One site of an operator product, ``(K, x, z, L)`` times ``(k, z, ..., l)``.

    Contracts the operator's input index with the physical (or output)
    index of ``core`` and merges the bonds to ``K*k`` and ``L*l`` with the
    operator's bond varying slowest.  Serves operator-state (order-3
    ``core``) and operator-operator (order-4) products alike.
    """
    out = np.tensordot(op_core, core, axes=([2], [1]))  # (K, x, L, k, [y,] l)
    last = out.ndim - 1
    out = out.transpose(0, 3, 1, *range(4, last), 2, last)
    s = out.shape
    return out.reshape(s[0] * s[1], *s[2:-2], s[-2] * s[-1])


# ---------------------------------------------------------------------------
# construction helpers


def basis_state_mps(bits) -> MPS:
    """Rank-one MPS for a computational basis state (first bit most significant)."""
    bits = list(bits)
    if not bits:
        raise ValueError("empty bit list")
    cores = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        core = np.zeros((1, 2, 1), dtype=np.complex128)
        core[0, b, 0] = 1.0
        cores.append(core)
    return MPS(cores, right_orthonormal=True)


_KET0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET1 = np.array([0.0, 1.0], dtype=np.complex128)


def named_state_mps(name: str, n: int) -> MPS:
    """Factory for well-known entangled states (normalized).

    Supported names: ``ghz``, ``w``, ``bell_phi_plus``, ``bell_phi_minus``,
    ``bell_psi_plus``, ``bell_psi_minus``.  The Bell states require ``n=2``;
    the W state has bond dimension 2.
    """
    key = name.strip().lower()
    if n < 2:
        raise ValueError("named entangled states need n >= 2")
    if key == "ghz":
        first = np.zeros((1, 2, 2), dtype=np.complex128)
        first[0, 0, 0] = first[0, 1, 1] = 1.0 / np.sqrt(2.0)
        mid = np.zeros((2, 2, 2), dtype=np.complex128)
        mid[0, 0, 0] = mid[1, 1, 1] = 1.0
        last = np.zeros((2, 2, 1), dtype=np.complex128)
        last[0, 0, 0] = last[1, 1, 0] = 1.0
        return MPS([first] + [mid] * (n - 2) + [last])
    if key == "w":
        first = np.zeros((1, 2, 2), dtype=np.complex128)
        first[0, 1, 0] = first[0, 0, 1] = 1.0 / np.sqrt(n)
        mid = np.zeros((2, 2, 2), dtype=np.complex128)
        mid[0, 0, 0] = 1.0
        mid[1, 1, 0] = mid[1, 0, 1] = 1.0
        last = np.zeros((2, 2, 1), dtype=np.complex128)
        last[0, 0, 0] = 1.0
        last[1, 1, 0] = 1.0
        return MPS([first] + [mid] * (n - 2) + [last])
    if key in ("bell_phi_plus", "bell_phi_minus", "bell_psi_plus", "bell_psi_minus"):
        if n != 2:
            raise ValueError("Bell states are two-qubit states")
        sign = 1.0 if key.endswith("plus") else -1.0
        flip = int(key.startswith("bell_psi"))
        first = np.zeros((1, 2, 2), dtype=np.complex128)
        first[0, 0, 0] = first[0, 1, 1] = 1.0 / np.sqrt(2.0)
        last = np.zeros((2, 2, 1), dtype=np.complex128)
        last[0, flip, 0] = 1.0
        last[1, 1 - flip, 0] = sign
        return MPS([first, last])
    raise ValueError(f"unknown state name {name!r}")


def random_mps(n: int, max_rank: int, seed=None, d: int = 2) -> MPS:
    """Normalized random MPS with internal ranks ``min(max_rank, d^i, d^(n-i))``."""
    rng = np.random.default_rng(seed)
    ranks = [1]
    for i in range(1, n):
        ranks.append(int(min(max_rank, d ** i, d ** (n - i))))
    ranks.append(1)
    cores = []
    for i in range(n):
        shape = (ranks[i], d, ranks[i + 1])
        cores.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MPS(cores).normalized()


# ---------------------------------------------------------------------------
# unfoldings (fixed lumping convention: first index fastest)


def _right_unfold(core: np.ndarray) -> np.ndarray:
    r, d, s = core.shape
    return core.reshape(r, d * s, order="F")


def _right_fold(mat: np.ndarray, d: int, s: int) -> np.ndarray:
    return mat.reshape(mat.shape[0], d, s, order="F")


def _left_unfold(core: np.ndarray) -> np.ndarray:
    r, d, s = core.shape
    return core.reshape(r * d, s, order="F")


def _left_fold(mat: np.ndarray, r: int, d: int) -> np.ndarray:
    return mat.reshape(r, d, mat.shape[1], order="F")


def _truncated_svd(mat: np.ndarray, policy: TruncationPolicy):
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = policy.keep_count(s)
    return u[:, :keep], s[:keep], vh[:keep, :]


# ---------------------------------------------------------------------------
# orthonormalization


def orthonormalize_right(state: MPS, policy: TruncationPolicy = DEFAULT_POLICY) -> MPS:
    """Right-to-left SVD sweep; afterwards all cores but the first are
    right-orthonormal and the ranks are non-increasing."""
    cores = list(state.cores)
    for i in range(len(cores) - 1, 0, -1):
        svd_step(cores, i, -1, policy)
    return MPS(cores, right_orthonormal=True)


def orthonormalize_left(state: MPS, policy: TruncationPolicy = DEFAULT_POLICY) -> MPS:
    """Left-to-right SVD sweep; afterwards all cores but the last are
    left-orthonormal and the ranks are non-increasing."""
    cores = list(state.cores)
    for i in range(len(cores) - 1):
        svd_step(cores, i, 1, policy)
    return MPS(cores)


def is_right_orthonormal(state: MPS, tol: float = ORTH_TOL) -> bool:
    """Certify that cores 2..n have orthonormal right unfoldings."""
    for core in state.cores[1:]:
        mat = _right_unfold(core)
        gram = mat @ mat.conj().T
        if np.max(np.abs(gram - np.eye(mat.shape[0]))) > tol:
            return False
    return True


def _mpo_as_mps(op: MPO) -> MPS:
    cores = []
    for c in op.cores:
        r, d, _, s = c.shape
        cores.append(c.reshape(r, d * d, s))
    return MPS(cores)


def _mps_as_mpo(state: MPS, dims) -> MPO:
    cores = []
    for c, d in zip(state.cores, dims):
        r, _, s = c.shape
        cores.append(np.asarray(c).reshape(r, d, d, s))
    return MPO(cores)


def compress_mpo(op: MPO, policy: TruncationPolicy = DEFAULT_POLICY) -> MPO:
    """Two-sided rounding of an MPO down to (numerically) minimal ranks.

    A lossless right sweep orthonormalizes the chain, then a left sweep
    applies the requested truncation against the orthonormal environment.
    """
    via = _mpo_as_mps(op)
    via = orthonormalize_right(via, LOSSLESS)
    via = orthonormalize_left(via, policy)
    return _mps_as_mpo(via, op.dims)


# ---------------------------------------------------------------------------
# core manipulation


def _right_multiplied(core: np.ndarray, q: np.ndarray) -> np.ndarray:
    return core @ q


def _left_multiplied(core: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (q @ core.reshape(core.shape[0], -1)).reshape(q.shape[0], *core.shape[1:])


def _rebuild(value, cores):
    if isinstance(value, MPO):
        return MPO(cores)
    return MPS(cores)


def transform_bond(value, i: int, q: np.ndarray):
    """Insert ``q`` and ``q^{-1}`` on bond ``i`` (between cores ``i`` and ``i+1``).

    Works on states and operators; the represented tensor is preserved
    exactly.  Raises ``numpy.linalg.LinAlgError`` for singular ``q``.
    """
    q = np.asarray(q, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("paired bond transform needs a square matrix")
    q_inv = np.linalg.inv(q)
    cores = list(value.cores)
    if i + 1 >= len(cores):
        raise IndexError("bond index out of range")
    cores[i] = _right_multiplied(cores[i], q)
    cores[i + 1] = _left_multiplied(cores[i + 1], q_inv)
    return _rebuild(value, cores)


def mpo_add(left: MPO, right: MPO) -> MPO:
    """Sum of two operators via block-diagonal bond stacking (ranks add)."""
    if left.dims != right.dims:
        raise ValueError(f"dimension mismatch: {left.dims} vs {right.dims}")
    n = left.n
    cores = []
    for i, (a, b) in enumerate(zip(left.cores, right.cores)):
        ra, d, _, sa = a.shape
        rb, _, _, sb = b.shape
        if n == 1:
            cores.append(a + b)
        elif i == 0:
            cores.append(np.concatenate([a, b], axis=3))
        elif i == n - 1:
            cores.append(np.concatenate([a, b], axis=0))
        else:
            out = np.zeros((ra + rb, d, d, sa + sb), dtype=np.complex128)
            out[:ra, :, :, :sa] = a
            out[ra:, :, :, sa:] = b
            cores.append(out)
    return MPO(cores)


def diag_mpo(state: MPS) -> MPO:
    """Diagonal operator whose diagonal is the represented tensor.

    Satisfies ``diag_mpo(T) @ T == T * T`` elementwise.
    """
    cores = []
    for c in state.cores:
        r, d, s = c.shape
        out = np.zeros((r, d, d, s), dtype=np.complex128)
        for x in range(d):
            out[:, x, x, :] = c[:, x, :]
        cores.append(out)
    return MPO(cores)


# ---------------------------------------------------------------------------
# in-place site steps on a mixed-canonical chain
#
# The chain is a list of state cores with an orthogonality center c: cores
# left of c are left-orthonormal, cores right of c right-orthonormal.


def svd_step(cores: list, i: int, step: int, policy: TruncationPolicy) -> None:
    """Truncating split of site ``i`` toward ``i + step`` (+1 or -1).

    Core ``i`` becomes left- (+1) or right-orthonormal (-1) with the bond
    to the neighbour cut by ``policy``; the singular values and the other
    factor move into the neighbour.
    """
    r, d, s = cores[i].shape
    if step > 0:
        u, sv, vh = _truncated_svd(_left_unfold(cores[i]), policy)
        cores[i] = _left_fold(u, r, d)
        cores[i + 1] = _left_multiplied(cores[i + 1], sv[:, None] * vh)
    else:
        u, sv, vh = _truncated_svd(_right_unfold(cores[i]), policy)
        cores[i] = _right_fold(vh, d, s)
        cores[i - 1] = _right_multiplied(cores[i - 1], u * sv)


def move_center(cores: list, center: int, target: int) -> int:
    """Lossless steps from ``center`` to ``target``; returns ``target``."""
    for i in range(center, target):
        svd_step(cores, i, 1, LOSSLESS)
    for i in range(center, target, -1):
        svd_step(cores, i, -1, LOSSLESS)
    return target


def apply_window(cores: list, center: int, op: MPO, policy: TruncationPolicy) -> int:
    """Apply ``op`` to the mixed-canonical chain on its support only.

    The center moves into the support ``[lo, hi]`` of ``op``, the operator
    cores are contracted there, and the window is re-canonicalized: lossless
    steps left to right up to ``hi + 1``, then truncating steps back down to
    ``lo - 1``.  Every bond from ``lo - 1|lo`` to ``hi|hi + 1`` is cut by
    ``policy`` against orthonormal environments, so its rank is the
    numerical Schmidt rank; bonds outside keep their ranks.  Returns the new
    center (``max(lo - 1, 0)``, or ``center`` when ``op`` is the identity).
    """
    support = op.support()
    if support is None:
        return center
    lo, hi = support
    move_center(cores, center, min(max(center, lo), hi))
    for i in range(lo, hi + 1):
        cores[i] = apply_core(op.cores[i], cores[i])
    right = move_center(cores, lo, min(hi + 1, len(cores) - 1))
    left = max(lo - 1, 0)
    for i in range(right, left, -1):
        svd_step(cores, i, -1, policy)
    return left
