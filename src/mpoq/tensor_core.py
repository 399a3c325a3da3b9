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
many operators.  ``move_center`` is the one sweep loop: orthonormalization,
compression and the re-rounding of an applied window all run through it.
At the small ranks of the catalog circuits the Python around each tiny
matrix costs as much as the arithmetic, so ``svd_step`` calls numpy's
thin-SVD gufunc directly (the call ``np.linalg.svd(...,
full_matrices=False)`` makes for complex input), and ``move_center`` enters
one ``np.errstate`` per sweep, not one per SVD, that turns a failed or NaN
SVD into ``numpy.linalg.LinAlgError``.

An operator stores only the cores of the sites it acts on, its window
``MPO.span``, plus the register size ``MPO.n``; it is the identity on every
other site.  Whoever builds a gate or gate group knows that window and
lifts it with ``MPO.embed``, so a gate costs its window, not the register.
``apply_window`` works on the window alone; the operations that need the
whole register (products, sums, dense reconstruction, rounding) take it
from ``MPO.padded``, the one place that writes identity cores.  Dense
reconstruction of an operator contracts its d²-site state view, so states
and operators share one dense contraction.

Bond indices use one fixed lumping convention throughout (first index
varies fastest, i.e. Fortran-order reshapes), which keeps the SVD sweeps
deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

DEFAULT_DENSE_CAP = 2 ** 20

#: Tolerance used to certify bond orthonormality.
ORTH_TOL = 1e-10


class DenseCapExceeded(ValueError):
    """Raised when a dense reconstruction would exceed the size guard."""


def dense_cap() -> int:
    """Largest dense object size allowed, overridable via ``MPOQ_DENSE_CAP``,
    which must then be an integer >= 1 (``ValueError`` otherwise)."""
    value = os.environ.get("MPOQ_DENSE_CAP")
    if not value:
        return DEFAULT_DENSE_CAP
    try:
        if int(value) >= 1:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"MPOQ_DENSE_CAP must be an integer >= 1, got {value!r}")


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
        if not self.rel_threshold >= 0:
            raise ValueError(f"rel_threshold must be >= 0, got {self.rel_threshold!r}")
        if self.max_rank is not None and (type(self.max_rank) is not int or self.max_rank < 1):
            raise ValueError(f"max_rank must be an integer >= 1 or None, got {self.max_rank!r}")

    def keep_count(self, singular_values: np.ndarray) -> int:
        values = singular_values.tolist()  # Python floats: no ufunc per site step
        smax = values[0] if values else 0.0
        if smax <= 0.0:
            keep = 1
        else:
            cut = self.rel_threshold * smax
            keep = max(sum(1 for v in values if v > cut), 1)
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


def _chain(cores, order: int) -> tuple[np.ndarray, ...]:
    """Read-only copies of ``cores`` after the one chain check: order ``order``,
    nonempty equal physical slots, boundary bonds 1 and matching inner bonds."""
    cores = tuple(map(_freeze, cores))
    if not cores:
        raise ValueError("a chain needs at least one core")
    for i, core in enumerate(cores):
        if core.ndim != order:
            raise ValueError(f"core {i} must have order {order}, got shape {core.shape}")
        slots = core.shape[1:-1]
        if slots[0] < 1 or slots[-1] != slots[0]:
            raise ValueError(f"core {i} needs nonempty, equal physical slots, got shape {core.shape}")
    if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
        raise ValueError("boundary bond dimensions must be 1")
    for i in range(1, len(cores)):
        if cores[i].shape[0] != cores[i - 1].shape[-1]:
            raise ValueError(f"bond mismatch between cores {i - 1} and {i}")
    return cores


class MPS:
    """Matrix product state: a chain of order-3 complex cores.

    Core ``i`` has shape ``(r_{i-1}, d_i, r_i)`` with ``r_0 = r_n = 1``.
    ``right_orthonormal=True`` certifies that every core except the first
    has an orthonormal right unfolding; only the sweep routines set it.
    """

    __slots__ = ("cores", "right_orthonormal")

    def __init__(self, cores, *, right_orthonormal: bool = False) -> None:
        self.cores = _chain(cores, 3)
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
            raise DenseCapExceeded(f"dense tensor of size {size} exceeds cap {dense_cap()}")
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
    (row) physical index before the input (column) one.  An operator on an
    ``n``-site register stores only the cores of its window
    ``span = (lo, hi)`` (0-based, inclusive), ``cores[i - lo]`` for site
    ``i``; it is the identity on every site outside the window.
    ``MPO(cores)`` spans the whole register; :meth:`embed` records a
    narrower window, and :meth:`padded` writes out all ``n`` cores for the
    operations that need the whole register.
    """

    __slots__ = ("cores", "span", "n")

    def __init__(self, cores) -> None:
        self.cores = _chain(cores, 4)
        self.span = (0, len(self.cores) - 1)
        self.n = len(self.cores)

    @classmethod
    def embed(cls, cores, start: int, n: int) -> "MPO":
        """Operator acting as ``cores`` on sites ``start, start + 1, ...``
        (0-based) of an ``n``-site register and as the identity elsewhere;
        only the window is stored, and its span is the sites of ``cores``."""
        cores = list(cores)
        hi = start + len(cores) - 1
        if start < 0 or hi >= n:
            raise ValueError(f"window {start}..{hi} outside a register of {n} sites")
        op = cls(cores)
        op.span, op.n = (start, hi), n
        return op

    @classmethod
    def identity(cls, n: int, d: int = 2) -> "MPO":
        eye = np.eye(d, dtype=np.complex128)[None, :, :, None]
        return cls([eye] * n)

    def padded(self) -> tuple[np.ndarray, ...]:
        """All ``n`` cores: the window with rank-1 identity cores around it."""
        lo, hi = self.span
        eye = _freeze(np.eye(self.cores[0].shape[1])[None, :, :, None])
        return (eye,) * lo + self.cores + (eye,) * (self.n - 1 - hi)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.padded())

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[3] for c in self.padded())

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def to_dense(self) -> np.ndarray:
        """Full contraction into a ``prod(dims) x prod(dims)`` matrix (guarded),
        from the d²-site view's entry order ``(row_1, col_1, row_2, ...)``."""
        dims = [d for d in self.dims if d > 1]  # a site of dimension 1 adds no axis
        n, size = len(dims), int(np.prod(dims, dtype=np.int64))
        flat = _mpo_as_mps(self).to_dense().reshape([x for d in dims for x in (d, d)])
        return flat.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2)).reshape(size, size)

    def apply(self, state: MPS) -> MPS:
        """Operator-state product; output ranks are the exact products."""
        if self.dims != state.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {state.dims}")
        return MPS([apply_core(g, t) for g, t in zip(self.padded(), state.cores)])

    def __matmul__(self, other):
        if isinstance(other, MPS):
            return self.apply(other)
        if not isinstance(other, MPO):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return MPO([apply_core(g, h) for g, h in zip(self.padded(), other.padded())])

    def conj(self) -> "MPO":
        """Elementwise complex conjugate of the represented operator."""
        return MPO.embed([c.conj() for c in self.cores], self.span[0], self.n)

    def adjoint(self) -> "MPO":
        """Conjugate transpose of the represented operator."""
        window = [c.conj().transpose(0, 2, 1, 3) for c in self.cores]
        return MPO.embed(window, self.span[0], self.n)


def apply_core(op_core: np.ndarray, core: np.ndarray) -> np.ndarray:
    """One site of an operator product, ``(K, x, z, L)`` times ``(k, z, ..., l)``.

    Contracts the operator's input index with the physical (or output)
    index of ``core`` and merges the bonds to ``K*k`` and ``L*l`` with the
    operator's bond varying slowest.  Serves operator-state (order-3
    ``core``) and operator-operator (order-4) products alike.
    """
    # np.tensordot(op_core, core, axes=([2], [1])) written out: the same
    # operand layouts reach the same np.dot, without tensordot's axis handling
    K, x, z, L = op_core.shape
    out = np.dot(op_core.swapaxes(2, 3).reshape(-1, z), core.swapaxes(0, 1).reshape(core.shape[1], -1))
    out = out.reshape(K, x, L, core.shape[0], *core.shape[2:])  # (K, x, L, k, [y,] l)
    last = out.ndim - 1
    out = out.transpose(0, 3, 1, *range(4, last), 2, last)
    s = out.shape
    return out.reshape(s[0] * s[1], *s[2:-2], s[-2] * s[-1])


# ---------------------------------------------------------------------------
# construction helpers


def block_core(rows) -> np.ndarray:
    """The core ``(len(rows), *block, len(rows[0]))`` whose bond block
    ``(i, j)`` is ``rows[i][j]``: a ket for a state core, a square matrix for
    an operator core, ``None`` for a zero block."""
    shape = next(np.shape(block) for row in rows for block in row if block is not None)
    core = np.zeros((len(rows), *shape, len(rows[0])), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, block in enumerate(row):
            if block is not None:
                core[i, ..., j] = block
    return core


_KET0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET1 = np.array([0.0, 1.0], dtype=np.complex128)


def basis_state_mps(bits) -> MPS:
    """Rank-one MPS for a computational basis state (first bit most significant)."""
    bits = list(bits)
    if not bits:
        raise ValueError("empty bit list")
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
    kets = (block_core([[_KET0]]), block_core([[_KET1]]))
    return MPS([kets[b] for b in bits], right_orthonormal=True)


#: The last core of each Bell state as its two blocks; ``0.0 - ket`` leaves
#: the zero entries unsigned, where ``-ket`` would make them -0.0.
_BELL_LAST = {
    "bell_phi_plus": (_KET0, _KET1),
    "bell_phi_minus": (_KET0, 0.0 - _KET1),
    "bell_psi_plus": (_KET1, _KET0),
    "bell_psi_minus": (_KET1, 0.0 - _KET0),
}


def named_state_mps(name: str, n: int) -> MPS:
    """Factory for well-known entangled states (normalized).

    Supported names, matched exactly: ``ghz``, ``w``, ``bell_phi_plus``,
    ``bell_phi_minus``, ``bell_psi_plus``, ``bell_psi_minus``.  The Bell
    states require ``n=2``; the W state has bond dimension 2.
    """
    if n < 2:
        raise ValueError("named entangled states need n >= 2")
    if name not in ("ghz", "w", *_BELL_LAST):
        raise ValueError(f"unknown state name {name!r}; known: ghz, w, {', '.join(_BELL_LAST)}")
    if name in _BELL_LAST and n != 2:
        raise ValueError("Bell states are two-qubit states")
    if name == "w":
        amp = 1.0 / np.sqrt(n)
        first = block_core([[_KET1 * amp, _KET0 * amp]])
        mid = block_core([[_KET0, None], [_KET1, _KET0]])
    else:  # a Bell state is the two-site GHZ chain with its own last core
        amp = 1.0 / np.sqrt(2.0)
        first = block_core([[_KET0 * amp, _KET1 * amp]])
        mid = block_core([[_KET0, None], [None, _KET1]])
    top, bottom = _BELL_LAST.get(name, (_KET0, _KET1))
    return MPS([first] + [mid] * (n - 2) + [block_core([[top], [bottom]])])


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


#: The LAPACK gufunc behind ``np.linalg.svd(mat, full_matrices=False)``,
#: called with the signature that wrapper picks for complex input.
_SVD = _umath_linalg.svd_s


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _truncated_svd(mat: np.ndarray, policy: TruncationPolicy):
    u, s, vh = _SVD(mat, signature="D->DdD")
    keep = policy.keep_count(s)
    if keep == len(s):
        return u, s, vh
    return u[:, :keep], s[:keep], vh[:keep, :]


# ---------------------------------------------------------------------------
# orthonormalization


def orthonormalize_right(state: MPS, policy: TruncationPolicy = DEFAULT_POLICY) -> MPS:
    """Right-to-left SVD sweep; afterwards all cores but the first are
    right-orthonormal and the ranks are non-increasing."""
    cores = list(state.cores)
    move_center(cores, len(cores) - 1, 0, policy)
    return MPS(cores, right_orthonormal=True)


def orthonormalize_left(state: MPS, policy: TruncationPolicy = DEFAULT_POLICY) -> MPS:
    """Left-to-right SVD sweep; afterwards all cores but the last are
    left-orthonormal and the ranks are non-increasing."""
    cores = list(state.cores)
    move_center(cores, 0, len(cores) - 1, policy)
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
    """The d²-site state view of ``op``: site ``i`` carries ``(row, col)``
    as one index ``row * d + col``."""
    cores = []
    for c in op.padded():
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


def _left_multiplied(core: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (q @ core.reshape(core.shape[0], -1)).reshape(q.shape[0], *core.shape[1:])


def transform_bond(value, i: int, q: np.ndarray):
    """Insert ``q`` and ``q^{-1}`` on bond ``i`` (between cores ``i`` and ``i+1``).

    Works on states and operators; the represented tensor is preserved
    exactly.  Raises ``numpy.linalg.LinAlgError`` for singular ``q``.
    """
    q = np.asarray(q, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("paired bond transform needs a square matrix")
    q_inv = np.linalg.inv(q)
    cores = list(value.padded() if isinstance(value, MPO) else value.cores)
    if i + 1 >= len(cores):
        raise IndexError("bond index out of range")
    cores[i] = cores[i] @ q
    cores[i + 1] = _left_multiplied(cores[i + 1], q_inv)
    return type(value)(cores)


def mpo_add(left: MPO, right: MPO) -> MPO:
    """Sum of two operators via block-diagonal bond stacking (ranks add)."""
    if left.dims != right.dims:
        raise ValueError(f"dimension mismatch: {left.dims} vs {right.dims}")
    n = left.n
    cores = []
    for i, (a, b) in enumerate(zip(left.padded(), right.padded())):
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
    factor move into the neighbour.  Run it through :func:`move_center`,
    whose errstate raises ``LinAlgError`` where the SVD fails.
    """
    r, d, s = cores[i].shape
    if step > 0:
        u, sv, vh = _truncated_svd(_left_unfold(cores[i]), policy)
        cores[i] = _left_fold(u, r, d)
        cores[i + 1] = _left_multiplied(cores[i + 1], sv[:, None] * vh)
    else:
        u, sv, vh = _truncated_svd(_right_unfold(cores[i]), policy)
        cores[i] = _right_fold(vh, d, s)
        cores[i - 1] = cores[i - 1] @ (u * sv)


def move_center(cores: list, center: int, target: int, policy: TruncationPolicy = LOSSLESS) -> int:
    """Steps from ``center`` to ``target``, each bond on the way cut by
    ``policy``; returns ``target``.  The one sweep loop of the module.
    Raises ``numpy.linalg.LinAlgError`` if an SVD fails to converge or
    meets a NaN."""
    step = 1 if target > center else -1
    with np.errstate(invalid="call", call=_svd_failed):
        for i in range(center, target, step):
            svd_step(cores, i, step, policy)
    return target


def apply_window(cores: list, center: int, op: MPO, policy: TruncationPolicy) -> int:
    """Apply ``op`` to the mixed-canonical chain on its span only.

    The center moves into the span ``[lo, hi]`` of ``op``, the operator
    cores are contracted there, and the window is re-canonicalized: lossless
    steps left to right up to ``hi + 1``, then truncating steps back down to
    ``lo - 1``.  Every bond from ``lo - 1|lo`` to ``hi|hi + 1`` is cut by
    ``policy`` against orthonormal environments, so its rank is the
    numerical Schmidt rank; bonds outside keep their ranks.  Returns the new
    center, ``max(lo - 1, 0)``.
    """
    lo, hi = op.span
    move_center(cores, center, min(max(center, lo), hi))
    for i in range(lo, hi + 1):
        cores[i] = apply_core(op.cores[i - lo], cores[i])
    right = move_center(cores, lo, min(hi + 1, len(cores) - 1))
    return move_center(cores, right, max(lo - 1, 0), policy)
