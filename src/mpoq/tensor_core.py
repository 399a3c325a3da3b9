"""Matrix product state and operator containers plus the algebra on them.

States live in a chain of order-3 cores of shape ``(r_left, d, r_right)``,
operators in a chain of order-4 cores of shape ``(R_left, d, d, R_right)``
with the row (output) physical index first.  Boundary bond dimensions are
always 1.  All values are immutable after construction: every operation
returns a new object, and every stored array is sealed (see below).  The
site steps at the end of the module (``move_center``, ``apply_window``)
are the exception: they replace entries of a caller-owned list of state
cores in place, so an executor can keep one chain in mixed-canonical form
across many operators.
``move_center`` is the one sweep loop, the one SVD site step and the one
place where singular values are cut: orthonormalization, compression and
the re-rounding of an applied window all run through it.  At the small
ranks of the catalog circuits the Python around each tiny matrix costs as
much as the arithmetic, so a step is one reshape in, numpy's thin-SVD
gufunc called directly (the call ``np.linalg.svd(..., full_matrices=False)``
makes for complex input), slices only when the policy cuts, one reshape
out and one product into the neighbour, all under one ``np.errstate`` per
sweep, not one per SVD, that turns a failed or NaN SVD into
``numpy.linalg.LinAlgError``.

An operator stores only the cores of the sites it acts on, its window
``MPO.span``, plus the register size ``MPO.n``; it is the identity on every
other site.  Whoever builds a gate or gate group knows that window and
passes it to ``MPO(cores, start, n)``, so a gate costs its window, not the
register.  ``apply_window`` works on the window alone; the operations that
need the whole register (products, sums, dense reconstruction, rounding)
take it from ``MPO.padded``, the one place that writes identity cores.  Both
containers read dims and ranks off that full list (a state's ``cores``)
and share one dense contraction: an operator's cores, reshaped to order 3
with each site's ``(row, col)`` as one index, are contracted as a state's.

One rule keeps stored arrays from changing: every array the library
keeps is sealed (:func:`sealed`), a C-ordered complex128 array over an
immutable ``bytes`` buffer, which numpy refuses to make writable again.
A chain seals every core it is given; a sealed core, or a C-ordered view
of one, is shared as it is, anything else is copied once.  So a chain does
not copy what a builder sealed (every :func:`block_core` result and the
module constants the builders reuse, reshaped or not), and one array can
serve many operators.  The library's input rules live here too:
:func:`is_integer`, :func:`check_bit` and :func:`check_positions`.

Bond indices use one fixed lumping convention throughout (first index
varies fastest, i.e. Fortran-order reshapes), which keeps the SVD sweeps
deterministic; each step of ``move_center`` unfolds and folds its core
with one such reshape each.
"""

from __future__ import annotations

import numbers
import os
import re
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

DEFAULT_DENSE_CAP = 2 ** 20


class DenseCapExceeded(ValueError):
    """Raised when a dense reconstruction would exceed the size guard."""


def clipped(text: str) -> str:
    """``text`` as an error message quotes input: at most 40 characters,
    ending in ``...`` where it is cut."""
    return text if len(text) <= 40 else text[:37] + "..."


def dense_cap() -> int:
    """Largest dense object size allowed, overridable via ``MPOQ_DENSE_CAP``,
    which must then be an integer >= 1 in ASCII decimal digits, at most
    ``int()``'s 4,300 of them (``ValueError`` otherwise)."""
    value = os.environ.get("MPOQ_DENSE_CAP")
    if not value:
        return DEFAULT_DENSE_CAP
    if re.fullmatch(r"[0-9]{1,4300}", value.strip(), re.ASCII) and int(value) >= 1:
        return int(value)
    raise ValueError(f"MPOQ_DENSE_CAP must be an integer >= 1, got {clipped(repr(value))}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Singular-value cut-off rule for orthonormalization sweeps, applied
    by :func:`move_center`.

    Singular values at or below ``rel_threshold * sigma_max`` are
    discarded, though at least one is kept; ``max_rank``, when set, caps the
    number of kept values.  The default strips numerical noise only;
    ``rel_threshold=0`` with no cap is lossless up to floating point.
    """

    rel_threshold: float = 1e-12
    max_rank: int | None = None

    def __post_init__(self) -> None:
        rel = self.rel_threshold
        if isinstance(rel, bool) or not isinstance(rel, numbers.Real) or not rel >= 0:
            raise ValueError(f"rel_threshold must be >= 0, got {rel!r}")
        if self.max_rank is not None and (not is_integer(self.max_rank) or self.max_rank < 1):
            raise ValueError(f"max_rank must be an integer >= 1 or None, got {self.max_rank!r}")


#: Policy used by the circuit executors: strips numerical noise only.
DEFAULT_POLICY = TruncationPolicy()

#: Keeps every nonzero singular value.
LOSSLESS = TruncationPolicy(rel_threshold=0.0)


def sealed(arr) -> np.ndarray:
    """``arr`` as a C-ordered complex128 array over an immutable ``bytes``
    buffer, read-only for good: such an array, or a C-ordered complex128
    view of one (whose ``base`` is the sealed array), as it is, anything
    else copied.  The one way the library makes a kept array read-only."""
    if type(arr) is np.ndarray and arr.dtype == np.complex128 and arr.flags.c_contiguous \
            and bytes in (type(arr.base), type(getattr(arr.base, "base", None))):
        return arr
    arr = np.asarray(arr, dtype=np.complex128)
    return np.ndarray(arr.shape, np.complex128, arr.tobytes())


def _chain(cores, order: int) -> tuple[np.ndarray, ...]:
    """``cores`` sealed by :func:`sealed` after the one chain check: order
    ``order``, nonempty equal physical slots, boundary bonds 1 and matching,
    nonempty inner bonds."""
    cores = tuple(map(sealed, cores))
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
        if cores[i].shape[0] < 1:
            raise ValueError(f"empty bond between cores {i - 1} and {i}")
    return cores


def _dense(cores) -> np.ndarray:
    """The vector of a list of state cores, guarded by :func:`dense_cap`."""
    size = int(np.prod([c.shape[1] for c in cores], dtype=np.int64))
    if size > dense_cap():
        raise DenseCapExceeded(f"dense tensor of size {size} exceeds cap {dense_cap()}")
    acc = cores[0].reshape(cores[0].shape[1], -1)
    for core in cores[1:]:
        acc = np.tensordot(acc, core, axes=([1], [0])).reshape(-1, core.shape[2])
    return acc[:, 0]


class _Chain:
    """What a state and an operator share: cores from left bond to right bond."""

    __slots__ = ("cores",)

    def _sites(self) -> tuple[np.ndarray, ...]:  # one core per register site
        return self.cores

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self._sites())

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[-1] for c in self._sites())

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def _paired(self, other: "_Chain"):
        """The site cores of both chains side by side; their dims must agree."""
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return zip(self._sites(), other._sites())


class MPS(_Chain):
    """Matrix product state: a chain of order-3 complex cores.

    Core ``i`` has shape ``(r_{i-1}, d_i, r_i)`` with ``r_0 = r_n = 1``.
    ``right_orthonormal=True`` certifies that every core except the first
    has an orthonormal right unfolding; only the sweep routines set it.
    """

    __slots__ = ("right_orthonormal",)

    def __init__(self, cores, *, right_orthonormal: bool = False) -> None:
        self.cores = _chain(cores, 3)
        self.right_orthonormal = right_orthonormal

    @property
    def n(self) -> int:
        return len(self.cores)

    def element(self, indices) -> complex:
        """Single tensor entry: the product of the selected core slices, one
        integer index (:func:`is_integer`) per site."""
        if len(indices) != self.n:
            raise ValueError("index list length must match the number of sites")
        vec = None
        for core, x in zip(self.cores, indices):
            if not is_integer(x):
                raise ValueError(f"physical index {clipped(repr(x))} is not an integer")
            if not 0 <= x < core.shape[1]:
                raise IndexError(f"physical index {x} out of range [0, {core.shape[1]})")
            vec = core[:, x, :] if vec is None else vec @ core[:, x, :]
        return complex(vec[0, 0])

    def to_dense(self) -> np.ndarray:
        """Full contraction into a vector of size ``prod(dims)`` (guarded)."""
        return _dense(self.cores)

    def norm(self) -> float:
        """Euclidean norm of the represented tensor."""
        return float(np.sqrt(abs(outcome_weights(self.cores, ())[0])))

    def normalized(self) -> "MPS":
        nrm = self.norm()
        if nrm == 0.0:
            raise ZeroDivisionError("cannot normalize the zero tensor")
        return MPS((self.cores[0] / nrm, *self.cores[1:]), right_orthonormal=self.right_orthonormal)

    def scaled(self, factor: complex) -> "MPS":
        return MPS((self.cores[0] * factor, *self.cores[1:]))


class MPO(_Chain):
    """Matrix product operator: a chain of order-4 complex cores.

    Core ``i`` has shape ``(R_{i-1}, d_i, d_i, R_i)`` with the output
    (row) physical index before the input (column) one.  ``MPO(cores,
    start, n)`` stores only ``cores``, the window ``span = (lo, hi)``
    (0-based, inclusive) from ``lo = start``, ``cores[i - lo]`` for site
    ``i``, of an ``n``-site register, and is the identity on every other
    site; ``n`` defaults to ``hi + 1``, so ``MPO(cores)`` spans the whole
    register.  ``start`` and ``n`` follow :func:`is_integer` and are stored
    as ``int``.  :meth:`padded` writes out all ``n`` cores for the
    operations that need the whole register.
    """

    __slots__ = ("span", "n")

    def __init__(self, cores, start: int = 0, n: int | None = None) -> None:
        self.cores = _chain(cores, 4)
        if not is_integer(start) or n is not None and not is_integer(n):
            raise ValueError("window start and register size must be integers, "
                             f"got {clipped(repr(start))} and {clipped(repr(n))}")
        start, hi = int(start), int(start) + len(self.cores) - 1
        self.span, self.n = (start, hi), hi + 1 if n is None else int(n)
        if start < 0 or hi >= self.n:
            raise ValueError(f"window {start}..{hi} outside a register of {self.n} sites")

    @classmethod
    def identity(cls, n: int, d: int = 2) -> "MPO":
        if not is_integer(d) or d < 1:
            raise ValueError(f"a site dimension must be an integer >= 1, got {clipped(repr(d))}")
        return cls([sealed(np.eye(d)[None, :, :, None])], 0, n)

    def padded(self) -> tuple[np.ndarray, ...]:
        """All ``n`` cores: the window with rank-1 identity cores around it."""
        lo, hi = self.span
        eye = sealed(np.eye(self.cores[0].shape[1])[None, :, :, None])
        return (eye,) * lo + self.cores + (eye,) * (self.n - 1 - hi)

    _sites = padded

    def to_dense(self) -> np.ndarray:
        """Full contraction into a ``prod(dims) x prod(dims)`` matrix (guarded),
        from the reshaped cores' entry order ``(row_1, col_1, row_2, ...)``."""
        dims = [d for d in self.dims if d > 1]  # a site of dimension 1 adds no axis
        n, size = len(dims), int(np.prod(dims, dtype=np.int64))
        flat = _dense([c.reshape(c.shape[0], -1, c.shape[3]) for c in self.padded()])
        flat = flat.reshape([x for d in dims for x in (d, d)])
        return flat.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2)).reshape(size, size)

    def apply(self, state: MPS) -> MPS:
        """Operator-state product; output ranks are the exact products."""
        return MPS([apply_core(g, t) for g, t in self._paired(state)])

    def __matmul__(self, other):
        if not isinstance(other, MPO):
            return NotImplemented
        return MPO([apply_core(g, h) for g, h in self._paired(other)])


def adjoint_core(core: np.ndarray) -> np.ndarray:
    """The core of the adjoint operator at one site: the row and column
    physical indices swapped and every entry conjugated."""
    return core.conj().transpose(0, 2, 1, 3)


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


def outcome_weights(cores, kept) -> np.ndarray:
    """Squared-amplitude weight of each outcome of the 0-based sites ``kept``
    of a chain of state cores, every other site traced out: one complex
    entry per outcome, the first kept site's index varying slowest."""
    acc = np.ones((1, 1, 1), dtype=np.complex128)  # (outcomes, k, K), k conjugated
    for i, core in enumerate(cores):
        out = "oxlL" if i in kept else "olL"
        acc = np.einsum(f"okK,kxl,KxL->{out}", acc, core.conj(), core, optimize=True)
        acc = acc.reshape(-1, *acc.shape[-2:])
    return acc[:, 0, 0]


# ---------------------------------------------------------------------------
# construction helpers


def block_core(rows) -> np.ndarray:
    """The core ``(len(rows), *block, len(rows[0]))`` whose bond block
    ``(i, j)`` is ``rows[i][j]``: a ket for a state core, a square matrix
    for an operator core, ``None`` for a zero block.  It is returned sealed
    (:func:`sealed`), so a chain shares it without a copy.  The one builder
    that places core entries by index: every closed-form core (states, gates,
    catalog circuits and :func:`diag_mpo`) is written in it."""
    shape = next(np.shape(block) for row in rows for block in row if block is not None)
    core = np.zeros((len(rows), *shape, len(rows[0])), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, block in enumerate(row):
            if block is not None:
                core[i, ..., j] = block
    return sealed(core)


_KET0 = sealed([1.0, 0.0])
_KET1 = sealed([0.0, 1.0])


def is_integer(x) -> bool:
    """The one integer rule: an int or numpy integer, never a bool or a float."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_bit(b, what: str) -> None:
    """The one bit rule: ``ValueError`` naming ``what`` unless ``b`` is an
    integer (:func:`is_integer`) equal to 0 or 1."""
    if not is_integer(b) or b not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {clipped(repr(b))}")


def check_positions(positions, n: int, what: str) -> None:
    """The one position rule: ``ValueError`` naming ``what`` unless every
    1-based qubit position is an integer (:func:`is_integer`) in ``[1, n]``
    and none is repeated."""
    for p in positions:
        if not is_integer(p):
            raise ValueError(f"{what} position {clipped(repr(p))} is not an integer")
        if not 1 <= p <= n:
            raise ValueError(f"{what} position {p} outside register [1, {n}]")
    if len(set(positions)) != len(positions):
        raise ValueError(f"overlapping {what} positions {tuple(positions)}")


def basis_state_mps(bits) -> MPS:
    """Rank-one MPS for a computational basis state (first bit most significant)."""
    bits = list(bits)
    if not bits:
        raise ValueError("empty bit list")
    for b in bits:
        check_bit(b, "basis bit")
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
    if not is_integer(n) or n < 2:
        raise ValueError(f"named entangled states need an integer n >= 2, got {clipped(repr(n))}")
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
    if not is_integer(n) or n < 1:
        raise ValueError(f"random_mps needs an integer n >= 1, got {clipped(repr(n))}")
    if not is_integer(max_rank) or not is_integer(d) or max_rank < 1 or d < 1:
        raise ValueError("random_mps needs integers max_rank >= 1 and d >= 1, "
                         f"got {clipped(repr(max_rank))} and {clipped(repr(d))}")
    n, max_rank, d = int(n), int(max_rank), int(d)
    rng = np.random.default_rng(seed)
    ranks = [1] + [min(max_rank, d ** i, d ** (n - i)) for i in range(1, n)] + [1]
    cores = []
    for i in range(n):
        shape = (ranks[i], d, ranks[i + 1])
        cores.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MPS(cores).normalized()


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


def compress_mpo(op: MPO, policy: TruncationPolicy = DEFAULT_POLICY) -> MPO:
    """Two-sided rounding of an MPO down to (numerically) minimal ranks.

    Two :func:`move_center` sweeps over the cores reshaped to order 3, each
    site's ``(row, col)`` as one index ``row * d + col``: a lossless one from
    the last site to the first orthonormalizes the chain, then one from the
    first site to the last cuts every bond by ``policy`` against the
    orthonormal environment.
    """
    cores = [c.reshape(c.shape[0], -1, c.shape[3]) for c in op.padded()]
    move_center(cores, len(cores) - 1, 0)
    move_center(cores, 0, len(cores) - 1, policy)
    return MPO([c.reshape(c.shape[0], d, d, c.shape[2]) for c, d in zip(cores, op.dims)])


# ---------------------------------------------------------------------------
# core manipulation


def _left_multiplied(core: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (q @ core.reshape(core.shape[0], -1)).reshape(q.shape[0], *core.shape[1:])


def transform_bond(value, i: int, q: np.ndarray):
    """Insert ``q`` and ``q^{-1}`` on bond ``i`` (between cores ``i`` and ``i+1``).

    Works on states and operators; the represented tensor is preserved
    exactly.  Raises ``numpy.linalg.LinAlgError`` for singular ``q``,
    ``ValueError`` for a bond index that is not an integer
    (:func:`is_integer`) and ``IndexError`` for one outside ``[0, n - 2]``.
    """
    q = np.asarray(q, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("paired bond transform needs a square matrix")
    q_inv = np.linalg.inv(q)
    cores = list(value._sites())
    if not is_integer(i):
        raise ValueError(f"a bond index must be an integer, got {clipped(repr(i))}")
    if not 0 <= i < len(cores) - 1:
        raise IndexError("bond index out of range")
    cores[i] = cores[i] @ q
    cores[i + 1] = _left_multiplied(cores[i + 1], q_inv)
    return type(value)(cores)


def mpo_add(left: MPO, right: MPO) -> MPO:
    """Sum of two operators via block-diagonal bond stacking (ranks add)."""
    n = left.n
    cores = []
    for i, (a, b) in enumerate(left._paired(right)):
        (ra, d, _, sa), (rb, _, _, sb) = a.shape, b.shape
        # the boundary bonds are shared: b starts on the first core's row 0 and the last's column 0
        top, side = (0 if i == 0 else ra), (0 if i == n - 1 else sa)
        out = np.zeros((top + rb, d, d, side + sb), dtype=np.complex128)
        out[:ra, ..., :sa] = a
        out[top:, ..., side:] = a + b if top == side == 0 else b
        cores.append(out)
    return MPO(cores)


def diag_mpo(state: MPS) -> MPO:
    """Diagonal operator whose diagonal is the represented tensor: bond
    block ``(i, j)`` of each :func:`block_core` is ``np.diag(c[i, :, j])``.

    Satisfies ``diag_mpo(T).apply(T) == T * T`` elementwise.
    """
    return MPO([block_core([[np.diag(c[i, :, j]) for j in range(c.shape[2])] for i in range(c.shape[0])])
                for c in state.cores])


# ---------------------------------------------------------------------------
# in-place site steps on a mixed-canonical chain
#
# The chain is a list of state cores with an orthogonality center c: cores
# left of c are left-orthonormal, cores right of c right-orthonormal.


#: The LAPACK gufunc behind ``np.linalg.svd(mat, full_matrices=False)``,
#: called with the signature that wrapper picks for complex input.
_SVD = _umath_linalg.svd_s


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def move_center(cores: list, center: int, target: int, policy: TruncationPolicy = LOSSLESS) -> int:
    """Steps from ``center`` to ``target``, each bond on the way cut by
    ``policy``; returns ``target``.  The one sweep loop, site step and cut
    of the module: each site it leaves becomes left- (stepping right) or
    right-orthonormal (stepping left), and the kept singular values (those
    above ``rel_threshold`` times the largest, at least one and at most
    ``max_rank``) move with the other factor into the next site.  Raises
    ``numpy.linalg.LinAlgError`` if an SVD fails to converge or meets a
    NaN."""
    step = 1 if target > center else -1
    with np.errstate(invalid="call", call=_svd_failed):
        for i in range(center, target, step):
            r, d, s = cores[i].shape
            # the unfolding lumps (r, d) for a step right, (d, s) for a step
            # left, first index fastest
            u, sv, vh = _SVD(cores[i].reshape((r * d, s) if step > 0 else (r, d * s), order="F"),
                             signature="D->DdD")
            values = sv.tolist()  # Python floats: no ufunc per site step
            cut = policy.rel_threshold * values[0]  # LAPACK returns the largest first
            keep = min(sum(1 for v in values if v > cut) or 1, policy.max_rank or len(values))
            if keep < len(values):
                u, sv, vh = u[:, :keep], sv[:keep], vh[:keep]
            if step > 0:
                cores[i] = u.reshape(r, d, keep, order="F")
                cores[i + 1] = _left_multiplied(cores[i + 1], sv[:, None] * vh)
            else:
                cores[i] = vh.reshape(keep, d, s, order="F")
                cores[i - 1] = cores[i - 1] @ (u * sv)
    return target


def apply_window(cores: list, center: int, op: MPO, policy: TruncationPolicy) -> tuple[int, range]:
    """Apply ``op`` to the mixed-canonical chain on its span only.

    The center moves into the span ``[lo, hi]`` of ``op``, the operator
    cores are contracted there, and the window is re-canonicalized: lossless
    steps left to right up to ``hi + 1``, then truncating steps back down to
    ``lo - 1``.  Every bond from ``lo - 1|lo`` to ``hi|hi + 1`` is cut by
    ``policy`` against orthonormal environments, so its rank is the
    numerical Schmidt rank; bonds outside keep their ranks.  Returns the new
    center, ``max(lo - 1, 0)``, and the range of sites stepped over, the
    smallest that holds the old center and ``max(lo - 1, 0)`` to
    ``min(hi + 1, n - 1)``: only the bonds right of those sites can change.
    """
    lo, hi = op.span
    move_center(cores, center, min(max(center, lo), hi))
    for i in range(lo, hi + 1):
        cores[i] = apply_core(op.cores[i - lo], cores[i])
    right = move_center(cores, lo, min(hi + 1, len(cores) - 1))
    left = move_center(cores, right, max(lo - 1, 0), policy)
    return left, range(min(center, left), max(center, right) + 1)
