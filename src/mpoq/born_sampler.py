"""Measurement-outcome extraction from a state in chain format.

Marginal distributions over a measured subset are contracted directly
(``tensor_core.outcome_weights`` traces out the unmeasured legs);
postselection slices the fixed bits out of the chain; and large sample
batches are drawn qubit-wise from conditional distributions while the
suffix of a right-orthonormal chain contributes only identity
environments.  The draw applies real ``(r², s²)`` maps, gaps fused in, to
one r²-vector per sample: the work per sample and site and the stored maps
grow as r²·s² (quartic at equal ranks), and linearly in the register size.

Every left environment ``E`` is Hermitian, so the draw carries it as the
real vector ``v = Re E + Im E``.  Samples are drawn in cache-sized
blocks of rows from one seeded stream; a block's rows are capped by the
measured-qubit count and by the largest environment size r².  The
environments of a block are stored sample-major, one column per sample, so
every per-sample update is one real matrix product and every elementwise
step runs along contiguous rows; the block's uniforms and bits are stored
site-major, so each site reads and writes one contiguous row.  The
uniform and bit buffers are allocated once per draw and reused by every
block; the uniforms are filled, and the outcome keys made ``str``, in
cache-sized steps of rows.  Each sample keeps the branch of its drawn bit
through an exact select on the int64 views of the floats, with no branch
per sample.  The keys are tallied in one ``Counter``, and the CSV report
is streamed line by line over the sorted keys.

Qubit positions are 1-based; reported bitstrings list the measured
positions in ascending order, most significant qubit first.  Positions and
bits are checked by ``tensor_core.check_positions`` and ``check_bit``.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .tensor_core import (
    LOSSLESS,
    MPS,
    DenseCapExceeded,
    check_bit,
    check_positions,
    clipped,
    dense_cap,
    is_integer,
    orthonormalize_right,
    outcome_weights,
)

#: Postselection outcomes below this probability are rejected as impossible.
EPS_ZERO = 1e-14

#: Conditional entries below this are hard numerical errors, not noise.
NEGATIVE_TOL = -1e-12

#: Auto-include exact probabilities in reports up to this many outcomes.
_AUTO_PROB_OUTCOMES = 4096

#: Rows (samples) drawn per block at most.
_CHUNK = 1 << 16

#: Uniforms drawn per block at most (4 MB of float64), and floats per
#: environment array: wide readouts and high bond ranks get fewer rows per
#: block.  The stream is row-major, so rows drawn in smaller blocks are the
#: same numbers.
_CHUNK_UNIFORMS = 1 << 19

#: Uniforms drawn (128 KB of float64, cache-resident), or key digits made
#: ``str``, per call at most; the uniforms are the same numbers again.
_STEP_UNIFORMS = 1 << 14


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of (numerically) zero probability."""


class NegativeProbabilityError(ArithmeticError):
    """Raised when conditionals are negative beyond floating-point noise."""


@dataclass(frozen=True)
class MeasurementPlan:
    """Which qubits to read out, how many samples to draw, and how.

    ``measured`` lists 1-based positions in ascending order.  ``postselect``
    fixes bits on positions disjoint from ``measured`` before sampling.
    With ``exact_probabilities`` left at True the report carries the exact
    marginal when no samples are requested, or when its ``2^m`` outcomes
    are at most 4,096 and within the dense cap; False leaves it out.
    Measured and postselect positions, ``sample_count`` and ``seed`` (both
    >= 0) are stored as ``int`` after the one integer rule
    (:func:`~mpoq.tensor_core.is_integer`).
    """

    measured: tuple[int, ...]
    sample_count: int = 0
    seed: int = 0
    postselect: Mapping[int, int] = field(default_factory=dict)
    exact_probabilities: bool = True

    def __post_init__(self) -> None:
        measured, postselect = tuple(self.measured), dict(self.postselect)
        for what, positions in (("measured", measured), ("postselect", postselect)):
            for p in positions:  # checked before int() could make 1.5 position 1
                if not is_integer(p):
                    raise ValueError(f"{what} position {clipped(repr(p))} is not an integer")
        object.__setattr__(self, "measured", tuple(map(int, measured)))
        object.__setattr__(self, "postselect", {int(p): b for p, b in postselect.items()})
        if not self.measured:
            raise ValueError("measurement plan needs at least one measured qubit")
        if list(self.measured) != sorted(set(self.measured)):
            raise ValueError("measured positions must be strictly increasing")
        for name in ("sample_count", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {clipped(repr(value))}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
            object.__setattr__(self, name, int(value))
        overlap = set(self.measured) & set(self.postselect)
        if overlap:
            raise ValueError(f"postselected positions {sorted(overlap)} are also measured")
        for p, b in self.postselect.items():
            check_bit(b, f"postselect bit for position {p}")


@dataclass
class SampleReport:
    """Outcome table of one sampling run.

    ``counts`` is a ``Counter`` of measured bitstrings summing to
    ``sample_count``, so an outcome not drawn reads 0; ``probabilities``
    holds the exact marginal on its support when the dense path was used.
    ``clamped_mass`` is the largest probability mass that one drawn
    conditional lost when its negative rounding noise was set to zero.  The
    elapsed time and the clamped mass are informational and deliberately
    kept out of the serialized forms, byte-stable for a fixed plan and state.
    """

    n: int
    sample_count: int
    seed: int
    measured: tuple[int, ...]
    counts: Counter[str]
    probabilities: dict[str, float] | None
    elapsed_seconds: float
    clamped_mass: float = 0.0

    def csv_lines(self) -> Iterator[str]:
        """The CSV one line at a time, each ending in ``\\n``: a header, then
        one line per sorted outcome; floats are written with ``repr``."""
        counts, probs, total = self.counts, self.probabilities, self.sample_count
        if probs is None:
            keys = counts.keys()
            yield "bitstring,count,frequency\n"
        else:
            keys = counts.keys() | probs.keys()
            yield "bitstring,count,frequency,probability\n"
        # the "count,frequency" cell depends on the count alone: format each once
        cells = {c: f"{c},{c / total if total else 0.0!r}" for c in {0, *counts.values()}}
        for key in sorted(keys):
            if probs is None:
                yield f"{key},{cells[counts.get(key, 0)]}\n"
            else:
                yield f"{key},{cells[counts.get(key, 0)]},{probs.get(key, 0.0)!r}\n"

    def to_csv_text(self) -> str:
        """The whole CSV of :meth:`csv_lines` as one string."""
        return "".join(self.csv_lines())

    def to_json_dict(self) -> dict:
        total = self.sample_count
        return {
            "format": "mpoq-sample-report",
            "n": self.n,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "measured": list(self.measured),
            "counts": dict(sorted(self.counts.items())),
            "frequencies": {k: v / total if total else 0.0 for k, v in sorted(self.counts.items())},
            "probabilities": None
            if self.probabilities is None
            else dict(sorted(self.probabilities.items())),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class PostselectResult:
    """Conditioned state over the remaining qubits plus the outcome probability."""

    state: MPS | None
    probability: float
    remaining: tuple[int, ...]


# ---------------------------------------------------------------------------
# environment bookkeeping


def _transfer(core: np.ndarray, bit: int | None = None) -> np.ndarray:
    """One site of the squared-amplitude network as an ``(r², s²)`` matrix.

    Environments are flattened row-major, ``env[k, K] -> env[k * r + K]``
    with ``k`` on the conjugated layer.  A left environment moves one site
    right as ``env @ _transfer(core, bit)``; a right environment moves one
    site left as ``_transfer(core, bit) @ env``.  A fixed ``bit`` selects
    that physical slice on both layers; ``None`` traces the site out.
    """
    if bit is None:
        return _transfer(core, 0) + _transfer(core, 1)
    sl = core[:, bit, :]
    r, s = sl.shape
    return (sl.conj()[:, None, :, None] * sl[None, :, None, :]).reshape(r * r, s * s)


def _real_form(x: np.ndarray) -> np.ndarray:
    """``x`` acting on the real coordinates ``v = Re E + Im E`` of environments.

    ``x`` maps flattened ``(r, r)`` left environments, as ``_transfer`` (or
    a product of them) does, and keeps them Hermitian.  Then the real
    coordinates of ``E.reshape(-1) @ x`` are ``v @ _real_form(x)``, and
    ``E[k, K] = (v[kK] + v[Kk]) / 2 + i (v[kK] - v[Kk]) / 2``.
    """
    r = math.isqrt(x.shape[0])
    swapped = x.reshape(r, r, -1).transpose(1, 0, 2).reshape(x.shape)
    return x.real + swapped.imag


def _select(kept: np.ndarray, taken: np.ndarray, mask: np.ndarray) -> None:
    """Exact select without a branch: ``kept`` takes ``taken``'s bits in each
    column where ``mask`` (int64) is -1 and keeps its own where it is 0.

    On int64 views ``e ^ ((e ^ b) & mask)`` is ``b`` or ``e``, bit for bit,
    whatever the floats are.  ``taken`` is overwritten.
    """
    kept, taken = kept.view(np.int64), taken.view(np.int64)
    taken ^= kept
    taken &= mask
    kept ^= taken


# ---------------------------------------------------------------------------
# exact marginals and postselection


def _check_qubits(state: MPS) -> None:
    """The sampler reads qubits only: ``ValueError`` naming the first site
    whose dimension is not 2."""
    for p, d in enumerate(state.dims, 1):
        if d != 2:
            raise ValueError(f"site {p} has dimension {d}; the sampler reads qubits (dimension 2) only")


def marginal_distribution(state: MPS, measured) -> np.ndarray:
    """Exact Born marginal over the strictly increasing 1-based positions ``measured``.

    Returns a nonnegative tensor of shape ``(2,) * m`` summing to one; the
    input is normalized internally.  Raises :class:`DenseCapExceeded` when
    ``2^m`` exceeds the dense size cap.
    """
    _check_qubits(state)
    measured = list(measured)
    if not measured:
        raise ValueError("need at least one measured position")
    if measured != sorted(set(measured)):
        raise ValueError(f"measured positions {measured} must be strictly increasing")
    check_positions(measured, state.n, "measured")
    if 2 ** len(measured) > dense_cap():
        raise DenseCapExceeded(
            f"exact marginal over {len(measured)} qubits exceeds the dense cap {dense_cap()}"
        )
    probs = outcome_weights(state.cores, {p - 1 for p in measured}).real
    total = probs.sum()
    if total <= 0.0:
        raise ZeroProbabilityError("state has zero norm")
    return np.clip(probs / total, 0.0, None).reshape((2,) * len(measured))


def postselect(state: MPS, assignment: Mapping[int, int]) -> PostselectResult:
    """Condition the state on fixed bits at the assigned 1-based positions.

    The assigned cores are sliced at their fixed physical index and absorbed
    into the neighboring kept cores, then the remainder is renormalized.
    Raises :class:`ZeroProbabilityError` when the outcome has no weight.
    """
    n = state.n
    check_positions(tuple(assignment), n, "postselect")
    for p, b in assignment.items():
        check_bit(b, f"postselect bit for position {p}")
    state = state.normalized()
    if not assignment:
        return PostselectResult(state, 1.0, tuple(range(1, n + 1)))
    kept_cores: list[np.ndarray] = []
    remaining: list[int] = []
    pending = np.ones((1, 1), dtype=np.complex128)
    for pos, core in enumerate(state.cores, 1):
        if pos in assignment:
            pending = pending @ core[:, assignment[pos], :]
        else:
            kept_cores.append(np.einsum("ab,bxc->axc", pending, core))
            pending = np.eye(core.shape[2], dtype=np.complex128)
            remaining.append(pos)
    if kept_cores and (pending.shape != (1, 1) or pending[0, 0] != 1.0):
        kept_cores[-1] = np.einsum("axb,bc->axc", kept_cores[-1], pending)
    conditioned = MPS(kept_cores) if kept_cores else None
    # with every site fixed, the one amplitude left carries the weight
    norm = abs(pending[0, 0]) if conditioned is None else conditioned.norm()
    probability = float(norm ** 2)
    if probability <= EPS_ZERO:
        raise ZeroProbabilityError(f"postselected outcome has probability {probability:.3e}")
    conditioned = None if conditioned is None else conditioned.scaled(1.0 / norm)
    return PostselectResult(conditioned, probability, tuple(remaining))


# ---------------------------------------------------------------------------
# generative sampling


def _prepare(state: MPS) -> MPS:
    if not state.right_orthonormal:
        state = orthonormalize_right(state, LOSSLESS)
    # behind a right-orthonormal suffix the whole norm sits in the first core
    norm = float(np.linalg.norm(state.cores[0]))
    if norm == 0.0:
        raise ZeroProbabilityError("cannot sample the zero state")
    if abs(norm - 1.0) > 1e-12:
        state = state.normalized()
    return state


def _draw(state: MPS, measured_idx: list[int], sample_count: int, seed: int):
    """Qubit-wise batched sampling; returns (a ``Counter`` of keys, clamped mass).

    All per-sample work is expressed on flattened environments in real
    coordinates (:func:`_real_form`), one column per sample, so every update
    is one real matrix product over the whole block; the marginalization
    transfer to the next measured site is fused into the per-bit update
    matrices.  Each sample keeps its chosen branch through :func:`_select`.
    Uniforms and bits are held site-major, ``(m, rows)``, so site ``k``
    reads and writes row ``k``; their buffers are allocated once, for the
    largest block, and every block reuses them.  A block holds at most
    ``_CHUNK`` rows, ``_CHUNK_UNIFORMS`` uniforms and ``_CHUNK_UNIFORMS``
    floats per environment array (r² per row), and its uniforms are drawn,
    and its keys made ``str``, in steps of at most ``_STEP_UNIFORMS``: the
    stream is row-major, so every split gives the same numbers.
    """
    cores = state.cores
    m = len(measured_idx)
    rng = np.random.default_rng(seed)

    env0 = np.ones(1, dtype=np.complex128)
    for i in range(measured_idx[0]):
        env0 = env0 @ _transfer(cores[i])
    env0 = env0.real + env0.imag

    # sample-major: environments are (r*r, rows) with sample s in column s,
    # so the forms are transposed and every elementwise step runs along rows
    site_weights = []  # (2, r*r) probability forms per measured site
    site_updates = []  # per-bit update matrices, gap transfer included
    for k, i in enumerate(measured_idx):
        updates = [_transfer(cores[i], bit) for bit in (0, 1)]
        # a right-orthonormal suffix contributes the identity environment
        suffix = np.eye(cores[i].shape[2], dtype=np.complex128).reshape(-1)
        site_weights.append(_real_form(np.stack([u @ suffix for u in updates], axis=1)).T.copy())
        gap = None
        if k + 1 < m:
            for j in range(i + 1, measured_idx[k + 1]):
                step = _transfer(cores[j])
                gap = step if gap is None else gap @ step
        site_updates.append([_real_form(u if gap is None else u @ gap).T.copy() for u in updates])

    r2 = max(w.shape[1] for w in site_weights)  # the widest environment
    block = min(sample_count, _CHUNK, max(_CHUNK_UNIFORMS // max(m, r2), 1))
    step = max(_STEP_UNIFORMS // m, 1)
    uniforms = np.empty((m, block))
    bits = np.empty((m, block), dtype=np.uint8)
    tally: Counter[str] = Counter()
    mass_lost = 0.0
    remaining = sample_count
    while remaining > 0:
        rows = min(remaining, block)
        # drawn row-major as one stream in cache-sized steps, held site-major
        for a in range(0, rows, step):
            b = min(a + step, rows)
            uniforms[:, a:b] = rng.random((b - a, m)).T
        drawn, chosen_bits = uniforms[:, :rows], bits[:, :rows].view(bool)
        env = np.broadcast_to(env0[:, None], (env0.size, rows)).copy()
        for k in range(m):
            p = site_weights[k] @ env
            low = p.min()
            if low < 0.0:  # rounding noise: clamp it, and fail below NEGATIVE_TOL
                if low < NEGATIVE_TOL:
                    raise NegativeProbabilityError(
                        f"conditional entry {low:.3e} below tolerance at site {measured_idx[k] + 1}"
                    )
                mass_lost = max(mass_lost, float(-np.minimum(p, 0.0).sum(axis=0).min()))
                p = np.clip(p, 0.0, None)
            total = p[0] + p[1]
            positive = total > 0
            p0 = np.divide(p[0], total, out=np.full(rows, 0.5), where=positive)
            chosen = np.greater_equal(drawn[k], p0, out=chosen_bits[k])
            if k + 1 == m:
                break
            mask = np.negative(chosen, dtype=np.int64)
            env, branch1 = site_updates[k][0] @ env, site_updates[k][1] @ env
            _select(env, branch1, mask)
            _select(p[0], p[1], mask)
            p_chosen = p[0] / np.where(positive, total, 1.0)
            env /= np.where(p_chosen > 0, p_chosen, 1.0)
        # one m-byte key of ASCII digits per sample; no block-sized str array is held
        for a in range(0, rows, step):
            keys = np.add(bits[:, a : min(a + step, rows)].T, 48, order="C").view(f"S{m}")[:, 0]
            tally.update(keys.astype(f"U{m}").tolist())
        remaining -= rows
    return tally, mass_lost


def sample(state: MPS, plan: MeasurementPlan) -> SampleReport:
    """Draw seeded measurement samples (and/or the exact marginal) per plan.

    The state is right-orthonormalized and normalized internally when
    needed; identical ``(state, plan)`` pairs produce identical reports.
    """
    start = time.perf_counter()
    _check_qubits(state)
    n = state.n
    check_positions(plan.measured, n, "measured")

    measured = working_measured = plan.measured
    working = state
    if plan.postselect:
        conditioned = postselect(state, dict(plan.postselect))
        assert conditioned.state is not None  # measured positions remain
        position_map = {p: i + 1 for i, p in enumerate(conditioned.remaining)}
        working = conditioned.state
        working_measured = tuple(position_map[p] for p in measured)

    working = _prepare(working)
    m = len(measured)

    probabilities = None
    if plan.exact_probabilities and (
        plan.sample_count == 0 or 2 ** m <= min(_AUTO_PROB_OUTCOMES, dense_cap())
    ):
        marginal = marginal_distribution(working, working_measured).reshape(-1)
        probabilities = {
            format(idx, f"0{m}b"): float(marginal[idx])
            for idx in np.nonzero(marginal > 1e-15)[0]
        }

    counts: Counter[str] = Counter()
    clamped_mass = 0.0
    if plan.sample_count > 0:
        measured_idx = [p - 1 for p in working_measured]
        counts, clamped_mass = _draw(working, measured_idx, plan.sample_count, plan.seed)

    return SampleReport(
        n=n,
        sample_count=plan.sample_count,
        seed=plan.seed,
        measured=measured,
        counts=counts,
        probabilities=probabilities,
        elapsed_seconds=time.perf_counter() - start,
        clamped_mass=clamped_mass,
    )
