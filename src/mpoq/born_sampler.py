"""Measurement-outcome extraction from a state in chain format.

Marginal distributions over a measured subset are contracted directly
(the unmeasured legs of the squared-amplitude network are traced out);
postselection slices the fixed bits out of the chain; and large sample
batches are drawn qubit-wise from conditional distributions while the
suffix of a right-orthonormal chain contributes only identity
environments.  The qubit-wise cost is cubic in the bond rank, so the
per-sample work is linear in the register size at bounded rank.

Every left environment ``E`` is Hermitian, so the draw carries it as the
real vector ``v = Re E + Im E`` and every per-sample update is a real
matrix product.  Outcome keys are built for a whole chunk at once, and
the CSV report is written in one pass over the sorted keys.

Qubit positions are 1-based; reported bitstrings list the measured
positions in ascending order, most significant qubit first.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .tensor_core import (
    LOSSLESS,
    MPS,
    DenseCapExceeded,
    dense_cap,
    orthonormalize_right,
)

#: Postselection outcomes below this probability are rejected as impossible.
EPS_ZERO = 1e-14

#: Conditional entries below this are hard numerical errors, not noise.
NEGATIVE_TOL = -1e-12

#: Auto-include exact probabilities in reports up to this many outcomes.
_AUTO_PROB_OUTCOMES = 4096

_CHUNK = 1 << 16

#: Uniforms drawn per chunk at most (32 MB of float64): wide readouts get
#: fewer rows per chunk.  The stream is row-major, so rows drawn in smaller
#: chunks are the same numbers.
_CHUNK_UNIFORMS = 1 << 22


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of (numerically) zero probability."""


class NegativeProbabilityError(ArithmeticError):
    """Raised when conditionals are negative beyond floating-point noise."""


@dataclass(frozen=True)
class MeasurementPlan:
    """Which qubits to read out, how many samples to draw, and how.

    ``measured`` lists 1-based positions in ascending order.  ``postselect``
    fixes bits on positions disjoint from ``measured`` before sampling.
    ``exact_probabilities`` forces (True) or suppresses (False) the exact
    marginal in the report; the default includes it when it is cheap or
    when no samples are requested.
    """

    measured: tuple[int, ...]
    sample_count: int = 0
    seed: int = 0
    postselect: Mapping[int, int] = field(default_factory=dict)
    exact_probabilities: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured", tuple(self.measured))
        if not self.measured:
            raise ValueError("measurement plan needs at least one measured qubit")
        if list(self.measured) != sorted(set(self.measured)):
            raise ValueError("measured positions must be strictly increasing")
        if self.sample_count < 0:
            raise ValueError("sample_count must be >= 0")
        overlap = set(self.measured) & set(self.postselect)
        if overlap:
            raise ValueError(f"postselected positions {sorted(overlap)} are also measured")
        for p, b in self.postselect.items():
            if b not in (0, 1):
                raise ValueError(f"postselect bit for position {p} must be 0 or 1")


@dataclass
class SampleReport:
    """Outcome table of one sampling run.

    ``counts`` maps measured bitstrings to occurrence counts (summing to
    ``sample_count``); ``probabilities`` holds the exact marginal on its
    support when the dense path was used.  ``clamped_mass`` is the largest
    probability mass that one drawn conditional lost when its negative
    rounding noise was set to zero.  The elapsed time and the clamped mass
    are informational and deliberately kept out of the serialized forms,
    which are byte-stable for a fixed plan and state.
    """

    n: int
    sample_count: int
    seed: int
    measured: tuple[int, ...]
    counts: dict[str, int]
    probabilities: dict[str, float] | None
    elapsed_seconds: float
    clamped_mass: float = 0.0

    def frequencies(self) -> dict[str, float]:
        if self.sample_count == 0:
            return {k: 0.0 for k in self.counts}
        return {k: v / self.sample_count for k, v in self.counts.items()}

    def to_csv_text(self) -> str:
        """One line per sorted outcome; floats are written with ``repr``."""
        counts, probs, total = self.counts, self.probabilities, self.sample_count
        if probs is None:
            keys, lines = counts.keys(), ["bitstring,count,frequency"]
        else:
            keys, lines = counts.keys() | probs.keys(), ["bitstring,count,frequency,probability"]
        for key in sorted(keys):
            count = counts.get(key, 0)
            frequency = count / total if total else 0.0
            line = f"{key},{count},{frequency!r}"
            lines.append(line if probs is None else f"{line},{probs.get(key, 0.0)!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "format": "mpoq-sample-report",
            "n": self.n,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "measured": list(self.measured),
            "counts": dict(sorted(self.counts.items())),
            "frequencies": dict(sorted(self.frequencies().items())),
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
    return np.kron(sl.conj(), sl)


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


# ---------------------------------------------------------------------------
# exact marginals and postselection


def marginal_distribution(state: MPS, measured) -> np.ndarray:
    """Exact Born marginal over the 1-based positions ``measured``.

    Returns a nonnegative tensor of shape ``(2,) * m`` summing to one; the
    input is normalized internally.  Raises :class:`DenseCapExceeded` when
    ``2^m`` exceeds the dense size cap.
    """
    measured = sorted(set(measured))
    n = state.n
    if not measured:
        raise ValueError("need at least one measured position")
    if measured[0] < 1 or measured[-1] > n:
        raise ValueError(f"measured positions {measured} outside register [1, {n}]")
    if 2 ** len(measured) > dense_cap():
        raise DenseCapExceeded(
            f"exact marginal over {len(measured)} qubits exceeds the dense cap {dense_cap()}"
        )
    keep = {p - 1 for p in measured}
    acc = np.ones((1, 1, 1), dtype=np.complex128)  # (outcomes, k, K)
    for i, core in enumerate(state.cores):
        if i in keep:
            acc = np.einsum("okK,kxl,KxL->oxlL", acc, core.conj(), core, optimize=True)
            acc = acc.reshape(-1, acc.shape[2], acc.shape[3])
        else:
            acc = np.einsum("okK,kxl,KxL->olL", acc, core.conj(), core, optimize=True)
    probs = acc[:, 0, 0].real
    total = probs.sum()
    if total <= 0.0:
        raise ZeroProbabilityError("state has zero norm")
    probs = np.clip(probs / total, 0.0, None)
    return probs.reshape((2,) * len(measured))


def postselect(state: MPS, assignment: Mapping[int, int], eps_zero: float = EPS_ZERO) -> PostselectResult:
    """Condition the state on fixed bits at the assigned 1-based positions.

    The assigned cores are sliced at their fixed physical index and absorbed
    into the neighboring kept cores, then the remainder is renormalized.
    Raises :class:`ZeroProbabilityError` when the outcome has no weight.
    """
    n = state.n
    for p, b in assignment.items():
        if not 1 <= p <= n:
            raise ValueError(f"postselect position {p} outside register [1, {n}]")
        if b not in (0, 1):
            raise ValueError(f"postselect bit for position {p} must be 0 or 1")
    if not assignment:
        return PostselectResult(state.normalized(), 1.0, tuple(range(1, n + 1)))
    state = state.normalized()
    kept_cores: list[np.ndarray] = []
    remaining: list[int] = []
    pending = np.ones((1, 1), dtype=np.complex128)
    for i, core in enumerate(state.cores):
        pos = i + 1
        if pos in assignment:
            pending = pending @ core[:, assignment[pos], :]
        else:
            kept_cores.append(np.einsum("ab,bxc->axc", pending, core))
            pending = np.eye(core.shape[2], dtype=np.complex128)
            remaining.append(pos)
    if not kept_cores:
        amplitude = pending[0, 0]
        probability = float(abs(amplitude) ** 2)
        if probability <= eps_zero:
            raise ZeroProbabilityError(f"postselected outcome has probability {probability:.3e}")
        return PostselectResult(None, probability, ())
    if pending.shape != (1, 1) or pending[0, 0] != 1.0:
        kept_cores[-1] = np.einsum("axb,bc->axc", kept_cores[-1], pending)
    conditioned = MPS(kept_cores)
    norm = conditioned.norm()
    probability = float(norm ** 2)
    if probability <= eps_zero:
        raise ZeroProbabilityError(f"postselected outcome has probability {probability:.3e}")
    return PostselectResult(conditioned.scaled(1.0 / norm), probability, tuple(remaining))


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
    """Qubit-wise batched sampling; returns (counts per key, clamped mass).

    All per-sample work is expressed on flattened environments in real
    coordinates (:func:`_real_form`), so every update is one real matrix
    product over the whole chunk; the marginalization transfer to the next
    measured site is fused into the per-bit update matrices.
    """
    cores = state.cores
    m = len(measured_idx)
    rng = np.random.default_rng(seed)

    env0 = np.ones(1, dtype=np.complex128)
    for i in range(measured_idx[0]):
        env0 = env0 @ _transfer(cores[i])
    env0 = env0.real + env0.imag

    site_weights = []  # (r*r, 2) probability forms per measured site
    site_updates = []  # per-bit update matrices, gap transfer included
    for k, i in enumerate(measured_idx):
        updates = [_transfer(cores[i], bit) for bit in (0, 1)]
        # a right-orthonormal suffix contributes the identity environment
        suffix = np.eye(cores[i].shape[2], dtype=np.complex128).reshape(-1)
        site_weights.append(_real_form(np.stack([u @ suffix for u in updates], axis=1)))
        gap = None
        if k + 1 < m:
            for j in range(i + 1, measured_idx[k + 1]):
                step = _transfer(cores[j])
                gap = step if gap is None else gap @ step
        site_updates.append([_real_form(u if gap is None else u @ gap) for u in updates])

    counts: dict[str, int] = {}
    mass_lost = 0.0
    remaining = sample_count
    while remaining > 0:
        chunk = min(remaining, _CHUNK, max(_CHUNK_UNIFORMS // m, 1))
        uniforms = rng.random((chunk, m))
        env = np.broadcast_to(env0, (chunk, env0.size)).copy()
        bits = np.empty((chunk, m), dtype=np.uint8)
        for k in range(m):
            p = env @ site_weights[k]
            low = p.min()
            if low < 0.0:  # rounding noise: clamp it, and fail below NEGATIVE_TOL
                if low < NEGATIVE_TOL:
                    raise NegativeProbabilityError(
                        f"conditional entry {low:.3e} below tolerance at site {measured_idx[k] + 1}"
                    )
                mass_lost = max(mass_lost, float(-np.minimum(p, 0.0).sum(axis=1).min()))
                p = np.clip(p, 0.0, None)
            total = p[:, 0] + p[:, 1]
            p0 = np.divide(p[:, 0], total, out=np.full(chunk, 0.5), where=total > 0)
            chosen = uniforms[:, k] >= p0
            bits[:, k] = chosen
            if k + 1 == m:
                break
            env, branch1 = env @ site_updates[k][0], env @ site_updates[k][1]
            np.copyto(env, branch1, where=chosen[:, None])
            p_chosen = np.where(chosen, p[:, 1], p[:, 0]) / np.where(total > 0, total, 1.0)
            env /= np.where(p_chosen > 0, p_chosen, 1.0)[:, None]
        del uniforms  # the chunk's largest array: free it before the keys exist
        bits += 48  # each row of ASCII digits is one m-byte key; unique sorts them
        keys, key_counts = np.unique(bits.view(f"S{m}")[:, 0], return_counts=True)
        for key, c in zip(keys.tolist(), key_counts.tolist()):
            key = key.decode()
            counts[key] = counts.get(key, 0) + c
        remaining -= chunk
    return counts, mass_lost


def sample(state: MPS, plan: MeasurementPlan) -> SampleReport:
    """Draw seeded measurement samples (and/or the exact marginal) per plan.

    The state is right-orthonormalized and normalized internally when
    needed; identical ``(state, plan)`` pairs produce identical reports.
    """
    start = time.perf_counter()
    n = state.n
    for p in plan.measured:
        if not 1 <= p <= n:
            raise ValueError(f"measured position {p} outside register [1, {n}]")

    measured = plan.measured
    if plan.postselect:
        conditioned = postselect(state, dict(plan.postselect))
        assert conditioned.state is not None  # measured positions remain
        position_map = {p: i + 1 for i, p in enumerate(conditioned.remaining)}
        working = conditioned.state
        working_measured = tuple(position_map[p] for p in measured)
    else:
        working = state
        working_measured = measured

    working = _prepare(working)
    m = len(measured)

    include_probs = plan.exact_probabilities
    if include_probs is None:
        include_probs = plan.sample_count == 0 or 2 ** m <= _AUTO_PROB_OUTCOMES
    probabilities = None
    if include_probs:
        marginal = marginal_distribution(working, working_measured).reshape(-1)
        probabilities = {
            format(idx, f"0{m}b"): float(marginal[idx])
            for idx in np.nonzero(marginal > 1e-15)[0]
        }

    counts: dict[str, int] = {}
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
