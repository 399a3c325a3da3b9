"""Canonical 2x2 gate matrices and their lifts to low-rank operators.

Single-qubit gates lift to rank-1 operator chains; (multi-)controlled
gates to rank-2 chains built from the projector pair ``CONTROL_0``,
``CONTROL_1`` regardless of where the control and target qubits sit in
the register.  Qubit positions are 1-based everywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import MPO, block_core

IDENTITY = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
CONTROL_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
CONTROL_0 = IDENTITY - CONTROL_1

for _m in (IDENTITY, PAULI_X, HADAMARD, CONTROL_0, CONTROL_1):
    _m.flags.writeable = False


def phase_shift(phi: float) -> np.ndarray:
    """Phase-shift gate diag(1, e^{i phi})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=np.complex128)


def phase_shift_k(k: int) -> np.ndarray:
    """Dyadic phase gate diag(1, e^{2 pi i / 2^k})."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # ldexp, not / 2 ** k: a large k underflows to the identity instead of overflowing
    return phase_shift(math.ldexp(2.0 * np.pi, -k))


@dataclass(frozen=True)
class GatePlacement:
    """A 2x2 gate placed on a register: target qubit plus optional controls."""

    matrix: np.ndarray
    target: int
    controls: tuple[int, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self) -> None:
        positions = (self.target, *self.controls)
        if len(set(positions)) != len(positions):
            raise ValueError(f"overlapping gate positions {positions}")

    def to_mpo(self, n: int) -> MPO:
        if self.controls:
            return controlled_mpo(self.controls, self.matrix, self.target, n)
        return single_qubit_mpo(self.matrix, self.target, n)


def _check_positions(positions, n: int) -> None:
    for p in positions:
        if not 1 <= p <= n:
            raise ValueError(f"qubit position {p} outside register [1, {n}]")
    if len(set(positions)) != len(positions):
        raise ValueError(f"overlapping qubit positions {tuple(positions)}")


def single_qubit_mpo(matrix: np.ndarray, position: int, n: int) -> MPO:
    """Rank-1 operator applying ``matrix`` at ``position``, identity elsewhere."""
    _check_positions([position], n)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError("single-qubit gate must be 2x2")
    return MPO.embed([matrix[None, :, :, None]], position - 1, n)


def controlled_mpo(controls, matrix: np.ndarray, target: int, n: int) -> MPO:
    """Rank-2 operator for a (multi-)controlled gate at arbitrary positions.

    Realizes ``I + C x ... x C x (A - I)`` with projectors on the control
    qubits; the bond rank is 2 exactly between the outermost involved
    qubits and 1 elsewhere, for any ordering of controls and target.
    """
    controls = tuple(controls)
    if not controls:
        raise ValueError("controlled gate needs at least one control qubit")
    _check_positions([*controls, target], n)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError("target gate must be 2x2")
    involved = {q: CONTROL_1 for q in controls}
    involved[target] = matrix - IDENTITY
    lo, hi = min(involved), max(involved)
    cores = []
    for q in range(lo, hi + 1):
        block = involved.get(q, IDENTITY)
        if q == lo:
            cores.append(block_core([[IDENTITY, block]]))
        elif q == hi:
            cores.append(block_core([[IDENTITY], [block]]))
        else:
            cores.append(block_core([[IDENTITY, None], [None, block]]))
    return MPO.embed(cores, lo - 1, n)


def hadamard_layer(positions, n: int) -> MPO:
    """Rank-1 operator with Hadamards at ``positions``, identity elsewhere."""
    positions = tuple(positions)
    _check_positions(positions, n)
    positions = set(positions)
    lo, hi = (min(positions), max(positions)) if positions else (1, 1)
    mats = [HADAMARD if q in positions else IDENTITY for q in range(lo, hi + 1)]
    return MPO.embed([m[None, :, :, None] for m in mats], lo - 1, n)
