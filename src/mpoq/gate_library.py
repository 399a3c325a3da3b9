"""Canonical 2x2 gate matrices and their lifts to low-rank operators.

One lift, :func:`controlled_mpo`, takes a 2x2 gate under any number of
controls: with none it is a rank-1 operator chain, with one or more a
rank-2 chain built from the projector pair ``CONTROL_0``, ``CONTROL_1``
regardless of where the control and target qubits sit in the register.
Qubit positions are 1-based, checked by ``tensor_core.check_positions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import MPO, block_core, check_positions, sealed

IDENTITY = sealed(np.eye(2))
PAULI_X = sealed([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = sealed(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0))
CONTROL_1 = sealed([[0.0, 0.0], [0.0, 1.0]])
CONTROL_0 = sealed(IDENTITY - CONTROL_1)


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
    """A 2x2 gate on a register: target qubit plus optional controls, checked when lifted."""

    matrix: np.ndarray
    target: int
    controls: tuple[int, ...] = field(default_factory=tuple)

    def to_mpo(self, n: int) -> MPO:
        return controlled_mpo(self.controls, self.matrix, self.target, n)


def controlled_core(place: int, block: np.ndarray) -> np.ndarray:
    """The core of a controlled gate on its first (``place`` 0), a middle (1)
    or its last (2) involved qubit: identity on the first bond channel and
    ``block`` on the second.  The QFT groups build their phase cores with
    it too."""
    rows = ([[IDENTITY, block]], [[IDENTITY, None], [None, block]], [[IDENTITY], [block]])
    return block_core(rows[place])


#: The cores every controlled gate shares, built once: a control by place,
#: and the pass-through core of a qubit between the involved ones.
_CONTROL_CORES = tuple(controlled_core(place, CONTROL_1) for place in range(3))
_PASS_CORE = controlled_core(1, IDENTITY)


def controlled_mpo(controls, matrix: np.ndarray, target: int, n: int) -> MPO:
    """Operator for the 2x2 gate ``matrix`` at ``target`` under ``controls``.

    With no controls it is the rank-1 window of ``matrix`` alone.
    Otherwise it realizes ``I + C x ... x C x (A - I)`` with projectors on
    the control qubits; the bond rank is 2 exactly between the outermost
    involved qubits and 1 elsewhere, for any ordering of controls and
    target.  Only the target's core is built per gate; the others are
    shared.
    """
    controls = tuple(controls)
    check_positions([*controls, target], n, "qubit")
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError("target gate must be 2x2")
    if not controls:
        return MPO([matrix[None, :, :, None]], target - 1, n)
    lo, hi = min(*controls, target), max(*controls, target)
    cores = []
    for q in range(lo, hi + 1):
        place = 0 if q == lo else 2 if q == hi else 1
        if q == target:
            cores.append(controlled_core(place, matrix - IDENTITY))
        elif q in controls:
            cores.append(_CONTROL_CORES[place])
        else:
            cores.append(_PASS_CORE)
    return MPO(cores, lo - 1, n)


def hadamard_layer(positions, n: int) -> MPO:
    """Rank-1 operator with Hadamards at ``positions``, identity elsewhere."""
    positions = tuple(positions)
    check_positions(positions, n, "qubit")
    positions = set(positions)
    lo, hi = (min(positions), max(positions)) if positions else (1, 1)
    mats = [HADAMARD if q in positions else IDENTITY for q in range(lo, hi + 1)]
    return MPO([m[None, :, :, None] for m in mats], lo - 1, n)
