"""Unit tests for gate matrices and their operator-chain lifts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mpoq import cli
from mpoq import gate_library as gl

from conftest import kron_chain


def dense_controlled(n, controls, target, matrix):
    term = [np.eye(2, dtype=complex)] * n
    for c in controls:
        term[c - 1] = gl.CONTROL_1
    term[target - 1] = np.asarray(matrix, dtype=complex) - np.eye(2)
    return np.eye(2 ** n, dtype=complex) + kron_chain(term)


def test_gate_matrix_properties():
    assert_allclose(gl.HADAMARD @ gl.HADAMARD, np.eye(2), atol=1e-15)
    assert_allclose(gl.CONTROL_0 @ gl.CONTROL_0, gl.CONTROL_0, atol=1e-15)
    assert_allclose(gl.CONTROL_1 @ gl.CONTROL_1, gl.CONTROL_1, atol=1e-15)
    assert_allclose(gl.CONTROL_0 + gl.CONTROL_1, np.eye(2), atol=1e-15)
    rk = gl.phase_shift_k(3)
    assert_allclose(rk, np.diag([1.0, np.exp(2j * np.pi / 8)]), atol=1e-15)
    assert_allclose(gl.phase_shift(0.7), np.diag([1.0, np.exp(0.7j)]), atol=1e-15)


@pytest.mark.parametrize("k", [True, 2.5, 0], ids=["bool", "float", "zero"])
def test_a_dyadic_phase_index_follows_the_integer_rule(k):
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got "):
        gl.phase_shift_k(k)


def test_a_numpy_dyadic_phase_index_gives_the_int_gate():
    assert np.array_equal(gl.phase_shift_k(np.int64(3)), gl.phase_shift_k(3))


def test_single_qubit_mpo_dense():
    assert_allclose(gl.controlled_mpo((), gl.HADAMARD, 1, 1).to_dense(), gl.HADAMARD)
    expected = kron_chain([np.eye(2), gl.HADAMARD, np.eye(2)])
    mpo = gl.controlled_mpo((), gl.HADAMARD, 2, 3)
    assert mpo.max_rank == 1
    assert_allclose(mpo.to_dense(), expected, atol=1e-15)
    with pytest.raises(ValueError):
        gl.controlled_mpo((), gl.HADAMARD, 4, 3)


def test_phase_gates_commute():
    a = gl.GatePlacement(gl.phase_shift(0.4), 2).to_mpo(3).to_dense()
    b = gl.GatePlacement(gl.phase_shift(1.1), 2).to_mpo(3).to_dense()
    assert_allclose(a @ b, b @ a, atol=1e-14)


def test_cnot_dense_matches_reference_matrix():
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert_allclose(gl.controlled_mpo((1,), gl.PAULI_X, 2, 2).to_dense(), expected, atol=1e-15)


def test_toffoli_dense_matches_reference_matrix():
    expected = np.eye(8, dtype=complex)
    expected[[6, 7]] = expected[[7, 6]]
    assert_allclose(gl.controlled_mpo((1, 2), gl.PAULI_X, 3, 3).to_dense(), expected, atol=1e-15)


@pytest.mark.parametrize("controls,target,n", [
    ((1,), 3, 4), ((3,), 1, 4), ((2, 4), 1, 5), ((1, 5), 3, 5), ((4,), 2, 6),
])
def test_controlled_mpo_arbitrary_positions(controls, target, n):
    mpo = gl.controlled_mpo(controls, gl.PAULI_X, target, n)
    assert_allclose(mpo.to_dense(), dense_controlled(n, controls, target, gl.PAULI_X), atol=1e-14)
    lo, hi = min((*controls, target)), max((*controls, target))
    for bond in range(1, n):
        expected_rank = 2 if lo <= bond < hi else 1
        assert mpo.ranks[bond] == expected_rank


def test_controlled_mpo_rejects_overlap_and_lifts_zero_controls():
    with pytest.raises(ValueError):
        gl.controlled_mpo((2,), gl.PAULI_X, 2, 3)
    for controls in ((), (1,)):
        with pytest.raises(ValueError, match="2x2"):
            gl.controlled_mpo(controls, np.eye(4), 2, 3)
    # no controls: the rank-1 window of the matrix alone
    single = gl.controlled_mpo((), gl.PAULI_X, 1, 3)
    assert single.span == (0, 0) and single.max_rank == 1
    assert_allclose(single.to_dense(), kron_chain([gl.PAULI_X, np.eye(2), np.eye(2)]), atol=1e-15)


def test_cphase_control_target_symmetry():
    for n in (2, 4, 6):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if p == q:
                    continue
                a = gl.controlled_mpo((p,), gl.phase_shift_k(2), q, n).to_dense()
                b = gl.controlled_mpo((q,), gl.phase_shift_k(2), p, n).to_dense()
                assert_allclose(a, b, atol=1e-14)


def test_hadamard_layer():
    assert_allclose(
        gl.hadamard_layer([1, 2], 2).to_dense(),
        kron_chain([gl.HADAMARD, gl.HADAMARD]),
        atol=1e-15,
    )
    layer = gl.hadamard_layer([1, 3, 5, 7], 8)
    mats = [gl.HADAMARD if q % 2 else np.eye(2) for q in range(1, 9)]
    assert layer.max_rank == 1
    assert_allclose(layer.to_dense(), kron_chain(mats), atol=1e-14)
    assert_allclose(gl.hadamard_layer([], 3).to_dense(), np.eye(8), atol=1e-15)


def test_hadamard_layer_rejects_repeated_positions():
    # two Hadamards on one qubit are the identity, not one Hadamard
    with pytest.raises(ValueError):
        gl.hadamard_layer([1, 1], 2)


def test_constructors_are_unitary():
    builders = [
        gl.controlled_mpo((), gl.HADAMARD, 3, 6),
        gl.GatePlacement(gl.phase_shift(0.9), 1).to_mpo(6),
        gl.controlled_mpo((2,), gl.PAULI_X, 5, 6),
        gl.controlled_mpo((1, 4), gl.PAULI_X, 6, 6),
        gl.controlled_mpo((6,), gl.phase_shift_k(3), 2, 6),
        gl.hadamard_layer([2, 3, 6], 6),
    ]
    for mpo in builders:
        dense = mpo.to_dense()
        assert_allclose(dense.conj().T @ dense, np.eye(64), atol=1e-12)


def test_placement_to_mpo():
    placement = gl.GatePlacement(gl.PAULI_X, target=3, controls=(1,))
    assert_allclose(placement.to_mpo(3).to_dense(), dense_controlled(3, (1,), 3, gl.PAULI_X), atol=1e-14)
    with pytest.raises(ValueError, match="overlapping"):
        gl.GatePlacement(gl.PAULI_X, target=1, controls=(1,)).to_mpo(3)


def test_gate_lifts_store_their_window_only():
    gate = gl.GatePlacement(gl.PAULI_X, target=7, controls=(3,)).to_mpo(10)
    assert gate.span == (2, 6) and len(gate.cores) == 5 and gate.n == 10
    # a gate-by-gate GHZ chain: 1 + 2 * 199 cores, not 200 per gate
    n = 200
    ops = [{"gate": "h", "target": 1}]
    ops += [{"gate": "cnot", "controls": [i], "target": i + 1} for i in range(1, n)]
    circuit = cli.load_circuit_payload({"n": n, "ops": ops}, label="ghz")
    assert sum(len(group.cores) for group in circuit.sequence.groups) <= 500
