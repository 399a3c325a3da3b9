"""Unit tests for the closed-form circuit builders and the executor."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpoq import circuit_catalog as cat
from mpoq import dense_oracle as oracle
from mpoq import tensor_core as tc
from mpoq.born_sampler import marginal_distribution
from mpoq.gate_library import (
    CONTROL_0,
    CONTROL_1,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    GatePlacement,
    cnot_mpo,
    cphase_mpo,
    hadamard_layer,
    phase_shift,
    phase_shift_k,
    toffoli_mpo,
)


def gate_product_mpo(placements, n):
    product = None
    for placement in placements:
        mpo = placement.to_mpo(n)
        product = mpo if product is None else mpo @ product
    return product


# ---------------------------------------------------------------------------
# full adder


def test_full_adder_equals_gate_product():
    closed = cat.full_adder_mpo()
    product = gate_product_mpo(cat.full_adder_gate_placements(), 4)
    assert_allclose(closed.to_dense(), product.to_dense(), atol=1e-12)
    assert closed.ranks == (1, 3, 4, 2, 1)


def test_full_adder_truth_table():
    adder = cat.full_adder_mpo()
    for value in range(8):
        c_in, a, b = value >> 2 & 1, value >> 1 & 1, value & 1
        out = adder.apply(tc.basis_state_mps([c_in, a, b, 0])).to_dense()
        s, c_out = oracle.full_adder_truth(c_in, a, b)
        assert_allclose(out, oracle.basis_state([s, a, b, c_out]), atol=1e-12)


def test_full_adder_worked_cases():
    # with both summands zero the carry-in passes through unchanged
    adder = cat.full_adder_mpo()
    for c_in in (0, 1):
        out = adder.apply(tc.basis_state_mps([c_in, 0, 0, 0])).to_dense()
        assert_allclose(out, oracle.basis_state([c_in, 0, 0, 0]), atol=1e-13)
        out = adder.apply(tc.basis_state_mps([c_in, 1, 1, 0])).to_dense()
        assert_allclose(out, oracle.basis_state([c_in, 1, 1, 1]), atol=1e-13)


def test_first_partial_product_matches_derivation():
    # CNOT(2|3) . CCNOT(2,3|4) compresses to the two-core middle form
    product = tc.compress_mpo(cnot_mpo(2, 3, 4) @ toffoli_mpo(2, 3, 4, 4))
    derived = tc.MPO([
        IDENTITY[None, :, :, None],
        np.stack([IDENTITY, CONTROL_1], axis=-1)[None],
        np.stack(
            [
                np.stack([IDENTITY, np.zeros((2, 2))], axis=-1),
                np.stack([PAULI_X - IDENTITY, PAULI_X @ CONTROL_1], axis=-1),
            ],
            axis=0,
        ),
        np.stack([IDENTITY, PAULI_X - IDENTITY], axis=0)[..., None],
    ])
    assert_allclose(product.to_dense(), derived.to_dense(), atol=1e-12)


def test_coupling_core_matches_block_form():
    core = cat.adder_coupling_core()
    expected = [
        [PAULI_X @ CONTROL_0, IDENTITY, PAULI_X @ CONTROL_1],
        [CONTROL_1, PAULI_X, CONTROL_0],
    ]
    for k in range(2):
        for l in range(3):
            assert_allclose(core[k, :, :, l], expected[k][l], atol=1e-15)


def test_network_of_one_is_the_adder():
    assert_allclose(
        cat.full_adder_network_mpo(1).to_dense(),
        cat.full_adder_mpo().to_dense(),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        cat.full_adder_network_mpo(0)


def test_network_of_two_matches_dense_composition():
    network = cat.full_adder_network_mpo(2)
    assert network.max_rank == 4
    placements = cat.full_adder_gate_placements()
    first = gate_product_mpo(placements, 7).to_dense()
    shifted = [
        type(p)(p.matrix, target=p.target + 3, controls=tuple(c + 3 for c in p.controls), name=p.name)
        for p in placements
    ]
    second = gate_product_mpo(shifted, 7).to_dense()
    assert_allclose(network.to_dense(), second @ first, atol=1e-12)


def test_network_distribution_matches_dense_oracle():
    count = 2
    network = cat.full_adder_network_mpo(count)
    state = cat.full_adder_network_input(count)
    run = cat.run_gate_sequence(cat.GateGroupSequence((network,), label="net"), state)
    outputs = cat.full_adder_network_outputs(count)
    got = marginal_distribution(run.state, outputs).reshape(-1)

    dense = oracle.basis_state([0] * 7)
    for q in cat.full_adder_network_summands(count):
        dense = oracle.apply_gate_dense(dense, HADAMARD, target=q)
    dense = network.to_dense() @ dense
    want = oracle.marginal_dense(oracle.born_distribution(dense), outputs, 7).reshape(-1)
    assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Simon's circuit


def test_simon_closed_form_equals_gate_groups():
    g1, g2, g3, g4 = cat.simon_gate_groups()
    product = (g4 @ (g3 @ (g2 @ g1))).to_dense()
    assert_allclose(cat.simon_circuit_mpo().to_dense(), product, atol=1e-12)


def test_simon_mpo_rank_bound():
    assert cat.simon_circuit_mpo().max_rank == 4


def test_simon_final_state_matches_x_basis_form():
    # closed-form final state: chain of |+|-> blocks over the first register
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    ket0 = np.array([1.0, 0.0])
    ket1 = np.array([0.0, 1.0])

    def row(vecs):
        return np.stack(vecs, axis=-1)[None]

    def col(vecs):
        return np.stack(vecs, axis=0)[..., None]

    def block(rows):
        out = np.zeros((len(rows), 2, len(rows[0])), dtype=complex)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                if v is not None:
                    out[i, :, j] = v
        return out

    expected = tc.MPS([
        0.25 * row([plus, minus]),
        block([[ket0, None], [None, ket0]]),
        block([[plus, minus, None, None], [None, None, plus, minus]]),
        block([[ket0, None], [ket1, None], [None, ket0], [None, ket1]]),
        block([[plus, minus], [minus, plus]]),
        col([ket0, ket1]),
        row([plus, minus]),
        col([ket0, ket1]),
    ])
    got = cat.simon_circuit_mpo().apply(tc.basis_state_mps([0] * 8))
    assert_allclose(got.to_dense(), expected.to_dense(), atol=1e-12)


def test_simon_first_register_marginal():
    run = cat.run_gate_sequence(
        cat.GateGroupSequence((cat.simon_circuit_mpo(),), label="simon"),
        tc.basis_state_mps([0] * 8),
    )
    marginal = marginal_distribution(run.state, cat.SIMON_FIRST_REGISTER).reshape(-1)
    for index in range(16):
        key = format(index, "04b")
        expected = 0.125 if key in cat.SIMON_SUPPORT else 0.0
        assert marginal[index] == pytest.approx(expected, abs=1e-12)


def test_simon_hidden_string_recovery():
    assert cat.solve_hidden_string(cat.SIMON_SUPPORT) == ["1010"]
    # sanity: all-z set of the full space has no nonzero solution
    everything = {format(i, "04b") for i in range(16)}
    assert cat.solve_hidden_string(everything) == []


# ---------------------------------------------------------------------------
# QFT gate groups


def qft_group_gate_product(i, n):
    product = hadamard_layer([i], n)
    for k in range(2, n - i + 2):
        product = cphase_mpo(i + k - 1, i, n, k=k) @ product
    return product


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_qft_group_equals_gate_product(n):
    for i in range(1, n + 1):
        closed = cat.qft_group_mpo(i, n)
        assert closed.max_rank == (1 if i == n else 2)
        assert_allclose(closed.to_dense(), qft_group_gate_product(i, n).to_dense(), atol=1e-12)


def test_inverse_group_is_adjoint():
    for i in (1, 2, 4):
        fwd = cat.qft_group_mpo(i, 4).to_dense()
        inv = cat.inverse_qft_group_mpo(i, 4).to_dense()
        assert_allclose(inv, fwd.conj().T, atol=1e-14)
        assert_allclose(inv @ fwd, np.eye(16), atol=1e-13)


def test_qft_group_index_validation():
    with pytest.raises(ValueError):
        cat.qft_group_mpo(0, 3)
    with pytest.raises(ValueError):
        cat.qft_group_mpo(4, 3)


def test_qft_pipeline_matches_reference_transform():
    n = 3
    dft = oracle.dft_matrix(n)
    reversal = oracle.bit_reversal_permutation(n)
    for x in range(2 ** n):
        bits = [int(c) for c in format(x, f"0{n}b")]
        run = cat.run_gate_sequence(cat.qft_sequence(n), tc.basis_state_mps(bits))
        assert_allclose(run.state.to_dense(), dft[reversal, x], atol=1e-12)


def test_qft_rank_one_preservation():
    run = cat.run_gate_sequence(cat.qft_sequence(10), tc.basis_state_mps([1, 0] * 5))
    assert run.max_rank_seen == 1
    assert run.state.max_rank == 1


def test_qft_rank_collapse_under_single_right_sweep():
    # one truncating right sweep is enough to find the rank-one form
    state = tc.basis_state_mps([1, 0, 1, 1, 0, 1])
    for i in range(1, 7):
        applied = cat.qft_group_mpo(i, 6).apply(state)
        assert applied.max_rank <= 2
        state = tc.orthonormalize_right(applied, tc.TruncationPolicy(rel_threshold=1e-12))
        assert state.max_rank == 1


def test_qft_inverse_round_trip():
    bits = [1, 0, 1, 1, 0, 1]
    forward = cat.run_gate_sequence(cat.qft_sequence(6), tc.basis_state_mps(bits))
    back = cat.run_gate_sequence(cat.inverse_qft_sequence(6), forward.state)
    assert_allclose(back.state.to_dense(), oracle.basis_state(bits), atol=1e-10)


# ---------------------------------------------------------------------------
# executor


def test_run_gate_sequence_empty_is_identity():
    state = tc.random_mps(4, 2, seed=1)
    run = cat.run_gate_sequence(cat.GateGroupSequence((), label="empty"), state)
    assert run.state is state
    assert run.rank_history == ()


def test_run_gate_sequence_normalization_and_mismatch():
    run = cat.run_gate_sequence(cat.qft_sequence(5), tc.basis_state_mps([0] * 5))
    assert run.state.norm() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        cat.run_gate_sequence(cat.qft_sequence(5), tc.basis_state_mps([0] * 4))


def full_sweep_run(groups, state, policy=tc.DEFAULT_POLICY):
    """Reference executor: full apply, lossless left sweep, truncating right sweep."""
    history = []
    for group in groups:
        state = tc.orthonormalize_right(tc.orthonormalize_left(group.apply(state), tc.LOSSLESS), policy)
        history.append(state.ranks)
    return state, tuple(history)


_ROTATION = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]], dtype=complex)
_GATES = (HADAMARD, PAULI_X, phase_shift_k(3), phase_shift(0.7), _ROTATION)


@st.composite
def gate_circuits(draw):
    """Random gate-level circuits: (n, [(gate index, target, controls)], initial state).

    Controls land on either side of the target and need not be adjacent to
    it.  The initial state is a basis state (flagged right-orthonormal) or a
    generic random state (not flagged).
    """
    n = draw(st.integers(2, 8))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        positions = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, min(3, n)))]
        ops.append((draw(st.integers(0, len(_GATES) - 1)), positions[0], tuple(positions[1:])))
    initial = draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tc.basis_state_mps),
        st.integers(0, 2 ** 16).map(lambda seed: tc.random_mps(n, 3, seed=seed)),
    ))
    return n, ops, initial


@settings(derandomize=True, deadline=None, max_examples=60)
@given(gate_circuits())
@example((6, [(0, 6, ()), (1, 1, (6,)), (0, 2, ()), (1, 4, (6, 2))], tc.basis_state_mps([0] * 6)))
@example((7, [(0, 1, ()), (1, 7, (1,)), (2, 3, (7,)), (4, 5, (2, 6))], tc.random_mps(7, 3, seed=5)))
def test_windowed_executor_matches_full_sweeps_and_dense_oracle(circuit):
    n, ops, initial = circuit
    groups = tuple(GatePlacement(_GATES[g], t, c).to_mpo(n) for g, t, c in ops)
    run = cat.run_gate_sequence(cat.GateGroupSequence(groups), initial)

    dense = initial.to_dense()
    for g, t, c in ops:
        dense = oracle.apply_gate_dense(dense, _GATES[g], target=t, controls=c)
    assert_allclose(run.state.to_dense(), dense, atol=1e-10)
    assert run.rank_history == full_sweep_run(groups, initial)[1]
    assert run.state.right_orthonormal and tc.is_right_orthonormal(run.state)


def test_windowed_executor_rounds_bonds_beside_a_projector():
    # GHZ(5), then project qubit 3 onto |1>: the group's support is qubit 3
    # alone, and the bonds on either side of it drop from 2 to 1
    n = 5
    placements = [GatePlacement(HADAMARD, 1)]
    placements += [GatePlacement(PAULI_X, q + 1, (q,)) for q in range(1, n)]
    placements.append(GatePlacement(CONTROL_1, 3))
    groups = tuple(p.to_mpo(n) for p in placements)
    initial = tc.basis_state_mps([0] * n)
    run = cat.run_gate_sequence(cat.GateGroupSequence(groups), initial)
    reference, history = full_sweep_run(groups, initial)

    assert run.rank_history[:-1] == history[:-1]
    assert run.rank_history[-1][2:4] == history[-1][2:4] == (1, 1)
    assert_allclose(run.state.to_dense(), reference.to_dense(), atol=1e-12)
    assert run.state.right_orthonormal and tc.is_right_orthonormal(run.state)


@pytest.mark.parametrize("name", ["w", "ghz"])
def test_windowed_executor_caps_the_bonds_of_a_named_input(name):
    # one gate on the last qubit leaves bonds 1|2 .. n-2|n-1 outside its
    # window; the policy must still cut them, as a full-width step does
    n, policy = 4, tc.TruncationPolicy(max_rank=1)
    groups = (GatePlacement(HADAMARD, n).to_mpo(n),)
    initial = tc.named_state_mps(name, n)
    run = cat.run_gate_sequence(cat.GateGroupSequence(groups), initial, policy)

    assert run.rank_history == full_sweep_run(groups, initial, policy)[1] == ((1,) * (n + 1),)
    assert run.max_rank_seen == 1


@pytest.mark.parametrize("flagged", [False, True])
@pytest.mark.parametrize("target", [1, 3, 6])
def test_windowed_executor_truncates_a_generic_input_like_full_sweeps(flagged, target):
    # a single-qubit unitary commutes with Schmidt truncation, so rounding
    # the input first and applying the gate after gives the same state; a
    # generic input has no ties among its singular values
    n, policy = 6, tc.TruncationPolicy(max_rank=2)
    initial = tc.random_mps(n, 4, seed=3)
    if flagged:
        initial = tc.orthonormalize_right(initial, tc.LOSSLESS)
    groups = (GatePlacement(HADAMARD, target).to_mpo(n),)
    run = cat.run_gate_sequence(cat.GateGroupSequence(groups), initial, policy)
    reference, history = full_sweep_run(groups, initial, policy)

    assert run.rank_history == history == ((1, 2, 2, 2, 2, 2, 1),)
    assert_allclose(run.state.to_dense(), reference.to_dense(), atol=1e-12)
    assert run.state.right_orthonormal and tc.is_right_orthonormal(run.state)


def test_sequence_layout_validation():
    groups = (cat.simon_circuit_mpo(),)
    with pytest.raises(ValueError):
        cat.GateGroupSequence(groups, label="bad", register_layout={"first": (1, 2, 3)})


# ---------------------------------------------------------------------------
# factoring


def uf_permutation_dense(a, modulus=15):
    mat = np.zeros((4096, 4096))
    for x in range(256):
        f = pow(a, x, modulus)
        for t in range(16):
            mat[(x << 4) | (t ^ f), (x << 4) | t] = 1.0
    return mat


@pytest.mark.parametrize("a", cat.SHOR_BASES)
def test_uf_action_is_modular_exponentiation(a):
    op = cat.modular_exponentiation_mpo(a)
    rng = np.random.default_rng(a)
    pairs = [(int(x), int(t)) for x, t in zip(rng.integers(0, 256, 6), rng.integers(0, 16, 6))]
    for x, t in pairs + [(0, 0), (1, 0), (255, 9)]:
        bits = [int(c) for c in format(x, "08b") + format(t, "04b")]
        got = op.apply(tc.basis_state_mps(bits)).to_dense()
        out = (x << 4) | (t ^ pow(a, x, 15))
        assert_allclose(got, oracle.basis_state([int(c) for c in format(out, "012b")]), atol=1e-12)


@pytest.mark.parametrize("a", cat.SHOR_BASES)
def test_closed_form_equals_generic_construction(a):
    closed = cat.shor_closed_form_mpo(a)
    generic = cat.modular_exponentiation_mpo(a)
    for seed in range(3):
        probe = tc.random_mps(12, 2, seed=seed)
        assert_allclose(
            closed.apply(probe).to_dense(), generic.apply(probe).to_dense(), atol=1e-12
        )


def test_closed_form_dense_anchor(monkeypatch):
    # one full-matrix comparison against the permutation reference
    monkeypatch.setenv("MPOQ_DENSE_CAP", str(4096 ** 2))
    dense = cat.shor_closed_form_mpo(7).to_dense()
    assert_allclose(dense, uf_permutation_dense(7), atol=1e-12)


def test_uf_rank_certificates():
    for a in (2, 7, 8, 13):
        assert cat.modular_exponentiation_mpo(a).max_rank == 4
    for a in (4, 11, 14):
        assert cat.modular_exponentiation_mpo(a).max_rank == 2


def test_uf_a4_structure():
    # two-term decomposition: identity on qubit 7, projectors on qubit 8
    terms = cat.SHOR_UF_CLOSED_FORM[4]
    assert terms == (("-0", 1), ("-1", 4))


def test_uf_rejects_bad_bases():
    with pytest.raises(ValueError):
        cat.modular_exponentiation_mpo(3)  # gcd(3, 15) != 1
    with pytest.raises(ValueError):
        cat.modular_exponentiation_mpo(15)
    with pytest.raises(ValueError):
        cat.shor_closed_form_mpo(3)


def test_uf_generic_non_power_of_two_order():
    # order of 2 mod 9 is 6: exercises the accumulate-and-compress path
    op = cat.modular_exponentiation_mpo(2, modulus=9)
    n_target = cat.target_register_size(9)
    assert n_target == 4
    rng = np.random.default_rng(9)
    for x in rng.integers(0, 2 ** (2 * n_target), 4):
        bits = [int(c) for c in format(x, f"0{2 * n_target}b")]
        got = op.apply(tc.basis_state_mps(bits + [0] * n_target)).to_dense()
        f_bits = [int(c) for c in format(pow(2, int(x), 9), f"0{n_target}b")]
        assert_allclose(got, oracle.basis_state(bits + f_bits), atol=1e-10)


@pytest.mark.parametrize(
    "y,q,factors",
    [
        (0, 1, None),
        (64, 4, (3, 5)),
        (128, 2, (3, 1)),
        (192, 4, (3, 5)),
    ],
)
def test_extract_period_reference_rows_base_7(y, q, factors):
    row = cat.extract_period(y, 256, 7, 15)
    assert row.period == q
    assert row.factors == factors
    assert row.succeeded == (factors is not None)


def test_extract_period_failure_modes():
    assert cat.extract_period(0, 256, 7, 15).failure == "zero measurement"
    # a = 14 is its own inverse mod 15: the -1 test fires at q = 2
    assert cat.extract_period(128, 256, 14, 15).failure == "a^(q/2) is -1 mod M"
    with pytest.raises(ValueError):
        cat.extract_period(256, 256, 7, 15)


def test_shor_run_supports_and_ranks():
    result = cat.shor_run(7)
    assert result.support == (0, 64, 128, 192)
    assert max(result.final_ranks) == 4
    assert result.factors_found == (3, 5)
    probs = dict(result.distribution)
    for y in result.support:
        assert probs[y] == pytest.approx(0.25, abs=1e-10)

    result = cat.shor_run(11)
    assert result.support == (0, 128)
    assert max(result.final_ranks) == 2
    for _, p in result.distribution:
        assert p == pytest.approx(0.5, abs=1e-10)
