"""Unit tests for the closed-form circuit builders and the executor."""

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mpoq import circuit_catalog as cat
from mpoq import cli
from mpoq import dense_oracle as oracle
from mpoq import tensor_core as tc
from mpoq.born_sampler import SampleReport, marginal_distribution
from mpoq.gate_library import (
    CONTROL_0,
    CONTROL_1,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    GatePlacement,
    controlled_mpo,
    hadamard_layer,
    phase_shift,
    phase_shift_k,
)

from conftest import is_right_orthonormal


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
    cnot = controlled_mpo((2,), PAULI_X, 3, 4)
    product = tc.compress_mpo(cnot @ controlled_mpo((2, 3), PAULI_X, 4, 4))
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


@pytest.mark.parametrize("count", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("build", [cat.full_adder_network_mpo, cat.full_adder_network_input],
                         ids=["operator", "input"])
def test_the_adder_network_needs_an_integer_count(build, count):
    with pytest.raises(ValueError, match=r"^adder count must be an integer >= 1, got "):
        build(count)


def test_network_of_two_matches_dense_composition():
    network = cat.full_adder_network_mpo(2)
    assert network.max_rank == 4
    placements = cat.full_adder_gate_placements()
    first = gate_product_mpo(placements, 7).to_dense()
    shifted = [
        type(p)(p.matrix, target=p.target + 3, controls=tuple(c + 3 for c in p.controls))
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
    assert cat.solve_hidden_string({"0000", "0110", "1001", "1100"}) == ["1111"]


def test_hidden_string_solutions_are_the_nullspace():
    """Random supports of width 1-8 against the definition: every returned b
    is nonzero and orthogonal to the support, and together with 0 they are as
    many as 2^width / |span(support)|, the size of the nullspace."""
    rng = np.random.default_rng(2024)
    for _ in range(400):
        width = int(rng.integers(1, 9))
        size = int(rng.integers(1, min(2 ** width, 10) + 1))
        rows = {int(z) for z in rng.choice(2 ** width, size=size, replace=False)}
        span = {0}
        for z in rows:
            span |= {s ^ z for s in span}
        support = {format(z, f"0{width}b") for z in rows}
        solutions = cat.solve_hidden_string(support)
        assert solutions == sorted(set(solutions)), support
        for b in (int(text, 2) for text in solutions):
            assert b and all(bin(b & z).count("1") % 2 == 0 for z in rows), (support, solutions)
        assert len(solutions) + 1 == 2 ** width // len(span), (support, solutions)


# ---------------------------------------------------------------------------
# QFT gate groups


def qft_group_gate_product(i, n):
    product = hadamard_layer([i], n)
    for k in range(2, n - i + 2):
        product = controlled_mpo((i + k - 1,), phase_shift_k(k), i, n) @ product
    return product


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_qft_group_equals_gate_product(n):
    for i in range(1, n + 1):
        closed = cat.qft_sequence(n).groups[i - 1]
        assert closed.max_rank == (1 if i == n else 2)
        assert_allclose(closed.to_dense(), qft_group_gate_product(i, n).to_dense(), atol=1e-12)


def test_inverse_group_is_adjoint():
    for i in (1, 2, 4):
        fwd = cat.qft_sequence(4).groups[i - 1].to_dense()
        inv = cat.inverse_qft_sequence(4).groups[4 - i].to_dense()
        assert_allclose(inv, fwd.conj().T, atol=1e-14)
        assert_allclose(inv @ fwd, np.eye(16), atol=1e-13)


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
    for group in cat.qft_sequence(6).groups:
        applied = group.apply(state)
        assert applied.max_rank <= 2
        state = tc.orthonormalize_right(applied, tc.TruncationPolicy(rel_threshold=1e-12))
        assert state.max_rank == 1


def test_qft_inverse_round_trip():
    bits = [1, 0, 1, 1, 0, 1]
    forward = cat.run_gate_sequence(cat.qft_sequence(6), tc.basis_state_mps(bits))
    back = cat.run_gate_sequence(cat.inverse_qft_sequence(6), forward.state)
    assert_allclose(back.state.to_dense(), oracle.basis_state(bits), atol=1e-10)


def test_qft_groups_share_their_cores():
    # a core depends only on its place in the group and its phase index
    for sequence in (cat.qft_sequence(8), cat.inverse_qft_sequence(8), cat.shor_sequence(7)):
        groups = [g for g in sequence.groups if len(g.cores) > 1][-7:]
        groups.sort(key=lambda g: g.span)
        for group in groups[1:]:
            assert all(c is f for c, f in zip(group.cores[:-1], groups[0].cores))
    # the last core of group i carries phase n - i + 1, whatever n is
    assert cat.qft_sequence(8).groups[0].cores[-1] is cat.qft_sequence(9).groups[1].cores[-1]
    assert cat.qft_sequence(8).groups[7].cores[0] is cat.qft_sequence(3).groups[2].cores[0]
    forward, inverse = cat.qft_sequence(8).groups[1], cat.inverse_qft_sequence(8).groups[6]
    assert all(a is not b for a, b in zip(forward.cores, inverse.cores))
    for core in forward.cores + inverse.cores + cat.shor_sequence(7).groups[-2].cores:
        with pytest.raises(ValueError):  # sealed: no group can change a shared core
            core.flags.writeable = True
        with pytest.raises(ValueError):
            core[0, 0, 0, 0] = 5.0


def test_each_qft_core_is_built_once_per_form():
    cat._qft_core.cache_clear()
    cat.qft_sequence(8)
    plain = cat._qft_core.cache_info().currsize
    assert plain == 15  # top, single, middle k = 2..7, last k = 2..8
    cat.inverse_qft_sequence(8)
    cat.shor_sequence(2)  # its inverse transform is qft(8) in the conj form
    assert cat._qft_core.cache_info().currsize == 3 * plain


def test_qft_sequence_stores_core_references_not_core_copies():
    tracemalloc.start()
    try:
        sequence = cat.qft_sequence(300)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(g.cores) for g in sequence.groups) == 300 * 301 // 2
    assert held < 2 * 10 ** 6  # 19.1 MB when every group built its own cores


def test_shared_cores_leave_the_svd_count_unchanged(monkeypatch):
    # counts recorded before the QFT groups shared their cores and before
    # the site step became one body in move_center: the arithmetic is the
    # same step for step
    calls = []
    svd = tc._SVD

    def counting_svd(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(tc, "_SVD", counting_svd)
    forward = cat.run_gate_sequence(cat.qft_sequence(16), tc.basis_state_mps([0] * 16))
    cat.run_gate_sequence(cat.inverse_qft_sequence(16), forward.state)
    assert len(calls) == 628
    calls.clear()
    cat.shor_run(7)
    assert len(calls) == 180


# ---------------------------------------------------------------------------
# executor


def test_run_gate_sequence_empty_is_identity():
    state = tc.random_mps(4, 2, seed=1)
    run = cat.run_gate_sequence(cat.GateGroupSequence((), label="empty"), state)
    assert run.rank_history == ()
    assert_allclose(run.state.to_dense(), state.to_dense(), atol=1e-12 * state.norm())
    assert run.state.right_orthonormal and is_right_orthonormal(run.state)


def test_run_gate_sequence_rounds_the_input_also_without_groups():
    w = tc.named_state_mps("w", 6)
    capped = tc.TruncationPolicy(max_rank=1)
    empty = cat.run_gate_sequence(cat.GateGroupSequence(()), w, capped)
    x = GatePlacement(PAULI_X, target=1).to_mpo(6)
    twice = cat.run_gate_sequence(cat.GateGroupSequence((x, x)), w, capped)
    assert empty.state.max_rank == twice.state.max_rank == 1
    assert_allclose(empty.state.to_dense(), twice.state.to_dense(), atol=1e-12)


def test_run_gate_sequence_normalization_and_mismatch():
    run = cat.run_gate_sequence(cat.qft_sequence(5), tc.basis_state_mps([0] * 5))
    assert run.state.norm() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        cat.run_gate_sequence(cat.qft_sequence(5), tc.basis_state_mps([0] * 4))
    with pytest.raises(ValueError, match="share the register"):
        cat.GateGroupSequence(cat.qft_sequence(4).groups + cat.qft_sequence(5).groups)


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


@settings(max_examples=60)
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
    assert run.state.right_orthonormal and is_right_orthonormal(run.state)


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
    assert run.state.right_orthonormal and is_right_orthonormal(run.state)


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
    assert run.state.right_orthonormal and is_right_orthonormal(run.state)


@pytest.mark.parametrize(
    "sequence, spans",
    [
        (cat.inverse_qft_sequence(6), [(i - 1, 5) for i in range(6, 0, -1)]),
        (cat.shor_sequence(7), [(0, 7), (0, 11)] + [(i - 1, 7) for i in range(1, 9)]),
    ],
    ids=["inverse-qft(6)", "shor(7)"],
)
def test_groups_stay_inside_their_span(sequence, spans):
    # adjoint and conjugated groups keep the window they were built with, and
    # applying a group replaces no state core more than one site outside it
    assert [group.span for group in sequence.groups] == spans
    n = sequence.n
    cores = list(tc.orthonormalize_right(tc.random_mps(n, 4, seed=2), tc.LOSSLESS).cores)
    center = 0
    for group, (lo, hi) in zip(sequence.groups, spans):
        center = tc.move_center(cores, center, lo)
        before = list(cores)
        center, _ = tc.apply_window(cores, center, group, tc.DEFAULT_POLICY)
        for i in [*range(lo - 1), *range(hi + 2, n)]:
            assert cores[i] is before[i], (group.span, i)


def _ghz_circuit(bits, projected=()):
    """The gate-by-gate GHZ chain of the ghz-gates benchmark on a basis input,
    then a projector onto |1> on each ``projected`` qubit."""
    n = len(bits)
    placements = [GatePlacement(HADAMARD, 1)] + [GatePlacement(PAULI_X, q + 1, (q,)) for q in range(1, n)]
    placements += [GatePlacement(CONTROL_1, q) for q in projected]
    sequence = cat.GateGroupSequence(tuple(p.to_mpo(n) for p in placements))
    return sequence, tc.basis_state_mps([int(b) for b in bits]), tc.DEFAULT_POLICY


def _rank_history_cases():
    for name, entry in cat.BUILTINS.items():
        args = cat.SHOR_BASES if name == "shor" else [None] if entry.arg is None else [entry.example, 13]
        for arg in args:
            yield pytest.param(name, arg, id=name if arg is None else f"{name}({arg})")
    rng = np.random.default_rng(8)
    for n in (50, 200, 800):
        yield pytest.param("ghz", "".join(map(str, rng.integers(0, 2, n))), id=f"ghz({n})")
    # a projector drops the bonds on both sides of its qubit, outside its span
    yield pytest.param("ghz-projected", "0" * 12, id="ghz(12)-projected")


@pytest.mark.parametrize("name, arg", _rank_history_cases())
def test_rank_history_is_the_full_profile_after_every_group(monkeypatch, name, arg):
    # run_gate_sequence re-reads only the bonds a group can move; the profile
    # must equal the whole chain's, read after every group
    if name.startswith("ghz"):
        sequence, initial, policy = _ghz_circuit(arg, (9, 3, 6) if name == "ghz-projected" else ())
    else:
        circuit = cat.build_builtin(name, arg)
        sequence, initial, policy = circuit.sequence, circuit.initial, circuit.policy
    profiles = []
    apply_window = cat.apply_window

    def recording(cores, center, op, policy):
        stepped = apply_window(cores, center, op, policy)
        profiles.append((1,) + tuple(c.shape[2] for c in cores))
        return stepped

    monkeypatch.setattr(cat, "apply_window", recording)
    run = cat.run_gate_sequence(sequence, initial, policy)
    assert len(profiles) == len(sequence.groups)
    assert run.rank_history == tuple(profiles)


_EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

#: The 2x2 gates of a JSON circuit with the control count each takes.
_JSON_GATES = {"h": 0, "x": 0, "phase": 0, "rk": 0, "cnot": 1, "cphase": 1, "ccnot": 2}


def _random_json_circuit(rng):
    """A JSON circuit on 3..8 qubits that uses every gate at least once."""
    n = int(rng.integers(3, 9))
    names = list(_JSON_GATES) + list(rng.choice(list(_JSON_GATES), 9))
    ops = []
    for name in rng.permutation(names):
        target, *controls = (int(q) + 1 for q in rng.permutation(n)[: 1 + _JSON_GATES[name]])
        op = {"gate": str(name), "target": target, "controls": controls}
        if name == "phase":
            op["phi"] = float(rng.uniform(-4.0, 4.0))
        elif name in ("rk", "cphase"):
            op["k"] = int(rng.integers(1, 6))
        ops.append(op)
    initial = ["zeros", {"basis": "".join(map(str, rng.integers(0, 2, n)))},
               {"hadamard_on": [1, n]}, {"named": "w"}][int(rng.integers(0, 4))]
    return {"n": n, "initial": initial, "ops": ops}


def _executor_runs():
    """``(sequence, initial, policy)`` of every run the executor digest pins."""
    rng = np.random.default_rng(2025)
    for n in range(1, 10):
        for sequence in (cat.qft_sequence(n), cat.inverse_qft_sequence(n)):
            yield sequence, tc.basis_state_mps([int(b) for b in rng.integers(0, 2, n)]), tc.DEFAULT_POLICY
    circuits = [cat.build_builtin("shor", a) for a in cat.SHOR_BASES]
    circuits += [cat.build_builtin("qfa-network", count) for count in range(1, 5)]
    for circuit in circuits:
        yield circuit.sequence, circuit.initial, circuit.policy
    yield cat.GateGroupSequence(cat.simon_gate_groups()), tc.basis_state_mps([0] * 8), tc.DEFAULT_POLICY
    payloads = [json.loads((_EXAMPLES / name).read_text()) for name in ("adder.json", "custom.json", "simon.json")]
    for n in (6, 20):
        ops = [{"gate": "h", "target": 1}] + [{"gate": "cnot", "target": q + 1, "controls": [q]} for q in range(1, n)]
        payloads.append({"n": n, "ops": ops})
    policies = [{}, {"max_rank": 1}, {"max_rank": 2}, {"rel_threshold": 1e-3}]
    for _ in range(20):
        circuit = _random_json_circuit(rng)
        payloads += [dict(circuit, policy=policy) for policy in policies]
    for payload in payloads:
        circuit = cli.load_circuit_payload(payload, "")
        yield circuit.sequence, circuit.initial, circuit.policy


def test_executor_outputs_keep_their_bytes():
    # sha256 over the shape and bytes of every final core and over every
    # rank history of run_gate_sequence, recorded before the SVD cut moved
    # into move_center and apply_window returned the range it stepped over
    digest, runs = hashlib.sha256(), 0
    for sequence, initial, policy in _executor_runs():
        run = cat.run_gate_sequence(sequence, initial, policy)
        for core in run.state.cores:
            digest.update(repr(core.shape).encode())
            digest.update(np.ascontiguousarray(core).tobytes())
        digest.update(repr(run.rank_history).encode())
        runs += 1
    assert runs == 18 + 7 + 4 + 1 + 5 + 80
    assert digest.hexdigest() == "e5202de8f0c0c717094bab08f6648aaaeccf2902635e0a3c5ec8d8d01183a1e3"


def test_a_builtin_takes_a_numpy_integer_and_builds_from_an_int(monkeypatch):
    seen = []
    entry = cat.BUILTINS["qft"]
    monkeypatch.setitem(cat.BUILTINS, "qft", cat.Builtin(
        entry.arg, entry.example, entry.qubits, lambda n: seen.append(n) or entry.build(n)))
    assert cat.build_builtin("qft", np.int64(4)).initial.n == 4
    assert seen == [4] and type(seen[0]) is int


@pytest.mark.parametrize("arg", [True, 4.0, np.float64(4.0), "4"])
def test_a_builtin_refuses_an_argument_that_is_not_an_integer(arg):
    with pytest.raises(ValueError, match=r"^builtin qft: n must be an integer in \[1, 100000\], got "):
        cat.build_builtin("qft", arg)


@pytest.mark.parametrize("name", list(cat.BUILTINS))
def test_builtins_declare_their_register_size(name):
    entry = cat.BUILTINS[name]
    args = cat.SHOR_BASES if name == "shor" else [None] if entry.arg is None else [entry.example, 1, 5]
    for arg in args:
        assert entry.qubits(arg) == cat.build_builtin(name, arg).initial.n, (name, arg)


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
    # order of 2 mod 9 is 6: residue classes of x are not bit patterns
    op = cat.modular_exponentiation_mpo(2, modulus=9)
    n_target = cat.target_register_size(9)
    assert n_target == 4
    rng = np.random.default_rng(9)
    for x in rng.integers(0, 2 ** (2 * n_target), 4):
        bits = [int(c) for c in format(x, f"0{2 * n_target}b")]
        got = op.apply(tc.basis_state_mps(bits + [0] * n_target)).to_dense()
        f_bits = [int(c) for c in format(pow(2, int(x), 9), f"0{n_target}b")]
        assert_allclose(got, oracle.basis_state(bits + f_bits), atol=1e-10)


#: Minimal bond profiles of the oracle, pinned so that a change of
#: construction cannot move them.
UF_RANKS = {
    (2, 15): (1, 1, 1, 1, 1, 1, 1, 2, 4, 4, 3, 2, 1),
    (4, 15): (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1),
    (7, 15): (1, 1, 1, 1, 1, 1, 1, 2, 4, 4, 3, 2, 1),
    (8, 15): (1, 1, 1, 1, 1, 1, 1, 2, 4, 4, 3, 2, 1),
    (11, 15): (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1),
    (13, 15): (1, 1, 1, 1, 1, 1, 1, 2, 4, 4, 3, 2, 1),
    (14, 15): (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1),
    (2, 9): (1, 2, 3, 3, 3, 3, 3, 3, 6, 6, 4, 2, 1),
    (2, 21): (1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 6, 6, 5, 4, 2, 1),
    (5, 21): (1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 6, 4, 4, 2, 2, 1),
    (2, 33): (1, 2, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 10, 10, 8, 6, 4, 2, 1),
}


@pytest.mark.parametrize("a,modulus", list(UF_RANKS))
def test_uf_xors_the_power_into_any_target(a, modulus):
    op = cat.modular_exponentiation_mpo(a, modulus)
    assert op.ranks == UF_RANKS[a, modulus]
    n_target = cat.target_register_size(modulus)
    n_input = 2 * n_target
    rng = np.random.default_rng(modulus * 100 + a)
    xs = rng.integers(0, 2 ** n_input, 4)
    ts = rng.integers(1, 2 ** n_target, 4)
    for x, t in [(int(x), int(t)) for x, t in zip(xs, ts)] + [(2 ** n_input - 1, 1)]:
        bits = [int(c) for c in format(x, f"0{n_input}b") + format(t, f"0{n_target}b")]
        got = op.apply(tc.basis_state_mps(bits)).to_dense()
        out = format(x, f"0{n_input}b") + format(t ^ pow(a, x, modulus), f"0{n_target}b")
        assert_allclose(got, oracle.basis_state([int(c) for c in out]), atol=1e-10)


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


def test_extract_period_failure_modes():
    assert cat.extract_period(0, 256, 7, 15).failure == "zero measurement"
    # a = 14 is its own inverse mod 15: the -1 test fires at q = 2
    assert cat.extract_period(128, 256, 14, 15).failure == "a^(q/2) is -1 mod M"
    with pytest.raises(ValueError):
        cat.extract_period(256, 256, 7, 15)


def test_extract_period_stores_a_numpy_integer_as_int():
    row = cat.extract_period(np.int64(64), 256, 7, 15)
    assert row == cat.extract_period(64, 256, 7, 15) and type(row.y) is int
    assert json.dumps(row.y) == "64"
    with pytest.raises(ValueError, match=r"^measured value must be an integer in \[0, 256\), got 64.0$"):
        cat.extract_period(64.0, 256, 7, 15)


def test_shor_readout_reverses_keys_and_sorts_rows():
    def report(counts, probabilities):
        return SampleReport(12, sum(counts.values()), 5, cat.SHOR_INPUT, counts, probabilities,
                            elapsed_seconds=0.25, clamped_mass=1e-13)

    def rows(*ys):
        return tuple(cat.extract_period(y, 256, 7, 15) for y in ys)

    # bitstrings arrive in the register's (reversed) order
    counts = {"00000010": 3, "10000000": 1}
    probabilities = {"00000010": 0.5, "00000000": 0.25, "10000000": 0.25}
    reversed_counts = {"01000000": 3, "00000001": 1}
    reversed_probabilities = {"01000000": 0.5, "00000000": 0.25, "00000001": 0.25}

    read, got = cat.shor_readout(7, report(counts, None))
    assert read == report(reversed_counts, None)
    assert got == rows(1, 64)

    read, got = cat.shor_readout(7, report({}, probabilities))
    assert read == report({}, reversed_probabilities)
    assert got == rows(0, 1, 64)

    # with both tables, the rows follow the exact support
    read, got = cat.shor_readout(7, report(counts, probabilities))
    assert read == report(reversed_counts, reversed_probabilities)
    assert got == rows(0, 1, 64)

    assert cat.shor_readout(7, report({}, None)) == (report({}, None), ())


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


def test_shor_run_takes_a_numpy_integer_base():
    result = cat.shor_run(np.int64(7))
    assert type(result.a) is int and all(type(row.y) is int for row in result.extractions)
    assert result == cat.shor_run(7)


def test_shor_sequence_takes_a_numpy_integer_base():
    got, want = cat.shor_sequence(np.int64(7)), cat.shor_sequence(7)
    assert got.label == want.label == "shor(7)"
    assert [(g.span, g.n) for g in got.groups] == [(g.span, g.n) for g in want.groups]
    for g, w in zip(got.groups, want.groups):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g.cores, w.cores))


@pytest.mark.parametrize("args", [(np.int64(7),), (7, np.int64(15))], ids=["base", "modulus"])
def test_modular_exponentiation_takes_numpy_integers(args):
    got, want = cat.modular_exponentiation_mpo(*args), cat.modular_exponentiation_mpo(7)
    assert got.ranks == want.ranks
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.cores, want.cores))


@pytest.mark.parametrize("args", [(7.0,), (7, 15.0)], ids=["base", "modulus"])
def test_modular_exponentiation_refuses_a_float(args):
    with pytest.raises(ValueError, match=r"^base and modulus must be integers with 1 < a < modulus, got "):
        cat.modular_exponentiation_mpo(*args)


# ---------------------------------------------------------------------------
# closed-form core bytes


def _closed_form_cores():
    """Every core the library writes in closed form, in a fixed order."""
    for n in range(2, 8):
        for name in ("ghz", "w"):
            yield from tc.named_state_mps(name, n).cores
    for name in ("bell_phi_plus", "bell_phi_minus", "bell_psi_plus", "bell_psi_minus"):
        yield from tc.named_state_mps(name, 2).cores
    for bits in itertools.product((0, 1), repeat=3):
        yield from tc.basis_state_mps(bits).cores
    for n in range(2, 7):
        for count in (1, 2):
            for positions in itertools.permutations(range(1, n + 1), count + 1):
                for matrix in (PAULI_X, HADAMARD, phase_shift_k(3)):
                    yield from controlled_mpo(positions[1:], matrix, positions[0], n).cores
    for count in range(1, 5):
        yield from cat.full_adder_network_mpo(count).cores
    yield cat.adder_coupling_core()
    yield from cat.simon_circuit_mpo().cores
    for group in cat.simon_gate_groups():
        yield from group.cores
    for n in range(1, 10):
        for sequence in (cat.qft_sequence(n), cat.inverse_qft_sequence(n)):
            for group in sequence.groups:
                yield from group.cores
    for a in cat.SHOR_BASES:
        for group in cat.shor_sequence(a).groups:
            yield from group.cores
        yield from cat.shor_closed_form_mpo(a).cores


def test_closed_form_cores_keep_their_bytes():
    # sha256 over the shape and bytes of 4241 cores, recorded before the
    # builders were written with block_core.  The values tests above allow a
    # -0.0 where the recorded core has +0.0; this digest does not.
    digest = hashlib.sha256()
    for core in _closed_form_cores():
        assert core.dtype == np.complex128
        digest.update(repr(core.shape).encode())
        digest.update(np.ascontiguousarray(core).tobytes())
    assert digest.hexdigest() == "41b15fd012b02923bc32fb0e0cd6d3dcea9317aa67bbc2ce6d03c87c0bc671b1"
