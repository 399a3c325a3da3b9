"""Unit tests for the chain containers and their algebra."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mpoq import born_sampler as bs, tensor_core as tc
from mpoq.circuit_catalog import (
    build_builtin,
    full_adder_mpo,
    inverse_qft_sequence,
    modular_exponentiation_mpo,
    qft_sequence,
    run_gate_sequence,
    simon_circuit_mpo,
    simon_gate_groups,
)
from mpoq.gate_library import (
    CONTROL_0,
    CONTROL_1,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    controlled_mpo,
    hadamard_layer,
)

from conftest import is_right_orthonormal, kron_chain


def random_mpo(n, rank, seed):
    rng = np.random.default_rng(seed)
    ranks = [1] + [rank] * (n - 1) + [1]
    cores = [
        rng.standard_normal((ranks[i], 2, 2, ranks[i + 1]))
        + 1j * rng.standard_normal((ranks[i], 2, 2, ranks[i + 1]))
        for i in range(n)
    ]
    return tc.MPO(cores)


# ---------------------------------------------------------------------------
# construction and invariants


def test_basis_state_dense():
    assert_allclose(tc.basis_state_mps([0, 0]).to_dense(), [1, 0, 0, 0])
    assert_allclose(tc.basis_state_mps([1, 0]).to_dense(), [0, 0, 1, 0])
    # first bit is the most significant: 1010 -> index 10
    expected = np.zeros(16)
    expected[10] = 1.0
    assert_allclose(tc.basis_state_mps([1, 0, 1, 0]).to_dense(), expected)


def test_basis_state_rejects_empty_and_bad_bits():
    with pytest.raises(ValueError):
        tc.basis_state_mps([])
    with pytest.raises(ValueError):
        tc.basis_state_mps([0, 2])


@pytest.mark.parametrize("bit", [1.0, True, np.bool_(True), 2])
def test_basis_state_takes_only_the_integers_0_and_1(bit):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        tc.basis_state_mps([bit, 0])


_GHZ3 = tc.named_state_mps("ghz", 3)

#: every library entry point that takes 1-based positions -> (call with
#: position 4 on a 3-qubit register, the name its message gives them)
_POSITION_TAKERS = {
    "sample": (lambda: bs.sample(_GHZ3, bs.MeasurementPlan(measured=(1, 4))), "measured"),
    "postselect": (lambda: bs.postselect(_GHZ3, {4: 0}), "postselect"),
    "marginal_distribution": (lambda: bs.marginal_distribution(_GHZ3, [2, 4]), "measured"),
    "controlled_mpo": (lambda: controlled_mpo((4,), PAULI_X, 1, 3), "qubit"),
    "hadamard_layer": (lambda: hadamard_layer((1, 4), 3), "qubit"),
}


@pytest.mark.parametrize("name", list(_POSITION_TAKERS))
def test_every_position_taker_states_the_one_range_rule(name):
    call, what = _POSITION_TAKERS[name]
    with pytest.raises(ValueError, match=rf"^{what} position 4 outside register \[1, 3\]$"):
        call()


#: a position that is not an integer -> (call on a 3-qubit register, the
#: message it must give); the range check alone took these as positions
_NON_INTEGER_POSITIONS = {
    "controlled_mpo-float-target": (
        lambda: controlled_mpo((), PAULI_X, 2.0, 3), "qubit position 2.0 is not an integer"
    ),
    "hadamard_layer-float": (lambda: hadamard_layer((1.5,), 3), "qubit position 1.5 is not an integer"),
    "hadamard_layer-numpy-bool": (
        lambda: hadamard_layer((np.bool_(True),), 3), "qubit position np.True_ is not an integer"
    ),
    "marginal_distribution-bool": (
        lambda: bs.marginal_distribution(_GHZ3, [True, 2]), "measured position True is not an integer"
    ),
    "sample-float": (
        lambda: bs.sample(_GHZ3, bs.MeasurementPlan(measured=(1.0, 2), sample_count=4)),
        "measured position 1.0 is not an integer",
    ),
    "postselect-bool": (
        lambda: bs.postselect(_GHZ3, {False: 0}), "postselect position False is not an integer"
    ),
}


@pytest.mark.parametrize("name", list(_NON_INTEGER_POSITIONS))
def test_a_position_must_be_an_integer(name):
    call, message = _NON_INTEGER_POSITIONS[name]
    with pytest.raises(ValueError, match=rf"^{message}$"):
        call()


def test_numpy_integer_positions_are_accepted():
    marginal = bs.marginal_distribution(_GHZ3, [np.int64(1), np.int32(3)])
    assert_allclose(marginal, [[0.5, 0.0], [0.0, 0.5]])
    assert hadamard_layer((np.int64(2),), 3).span == (1, 1)
    assert controlled_mpo((np.int64(1),), PAULI_X, np.int32(3), 3).span == (0, 2)


def _zeros(*shape):
    return np.zeros(shape)


_GOOD_CHAINS = {
    "MPS": [_zeros(1, 2, 3), _zeros(3, 2, 1)],
    "MPO": [_zeros(1, 2, 2, 3), _zeros(3, 2, 2, 1)],
}

# every way a core list fails the chain check, for both containers
_BAD_CHAINS = {
    "MPS-empty": [],
    "MPO-empty": [],
    "MPS-wrong-order": [_zeros(1, 2, 2, 1)],
    "MPO-wrong-order": [_zeros(1, 2, 1)],
    "MPS-zero-size-slot": [_zeros(1, 2, 1), _zeros(1, 0, 1)],
    "MPO-zero-size-slot": [_zeros(1, 2, 2, 1), _zeros(1, 0, 0, 1)],
    "MPO-non-square-slot": [_zeros(1, 2, 2, 1), _zeros(1, 2, 3, 1)],
    "MPS-boundary-bond": [_zeros(2, 2, 1)],
    "MPO-boundary-bond": [_zeros(1, 2, 2, 2)],
    "MPS-inner-bond-mismatch": [_zeros(1, 2, 3), _zeros(2, 2, 1)],
    "MPO-inner-bond-mismatch": [_zeros(1, 2, 2, 3), _zeros(2, 2, 2, 1)],
}


@pytest.mark.parametrize("case", list(_BAD_CHAINS))
def test_chain_consistency_enforced(case):
    kind = case.split("-")[0]
    container = getattr(tc, kind)
    container(_GOOD_CHAINS[kind])
    with pytest.raises(ValueError):
        container(_BAD_CHAINS[case])


@pytest.mark.parametrize("container, slots", [(tc.MPS, (2,)), (tc.MPO, (2, 2))], ids=["MPS", "MPO"])
def test_zero_inner_bond_is_rejected(container, slots):
    # an empty bond matches on both sides, so the bond-matching check alone
    # lets it through to a reshape failure in the first sweep
    with pytest.raises(ValueError, match="empty bond between cores 0 and 1"):
        container([_zeros(1, *slots, 0), _zeros(0, *slots, 1)])


def test_cores_are_read_only():
    state = tc.basis_state_mps([0, 1])
    with pytest.raises(ValueError):
        state.cores[0][0, 0, 0] = 5.0


def test_chain_copies_every_core_but_a_sealed_one():
    writable = np.eye(2, dtype=np.complex128)[None, :, :, None].copy()
    op = tc.MPO([writable])
    writable[0, 0, 0, 0] = 5.0
    assert op.cores[0][0, 0, 0, 0] == 1.0
    # an owned read-only array could be made writable again, so it is copied
    frozen = np.eye(2, dtype=np.complex128)[None, :, :, None].copy()
    frozen.flags.writeable = False
    assert tc.MPO([frozen]).cores[0] is not frozen
    # a lifted gate's cores come from block_core, sealed for good and shared
    gate = controlled_mpo((1,), PAULI_X, 3, 3)
    assert all(type(c.base) is bytes for c in gate.cores)
    assert all(a is b for a, b in zip(tc.MPO(gate.cores).cores, gate.cores))
    with pytest.raises(ValueError):
        gate.cores[0].flags.writeable = True
    block = tc.block_core([[IDENTITY, IDENTITY]])
    view = block[:, :, :, ::-1][:, :, :, :1]  # a reversed view of a sealed core is copied
    copy = tc.MPO([view]).cores[0]
    assert copy is not view and type(copy.base) is bytes
    real = np.ones((1, 2, 1))
    real.flags.writeable = False
    assert tc.MPS([real]).cores[0].dtype == np.complex128


def test_a_contiguous_view_of_a_sealed_array_is_shared():
    view = IDENTITY[None, :, :, None]
    assert tc.sealed(view) is view and tc.MPO([view]).cores[0] is view
    with pytest.raises(ValueError):
        view.flags.writeable = True
    # the Hadamard layer and the zero-control lift share the gate constants
    assert np.shares_memory(hadamard_layer((1, 3), 4).cores[0], HADAMARD)
    assert np.shares_memory(controlled_mpo((), PAULI_X, 2, 3).cores[0], PAULI_X)


def test_no_kept_array_can_be_made_writable():
    state = tc.random_mps(4, 2, seed=1)
    circuit = build_builtin("qfa-network", 2)
    run = run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
    plain = tc.MPO([np.ones((1, 2, 2, 2)), np.ones((2, 2, 2, 1))])
    kept = [*state.cores, *state.normalized().cores, *state.scaled(2.0).cores, *run.state.cores,
            *plain.cores, *tc.compress_mpo(plain).cores, *controlled_mpo((2,), PAULI_X, 4, 5).padded(),
            IDENTITY, PAULI_X, HADAMARD, CONTROL_0, CONTROL_1]
    for arr in kept:
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_ghz_dense():
    dense = tc.named_state_mps("ghz", 3).to_dense()
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert_allclose(dense, expected, atol=1e-15)


def test_w_state_dense_and_ranks():
    state = tc.named_state_mps("w", 4)
    assert state.ranks == (1, 2, 2, 2, 1)
    dense = state.to_dense()
    expected = np.zeros(16)
    expected[[8, 4, 2, 1]] = 0.5
    assert_allclose(dense, expected, atol=1e-15)
    assert state.element((1, 0, 0, 0)) == pytest.approx(0.5)


def test_w_state_n2_is_bell_psi_plus():
    assert_allclose(
        tc.named_state_mps("w", 2).to_dense(),
        tc.named_state_mps("bell_psi_plus", 2).to_dense(),
        atol=1e-15,
    )


def test_bell_states():
    s2 = 1 / np.sqrt(2)
    assert_allclose(tc.named_state_mps("bell_phi_minus", 2).to_dense(), [s2, 0, 0, -s2])
    assert_allclose(tc.named_state_mps("bell_psi_minus", 2).to_dense(), [0, s2, -s2, 0])
    with pytest.raises(ValueError):
        tc.named_state_mps("nope", 3)
    with pytest.raises(ValueError):
        tc.named_state_mps("bell_phi_plus", 3)


def test_element_matches_dense_on_random_states():
    for seed in range(5):
        state = tc.random_mps(6, 3, seed=seed)
        dense = state.to_dense()
        rng = np.random.default_rng(seed)
        for _ in range(20):
            bits = tuple(rng.integers(0, 2, 6))
            index = int("".join(map(str, bits)), 2)
            assert abs(state.element(bits) - dense[index]) <= 1e-12


def test_element_rejects_out_of_range():
    state = tc.basis_state_mps([1, 1])
    assert state.element((1, 1)) == pytest.approx(1.0)
    assert state.element((0, 1)) == pytest.approx(0.0)
    with pytest.raises(IndexError):
        state.element((0, 2))
    with pytest.raises(ValueError, match="length"):
        state.element((1,))


@pytest.mark.parametrize("indices", [(True, True, True), (False, 0, 0), (1.0, 0, 0)])
def test_element_refuses_a_bool_or_float_index(indices):
    # (True, True, True) ended in numpy's "only 0-dimensional arrays" TypeError,
    # (False, 0, 0) and (1.0, 0, 0) in numpy IndexErrors
    state = tc.named_state_mps("ghz", 3)
    with pytest.raises(ValueError, match=rf"^physical index {indices[0]!r} is not an integer$"):
        state.element(indices)
    assert state.element((np.int64(1), 1, 1)) == pytest.approx(2 ** -0.5)


def test_product_state_dense_is_kron():
    rng = np.random.default_rng(0)
    vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    cores = [v[None, :, None] for v in vecs]
    assert_allclose(tc.MPS(cores).to_dense(), kron_chain(vecs), atol=1e-14)


def test_dense_cap_guard(monkeypatch):
    monkeypatch.setenv("MPOQ_DENSE_CAP", "8")
    with pytest.raises(tc.DenseCapExceeded):
        tc.basis_state_mps([0, 0, 0, 0]).to_dense()
    monkeypatch.setenv("MPOQ_DENSE_CAP", "16")
    tc.basis_state_mps([0, 0, 0, 0]).to_dense()
    # a 2-qubit operator has 4 x 4 = 16 entries
    op = tc.MPO.identity(2)
    monkeypatch.setenv("MPOQ_DENSE_CAP", "15")
    with pytest.raises(tc.DenseCapExceeded):
        op.to_dense()
    monkeypatch.setenv("MPOQ_DENSE_CAP", "16")
    assert_allclose(op.to_dense(), np.eye(4))
    for bad in ("abc", "1e6", "0", "-3"):
        monkeypatch.setenv("MPOQ_DENSE_CAP", bad)
        with pytest.raises(ValueError, match="MPOQ_DENSE_CAP"):
            tc.dense_cap()


# ---------------------------------------------------------------------------
# operator algebra


def test_cnot_mpo_dense_matrix():
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert_allclose(controlled_mpo((1,), PAULI_X, 2, 2).to_dense(), expected, atol=1e-15)


def test_operator_dense_is_kron_for_mixed_site_dimensions():
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (3, 1, 2)]
    op = tc.MPO([m[None, :, :, None] for m in mats])
    assert_allclose(op.to_dense(), kron_chain(mats), atol=1e-14)
    # 80 axes of length 1 would exceed numpy's limit on array axes
    assert_allclose(tc.MPO.identity(40, d=1).to_dense(), [[1.0]])


def test_identity_apply_is_noop():
    state = tc.random_mps(5, 3, seed=1)
    out = tc.MPO.identity(5).apply(state)
    assert_allclose(out.to_dense(), state.to_dense(), atol=1e-14)


def test_apply_matches_dense_matvec():
    op = random_mpo(6, 2, seed=2)
    state = tc.random_mps(6, 2, seed=3)
    assert_allclose(
        op.apply(state).to_dense(), op.to_dense() @ state.to_dense(), atol=1e-10
    )


def test_apply_rank_product_law():
    op = random_mpo(5, 3, seed=4)
    state = tc.random_mps(5, 2, seed=5)
    out = op.apply(state)
    assert out.ranks == tuple(a * b for a, b in zip(op.ranks, state.ranks))


def test_matmul_matches_dense_product():
    a = random_mpo(4, 2, seed=6)
    b = random_mpo(4, 3, seed=7)
    assert_allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-10)
    assert_allclose((a @ tc.MPO.identity(4)).to_dense(), a.to_dense(), atol=1e-12)


def test_an_operator_times_a_number_is_a_type_error():
    with pytest.raises(TypeError):
        random_mpo(2, 2, seed=0) @ 3


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        random_mpo(3, 2, seed=0).apply(tc.random_mps(4, 2, seed=0))
    with pytest.raises(ValueError):
        random_mpo(3, 2, seed=0) @ random_mpo(4, 2, seed=0)


def test_embed_records_its_span():
    y = np.array([[0.0, -1j], [1j, 0.0]])[None, :, :, None]
    op = tc.MPO([y], 1, 3)
    assert op.span == (1, 1) and tc.MPO([y, y]).span == (0, 1)
    assert_allclose(op.to_dense(), kron_chain([IDENTITY, y[0, :, :, 0], IDENTITY]), atol=0)
    # a product is a full-span operator
    assert (op @ op).span == tc.mpo_add(op, op).span == (0, 2)
    with pytest.raises(ValueError):
        tc.MPO([y, y], 2, 3)


def test_embed_stores_only_its_window():
    # a lift must not pad: writing out this register would take gigabytes, so
    # the check runs in a child allowed 1 GiB of address space beyond what it
    # has mapped after the imports, where padding fails with MemoryError
    script = """
import re, resource
import numpy as np
from mpoq import tensor_core as tc
mapped = int(re.search(r"VmSize:\\s+(\\d+) kB", open("/proc/self/status").read()).group(1))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = mapped * 1024 + 2**30
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
y = np.array([[0.0, -1j], [1j, 0.0]])[None, :, :, None]
n = 10**9
op = tc.MPO([y], n - 1, n)
assert op.n == n and op.span == (n - 1, n - 1) and len(op.cores) == 1
"""
    root = Path(__file__).resolve().parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _random_window(rng, n):
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo, n))
    ranks = [1] + [int(r) for r in rng.integers(1, 4, hi - lo)] + [1]
    cores = [
        rng.standard_normal((ranks[i], 2, 2, ranks[i + 1]))
        + 1j * rng.standard_normal((ranks[i], 2, 2, ranks[i + 1]))
        for i in range(hi - lo + 1)
    ]
    return tc.MPO(cores, lo, n)


def _dense_reference(op):
    """``kron(I, window, I)`` with the window contracted on its own."""
    lo, hi = op.span
    window = tc.MPO(op.cores).to_dense()
    return kron_chain([np.eye(2 ** lo), window, np.eye(2 ** (op.n - 1 - hi))])


@pytest.mark.parametrize("seed", range(8))
def test_window_operators_match_their_kron_reference(seed):
    rng = np.random.default_rng(seed)
    n = 5
    a, b = _random_window(rng, n), _random_window(rng, n)
    dense_a, dense_b = _dense_reference(a), _dense_reference(b)
    assert_allclose(a.to_dense(), dense_a, atol=1e-12)
    state = tc.random_mps(n, 2, seed=seed)
    assert_allclose(a.apply(state).to_dense(), dense_a @ state.to_dense(), atol=1e-10)
    assert_allclose((a @ b).to_dense(), dense_a @ dense_b, atol=1e-10)
    assert_allclose(tc.mpo_add(a, b).to_dense(), dense_a + dense_b, atol=1e-10)
    assert_allclose(tc.compress_mpo(a).to_dense(), dense_a, atol=1e-10)
    bond = int(rng.integers(0, n - 1))
    r = a.ranks[bond + 1]
    q = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) + 2 * np.eye(r)
    assert_allclose(tc.transform_bond(a, bond, q).to_dense(), dense_a, atol=1e-10)


def test_mpo_add():
    a = random_mpo(4, 2, seed=9)
    b = random_mpo(4, 3, seed=10)
    total = tc.mpo_add(a, b)
    assert total.ranks[1:-1] == tuple(x + y for x, y in zip(a.ranks[1:-1], b.ranks[1:-1]))
    assert_allclose(total.to_dense(), a.to_dense() + b.to_dense(), atol=1e-12)
    a, b = random_mpo(1, 1, seed=11), random_mpo(1, 1, seed=12)
    assert_allclose(tc.mpo_add(a, b).to_dense(), a.to_dense() + b.to_dense(), atol=1e-12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        tc.mpo_add(random_mpo(3, 2, seed=13), random_mpo(4, 2, seed=14))


# ---------------------------------------------------------------------------
# norms


def test_norms():
    ghz = tc.named_state_mps("ghz", 3)
    assert ghz.norm() == pytest.approx(1.0, abs=1e-12)
    assert ghz.scaled(2.0).norm() == pytest.approx(2.0, abs=1e-12)
    state = tc.random_mps(6, 4, seed=11).scaled(3.7)
    assert state.norm() == pytest.approx(np.linalg.norm(state.to_dense()), abs=1e-10)
    assert state.normalized().norm() == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_raises():
    zero = tc.MPS([np.zeros((1, 2, 1))])
    with pytest.raises(ZeroDivisionError):
        zero.normalized()


# ---------------------------------------------------------------------------
# orthonormalization


def test_right_orthonormalize_preserves_tensor_and_certifies():
    state = tc.random_mps(7, 5, seed=12)
    out = tc.orthonormalize_right(state, tc.LOSSLESS)
    assert out.right_orthonormal
    assert is_right_orthonormal(out, tol=1e-10)
    assert_allclose(out.to_dense(), state.to_dense(), atol=1e-10 * state.norm())
    assert all(a <= b for a, b in zip(out.ranks, state.ranks))


def test_left_orthonormalize_preserves_tensor():
    state = tc.random_mps(6, 4, seed=13)
    out = tc.orthonormalize_left(state, tc.LOSSLESS)
    assert_allclose(out.to_dense(), state.to_dense(), atol=1e-10)
    for core in out.cores[:-1]:
        mat = core.reshape(-1, core.shape[2], order="F")
        assert_allclose(mat.conj().T @ mat, np.eye(core.shape[2]), atol=1e-10)


def test_orthonormalize_idempotent_on_orthonormal_input():
    state = tc.orthonormalize_right(tc.random_mps(5, 3, seed=14), tc.LOSSLESS)
    again = tc.orthonormalize_right(state, tc.DEFAULT_POLICY)
    assert again.ranks == state.ranks
    assert_allclose(again.to_dense(), state.to_dense(), atol=1e-12)


def _with_duplicated_bonds(state):
    """Double every internal bond without changing the represented tensor."""
    cores = [np.asarray(c) for c in state.cores]
    n = len(cores)
    out = []
    for i, core in enumerate(cores):
        new = core
        if i > 0:
            new = np.concatenate([0.25 * new, 0.75 * new], axis=0)
        if i < n - 1:
            new = np.concatenate([new, new], axis=2)
        out.append(new)
    return tc.MPS(out)


def test_orthonormalize_drops_duplicated_rows():
    state = tc.random_mps(5, 4, seed=15)
    inflated = _with_duplicated_bonds(state)
    assert inflated.max_rank == 8
    assert_allclose(inflated.to_dense(), state.to_dense(), atol=1e-12)
    rounded = tc.orthonormalize_right(inflated, tc.TruncationPolicy(rel_threshold=1e-12))
    assert rounded.ranks == state.ranks
    assert rounded.max_rank == 4
    assert_allclose(rounded.to_dense(), state.to_dense(), atol=1e-10)


def test_max_rank_cap():
    state = tc.random_mps(6, 8, seed=16)
    capped = tc.orthonormalize_right(state, tc.TruncationPolicy(0.0, max_rank=3))
    assert capped.max_rank <= 3


@pytest.mark.parametrize(
    "kwargs",
    [{"rel_threshold": float("nan")}, {"max_rank": 2.0}, {"max_rank": True},
     # True was silently read as 1.0, and "0.1" and None ended in a TypeError
     {"rel_threshold": True}, {"rel_threshold": "0.1"}, {"rel_threshold": None}],
    ids=["nan-threshold", "float-max-rank", "bool-max-rank", "bool-threshold", "str-threshold",
         "none-threshold"],
)
def test_truncation_policy_rejects_nan_and_non_integer_rank(kwargs):
    with pytest.raises(ValueError):
        tc.TruncationPolicy(**kwargs)


def test_truncation_policy_takes_a_numpy_integer_rank():
    policy = tc.TruncationPolicy(max_rank=np.int64(2))
    assert policy.max_rank == 2
    assert tc.orthonormalize_right(tc.random_mps(6, 8, seed=16), policy).max_rank == 2


@pytest.mark.parametrize("value", [0, 1, -3, np.int64(7), np.uint8(0), np.int32(-1)])
def test_the_integer_rule_takes_ints_and_numpy_integers(value):
    assert tc.is_integer(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0, np.float64(2.0), "1", None, 1j])
def test_the_integer_rule_refuses_bools_floats_and_the_rest(value):
    assert not tc.is_integer(value)


#: Every entry point that builds an operator, or a sequence of them, from a
#: register size.  The gates sit on qubit 1 only: a position above 1 is
#: refused by the position rule first when the register size is ``True``.
_REGISTER_BUILDERS = {
    "MPO": lambda n: tc.MPO([IDENTITY[None, :, :, None]], 0, n),
    "MPO.identity": lambda n: tc.MPO.identity(n),
    "controlled_mpo": lambda n: controlled_mpo((), PAULI_X, 1, n),
    "hadamard_layer": lambda n: hadamard_layer((1,), n),
    "qft_sequence": qft_sequence,
    "inverse_qft_sequence": inverse_qft_sequence,
}


@pytest.mark.parametrize("n", [True, 3.0], ids=["bool", "float"])
@pytest.mark.parametrize("name", list(_REGISTER_BUILDERS))
def test_every_operator_builder_follows_the_register_rule(name, n):
    with pytest.raises(ValueError, match="must be (an integer|integers), got "):
        _REGISTER_BUILDERS[name](n)


@pytest.mark.parametrize("name", list(_REGISTER_BUILDERS))
def test_a_numpy_register_size_is_stored_as_int(name):
    op = _REGISTER_BUILDERS[name](np.int64(3))
    assert op.n == 3 and type(op.n) is int


def test_a_window_start_follows_the_integer_rule():
    y = IDENTITY[None, :, :, None]
    for start in (True, 1.0):
        with pytest.raises(ValueError, match=r"^window start and register size must be integers, got "):
            tc.MPO([y], start, 3)
    op = tc.MPO([y], np.int64(1), 3)
    assert op.span == (1, 1) and type(op.span[0]) is int
    # the example of a controlled gate on a float register
    with pytest.raises(ValueError, match=r"^window start and register size must be integers, got 0 and 3.0$"):
        controlled_mpo((1,), PAULI_X, 2, 3.0)


def test_the_identity_stores_one_core():
    assert len(tc.MPO.identity(100_000).cores) == 1
    for n in range(1, 7):
        assert np.array_equal(tc.MPO.identity(n).to_dense(), np.eye(2 ** n))


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_random_mps_needs_an_integer_size(n):
    with pytest.raises(ValueError, match=r"^random_mps needs an integer n >= 1, got "):
        tc.random_mps(n, 2)


@pytest.mark.parametrize("max_rank, d", [(2.5, 2), (True, 2), (2, 2.0), (0, 2), (2, 0)],
                         ids=["float-rank", "bool-rank", "float-dimension", "zero-rank", "zero-dimension"])
def test_random_mps_needs_integer_ranks_and_dimensions(max_rank, d):
    with pytest.raises(ValueError, match=r"^random_mps needs integers max_rank >= 1 and d >= 1, got "):
        tc.random_mps(4, max_rank, seed=0, d=d)


def test_random_mps_computes_its_ranks_with_int():
    # an int64 size of 70 overflows 2 ** (n - i) in numpy arithmetic
    assert tc.random_mps(np.int64(70), 3, seed=0).ranks == tc.random_mps(70, 3, seed=0).ranks


@pytest.mark.parametrize("d", [True, 2.0, 0], ids=["bool", "float", "zero"])
def test_the_identity_needs_an_integer_site_dimension(d):
    with pytest.raises(ValueError, match=r"^a site dimension must be an integer >= 1, got "):
        tc.MPO.identity(2, d=d)


@pytest.mark.parametrize("n", [True, 3.0], ids=["bool", "float"])
def test_named_states_need_an_integer_size(n):
    with pytest.raises(ValueError, match=r"^named entangled states need an integer n >= 2, got "):
        tc.named_state_mps("ghz", n)


def test_compress_mpo_finds_minimal_ranks():
    # product of two overlapping controlled gates has true rank 4 in the overlap
    a = controlled_mpo((1,), PAULI_X, 4, 5)
    b = controlled_mpo((2,), PAULI_X, 5, 5)
    product = a @ b
    rounded = tc.compress_mpo(product)
    assert_allclose(rounded.to_dense(), product.to_dense(), atol=1e-12)
    assert rounded.max_rank <= 4
    identity_squared = controlled_mpo((1,), PAULI_X, 3, 3) @ controlled_mpo((1,), PAULI_X, 3, 3)
    assert tc.compress_mpo(identity_squared).max_rank == 1


def _compressed_cores():
    """Every core ``compress_mpo`` returns for 60 seeded random operators
    (n 1..6, d 1..3, bonds 1..4) under six policies, two of them cutting by
    rank and two by threshold, then for the four ``modexp(a, 21)``.  Every
    other operator has its bond channels weighted by ``0.05 ** j``, so that
    the thresholds find singular values to cut."""
    policies = [tc.DEFAULT_POLICY, tc.LOSSLESS, tc.TruncationPolicy(max_rank=1),
                tc.TruncationPolicy(max_rank=2), tc.TruncationPolicy(1e-3),
                tc.TruncationPolicy(0.2, 3)]
    rng = np.random.default_rng(2011)
    for k in range(60):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        bonds = [1] + [int(b) for b in rng.integers(1, 5, n - 1)] + [1]
        cores = [_random_core(rng, bonds[i], d, d, bonds[i + 1]) for i in range(n)]
        if k % 2:
            cores = [c * 0.05 ** np.arange(c.shape[3]) for c in cores]
        op = tc.MPO(cores)
        for policy in policies:
            yield from tc.compress_mpo(op, policy).cores
    for a in (2, 4, 5, 8):
        yield from modular_exponentiation_mpo(a, 21).cores


def test_compress_mpo_keeps_its_bytes():
    # sha256 over the shape and bytes of every compressed core, recorded
    # before compress_mpo was written as two move_center sweeps
    digest, count = hashlib.sha256(), 0
    for core in _compressed_cores():
        assert core.dtype == np.complex128
        digest.update(repr(core.shape).encode())
        digest.update(np.ascontiguousarray(core).tobytes())
        count += 1
    assert count == 1482
    assert digest.hexdigest() == "fb9d3aa01168a84534251bf10ff7deacf07d21f35e29ddba4fb5da1dbe7b3a05"


def _dense_pinned_operators():
    """Operators of at most 8 sites: the catalog's closed forms and groups,
    controlled-gate windows, and 40 seeded random windows (n 1..6, d 1..3,
    bonds 1..3), each also as its product with itself and compressed."""
    yield full_adder_mpo()
    yield simon_circuit_mpo()
    yield from simon_gate_groups()
    for n in range(1, 7):
        forward, inverse = qft_sequence(n).groups, inverse_qft_sequence(n).groups
        for i in range(1, n + 1):
            yield forward[i - 1]
            yield inverse[n - i]
    for controls, target, n in (((1,), 2, 2), ((2,), 1, 3), ((1, 2), 3, 3), ((1,), 4, 5),
                                ((3, 5), 2, 6), ((2, 6), 4, 8)):
        yield controlled_mpo(controls, PAULI_X, target, n)
    rng = np.random.default_rng(2311)
    for _ in range(40):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        bonds = [1] + [int(b) for b in rng.integers(1, 4, hi - lo)] + [1]
        op = tc.MPO([_random_core(rng, bonds[i], d, d, bonds[i + 1])
                     for i in range(hi - lo + 1)], lo, n)
        yield op
        yield op @ op
        yield tc.compress_mpo(op @ op)


def test_mpo_to_dense_keeps_its_bytes():
    # sha256 over the shape and bytes of every dense matrix, recorded before
    # MPO.to_dense contracted the reshaped cores without an MPS view
    digest, count = hashlib.sha256(), 0
    for op in _dense_pinned_operators():
        dense = op.to_dense()
        assert dense.dtype == np.complex128
        digest.update(repr(dense.shape).encode())
        digest.update(np.ascontiguousarray(dense).tobytes())
        count += 1
    assert count == 174
    assert digest.hexdigest() == "63bf53e951f6021573fe46d79330b495ea0c5a8e708f034de6f75ab18752d5de"


# ---------------------------------------------------------------------------
# core transformations


def test_transform_bond_preserves_tensor():
    rng = np.random.default_rng(17)
    state = tc.random_mps(5, 3, seed=18)
    for i in range(4):
        r = state.ranks[i + 1]
        while True:
            q = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            if np.linalg.cond(q) <= 1e3:
                break
        moved = tc.transform_bond(state, i, q)
        assert_allclose(moved.to_dense(), state.to_dense(), atol=1e-10)


def test_transform_bond_rejects_singular():
    state = tc.random_mps(4, 2, seed=20)
    with pytest.raises(np.linalg.LinAlgError):
        tc.transform_bond(state, 1, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="square"):
        tc.transform_bond(state, 1, np.eye(2, 3))
    with pytest.raises(IndexError, match="out of range"):
        tc.transform_bond(state, 3, np.eye(1))


@pytest.mark.parametrize("bond, rank, error, message", [
    (-1, 1, IndexError, "bond index out of range"),
    (True, 2, ValueError, "a bond index must be an integer, got True"),
    (1.0, 2, ValueError, "a bond index must be an integer, got 1.0"),
])
def test_transform_bond_needs_an_integer_bond_index(bond, rank, error, message):
    # -1 transformed the rank-1 "bond" between the last and the first core,
    # True was read as bond 1 and 1.0 ended in a TypeError from list indexing
    state = tc.named_state_mps("ghz", 3)
    with pytest.raises(error, match=rf"^{message}$"):
        tc.transform_bond(state, bond, np.eye(rank))
    moved = tc.transform_bond(state, np.int64(1), 2 * np.eye(2))
    assert_allclose(moved.to_dense(), state.to_dense(), atol=1e-14)


def test_factored_cnot_core_manipulation():
    # alternative two-core factorization of the controlled flip:
    # [I  C] x [I; X-I]  ==  [I-C  C] x [I; X]
    cnot = controlled_mpo((1,), PAULI_X, 2, 2)
    q = np.array([[1.0, 0.0], [-1.0, 1.0]])
    alt = tc.transform_bond(cnot, 0, q)
    assert_allclose(alt.to_dense(), cnot.to_dense(), atol=1e-14)
    assert_allclose(alt.cores[0][0, :, :, 0], IDENTITY - CONTROL_1, atol=1e-14)
    assert_allclose(alt.cores[0][0, :, :, 1], CONTROL_1, atol=1e-14)
    assert_allclose(alt.cores[1][0, :, :, 0], IDENTITY, atol=1e-14)
    assert_allclose(alt.cores[1][1, :, :, 0], PAULI_X, atol=1e-14)


# ---------------------------------------------------------------------------
# diagonal lifting


def test_diag_mpo_of_basis_state_is_projector():
    state = tc.basis_state_mps([1, 0])
    dense = tc.diag_mpo(state).to_dense()
    expected = np.zeros((4, 4))
    expected[2, 2] = 1.0
    assert_allclose(dense, expected, atol=1e-15)


def test_diag_identity_hadamard_square():
    for seed, n in ((21, 3), (22, 5)):
        state = tc.random_mps(n, 3, seed=seed)
        squared = tc.diag_mpo(state).apply(state).to_dense()
        assert_allclose(squared, state.to_dense() ** 2, atol=1e-12)


def test_diag_mpo_dense_is_diagonal():
    state = tc.random_mps(5, 2, seed=23)
    dense = tc.diag_mpo(state).to_dense()
    assert_allclose(np.diag(dense), state.to_dense(), atol=1e-12)
    assert_allclose(dense - np.diag(np.diag(dense)), 0.0, atol=1e-14)


def _diag_and_automaton_cores():
    """``diag_mpo`` of 50 seeded random states (n 1..5, d 1..3, rank 1..3),
    each also with some entries set to -0.0 and each scaled by -1, then the
    modular-exponentiation automaton for every base of moduli 7 and 33."""
    rng = np.random.default_rng(3017)
    for k in range(50):
        n, d, r = (int(x) for x in rng.integers(1, (6, 4, 4)))
        state = tc.random_mps(n, r, seed=k, d=d)
        signed = tc.MPS([np.where(rng.random(c.shape) < 0.3, complex(-0.0, -0.0), c)
                         for c in state.cores])
        for s in (state, signed, state.scaled(-1), signed.scaled(-1)):
            yield from tc.diag_mpo(s).cores
    for modulus in (7, 33):
        for a in range(2, modulus):
            if np.gcd(a, modulus) == 1:
                yield from modular_exponentiation_mpo(a, modulus).cores


def test_diag_mpo_and_automaton_keep_their_bytes():
    # sha256 over the shape and bytes of every core, recorded before
    # diag_mpo and the automaton were written with block_core
    digest, count = hashlib.sha256(), 0
    for core in _diag_and_automaton_cores():
        assert core.dtype == np.complex128
        digest.update(repr(core.shape).encode())
        digest.update(np.ascontiguousarray(core).tobytes())
        count += 1
    assert count == 967
    assert digest.hexdigest() == "21e667c22978a910b9e0b32b3b6116b6d2871bce13704bbeb25f87095e8ac082"



# ---------------------------------------------------------------------------
# site kernels against a reference written with np.linalg.svd and np.tensordot


def _reference_keep_count(policy, s):
    smax = s[0] if s.size else 0.0
    keep = 1 if smax <= 0.0 else max(int(np.count_nonzero(s > policy.rel_threshold * smax)), 1)
    return keep if policy.max_rank is None else min(keep, policy.max_rank)


def _reference_svd_step(cores, i, step, policy):
    r, d, s = cores[i].shape
    mat = cores[i].reshape(r * d, s, order="F") if step > 0 else cores[i].reshape(r, d * s, order="F")
    u, sv, vh = np.linalg.svd(mat, full_matrices=False)
    keep = _reference_keep_count(policy, sv)
    u, sv, vh = u[:, :keep], sv[:keep], vh[:keep, :]
    if step > 0:
        cores[i] = u.reshape(r, d, keep, order="F")
        right = cores[i + 1]
        q = sv[:, None] * vh
        cores[i + 1] = (q @ right.reshape(right.shape[0], -1)).reshape(keep, *right.shape[1:])
    else:
        cores[i] = vh.reshape(keep, d, s, order="F")
        cores[i - 1] = cores[i - 1] @ (u * sv)


def _reference_apply_core(op_core, core):
    out = np.tensordot(op_core, core, axes=([2], [1]))
    last = out.ndim - 1
    out = out.transpose(0, 3, 1, *range(4, last), 2, last)
    s = out.shape
    return out.reshape(s[0] * s[1], *s[2:-2], s[-2] * s[-1])


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _random_core(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kernel_chains():
    """Three-core chains with d in {2, 4} and bonds 1..8; every third middle
    core has a numerically rank-one unfolding, so noise is cut as well."""
    rng = np.random.default_rng(4711)
    for k in range(36):
        d = (2, 4)[k % 2]
        r0, r1, r2, r3 = rng.integers(1, 9, 4)
        middle = _random_core(rng, r1, d, r2)
        if k % 3 == 0:
            middle = np.einsum("a,bc->abc", _random_core(rng, r1), _random_core(rng, d, r2))
        yield [_random_core(rng, r0, d, r1), middle, _random_core(rng, r2, d, r3)]
    # with sigma_max = 0 every value sits at the cut, and a step keeps one
    yield [_random_core(rng, 1, 2, 3), np.zeros((3, 2, 4), dtype=np.complex128), _random_core(rng, 4, 2, 1)]


@pytest.mark.parametrize(
    "policy",
    [tc.DEFAULT_POLICY, tc.LOSSLESS, tc.TruncationPolicy(max_rank=1), tc.TruncationPolicy(0.3, 2),
     tc.TruncationPolicy(0.5), tc.TruncationPolicy(5e-13)],
    ids=["default", "lossless", "max-rank-1", "0.3-max-rank-2", "0.5", "5e-13"],
)
@pytest.mark.parametrize("step", [1, -1])
def test_svd_step_is_byte_equal_to_the_numpy_reference(policy, step):
    cut = 0
    for chain in _kernel_chains():
        got, want = list(chain), list(chain)
        tc.move_center(got, 1, 1 + step, policy)
        _reference_svd_step(want, 1, step, policy)
        assert all(_same_bytes(g, w) for g, w in zip(got, want))
        cut += got[1].shape[0 if step < 0 else 2] < chain[1].shape[0 if step < 0 else 2]
    assert cut > 0  # some steps truncate under every policy


@pytest.mark.parametrize("order", [3, 4])
def test_apply_core_is_byte_equal_to_tensordot(order):
    rng = np.random.default_rng(99)
    for _ in range(40):
        d = int(rng.choice([2, 4]))
        op_left, op_right, left, right = rng.integers(1, 9, 4)
        op_core = _random_core(rng, op_left, d, d, op_right)
        core = _random_core(rng, left, *(d,) * (order - 2), right)
        assert _same_bytes(tc.apply_core(op_core, core), _reference_apply_core(op_core, core))


@pytest.mark.parametrize("center, target", [(0, 3), (3, 0)])
def test_nan_core_raises_linalg_error_without_warning(center, target):
    cores = list(tc.random_mps(4, 2, seed=3).cores)
    cores[2] = cores[2].copy()
    cores[2][0, 1, 0] = np.nan
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            tc.move_center(cores, center, target)
    assert np.geterr() == before  # the sweep's errstate is left on the way out
