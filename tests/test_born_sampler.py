"""Unit tests for marginals, postselection and generative sampling."""

import hashlib
import json
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mpoq import born_sampler as bs
from mpoq import circuit_catalog as cat
from mpoq import cli
from mpoq import dense_oracle as oracle
from mpoq import tensor_core as tc
from mpoq.gate_library import HADAMARD, PAULI_X, GatePlacement


def exact_marginal_via_oracle(state, measured):
    probs = oracle.born_distribution(state.to_dense())
    return oracle.marginal_dense(probs, measured, state.n)


# ---------------------------------------------------------------------------
# marginals


def test_ghz_full_marginal():
    marginal = bs.marginal_distribution(tc.named_state_mps("ghz", 3), [1, 2, 3])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 0.5
    assert_allclose(marginal, expected, atol=1e-12)


def test_simon_first_register_marginal():
    state = cat.simon_circuit_mpo().apply(tc.basis_state_mps([0] * 8))
    marginal = bs.marginal_distribution(state, cat.SIMON_FIRST_REGISTER).reshape(-1)
    support = {format(i, "04b") for i in np.nonzero(marginal > 1e-12)[0]}
    assert support == set(cat.SIMON_SUPPORT)
    assert_allclose(marginal[marginal > 1e-12], 0.125, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_random_marginals_match_dense_oracle(seed):
    state = tc.random_mps(8, 3, seed=seed)
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(np.arange(1, 9), size=rng.integers(1, 5), replace=False))
    got = bs.marginal_distribution(state, [int(p) for p in positions])
    want = exact_marginal_via_oracle(state.normalized(), positions)
    assert_allclose(got, want, atol=1e-12)


def test_marginal_handles_unnormalized_input():
    state = tc.named_state_mps("ghz", 3).scaled(3.0)
    marginal = bs.marginal_distribution(state, [1])
    assert_allclose(marginal, [0.5, 0.5], atol=1e-12)


def test_marginal_of_the_zero_state_has_no_probability():
    with pytest.raises(bs.ZeroProbabilityError, match="^state has zero norm$"):
        bs.marginal_distribution(tc.named_state_mps("ghz", 3).scaled(0.0), [1])


def test_marginal_validation():
    state = tc.named_state_mps("ghz", 3)
    with pytest.raises(ValueError):
        bs.marginal_distribution(state, [])
    with pytest.raises(ValueError):
        bs.marginal_distribution(state, [4])


@pytest.mark.parametrize("measured", [[3, 1, 1], [3, 1], [1, 1], [2, 2, 3]])
def test_marginal_refuses_unsorted_or_repeated_positions(measured):
    with pytest.raises(ValueError, match="strictly increasing"):
        bs.marginal_distribution(tc.named_state_mps("ghz", 3), measured)


# ---------------------------------------------------------------------------
# postselection


def test_postselect_ghz_pins_everything():
    result = bs.postselect(tc.named_state_mps("ghz", 3), {1: 0})
    assert result.probability == pytest.approx(0.5, abs=1e-12)
    assert result.remaining == (2, 3)
    assert_allclose(result.state.to_dense(), oracle.basis_state([0, 0]), atol=1e-12)
    result = bs.postselect(tc.named_state_mps("ghz", 3), {})
    assert result.probability == 1.0
    assert result.remaining == (1, 2, 3)


def test_postselect_full_register_is_point_mass():
    state = tc.basis_state_mps([1, 0, 1])
    result = bs.postselect(state, {1: 1, 2: 0, 3: 1})
    assert result.state is None
    assert result.remaining == ()
    assert result.probability == pytest.approx(1.0, abs=1e-12)


def test_postselect_zero_probability_raises():
    with pytest.raises(bs.ZeroProbabilityError):
        bs.postselect(tc.basis_state_mps([1, 0]), {1: 0})
    # an assignment that is not a postselection at all is bad input, not zero weight
    with pytest.raises(ValueError, match="position 3 outside register"):
        bs.postselect(tc.basis_state_mps([1, 0]), {3: 0})
    with pytest.raises(ValueError, match="bit for position 1"):
        bs.postselect(tc.basis_state_mps([1, 0]), {1: 2})


def test_postselect_of_every_position_rejects_a_zero_outcome():
    with pytest.raises(bs.ZeroProbabilityError, match="probability 0.000e"):
        bs.postselect(tc.basis_state_mps([1, 0, 1]), {1: 1, 2: 1, 3: 1})


def test_sampling_the_zero_state_raises():
    zero = tc.named_state_mps("ghz", 3).scaled(0.0)
    with pytest.raises(bs.ZeroProbabilityError, match="zero state"):
        bs.sample(zero, bs.MeasurementPlan(measured=(1, 2), sample_count=10))


def test_postselect_simon_preimages():
    # condition the pre-measurement oracle state on one observed f value;
    # the input register collapses to the matching pair of preimages
    g1, g2, g3, _ = cat.simon_gate_groups()
    state = (g3 @ (g2 @ g1)).apply(tc.basis_state_mps([0] * 8))
    assignment = {p: b for p, b in zip(cat.SIMON_SECOND_REGISTER, (0, 1, 0, 1))}
    result = bs.postselect(state, assignment)
    assert result.probability == pytest.approx(2 / 16, abs=1e-12)
    conditional = bs.marginal_distribution(result.state, [1, 2, 3, 4]).reshape(-1)
    assert conditional[int("0101", 2)] == pytest.approx(0.5, abs=1e-12)
    assert conditional[int("1111", 2)] == pytest.approx(0.5, abs=1e-12)
    assert conditional.sum() == pytest.approx(1.0, abs=1e-12)
    # 1111 = 0101 xor hidden string 1010


def test_postselect_consistency_with_dense_conditional(rng):
    state = tc.random_mps(6, 3, seed=99)
    result = bs.postselect(state, {2: 1, 5: 0})
    dense = state.normalized().to_dense().reshape((2,) * 6)
    sliced = dense[:, 1, :, :, 0, :]
    weight = float(np.sum(np.abs(sliced) ** 2))
    assert result.probability == pytest.approx(weight, abs=1e-12)
    assert_allclose(
        np.abs(result.state.to_dense()) ** 2,
        (np.abs(sliced) ** 2 / weight).reshape(-1),
        atol=1e-12,
    )


def test_postselect_marginal_mixture_identity():
    # mixing the conditionals over outcomes reproduces the plain marginal
    state = tc.random_mps(5, 3, seed=7)
    target = bs.marginal_distribution(state, [3, 4, 5])
    mixed = np.zeros_like(target)
    for b1 in (0, 1):
        for b2 in (0, 1):
            try:
                res = bs.postselect(state, {1: b1, 2: b2})
            except bs.ZeroProbabilityError:
                continue
            mixed += res.probability * bs.marginal_distribution(res.state, [1, 2, 3])
    assert_allclose(mixed, target, atol=1e-11)


def _exact_path_values():
    """Every value the exact paths return on a fixed input set: norms of
    seeded random states (n 1..9, rank 1..6); marginals over seeded readouts
    with gaps and over the ``qfa-network(1..4)`` readouts; postselection
    probabilities, positions and cores for seeded assignments on scaled
    states, the empty and an all-fixed assignment among them."""
    for n in range(1, 10):
        for r in range(1, 7):
            yield np.float64(tc.random_mps(n, r, seed=(n, r)).norm())
    rng = np.random.default_rng(2611)
    for k in range(40):
        n = int(rng.integers(2, 10))
        state = tc.random_mps(n, int(rng.integers(1, 7)), seed=k)
        measured = sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n), replace=False))
        yield bs.marginal_distribution(state.scaled(0.5 + 0.25j), [int(p) for p in measured])
    for count in range(1, 5):
        circuit = cat.build_builtin("qfa-network", count)
        run = cat.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
        yield bs.marginal_distribution(run.state, circuit.readout)
    for k in range(40):
        n = int(rng.integers(1, 9))
        state = tc.random_mps(n, int(rng.integers(1, 5)), seed=100 + k).scaled(1.5 - 0.5j)
        # the empty and the all-fixed assignment twice each, then any size
        size = (0, n)[k % 2] if k < 4 else int(rng.integers(0, n + 1))
        fixed = rng.choice(np.arange(1, n + 1), size=size, replace=False)
        result = bs.postselect(state, {int(p): int(rng.integers(0, 2)) for p in fixed})
        yield np.float64(result.probability)
        yield np.array(result.remaining, dtype=np.int64)
        if result.state is not None:
            yield from result.state.cores


def test_exact_paths_keep_their_bytes():
    # sha256 over the shape and bytes of every value, recorded before
    # MPS.norm and marginal_distribution shared one contraction
    digest, count = hashlib.sha256(), 0
    for value in _exact_path_values():
        digest.update(repr(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
        count += 1
    assert count == 243
    assert digest.hexdigest() == "6af3876462588b719bf3bf3e130da6b1d8acc177a59731d4ce3417d60a0941f7"


# ---------------------------------------------------------------------------
# environments (the incremental contraction used while sampling)


def test_suffix_environment_is_identity_for_right_orthonormal():
    state = tc.orthonormalize_right(tc.random_mps(7, 4, seed=3), tc.LOSSLESS)
    for start in range(1, 7):
        env = np.ones(1, dtype=complex)
        for core in reversed(state.cores[start:]):
            env = bs._transfer(core) @ env
        env = env.reshape(state.ranks[start], -1)
        assert np.max(np.abs(env - np.eye(env.shape[0]))) <= 1e-10


def advance(env, core, bit=None):
    """Left environment one site further, as an ``(s, s)`` matrix."""
    env = env.reshape(-1) @ bs._transfer(core, bit)
    return env.reshape(core.shape[2], -1)


def test_advance_matches_explicit_contraction():
    state = tc.orthonormalize_right(tc.random_mps(6, 3, seed=11), tc.LOSSLESS).normalized()
    dense = np.abs(state.to_dense().reshape((2,) * 6)) ** 2
    env = np.ones((1, 1), dtype=complex)
    fixed = (1, 0, 1)
    for i, bit in enumerate(fixed):
        env = advance(env, state.cores[i], bit)
    # trace of env against the identity suffix = joint probability of the prefix
    got = float(np.trace(env).real)
    want = float(dense[fixed].sum())
    assert got == pytest.approx(want, abs=1e-10)
    # marginalized advance: tracing out the first qubit instead
    env = advance(np.ones((1, 1), dtype=complex), state.cores[0])
    env = advance(env, state.cores[1], 1)
    got = float(np.trace(env).real)
    assert got == pytest.approx(float(dense[:, 1].sum()), abs=1e-10)


def test_environment_matrix_equals_explicit_network():
    # the full incremental environment, entry by entry, against a sum of
    # explicitly multiplied core slices over every marginalized pattern
    state = tc.random_mps(6, 3, seed=42).normalized()
    prefix = (1, None, 0, None)  # fixed bits and two traced-out sites
    env = np.ones((1, 1), dtype=complex)
    for i, bit in enumerate(prefix):
        env = advance(env, state.cores[i], bit)

    free = [i for i, bit in enumerate(prefix) if bit is None]
    explicit = np.zeros_like(env)
    for pattern in range(2 ** len(free)):
        bits = list(prefix)
        for j, i in enumerate(free):
            bits[i] = pattern >> j & 1
        vec = np.ones((1, 1), dtype=complex)
        for i, bit in enumerate(bits):
            vec = vec @ state.cores[i][:, bit, :]
        explicit += vec.conj().T @ vec
    assert np.max(np.abs(env - explicit)) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_real_form_matches_complex_transfer(seed):
    # the draw carries a Hermitian environment E as v = Re E + Im E and maps
    # it with _real_form(X) in place of the complex X
    rng = np.random.default_rng(seed)
    for r in range(1, 5):
        for s in range(1, 5):
            core = rng.normal(size=(r, 2, s)) + 1j * rng.normal(size=(r, 2, s))
            a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
            env = a + a.conj().T
            v = env.real + env.imag
            assert np.max(np.abs((v + v.T) / 2 + 1j * (v - v.T) / 2 - env)) <= 1e-12
            for bit in (0, 1, None):
                moved = env.reshape(-1) @ bs._transfer(core, bit)
                got = v.reshape(-1) @ bs._real_form(bs._transfer(core, bit))
                assert np.max(np.abs(got - (moved.real + moved.imag))) <= 1e-12


def test_transfer_has_the_bytes_of_kron():
    rng = np.random.default_rng(8)
    for r in range(1, 5):
        for s in range(1, 5):
            core = rng.normal(size=(r, 2, s)) + 1j * rng.normal(size=(r, 2, s))
            for bit in (0, 1):
                sl = core[:, bit, :]
                assert bs._transfer(core, bit).tobytes() == np.kron(sl.conj(), sl).tobytes()


# ---------------------------------------------------------------------------
# sampling


def test_point_mass_sampling():
    state = tc.basis_state_mps([1, 0, 1, 1])
    report = bs.sample(state, bs.MeasurementPlan(measured=(1, 2, 3, 4), sample_count=500, seed=5))
    assert report.counts == {"1011": 500}
    assert report.probabilities == {"1011": pytest.approx(1.0)}


def test_sampling_renormalizes_a_truncated_state():
    # GHZ(4) from gates, cut to rank 1: the run keeps only the 0000 branch
    # at its original weight, so the first core has norm 1/sqrt(2)
    gates = [GatePlacement(HADAMARD, target=1)]
    gates += [GatePlacement(PAULI_X, target=i + 1, controls=(i,)) for i in (1, 2, 3)]
    run = cat.run_gate_sequence(
        cat.GateGroupSequence(tuple(gate.to_mpo(4) for gate in gates)),
        tc.basis_state_mps([0] * 4),
        tc.TruncationPolicy(max_rank=1),
    )
    assert np.linalg.norm(run.state.cores[0]) == pytest.approx(2 ** -0.5)
    report = bs.sample(run.state, bs.MeasurementPlan(measured=(1, 2, 3, 4), sample_count=300, seed=4))
    assert report.probabilities == {"0000": pytest.approx(1.0, abs=1e-15)}
    assert report.counts == {"0000": 300}


def _qutrit_at_site_3():
    """Six sites, all qubits but site 3, a qutrit."""
    cores = [np.array([1.0, 0.0])[None, :, None]] * 6
    cores[2] = np.array([0.0, 0.6, 0.8])[None, :, None]
    return tc.MPS(cores)


@pytest.mark.parametrize(
    "state, site, d",
    [(tc.random_mps(13, 2, seed=1, d=3), 1, 3), (tc.random_mps(13, 2, seed=1, d=1), 1, 1),
     (_qutrit_at_site_3(), 3, 3)],
    ids=["qutrits", "d=1", "one-qutrit"],
)
def test_the_sampler_reads_qubits_only(state, site, d):
    # 13 qutrits gave 174 keys from levels 0 and 1 alone, 4 measured ones a
    # numpy reshape error, and d = 1 an IndexError; a check of the measured
    # sites alone would miss the qutrit at site 3
    message = rf"^site {site} has dimension {d}; the sampler reads qubits \(dimension 2\) only$"
    plans = [
        bs.MeasurementPlan(tuple(range(1, state.n + 1)), sample_count=200, seed=1),
        bs.MeasurementPlan((1, 2, 4, 5), sample_count=200, seed=1),
        bs.MeasurementPlan((1, 2, 4, 5), sample_count=0),
        bs.MeasurementPlan((1, 2), sample_count=200, seed=1, postselect={4: 0}),
    ]
    for plan in plans:
        with pytest.raises(ValueError, match=message):
            bs.sample(state, plan)
    with pytest.raises(ValueError, match=message):
        bs.marginal_distribution(state, [1, 2, 4, 5])


def test_seed_determinism_and_independence_of_sample_count():
    state = tc.random_mps(5, 3, seed=21)
    plan = bs.MeasurementPlan(measured=(1, 3, 5), sample_count=2000, seed=9)
    a = bs.sample(state, plan)
    b = bs.sample(state, plan)
    assert a.counts == b.counts
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_json_text() == b.to_json_text()
    # the first N draws of a larger run are the N-sample run, across chunks
    sizes = (2000, 70_000, 140_000)
    assert sizes[-1] > bs._CHUNK
    reports = [bs.sample(state, bs.MeasurementPlan(measured=(1, 3, 5), sample_count=s, seed=9))
               for s in sizes]
    for small, large in zip(reports, reports[1:]):
        assert all(count <= large.counts.get(key, 0) for key, count in small.counts.items())


@pytest.mark.parametrize("cap", [7 * 1000 + 3, 5])
def test_uniform_cap_splits_chunks_without_changing_samples(monkeypatch, cap):
    state = tc.random_mps(7, 3, seed=4)
    plan = bs.MeasurementPlan(measured=tuple(range(1, 8)), sample_count=3000, seed=13)
    whole = bs.sample(state, plan)
    shapes = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, shape):
            shapes.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(bs, "_CHUNK_UNIFORMS", cap)
    monkeypatch.setattr(bs.np.random, "default_rng", Recording)
    split = bs.sample(state, plan)
    # r² = 9 > m = 7 caps the rows: 778 per chunk; a cap below one row
    # still draws one row
    rows = max(cap // 9, 1)
    assert [s[0] for s in shapes] == [rows] * (3000 // rows) + ([3000 % rows] if 3000 % rows else [])
    assert split.counts == whole.counts
    assert split.to_csv_text() == whole.to_csv_text()


def test_frequencies_converge_to_marginal():
    state = tc.random_mps(6, 4, seed=33)
    plan = bs.MeasurementPlan(measured=tuple(range(1, 7)), sample_count=100_000, seed=1)
    report = bs.sample(state, plan)
    exact = exact_marginal_via_oracle(state.normalized(), range(1, 7)).reshape(-1)
    freq = np.zeros(64)
    for key, count in report.counts.items():
        freq[int(key, 2)] = count / plan.sample_count
    tv = 0.5 * np.abs(freq - exact).sum()
    assert tv <= 0.01


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampling_behind_an_unmeasured_prefix_matches_dense_oracle(seed):
    # qubits 1-2 are neither measured nor postselected: their transfer
    # matrices make the starting environment of every draw
    state = tc.orthonormalize_right(tc.random_mps(7, 4, seed=seed))
    plan = bs.MeasurementPlan(measured=(3, 5, 6), sample_count=200_000, seed=seed)
    report = bs.sample(state, plan)
    exact = exact_marginal_via_oracle(state, plan.measured).reshape(-1)
    freq = np.zeros(8)
    for key, count in report.counts.items():
        freq[int(key, 2)] = count / plan.sample_count
    assert 0.5 * np.abs(freq - exact).sum() <= 0.01
    assert bs.sample(state, plan).to_csv_text() == report.to_csv_text()


def test_sampling_subset_of_qubits():
    state = cat.simon_circuit_mpo().apply(tc.basis_state_mps([0] * 8))
    plan = bs.MeasurementPlan(measured=cat.SIMON_FIRST_REGISTER, sample_count=20_000, seed=17)
    report = bs.sample(state, plan)
    assert set(report.counts) <= set(cat.SIMON_SUPPORT)
    assert sum(report.counts.values()) == 20_000


def test_sampling_with_postselection():
    state = tc.named_state_mps("ghz", 4)
    plan = bs.MeasurementPlan(measured=(2, 3), sample_count=300, seed=2, postselect={1: 1})
    report = bs.sample(state, plan)
    assert report.counts == {"11": 300}


def test_sampling_with_interleaved_postselection():
    # postselected position sits between the measured ones
    state = tc.random_mps(5, 3, seed=55)
    plan = bs.MeasurementPlan(
        measured=(1, 4), sample_count=50_000, seed=8, postselect={2: 1, 5: 0}
    )
    report = bs.sample(state, plan)
    conditioned = bs.postselect(state, {2: 1, 5: 0})
    exact = bs.marginal_distribution(conditioned.state, (1, 3)).reshape(-1)
    for index in range(4):
        key = format(index, "02b")
        assert report.counts.get(key, 0) / 50_000 == pytest.approx(exact[index], abs=0.01)
        assert report.probabilities[key] == pytest.approx(exact[index], abs=1e-12)


def test_sample_count_zero_never_draws():
    state = tc.random_mps(4, 2, seed=4)
    report = bs.sample(state, bs.MeasurementPlan(measured=(1, 2, 3, 4), sample_count=0, seed=0))
    assert report.counts == {}
    assert report.probabilities is not None
    assert sum(report.probabilities.values()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("bit", [1.0, 0.0, True, False, np.bool_(True)])
def test_postselect_refuses_a_bit_that_is_not_an_integer(bit):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        bs.postselect(tc.named_state_mps("ghz", 3), {2: bit})


@pytest.mark.parametrize("bit", [1.0, 0.0, True, False, np.bool_(True)])
def test_plan_refuses_a_postselect_bit_that_is_not_an_integer(bit):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        bs.MeasurementPlan(measured=(1,), postselect={2: bit})


def test_plan_checks_postselect_positions_like_measured_ones():
    # {2.0: 0} was accepted and stored; only sample refused it, after the run
    with pytest.raises(ValueError, match=r"^postselect position 2\.0 is not an integer$"):
        bs.MeasurementPlan(measured=(1,), postselect={2.0: 0})
    with pytest.raises(ValueError, match=r"^postselect position True is not an integer$"):
        bs.MeasurementPlan(measured=(1,), postselect={True: 0})
    plan = bs.MeasurementPlan(measured=(1,), postselect={np.int64(2): 0})
    assert plan.postselect == {2: 0} and all(type(p) is int for p in plan.postselect)


def test_plan_validation():
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=())
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=(2, 1))
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=(1, 2), postselect={2: 0})
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=(1,), sample_count=-1)
    with pytest.raises(ValueError, match="bit for position 2"):
        bs.MeasurementPlan(measured=(1,), postselect={2: 2})
    plan = bs.MeasurementPlan(measured=(1, 9))
    with pytest.raises(ValueError):
        bs.sample(tc.random_mps(4, 2, seed=0), plan)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sample_count": True}, "sample_count must be an integer, got True"),
        ({"sample_count": 2.0}, "sample_count must be an integer, got 2.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"measured": (1.5, 2)}, "measured position 1.5 is not an integer"),
        ({"measured": (np.bool_(True),)}, "measured position np.True_ is not an integer"),
    ],
    ids=["bool-count", "float-count", "bool-seed", "float-seed", "negative-seed", "float-position",
         "numpy-bool-position"],
)
def test_plan_counts_seeds_and_positions_follow_the_integer_rule(kwargs, message):
    # a bool count or seed was taken as 1, and a float one ended in a TypeError
    # inside the draw; 1.5 must not become position 1
    with pytest.raises(ValueError, match=rf"^{message}$"):
        bs.MeasurementPlan(**{"measured": (1,), **kwargs})


def test_a_plan_stores_numpy_integers_as_int_and_its_report_serializes():
    state = tc.named_state_mps("ghz", 3)
    plan = bs.MeasurementPlan(measured=np.array([1, 3]), sample_count=np.int64(40), seed=np.uint16(2))
    assert plan == bs.MeasurementPlan(measured=(1, 3), sample_count=40, seed=2)
    assert all(type(v) is int for v in (*plan.measured, plan.sample_count, plan.seed))
    reference = bs.sample(state, bs.MeasurementPlan(measured=(1, 3), sample_count=40, seed=2))
    assert bs.sample(state, plan).to_json_text() == reference.to_json_text()


def test_sampling_cost_scales_linearly_in_size():
    def pipeline_state(count):
        net = cat.full_adder_network_mpo(count)
        run = cat.run_gate_sequence(
            cat.GateGroupSequence((net,), label="net"), cat.full_adder_network_input(count)
        )
        return run.state, cat.full_adder_network_outputs(count)

    def sampling_time(state, outputs):
        plan = bs.MeasurementPlan(
            measured=outputs, sample_count=20_000, seed=0, exact_probabilities=False
        )
        best = np.inf
        for _ in range(3):
            begin = time.perf_counter()
            bs.sample(state, plan)
            best = min(best, time.perf_counter() - begin)
        return best

    small = pipeline_state(12)
    large = pipeline_state(96)
    sampling_time(*small)  # warm-up
    t_small = sampling_time(*small)
    t_large = sampling_time(*large)
    assert t_large / t_small <= 12.0


def test_select_keeps_the_bits_of_every_float():
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1.5, 1.0]
    rng = np.random.default_rng(2)
    kept = np.array(special + rng.normal(size=40).tolist())
    taken = np.array(special[::-1] + rng.normal(size=40).tolist())
    chosen = rng.random(kept.size) < 0.5
    for rows in (1, 3):
        a, b = np.tile(kept, (rows, 1)), np.tile(taken, (rows, 1))
        want = np.where(chosen, b, a)
        bs._select(a, b, -chosen.astype(np.int64))
        assert a.tobytes() == want.tobytes()


def row_major_draw(state, measured_idx, sample_count, seed):
    """The draw with one row per sample and masked copies for the select:
    the reference that ``bs._draw`` must match byte for byte."""
    cores = state.cores
    m = len(measured_idx)
    rng = np.random.default_rng(seed)
    env0 = np.ones(1, dtype=np.complex128)
    for i in range(measured_idx[0]):
        env0 = env0 @ bs._transfer(cores[i])
    env0 = env0.real + env0.imag
    site_weights, site_updates = [], []
    for k, i in enumerate(measured_idx):
        updates = [bs._transfer(cores[i], bit) for bit in (0, 1)]
        suffix = np.eye(cores[i].shape[2], dtype=np.complex128).reshape(-1)
        site_weights.append(bs._real_form(np.stack([u @ suffix for u in updates], axis=1)))
        gap = None
        if k + 1 < m:
            for j in range(i + 1, measured_idx[k + 1]):
                step = bs._transfer(cores[j])
                gap = step if gap is None else gap @ step
        site_updates.append([bs._real_form(u if gap is None else u @ gap) for u in updates])
    counts, mass_lost, remaining = {}, 0.0, sample_count
    while remaining > 0:
        chunk = min(remaining, bs._CHUNK, max(bs._CHUNK_UNIFORMS // m, 1))
        uniforms = rng.random((chunk, m))
        env = np.broadcast_to(env0, (chunk, env0.size)).copy()
        bits = np.empty((chunk, m), dtype=np.uint8)
        for k in range(m):
            p = env @ site_weights[k]
            low = p.min()
            if low < 0.0:
                assert low >= bs.NEGATIVE_TOL
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
        for row in bits:
            key = "".join(map(str, row))
            counts[key] = counts.get(key, 0) + 1
        remaining -= chunk
    return counts, mass_lost


@pytest.mark.parametrize("seed", range(6))
def test_draw_matches_the_row_major_reference(seed):
    rng = np.random.default_rng(seed)
    for rank in range(1, 6):
        n = int(rng.integers(2, 9))
        state = bs._prepare(tc.random_mps(n, rank, seed=int(rng.integers(2 ** 31))))
        # a random subset: gaps inside it and unmeasured sites on either side
        measured = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        for count in (1, 2, 3, 17, 1000):
            draw_seed = int(rng.integers(2 ** 31))
            assert bs._draw(state, measured, count, draw_seed) == \
                row_major_draw(state, measured, count, draw_seed)


def test_draw_matches_the_row_major_reference_across_a_chunk_tail(monkeypatch):
    state = bs._prepare(tc.random_mps(4, 3, seed=17))
    count = bs._CHUNK + 1  # one full chunk and a one-row tail
    assert bs._draw(state, [0, 2, 3], count, 5) == row_major_draw(state, [0, 2, 3], count, 5)
    # 17 blocks of 64 rows and a one-row tail: later blocks draw the same two keys again
    monkeypatch.setattr(bs, "_CHUNK", 64)
    state = bs._prepare(tc.named_state_mps("ghz", 5))
    count = 17 * 64 + 1
    counts, clamped = bs._draw(state, [0, 1, 2, 3, 4], count, 5)
    assert (counts, clamped) == row_major_draw(state, [0, 1, 2, 3, 4], count, 5)
    assert counts.keys() == {"00000", "11111"} and 64 < counts["00000"] < count - 64


def test_counts_is_a_counter_in_which_an_outcome_not_drawn_reads_0(monkeypatch):
    ghz = tc.named_state_mps("ghz", 3)
    drawn = bs.sample(ghz, bs.MeasurementPlan(measured=(1, 2, 3), sample_count=100, seed=1))
    exact = bs.sample(ghz, bs.MeasurementPlan(measured=(1, 2, 3)))
    # the report shor_run reads out, and a sampled shor(7) report read out the same way
    shor_readout, read_out = cat.shor_readout, []

    def recorded_readout(a, report):
        read_out.append(shor_readout(a, report))
        return read_out[-1]

    monkeypatch.setattr(cat, "shor_readout", recorded_readout)
    cat.shor_run(7)
    shor_exact = read_out[0][0]
    circuit = cat.build_builtin("shor", 7)
    state = cat.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy).state
    plan = bs.MeasurementPlan(circuit.readout, sample_count=64, seed=1)
    shor_sampled = shor_readout(7, bs.sample(state, plan))[0]

    assert drawn.counts.keys() == {"000", "111"} and exact.counts == {} == shor_exact.counts
    assert shor_sampled.counts.keys() <= {"00000000", "01000000", "10000000", "11000000"}
    assert shor_sampled.counts.total() == 64
    for report in (drawn, exact, shor_exact, shor_sampled):
        assert isinstance(report.counts, Counter)
        assert report.counts["0" * (len(report.measured) - 1) + "1"] == 0


@pytest.fixture(scope="module")
def adder_draw():
    """The adder workload: qfa-network(100), its 101 outputs and their default 20,000-sample draw."""
    run = cat.run_gate_sequence(
        cat.GateGroupSequence((cat.full_adder_network_mpo(100),)), cat.full_adder_network_input(100)
    )
    outputs = cat.full_adder_network_outputs(100)
    state = bs._prepare(run.state)
    measured = [p - 1 for p in outputs]
    return state, outputs, bs._draw(state, measured, 20_000, 5)


# blocks of rows: one block; three full blocks and a 2-row tail
# (20,000 = 3 * 6,666 + 2); one full block and a 1-row tail.  Steps of rows
# that fill a block's uniforms: the default; one row; 97 rows, which divide
# no block; at least a whole block
_BLOCK_CASES = [pytest.param(rows, None, id=str(rows)) for rows in (20_000, 6_666, 19_999)] + [
    pytest.param(rows, step_rows, id=f"{rows}-step{step_rows}")
    for rows in (20_000, 6_666, 19_999)
    for step_rows in (1, 97, 20_000)
]


@pytest.mark.parametrize("rows, step_rows", _BLOCK_CASES)
def test_blocks_do_not_change_the_adder_draw(monkeypatch, adder_draw, rows, step_rows):
    state, outputs, default = adder_draw
    m = len(outputs)
    assert 3 * max(bs._CHUNK_UNIFORMS // m, 1) < 20_000  # by default four blocks
    monkeypatch.setattr(bs, "_CHUNK", rows)
    monkeypatch.setattr(bs, "_CHUNK_UNIFORMS", rows * m)
    if step_rows is not None:
        monkeypatch.setattr(bs, "_STEP_UNIFORMS", step_rows * m)
    assert bs._draw(state, [p - 1 for p in outputs], 20_000, 5) == default


def test_high_rank_blocks_are_capped_by_their_environments():
    # r² = 256 at the measured sites: 2,048 rows per block, not all 8,192, so one
    # (r², rows) environment array is 4 MB, whatever the readout width
    state = bs._prepare(tc.random_mps(10, 16, seed=3))
    assert max(state.cores[i].shape[0] for i in (4, 5)) ** 2 == 256
    tracemalloc.start()
    try:
        counts = bs._draw(state, [4, 5], 8192, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == row_major_draw(state, [4, 5], 8192, 7)
    assert peak < 30e6


def test_adder_sampling_and_its_csv_stay_small(tmp_path, adder_draw):
    state, outputs, _ = adder_draw
    plan = bs.MeasurementPlan(measured=tuple(outputs), sample_count=20_000, seed=5)
    out = tmp_path / "adder.csv"
    tracemalloc.start()
    try:
        report = bs.sample(state, plan)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        cli._write_report(report, str(out), "csv", None)
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert sample_peak < 11.5e6  # one reused block of uniforms, no per-block copies
    assert write_peak < 1e6  # the CSV is streamed, never held whole
    assert out.read_bytes() == report.to_csv_text().encode()


# ---------------------------------------------------------------------------
# report serialization


def test_report_csv_and_json_shape():
    state = tc.named_state_mps("ghz", 2)
    report = bs.sample(state, bs.MeasurementPlan(measured=(1, 2), sample_count=100, seed=0))
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "bitstring,count,frequency,probability"
    assert len(lines) == 3  # header + two outcomes
    payload = json.loads(report.to_json_text())
    assert payload["format"] == "mpoq-sample-report"
    assert set(payload["counts"]) == {"00", "11"}
    assert payload["probabilities"]["00"] == pytest.approx(0.5)
    assert "elapsed" not in json.dumps(payload)  # byte-stable serialization


def add_rounding_noise(monkeypatch, state, noise=-3e-13):
    """Rounding ``noise`` on outcome 1 of qubit 2 of ``state``, the prepared
    GHZ(2): after a first 0 its conditional is (1, noise); after a first 1
    it is (0, 1 + noise) and nothing is clamped."""
    transfer = bs._transfer

    def noisy_transfer(core, bit=None):
        noisy = bit == 1 and core is state.cores[1]
        return transfer(core, bit) + noise if noisy else transfer(core, bit)

    monkeypatch.setattr(bs, "_transfer", noisy_transfer)


def test_clamped_mass_is_reported_outside_the_serialized_report(monkeypatch):
    state = bs._prepare(tc.named_state_mps("ghz", 2))
    plan = bs.MeasurementPlan(measured=(1, 2), sample_count=1000)
    assert bs.sample(state, plan).clamped_mass == 0.0
    add_rounding_noise(monkeypatch, state)
    report = bs.sample(state, plan)
    assert set(report.counts) == {"00", "11"}
    assert report.clamped_mass == pytest.approx(3e-13, rel=1e-9, abs=0.0)
    assert set(report.to_json_dict()) == {
        "format", "n", "sample_count", "seed", "measured", "counts", "frequencies", "probabilities"
    }
    assert "clamped" not in report.to_csv_text() + report.to_json_text()


def test_negative_conditional_below_tolerance_raises_and_exits_3(monkeypatch, tmp_path, capsys):
    plan = bs.MeasurementPlan(measured=(1, 2), sample_count=1000)
    with monkeypatch.context() as patch:
        state = bs._prepare(tc.named_state_mps("ghz", 2))
        add_rounding_noise(patch, state, noise=-1e-11)
        with pytest.raises(bs.NegativeProbabilityError, match="below tolerance at site 2"):
            bs.sample(state, plan)
    # the same noise on the state the CLI prepares from a JSON Bell circuit
    prepare = bs._prepare

    def noisy_prepare(state):
        prepared = prepare(state)
        add_rounding_noise(monkeypatch, prepared, noise=-1e-11)
        return prepared

    monkeypatch.setattr(bs, "_prepare", noisy_prepare)
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({"n": 2, "ops": [
        {"gate": "h", "target": 1}, {"gate": "cnot", "target": 2, "controls": [1]}]}))
    code = cli.main(["simulate", "--circuit", str(path), "--samples", "1000"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL
    assert err.startswith("error: numerical failure: conditional entry") and err.count("\n") == 1


def test_clamped_draw_matches_the_row_major_reference(monkeypatch):
    state = bs._prepare(tc.named_state_mps("ghz", 2))
    add_rounding_noise(monkeypatch, state)
    counts, clamped = bs._draw(state, [0, 1], 1000, 3)
    assert clamped > 0.0
    assert (counts, clamped) == row_major_draw(state, [0, 1], 1000, 3)


def csv_line_by_line(report):
    """The CSV with every cell formatted on its own line: the reference."""
    counts, probs, total = report.counts, report.probabilities, report.sample_count
    keys = counts.keys() if probs is None else counts.keys() | probs.keys()
    lines = ["bitstring,count,frequency" + ("" if probs is None else ",probability")]
    for key in sorted(keys):
        count = counts.get(key, 0)
        frequency = count / total if total else 0.0
        line = f"{key},{count},{frequency!r}"
        lines.append(line if probs is None else f"{line},{probs.get(key, 0.0)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_probabilities", [False, True])
def test_csv_text_matches_the_line_by_line_formula(with_probabilities):
    counts = {"000": 3, "011": 1, "101": 3, "110": 1, "111": 5}
    probs = {"000": 0.25, "001": 0.125, "011": 0.0625, "101": 0.3, "110": 0.1, "111": 1 / 6}
    for total in (13, 0):
        report = bs.SampleReport(
            n=3, sample_count=total, seed=0, measured=(1, 2, 3), counts=counts if total else {},
            probabilities=probs if with_probabilities else None, elapsed_seconds=0.0,
        )
        assert report.to_csv_text() == csv_line_by_line(report)


def test_report_without_probabilities():
    state = tc.random_mps(3, 2, seed=1)
    plan = bs.MeasurementPlan(measured=(1, 2, 3), sample_count=50, seed=3, exact_probabilities=False)
    report = bs.sample(state, plan)
    assert report.probabilities is None
    assert report.to_csv_text().splitlines()[0] == "bitstring,count,frequency"
