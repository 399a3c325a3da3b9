"""Unit tests for marginals, postselection and generative sampling."""

import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mpoq import born_sampler as bs
from mpoq import circuit_catalog as cat
from mpoq import dense_oracle as oracle
from mpoq import tensor_core as tc


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


def test_marginal_validation():
    state = tc.named_state_mps("ghz", 3)
    with pytest.raises(ValueError):
        bs.marginal_distribution(state, [])
    with pytest.raises(ValueError):
        bs.marginal_distribution(state, [4])


# ---------------------------------------------------------------------------
# postselection


def test_postselect_ghz_pins_everything():
    result = bs.postselect(tc.named_state_mps("ghz", 3), {1: 0})
    assert result.probability == pytest.approx(0.5, abs=1e-12)
    assert result.remaining == (2, 3)
    assert_allclose(result.state.to_dense(), oracle.basis_state([0, 0]), atol=1e-12)


def test_postselect_full_register_is_point_mass():
    state = tc.basis_state_mps([1, 0, 1])
    result = bs.postselect(state, {1: 1, 2: 0, 3: 1})
    assert result.state is None
    assert result.remaining == ()
    assert result.probability == pytest.approx(1.0, abs=1e-12)


def test_postselect_zero_probability_raises():
    with pytest.raises(bs.ZeroProbabilityError):
        bs.postselect(tc.basis_state_mps([1, 0]), {1: 0})


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


# ---------------------------------------------------------------------------
# sampling


def test_point_mass_sampling():
    state = tc.basis_state_mps([1, 0, 1, 1])
    report = bs.sample(state, bs.MeasurementPlan(measured=(1, 2, 3, 4), sample_count=500, seed=5))
    assert report.counts == {"1011": 500}
    assert report.probabilities == {"1011": pytest.approx(1.0)}


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


def test_plan_validation():
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=())
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=(2, 1))
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=(1, 2), postselect={2: 0})
    with pytest.raises(ValueError):
        bs.MeasurementPlan(measured=(1,), sample_count=-1)
    plan = bs.MeasurementPlan(measured=(1, 9))
    with pytest.raises(ValueError):
        bs.sample(tc.random_mps(4, 2, seed=0), plan)


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


def test_report_without_probabilities():
    state = tc.random_mps(3, 2, seed=1)
    plan = bs.MeasurementPlan(measured=(1, 2, 3), sample_count=50, seed=3, exact_probabilities=False)
    report = bs.sample(state, plan)
    assert report.probabilities is None
    assert report.to_csv_text().splitlines()[0] == "bitstring,count,frequency"
