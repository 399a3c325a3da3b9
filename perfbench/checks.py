"""Output checks for the benchmark workloads.

Each check returns a list of failure messages; an empty list is a pass.
The checks run outside every timed region.  ``dense_oracle`` is used only
here, so its cost never reaches a measured number.
"""

from __future__ import annotations

import math

import numpy as np

from mpoq import circuit_catalog, dense_oracle
from mpoq.tensor_core import MPO, MPS, basis_state_mps

#: Golden factoring-15 results per base: measured support and the factors
#: found.  For a = 14 the only period candidate gives a^(q/2) = -1 mod 15,
#: so no factor is found.
SHOR_GOLDEN = {
    2: ((0, 64, 128, 192), (3, 5)),
    7: ((0, 64, 128, 192), (3, 5)),
    8: ((0, 64, 128, 192), (3, 5)),
    13: ((0, 64, 128, 192), (3, 5)),
    4: ((0, 128), (3, 5)),
    11: ((0, 128), (3, 5)),
    14: ((0, 128), ()),
}

AMPLITUDE_TOL = 1e-10


def tv_bound(outcomes: int, samples: int) -> float:
    """Largest accepted total-variation distance of an empirical marginal.

    ``0.5 * sqrt(K / N)`` bounds the expected TV distance of ``N`` samples
    over ``K`` outcomes (Cauchy-Schwarz on ``sum sqrt(p_i / N)``); the
    check allows three times that.
    """
    return 1.5 * math.sqrt(outcomes / samples)


def parse_report_csv(text: str) -> dict[str, int]:
    """Counts from a ``SampleReport.to_csv_text`` body."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("bitstring,count,frequency"):
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    counts: dict[str, int] = {}
    for line in lines[1:]:
        key, count = line.split(",")[:2]
        if key in counts:
            raise ValueError(f"duplicate outcome {key}")
        counts[key] = int(count)
    return counts


def check_twin_reports(first: bytes, second: bytes) -> list[str]:
    """Two runs with the same circuit and seed must give identical bytes."""
    if first == second:
        return []
    return ["repeated seed gave a different CSV"]


def check_adder_report(text: str, width: int, sample_count: int, low_marginal: np.ndarray) -> list[str]:
    """Shape, totals and low-order TV distance of one adder-network sample CSV.

    ``low_marginal`` is the exact distribution of the first ``k`` measured
    outputs, flattened in key order.
    """
    try:
        counts = parse_report_csv(text)
    except ValueError as exc:
        return [str(exc)]
    failures = []
    if any(len(key) != width or key.strip("01") for key in counts):
        failures.append(f"outcome keys are not {width}-bit strings")
        return failures
    total = sum(counts.values())
    if total != sample_count:
        failures.append(f"counts sum to {total}, expected {sample_count}")
        return failures
    k = int(round(math.log2(low_marginal.size)))
    empirical = np.zeros(low_marginal.size)
    for key, count in counts.items():
        empirical[int(key[:k], 2)] += count
    tv = 0.5 * float(np.abs(empirical / total - low_marginal).sum())
    bound = tv_bound(low_marginal.size, total)
    if tv > bound:
        failures.append(f"low-order TV distance {tv:.4f} exceeds {bound:.4f}")
    return failures


def check_uniform_marginal(marginal: np.ndarray) -> list[str]:
    """The low k sum bits of two uniform summands are uniform over 2^k values."""
    if np.max(np.abs(marginal - 1.0 / marginal.size)) > 1e-12:
        return ["low-order marginal is not uniform"]
    return []


def ghz_outcomes(bits: str) -> set[str]:
    """The two outcomes of H(1) then CNOT(i -> i+1) on basis state ``bits``.

    Qubit ``k`` ends as ``x XOR b_2 XOR ... XOR b_k`` with ``x`` the
    measured value of qubit 1.
    """
    prefix = [0]
    for b in bits[1:]:
        prefix.append(prefix[-1] ^ int(b))
    zero = "".join(map(str, prefix))
    one = "".join(str(1 - p) for p in prefix)
    return {zero, one}


def check_ghz(counts: dict[str, int], bits: str, shots: int, ranks) -> list[str]:
    failures = []
    unexpected = set(counts) - ghz_outcomes(bits)
    if unexpected:
        failures.append(f"{len(unexpected)} outcome(s) outside the predicted pair")
    if sum(counts.values()) != shots:
        failures.append(f"counts sum to {sum(counts.values())}, expected {shots}")
    if max(ranks) > 2:
        failures.append(f"final rank {max(ranks)} exceeds 2")
    return failures


def check_roundtrip(state: MPS, bits) -> list[str]:
    """QFT followed by its inverse must return the input basis state."""
    amplitude = abs(state.element(list(bits)))
    if amplitude < 1.0 - AMPLITUDE_TOL:
        return [f"round trip amplitude {amplitude!r} below 1 - {AMPLITUDE_TOL}"]
    return []


def check_qft_dense(groups: tuple[MPO, ...], n: int, inputs) -> list[str]:
    """QFT groups on basis states against the dense DFT (bit-reversed rows)."""
    dft = dense_oracle.dft_matrix(n)
    reversal = dense_oracle.bit_reversal_permutation(n)
    sequence = circuit_catalog.GateGroupSequence(tuple(groups), label=f"qft({n})")
    for bits in inputs:
        run = circuit_catalog.run_gate_sequence(sequence, basis_state_mps(bits))
        index = int("".join(map(str, bits)), 2)
        deviation = np.max(np.abs(run.state.to_dense() - dft[reversal, index]))
        if deviation > AMPLITUDE_TOL:
            return [f"qft({n}) on basis state {index} deviates by {deviation:.3e}"]
    return []


def check_shor(result) -> list[str]:
    support, factors = SHOR_GOLDEN[result.a]
    failures = []
    if result.support != support:
        failures.append(f"a={result.a}: support {result.support}, expected {support}")
    if result.factors_found != factors:
        failures.append(f"a={result.a}: factors {result.factors_found}, expected {factors}")
    return failures


def check_modexp(op: MPO, a: int, modulus: int, probes) -> list[str]:
    """The operator must map |x, 0> to |x, a^x mod modulus> on every probe."""
    n_target = circuit_catalog.target_register_size(modulus)
    n_input = op.n - n_target
    for x in probes:
        x_bits = [int(c) for c in format(x, f"0{n_input}b")]
        out = op.apply(basis_state_mps(x_bits + [0] * n_target))
        want = x_bits + [int(c) for c in format(pow(a, x, modulus), f"0{n_target}b")]
        if abs(out.element(want) - 1.0) > AMPLITUDE_TOL or abs(out.norm() - 1.0) > AMPLITUDE_TOL:
            return [f"modexp({a}, {modulus}) wrong on input {x}"]
    return []
