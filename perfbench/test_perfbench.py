"""Tests of the benchmark's own checks and tracer.

    python -m pytest perfbench/test_perfbench.py -q

The negative controls corrupt one output each and require the benchmark
to count that operation as failed, so that no check is vacuous.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mpoq import circuit_catalog, cli  # noqa: E402
from mpoq.tensor_core import MPO, basis_state_mps  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def small_adder(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.AdderSampling, "COUNT", 12)
    monkeypatch.setattr(workloads.AdderSampling, "SAMPLES", 500)
    workload = workloads.AdderSampling(5, tmp_path)
    assert run.tally(workload.once()) == (0, [])
    return workload


def _adder_pair(workload, corrupt=None):
    entries = []
    for k in (0, 1):
        inputs = workload.inputs(k)
        _, code = workload.job(inputs)
        if corrupt is not None and k == 1:
            corrupt(inputs[1])
        entries += workload.check(k, inputs, code)
    return entries


def test_adder_twin_reports_pass(small_adder):
    assert run.tally(_adder_pair(small_adder)) == (0, [])


def test_flipped_bit_in_one_sampled_key_is_counted_failed(small_adder):
    def flip(path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        key = lines[1][:4]
        lines[1] = key[:3] + ("1" if key[3] == "0" else "0") + lines[1][4:]
        path.write_text("".join(lines), encoding="utf-8")

    failed, failures = run.tally(_adder_pair(small_adder, flip))
    assert failed == 1
    assert ("simulate", "repeated seed gave a different CSV") in failures


def _detuned_qft_sequence(n):
    sequence = _original_qft_sequence(n)
    groups = list(sequence.groups)
    cores = [np.array(c) for c in groups[0].cores]
    cores[-1][1, 1, 1, 0] *= np.exp(1e-3j)  # phase of the controlled R_n, seen when bit n is 1
    groups[0] = MPO(cores)
    return circuit_catalog.GateGroupSequence(tuple(groups), label=sequence.label)


_original_qft_sequence = circuit_catalog.qft_sequence


@pytest.fixture
def small_fourier(monkeypatch):
    monkeypatch.setattr(workloads.FourierFactoring, "QFT_SIZE", 8)
    monkeypatch.setattr(workloads.FourierFactoring, "MODEXP", (2, 15))
    return workloads.FourierFactoring(3, None)


def _fourier_entries(workload):
    bits = [1] * 8
    inputs = (bits, basis_state_mps(bits), [0, 1, 77, 255])
    _, output = workload.job(inputs)
    return workload.check(0, inputs, output)


def test_fourier_checks_pass(small_fourier):
    assert run.tally(_fourier_entries(small_fourier)) == (0, [])
    assert run.tally(small_fourier.once()) == (0, [])


def test_detuned_qft_phase_is_counted_failed(small_fourier, monkeypatch):
    monkeypatch.setattr(circuit_catalog, "qft_sequence", _detuned_qft_sequence)
    failed, failures = run.tally(_fourier_entries(small_fourier))
    assert failed == 1
    assert failures[0][0] == "qft(8) round trip"
    detuned = _detuned_qft_sequence(8).groups
    assert checks.check_qft_dense(detuned, 8, [[1] * 8])


def test_ghz_outcomes_follow_the_prefix_parity():
    assert checks.ghz_outcomes("0110") == {"0100", "1011"}
    counts = {"0100": 30, "1011": 34}
    assert checks.check_ghz(counts, "0110", 64, (1, 2, 2, 1)) == []
    assert checks.check_ghz({"0100": 30, "1111": 34}, "0110", 64, (1, 2)) != []


def test_tracer_self_times_add_up_and_patches_are_restored():
    original = cli.load_circuit_payload
    workload = workloads.GhzGates(1, None)
    payload = workload.payload("0110101")
    tracer = Tracer()
    tracer.job(0, lambda: workload._one(payload, 3))
    assert cli.load_circuit_payload is original
    table = tracer.self_times()
    job_total = table["bench.job"][1]
    assert sum(row[2] for row in table.values()) == pytest.approx(job_total, rel=1e-9)
    assert tracer.counts["gate_library.to_mpo_calls"] == 7
    assert tracer.counts["circuit_catalog.groups"] == 7


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "job_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
