"""The three benchmark workloads.

Every workload splits a job into three steps so that only program work is
timed or traced:

- ``inputs(k)`` derives job ``k``'s inputs from the seed (untimed);
- ``job(inputs)`` calls the program and returns ``(parts, output)``, where
  ``parts`` maps component metric names to ``(value, unit)`` (timed, and
  traced in a traced run);
- ``check(k, inputs, output)`` returns ``(operation, failures)`` pairs
  (untimed).

``once()`` returns the checks that run once per run.  Program functions
are looked up on their module at call time, so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

import checks
from mpoq import born_sampler, circuit_catalog, cli, tensor_core


def job_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


class AdderSampling:
    """``mpoq simulate --builtin qfa-network(100)`` with S samples, in-process.

    Jobs run in pairs that share a seed, so every CSV is compared byte for
    byte with its twin.
    """

    name = "adder-sampling"
    unit = 2
    COUNT = 100
    SAMPLES = 20_000
    LOW_BITS = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.width = len(circuit_catalog.full_adder_network_outputs(self.COUNT))
        self._twin: bytes | None = None

    def _simulate(self, count: int, samples: int, seed: int, out: Path) -> int:
        argv = [
            "simulate", "--builtin", f"qfa-network({count})",
            "--samples", str(samples), "--seed", str(seed), "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        self._simulate(4, 200, self.seed, self.workdir / "warm-up.csv")

    def inputs(self, k: int):
        pair_seed = int(job_rng(self.seed, k // 2).integers(2 ** 31))
        return pair_seed, self.workdir / f"adder-{k % 2}.csv"

    def job(self, inputs):
        seed, out = inputs
        begin = time.perf_counter()
        code = self._simulate(self.COUNT, self.SAMPLES, seed, out)
        elapsed = time.perf_counter() - begin
        return {"samples_per_s": (self.SAMPLES / elapsed, "1/s")}, code

    def once(self):
        adder = circuit_catalog.full_adder_network_mpo(self.COUNT)
        run = circuit_catalog.run_gate_sequence(
            circuit_catalog.GateGroupSequence((adder,)),
            circuit_catalog.full_adder_network_input(self.COUNT),
        )
        low = circuit_catalog.full_adder_network_outputs(self.COUNT)[: self.LOW_BITS]
        self.low_marginal = born_sampler.marginal_distribution(run.state, low).reshape(-1)
        return [("low-order marginal", checks.check_uniform_marginal(self.low_marginal))]

    def check(self, k, inputs, code):
        if code != 0:
            return [("simulate", [f"exit code {code}"])]
        data = inputs[1].read_bytes()
        failures = checks.check_adder_report(
            data.decode("utf-8"), self.width, self.SAMPLES, self.low_marginal
        )
        if k % 2 == 0:
            self._twin = data
        else:
            failures += checks.check_twin_reports(self._twin, data)
        return [("simulate", failures)]


class GhzGates:
    """Gate-by-gate GHZ chains from JSON payloads at two register sizes."""

    name = "ghz-gates"
    unit = 1
    SIZES = (50, 200)
    SHOTS = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    @staticmethod
    def payload(bits: str) -> dict:
        n = len(bits)
        ops = [{"gate": "h", "target": 1}]
        ops += [{"gate": "cnot", "controls": [i], "target": i + 1} for i in range(1, n)]
        text = json.dumps({"n": n, "initial": {"basis": bits}, "ops": ops})
        return json.loads(text)

    def _one(self, payload: dict, shot_seed: int):
        n = payload["n"]
        circuit = cli.load_circuit_payload(payload, label=f"ghz({n})")
        run = circuit_catalog.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
        plan = born_sampler.MeasurementPlan(
            measured=tuple(range(1, n + 1)), sample_count=self.SHOTS, seed=shot_seed
        )
        return born_sampler.sample(run.state, plan), run.state.ranks

    def warm_up(self) -> None:
        self._one(self.payload("010110"), self.seed)

    def inputs(self, k: int):
        rng = job_rng(self.seed, k)
        cases = []
        for n in self.SIZES:
            bits = "".join(map(str, rng.integers(0, 2, n)))
            cases.append((bits, self.payload(bits), int(rng.integers(2 ** 31))))
        return cases

    def job(self, inputs):
        parts, outputs = {}, []
        for _, payload, shot_seed in inputs:
            begin = time.perf_counter()
            outputs.append(self._one(payload, shot_seed))
            gate_ms = (time.perf_counter() - begin) * 1e3 / payload["n"]
            parts[f"gate_ms.n{payload['n']}"] = (gate_ms, "ms")
        return parts, outputs

    def once(self):
        return []

    def check(self, k, inputs, outputs):
        return [
            (f"ghz({len(bits)})", checks.check_ghz(report.counts, bits, self.SHOTS, ranks))
            for (bits, _, _), (report, ranks) in zip(inputs, outputs)
        ]


class FourierFactoring:
    """QFT(64) round trip, the seven factoring-15 runs and modexp(2, 21)."""

    name = "fourier-factoring"
    unit = 1
    QFT_SIZE = 64
    MODEXP = (2, 21)
    PROBES = 6

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def _roundtrip(self, state):
        n = state.n
        forward = circuit_catalog.run_gate_sequence(circuit_catalog.qft_sequence(n), state)
        return circuit_catalog.run_gate_sequence(
            circuit_catalog.inverse_qft_sequence(n), forward.state
        ).state

    def warm_up(self) -> None:
        self._roundtrip(tensor_core.basis_state_mps([1, 0, 1, 1, 0, 1]))
        circuit_catalog.shor_run(7)

    def inputs(self, k: int):
        rng = job_rng(self.seed, k)
        bits = [int(b) for b in rng.integers(0, 2, self.QFT_SIZE)]
        n_input = 2 * circuit_catalog.target_register_size(self.MODEXP[1])
        probes = [int(x) for x in rng.integers(0, 2 ** n_input, self.PROBES)]
        return bits, tensor_core.basis_state_mps(bits), probes

    def job(self, inputs):
        _, state, _ = inputs
        t0 = time.perf_counter()
        back = self._roundtrip(state)
        t1 = time.perf_counter()
        shor = [circuit_catalog.shor_run(a) for a in circuit_catalog.SHOR_BASES]
        t2 = time.perf_counter()
        op = circuit_catalog.modular_exponentiation_mpo(*self.MODEXP)
        t3 = time.perf_counter()
        parts = {"qft_roundtrip_s": (t1 - t0, "s"), "shor_s": (t2 - t1, "s"), "modexp21_s": (t3 - t2, "s")}
        return parts, (back, shor, op)

    def once(self):
        n = 8
        rng = np.random.default_rng(self.seed)
        inputs = [[int(b) for b in rng.integers(0, 2, n)] for _ in range(4)]
        groups = circuit_catalog.qft_sequence(n).groups
        return [(f"qft({n}) vs dense DFT", checks.check_qft_dense(groups, n, inputs))]

    def check(self, k, inputs, output):
        bits, _, probes = inputs
        back, shor, op = output
        entries = [(f"qft({self.QFT_SIZE}) round trip", checks.check_roundtrip(back, bits))]
        entries += [(f"shor_run({r.a})", checks.check_shor(r)) for r in shor]
        entries.append(("modexp(2, 21)", checks.check_modexp(op, *self.MODEXP, probes)))
        return entries


WORKLOADS = {w.name: w for w in (AdderSampling, GhzGates, FourierFactoring)}
