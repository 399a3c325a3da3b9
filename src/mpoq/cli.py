"""Command-line front end: simulate circuits, benchmark, verify golden values.

Circuits come either from a JSON description (schema below) or from the
builtin registry ``circuit_catalog.BUILTINS``: ``qfa``, ``qfa-network(count)``,
``simon``, ``qft(n)``, ``inverse-qft(n)``, ``shor(a)``.  Measurement output is
written as CSV or JSON and is byte-stable for a fixed circuit, seed and
package version.

Exit codes: 0 success, 2 malformed circuit description or command line
(including an exact output above the dense cap), 3 numerical failure,
4 zero-probability postselection.  Every failure prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time
from dataclasses import dataclass

import jsonschema
import numpy as np

from . import __version__, circuit_catalog as catalog, dense_oracle
from .born_sampler import (
    MeasurementPlan,
    NegativeProbabilityError,
    SampleReport,
    ZeroProbabilityError,
    marginal_distribution,
    sample,
)
from .gate_library import GatePlacement, hadamard_layer, single_qubit_gate
from .tensor_core import (
    DEFAULT_POLICY,
    MPO,
    MPS,
    DenseCapExceeded,
    TruncationPolicy,
    basis_state_mps,
    named_state_mps,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_ZERO_POSTSELECT = 4


class CircuitSpecError(ValueError):
    """Malformed circuit description or CLI arguments (exit code 2)."""


CIRCUIT_SCHEMA = {
    "type": "object",
    "required": ["n", "ops"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "initial": {
            "oneOf": [
                {"const": "zeros"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"basis": {"type": "string", "pattern": "^[01]+$"}},
                    "required": ["basis"],
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"named": {"type": "string"}},
                    "required": ["named"],
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "hadamard_on": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 1},
                        }
                    },
                    "required": ["hadamard_on"],
                },
            ]
        },
        "ops": {
            "type": "array",
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["gate", "target"],
                        "properties": {
                            "gate": {
                                "enum": ["h", "x", "phase", "rk", "cnot", "cphase", "ccnot"]
                            },
                            "target": {"type": "integer", "minimum": 1},
                            "controls": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 1},
                            },
                            "phi": {"type": "number"},
                            "k": {"type": "integer", "minimum": 1},
                        },
                    },
                    {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["builtin"],
                        "properties": {
                            "builtin": {"type": "string"},
                            "params": {"type": "object"},
                        },
                    },
                ]
            },
        },
        "policy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rel_threshold": {"type": "number", "minimum": 0},
                "max_rank": {"type": ["integer", "null"], "minimum": 1},
            },
        },
    },
}

_CONTROL_COUNTS = {"cnot": 1, "cphase": 1, "ccnot": 2}


@dataclass
class LoadedCircuit:
    """A ready-to-run circuit plus its presentation metadata."""

    label: str
    n: int
    initial: MPS
    sequence: catalog.GateGroupSequence
    policy: TruncationPolicy
    default_measure: tuple[int, ...]
    shor_base: int | None = None


# ---------------------------------------------------------------------------
# circuit loading


def _policy_from_payload(payload) -> TruncationPolicy:
    policy = payload.get("policy") or {}
    return TruncationPolicy(
        rel_threshold=policy.get("rel_threshold", DEFAULT_POLICY.rel_threshold),
        max_rank=policy.get("max_rank"),
    )


def _initial_state(payload, n: int) -> MPS:
    choice = payload.get("initial", "zeros")
    if choice == "zeros":
        return basis_state_mps([0] * n)
    if "basis" in choice:
        bits = [int(c) for c in choice["basis"]]
        if len(bits) != n:
            raise CircuitSpecError(f"basis string length {len(bits)} != n={n}")
        return basis_state_mps(bits)
    if "named" in choice:
        try:
            return named_state_mps(choice["named"], n)
        except ValueError as exc:
            raise CircuitSpecError(str(exc)) from exc
    positions = choice["hadamard_on"]
    if any(p > n for p in positions):
        raise CircuitSpecError(f"hadamard_on positions {positions} outside register")
    return hadamard_layer(positions, n).apply(basis_state_mps([0] * n))


def _gate_op_mpo(op, n: int) -> MPO:
    name = op["gate"]
    controls = tuple(op.get("controls", ()))
    want = _CONTROL_COUNTS.get(name)
    if want is not None and len(controls) != want:
        raise CircuitSpecError(f"gate {name!r} needs exactly {want} control(s), got {len(controls)}")
    base = {"cnot": "x", "ccnot": "x", "cphase": "rk"}.get(name, name)
    try:
        matrix = single_qubit_gate(base, phi=op.get("phi"), k=op.get("k"))
        placement = GatePlacement(matrix, target=op["target"], controls=controls, name=name)
        return placement.to_mpo(n)
    except ValueError as exc:
        raise CircuitSpecError(str(exc)) from exc


def _build_builtin(name: str, arg):
    try:
        return catalog.build_builtin(name, arg)
    except ValueError as exc:
        raise CircuitSpecError(str(exc)) from exc


def _builtin_groups(name: str, params, n: int) -> tuple[MPO, ...]:
    if name == "shor":
        raise CircuitSpecError("builtin shor reads its output reversed; use --builtin shor(a)")
    entry = catalog.BUILTINS.get(name)
    params = dict(params)
    arg = params.pop(entry.arg, None) if entry and entry.arg else None
    sequence, _, _ = _build_builtin(name, arg)
    if params:
        raise CircuitSpecError(f"builtin {name} has no parameter {', '.join(params)}")
    if sequence.n != n:
        raise CircuitSpecError(f"builtin {sequence.label} acts on {sequence.n} qubits, not n={n}")
    return sequence.groups


def load_circuit_payload(payload, label: str) -> LoadedCircuit:
    """Validate a parsed JSON circuit description and build its sequence."""
    try:
        jsonschema.validate(payload, CIRCUIT_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise CircuitSpecError(f"circuit description invalid: {exc.message}") from exc
    n = payload["n"]
    groups: list[MPO] = []
    for op in payload["ops"]:
        if "gate" in op:
            groups.append(_gate_op_mpo(op, n))
        else:
            groups.extend(_builtin_groups(op["builtin"], op.get("params", {}), n))
    sequence = catalog.GateGroupSequence(groups=tuple(groups), label=label)
    return LoadedCircuit(
        label=label,
        n=n,
        initial=_initial_state(payload, n),
        sequence=sequence,
        policy=_policy_from_payload(payload),
        default_measure=tuple(range(1, n + 1)),
    )


_BUILTIN_RE = re.compile(r"^([a-z-]+)(?:\((\d+)\))?$")


def load_builtin(text: str) -> LoadedCircuit:
    """Resolve a builtin name like ``shor(7)`` into a runnable circuit."""
    match = _BUILTIN_RE.match(text.strip())
    if not match:
        raise CircuitSpecError(f"cannot parse builtin {text!r}")
    name, arg = match.group(1), match.group(2)
    arg = int(arg) if arg is not None else None
    sequence, initial, readout = _build_builtin(name, arg)
    return LoadedCircuit(
        label=sequence.label,
        n=sequence.n,
        initial=initial,
        sequence=sequence,
        policy=DEFAULT_POLICY,
        default_measure=readout,
        shor_base=arg if name == "shor" else None,
    )


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_positions(text: str, n: int) -> tuple[int, ...]:
    if text.strip().lower() == "all":
        return tuple(range(1, n + 1))
    positions: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part:
                lo, hi = part.split("-", 1)
                positions.extend(range(int(lo), int(hi) + 1))
            else:
                positions.append(int(part))
        except ValueError:
            raise CircuitSpecError(f"bad position {part!r} in {text!r}") from None
    if not positions:
        raise CircuitSpecError(f"empty position list {text!r}")
    out = tuple(sorted(set(positions)))
    if out[0] < 1 or out[-1] > n:
        raise CircuitSpecError(f"positions {out} outside register [1, {n}]")
    return out


def _parse_postselect(text: str, n: int) -> dict[int, int]:
    assignment: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pos, _, bit = part.partition("=")
        try:
            assignment[int(pos)] = int(bit)
        except ValueError:
            raise CircuitSpecError(f"postselect entry {part!r} must look like position=bit") from None
    for p, b in assignment.items():
        if not 1 <= p <= n or b not in (0, 1):
            raise CircuitSpecError(f"bad postselect entry {p}={b}")
    return assignment


def _reverse_keys(mapping):
    return {key[::-1]: value for key, value in mapping.items()}


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    if bool(args.circuit) == bool(args.builtin):
        raise CircuitSpecError("choose exactly one of --circuit FILE or --builtin NAME")
    if args.circuit:
        try:
            with open(args.circuit, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CircuitSpecError(f"cannot read circuit file: {exc}") from exc
        circuit = load_circuit_payload(payload, label=args.circuit)
    else:
        circuit = load_builtin(args.builtin)

    measured = (
        _parse_positions(args.measure, circuit.n) if args.measure else circuit.default_measure
    )
    postselect = _parse_postselect(args.postselect, circuit.n) if args.postselect else {}
    try:
        plan = MeasurementPlan(
            measured=measured,
            sample_count=args.samples,
            seed=args.seed,
            postselect=postselect,
        )
    except ValueError as exc:
        raise CircuitSpecError(str(exc)) from exc

    run = catalog.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
    try:
        report = sample(run.state, plan)
    except DenseCapExceeded as exc:
        raise CircuitSpecError(
            f"{exc}; draw samples with --samples N or measure fewer qubits with --measure"
        ) from exc

    shor_rows = None
    if circuit.shor_base is not None and measured == circuit.default_measure:
        # reversed reading happens here so outputs are the phase estimates
        report = SampleReport(
            n=report.n,
            sample_count=report.sample_count,
            seed=report.seed,
            measured=report.measured,
            counts=_reverse_keys(report.counts),
            probabilities=None
            if report.probabilities is None
            else _reverse_keys(report.probabilities),
            elapsed_seconds=report.elapsed_seconds,
        )
        support = report.probabilities if report.probabilities else report.frequencies()
        shor_rows = [
            catalog.extract_period(int(key, 2), 2 ** len(measured), circuit.shor_base, catalog.SHOR_MODULUS)
            for key in sorted(support)
        ]

    _write_report(report, args.out, args.format, shor_rows)
    _print_summary(circuit, run, report, shor_rows)
    return EXIT_OK


def _write_report(report: SampleReport, out: str | None, fmt: str, shor_rows) -> None:
    if not out:
        return
    if fmt == "csv":
        text = report.to_csv_text()
    else:
        payload = report.to_json_dict()
        payload["version"] = __version__
        if shor_rows is not None:
            payload["period_extraction"] = [
                {
                    "y": row.y,
                    "period": row.period,
                    "factors": list(row.factors) if row.factors else None,
                    "failure": row.failure,
                }
                for row in shor_rows
            ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)


def _print_summary(circuit: LoadedCircuit, run, report: SampleReport, shor_rows) -> None:
    ranks = ";".join(str(max(r)) for r in run.rank_history)
    print(f"circuit {circuit.label}: n={circuit.n}, max rank per step [{ranks}]")
    print(
        f"measured {list(report.measured)} with s={report.sample_count}, "
        f"seed={report.seed} ({report.elapsed_seconds:.3f} s)"
    )
    rows = sorted(
        report.counts.items() if report.counts else (report.probabilities or {}).items(),
        key=lambda kv: -kv[1],
    )
    for key, value in rows[:8]:
        prob = "" if report.probabilities is None else f"  p={report.probabilities.get(key, 0.0):.6f}"
        print(f"  {key}  {value}{prob}")
    if len(rows) > 8:
        print(f"  ... {len(rows) - 8} more outcomes")
    if shor_rows:
        for row in shor_rows:
            outcome = f"factors {row.factors}" if row.factors else f"no factors ({row.failure})"
            print(f"  y={row.y}: period candidate q={row.period}, {outcome}")


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    sizes = [s.strip() for s in args.sizes.split(",")] if args.sizes else [""]
    lines = ["builtin,size,n_qubits,samples,repeats,mean_seconds,std_seconds,max_rank,rank_trajectory"]
    for size in sizes:
        times = []
        trajectory = ""
        max_rank = 0
        for repeat in range(args.repeats):
            circuit = load_builtin(f"{args.builtin}({size})" if size else args.builtin)
            initial = circuit.initial
            if args.builtin in ("qft", "inverse-qft"):
                rng = np.random.default_rng((args.seed, circuit.n, repeat))
                initial = basis_state_mps(rng.integers(0, 2, circuit.n))
            begin = time.perf_counter()
            run = catalog.run_gate_sequence(circuit.sequence, initial, circuit.policy)
            plan = MeasurementPlan(
                measured=circuit.default_measure,
                sample_count=args.samples,
                seed=args.seed + repeat,
                exact_probabilities=False,
            )
            sample(run.state, plan)
            times.append(time.perf_counter() - begin)
            trajectory = ";".join(str(max(r)) for r in run.rank_history)
            max_rank = max((max(r) for r in run.rank_history), default=1)
        mean = statistics.fmean(times)
        std = statistics.stdev(times) if len(times) > 1 else 0.0
        lines.append(
            f"{args.builtin},{size},{circuit.n},{args.samples},{args.repeats},"
            f"{mean:.6f},{std:.6f},{max_rank},{trajectory}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check_qfa() -> tuple[bool, str]:
    adder = catalog.full_adder_mpo()
    product = None
    for placement in catalog.full_adder_gate_placements():
        mpo = placement.to_mpo(4)
        product = mpo if product is None else mpo @ product
    if not np.allclose(adder.to_dense(), product.to_dense(), atol=1e-12):
        return False, "closed form differs from the five-gate product"
    for value in range(8):
        c_in, a, b = value >> 2 & 1, value >> 1 & 1, value & 1
        state = basis_state_mps([c_in, a, b, 0])
        out = adder.apply(state).to_dense()
        s, c_out = dense_oracle.full_adder_truth(c_in, a, b)
        expected = dense_oracle.basis_state([s, a, b, c_out])
        if np.max(np.abs(out - expected)) > 1e-12:
            return False, f"truth table mismatch at input {c_in}{a}{b}0"
    return True, "truth table and closed-form equivalence hold"


def _check_simon() -> tuple[bool, str]:
    result = catalog.run_gate_sequence(
        catalog.GateGroupSequence((catalog.simon_circuit_mpo(),), label="simon"),
        basis_state_mps([0] * 8),
    )
    marginal = marginal_distribution(result.state, catalog.SIMON_FIRST_REGISTER).reshape(-1)
    support = {format(i, "04b") for i in np.nonzero(marginal > 1e-12)[0]}
    if support != set(catalog.SIMON_SUPPORT):
        return False, f"support {sorted(support)} differs from the expected solution set"
    if np.max(np.abs(marginal[marginal > 1e-12] - 0.125)) > 1e-12:
        return False, "support probabilities are not uniform at 1/8"
    solutions = catalog.solve_hidden_string(support)
    if solutions != [catalog.SIMON_HIDDEN_STRING]:
        return False, f"hidden-string recovery produced {solutions}"
    return True, "marginal support, probabilities and hidden string all match"


def _check_qft() -> tuple[bool, str]:
    n = 6
    sequence = catalog.qft_sequence(n)
    dft = dense_oracle.dft_matrix(n)
    reversal = dense_oracle.bit_reversal_permutation(n)
    rng = np.random.default_rng(7)
    for _ in range(5):
        bits = rng.integers(0, 2, n)
        run = catalog.run_gate_sequence(sequence, basis_state_mps(bits))
        index = int("".join(map(str, bits)), 2)
        expected = dft[reversal, index]
        if np.max(np.abs(run.state.to_dense() - expected)) > 1e-10:
            return False, f"transform of basis state {index} deviates from the reference"
    return True, "pipeline matches the dense reference transform"


def _check_shor() -> tuple[bool, str]:
    expected_support = {
        2: (0, 64, 128, 192), 7: (0, 64, 128, 192), 8: (0, 64, 128, 192), 13: (0, 64, 128, 192),
        4: (0, 128), 11: (0, 128), 14: (0, 128),
    }
    expected_rank = {2: 4, 7: 4, 8: 4, 13: 4, 4: 2, 11: 2, 14: 2}
    for a in catalog.SHOR_BASES:
        result = catalog.shor_run(a)
        if result.support != expected_support[a]:
            return False, f"a={a}: support {result.support}"
        if max(result.final_ranks) != expected_rank[a]:
            return False, f"a={a}: final rank {max(result.final_ranks)}"
        closed = catalog.shor_closed_form_mpo(a)
        generic = catalog.modular_exponentiation_mpo(a)
        for x in (0, 1, 5, 77, 255):
            probe = basis_state_mps([int(c) for c in format(x, "08b")] + [0, 0, 0, 0])
            got = generic.apply(probe).to_dense()
            want = dense_oracle.basis_state(
                [int(c) for c in format(x, "08b") + format(pow(a, x, 15), "04b")]
            )
            if np.max(np.abs(got - want)) > 1e-12:
                return False, f"a={a}: operator action wrong on input {x}"
            if np.max(np.abs(closed.apply(probe).to_dense() - want)) > 1e-12:
                return False, f"a={a}: closed form differs on input {x}"
    rows = catalog.shor_run(7).extractions
    got = {row.y: (row.period, row.factors) for row in rows}
    want = {0: (1, None), 64: (4, (3, 5)), 128: (2, (3, 1)), 192: (4, (3, 5))}
    if got != want:
        return False, f"a=7 extraction table {got}"
    return True, "supports, ranks, operators and a=7 extraction rows all match"


_VERIFY_CHECKS = {"qfa": _check_qfa, "simon": _check_simon, "qft": _check_qft, "shor": _check_shor}


def cmd_verify(args) -> int:
    selected = _VERIFY_CHECKS if args.only is None else tuple(
        name for name in _VERIFY_CHECKS if name in {s.strip() for s in args.only.split(",")}
    )
    if not selected:
        print("warning: no checks selected, vacuous pass")
        return EXIT_OK
    failures = 0
    for name in selected:
        ok, detail = _VERIFY_CHECKS[name]()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`CircuitSpecError` (exit 2)."""

    def error(self, message):
        raise CircuitSpecError(message)


def _at_least(minimum: int):
    """argparse ``type`` accepting integers of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mpoq",
        description="Tensor-network quantum circuit simulator (low-rank operator chains)",
    )
    parser.add_argument("--version", action="version", version=f"mpoq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a circuit and emit distributions or samples")
    sim.add_argument("--circuit", help="JSON circuit description file")
    sim.add_argument("--builtin", help="builtin circuit, e.g. simon, qft(10), shor(7)")
    sim.add_argument("--samples", type=_at_least(0), default=0, help="number of samples (0: exact only)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--measure", help="positions, e.g. '1,3,5-8' or 'all'")
    sim.add_argument("--postselect", help="fixed bits, e.g. '2=0,4=1'")
    sim.add_argument("--out", help="output file path")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="timing table over circuit sizes (CSV)")
    bench.add_argument("builtin", choices=tuple(catalog.BUILTINS), help="builtin name")
    bench.add_argument("--sizes", help="comma-separated sizes (adder count, qubits, or base)")
    bench.add_argument("--samples", type=_at_least(0), default=10_000)
    bench.add_argument("--repeats", type=_at_least(1), default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="output CSV path")
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="run the golden-value checks")
    verify.add_argument("--only", help="comma-separated subset of checks to run")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CircuitSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_POSTSELECT
    except (NegativeProbabilityError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
