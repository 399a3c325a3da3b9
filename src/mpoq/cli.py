"""Command-line front end: simulate circuits, benchmark, verify golden values.

Circuits come either from a JSON description (``load_circuit_payload``) or
from the builtin registry ``circuit_catalog.BUILTINS``: ``qfa``,
``qfa-network(count)``, ``simon``, ``qft(n)``, ``inverse-qft(n)``, ``shor(a)``;
either way the result is one ``circuit_catalog.Circuit``.
Measurement output is written as CSV or JSON and is byte-stable for a fixed
circuit, seed and package version.

Exit codes: 0 success, 2 bad input (a malformed circuit or command line, an
exact output above the dense cap, a run out of memory), 3 numerical failure,
4 zero-probability postselection.  Every failure prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import math
import re
import statistics
import sys
import time
from dataclasses import asdict

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
from .gate_library import HADAMARD, PAULI_X, GatePlacement, hadamard_layer, phase_shift, phase_shift_k
from .tensor_core import (
    DEFAULT_POLICY,
    MPO,
    MPS,
    DenseCapExceeded,
    TruncationPolicy,
    basis_state_mps,
    clipped,
    dense_cap,
    named_state_mps,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_ZERO_POSTSELECT = 4

#: A run whose squared norm is further than this from 1 says so in its summary.
_NORM_LOSS_REPORTED = 1e-10


class CircuitSpecError(ValueError):
    """Malformed circuit description or CLI arguments (exit code 2)."""


#: JSON gate name -> (2x2 matrix or its builder from the parameter, control
#: count or None for any, parameter); the one map from gate name to matrix
_GATES = {
    "h": (HADAMARD, None, None),
    "x": (PAULI_X, None, None),
    "phase": (phase_shift, None, "phi"),
    "rk": (phase_shift_k, None, "k"),
    "cnot": (PAULI_X, 1, None),
    "cphase": (phase_shift_k, 1, "k"),
    "ccnot": (PAULI_X, 2, None),
}


# ---------------------------------------------------------------------------
# circuit loading


def _invalid(path: str, what: str) -> CircuitSpecError:
    return CircuitSpecError(f"circuit description invalid: {path}: {what}")


@contextlib.contextmanager
def _reported(path: str | None = None):
    """Report a ``ValueError`` from the library as bad input (exit 2), as
    invalid input at ``path`` when one is given."""
    try:
        yield
    except ValueError as exc:
        raise (CircuitSpecError(str(exc)) if path is None else _invalid(path, str(exc))) from exc


def _got(value) -> str:
    return clipped(json.dumps(value, default=repr))


def _fields(value, path: str, required=(), optional=()) -> dict:
    """``value``, checked to be a JSON object with every ``required`` key and no
    key outside ``required`` and ``optional``."""
    if not isinstance(value, dict):
        raise _invalid(path or "top level", f"must be an object, got {_got(value)}")
    for key in (*required, *value):
        if (key in value) != (key in required or key in optional):
            what = "missing" if key in required else "unexpected field"
            raise _invalid(f"{path}.{key}" if path else key, what)
    return value


def _integer(value, path: str, low: int, high: int | None = None) -> int:
    """A JSON integer in ``[low, high]``; ``true`` and ``3.0`` are not integers."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise _invalid(path, f"must be an integer {bound}, got {_got(value)}")
    return value


def _number(value, path: str, low: float = -math.inf) -> float:
    """A finite JSON number of at least ``low``; NaN and infinities are not."""
    if type(value) not in (int, float) or not (low <= value and abs(value) <= sys.float_info.max):
        bound = "" if low == -math.inf else f" >= {low}"
        raise _invalid(path, f"must be a finite number{bound}, got {_got(value)}")
    return value


def _positions(value, path: str, n: int) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise _invalid(path, f"must be a list of qubit positions, got {_got(value)}")
    return tuple(_integer(p, f"{path}[{i}]", 1, n) for i, p in enumerate(value))


def _policy(policy) -> TruncationPolicy:
    _fields(policy, "policy", optional=("rel_threshold", "max_rank"))
    rel_threshold = policy.get("rel_threshold", DEFAULT_POLICY.rel_threshold)
    max_rank = policy.get("max_rank")
    return TruncationPolicy(
        rel_threshold=_number(rel_threshold, "policy.rel_threshold", 0),
        max_rank=None if max_rank is None else _integer(max_rank, "policy.max_rank", 1),
    )


def _initial_state(choice, n: int) -> MPS:
    if choice == "zeros":
        return basis_state_mps([0] * n)
    if not isinstance(choice, dict) or len(choice) != 1:
        raise _invalid("initial", f'must be "zeros" or an object with one key, got {_got(choice)}')
    ((kind, value),) = choice.items()
    path = f"initial.{kind}"
    if kind == "basis":
        if not (isinstance(value, str) and len(value) == n and set(value) <= {"0", "1"}):
            raise _invalid(path, f"must be a string of {n} binary digits, got {_got(value)}")
        return basis_state_mps([int(c) for c in value])
    if kind == "named":
        if not isinstance(value, str):
            raise _invalid(path, f"must be a string, got {_got(value)}")
        with _reported(path):
            return named_state_mps(value, n)
    if kind == "hadamard_on":
        positions = _positions(value, path, n)
        with _reported(path):
            return hadamard_layer(positions, n).apply(basis_state_mps([0] * n))
    raise _invalid(path, "unexpected field")


def _gate_placement(op, path: str, n: int) -> GatePlacement:
    name = op["gate"]
    if not isinstance(name, str) or name not in _GATES:
        raise _invalid(f"{path}.gate", f"must be one of {', '.join(_GATES)}, got {_got(name)}")
    matrix, count, parameter = _GATES[name]
    required = ("gate", "target") if parameter is None else ("gate", "target", parameter)
    _fields(op, path, required, ("controls",))
    target = _integer(op["target"], f"{path}.target", 1, n)
    controls = _positions(op.get("controls", []), f"{path}.controls", n)
    if count is not None and len(controls) != count:
        raise _invalid(f"{path}.controls", f"gate {name!r} takes exactly {count}, got {len(controls)}")
    if parameter == "phi":
        matrix = matrix(_number(op["phi"], f"{path}.phi"))
    elif parameter == "k":
        matrix = matrix(_integer(op["k"], f"{path}.k", 1))
    return GatePlacement(matrix, target, controls)


def _builtin_groups(op, path: str, n: int) -> tuple[MPO, ...]:
    name = _fields(op, path, ("builtin",), ("params",))["builtin"]
    entry = catalog.BUILTINS.get(name) if isinstance(name, str) else None
    if entry is None or name == "shor":  # shor's reversed readout needs --builtin shor(a)
        known = ", ".join(b for b in catalog.BUILTINS if b != "shor")
        raise _invalid(f"{path}.builtin", f"must be one of {known}, got {_got(name)}")
    params = _fields(op.get("params", {}), f"{path}.params", optional=(entry.arg,))
    arg = params.get(entry.arg)
    # the register size is compared before the build; an argument that is
    # missing, not an integer or below 1 is left to build_builtin's checks
    if entry.arg is None or (type(arg) is int and arg >= 1):
        qubits = entry.qubits(arg)
        if qubits != n:
            label = name if entry.arg is None else f"{name}({arg})"
            where = path if entry.arg is None else f"{path}.params.{entry.arg}"
            raise _invalid(where, f"builtin {label} acts on {qubits} qubits, not n={n}")
    with _reported(f"{path}.params"):
        return catalog.build_builtin(name, arg).sequence.groups


def load_circuit_payload(payload, label: str) -> catalog.Circuit:
    """Validate a parsed JSON circuit description and build its circuit.

    Each field is checked once, as the circuit is built; the first bad one
    raises :class:`CircuitSpecError` naming its path, e.g. ``ops[3].target``.
    The entry whose stored operator cores take the sum above
    ``circuit_catalog.MAX_CORES`` is rejected; a gate's window is counted
    before the gate is lifted.
    """
    _fields(payload, "", ("n", "ops"), ("initial", "policy"))
    n = _integer(payload["n"], "n", 1, catalog.MAX_QUBITS)
    policy = _policy(payload.get("policy", {}))
    initial = _initial_state(payload.get("initial", "zeros"), n)
    if not isinstance(payload["ops"], list):
        raise _invalid("ops", f"must be a list, got {_got(payload['ops'])}")
    groups: list[MPO] = []
    stored = 0
    for i, op in enumerate(payload["ops"]):
        path = f"ops[{i}]"
        if not isinstance(op, dict) or not {"gate", "builtin"} & op.keys():
            raise _invalid(path, f"must be a gate or builtin object, got {_got(op)}")
        if "builtin" in op:
            new = _builtin_groups(op, path, n)
            stored += sum(len(group.cores) for group in new)
        else:
            gate = _gate_placement(op, path, n)
            positions = (gate.target, *gate.controls)
            stored += max(positions) - min(positions) + 1
        with _reported(path):
            catalog.check_core_budget(stored, "the circuit")
            groups += new if "builtin" in op else [gate.to_mpo(n)]
    sequence = catalog.GateGroupSequence(groups=tuple(groups), label=label)
    return catalog.Circuit(sequence, initial, tuple(range(1, n + 1)), policy)


#: a number typed on the command line: ASCII decimal digits only (no sign,
#: underscore or other script), few enough for ``int()``'s 4,300-digit limit
_NUMBER = r"([0-9]{1,4300})"

_BUILTIN_RE = re.compile(rf"([a-z-]+)(?:\({_NUMBER}\))?", re.ASCII)


def load_builtin(text: str) -> catalog.Circuit:
    """Resolve a builtin name like ``shor(7)`` into its registry circuit."""
    match = _BUILTIN_RE.fullmatch(text.strip())
    if not match:
        raise CircuitSpecError(f"cannot parse builtin {_got(text)}")
    name, arg = match.groups()
    with _reported():
        return catalog.build_builtin(name, int(arg) if arg is not None else None)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _entries(text: str, what: str, pattern: str) -> list[tuple]:
    """The match groups of each comma-separated entry of ``text``, stripped
    and fully matched against the ASCII ``pattern``; an empty or
    non-matching entry is an error naming it."""
    groups = []
    for entry in text.split(","):
        match = re.fullmatch(pattern, entry.strip(), re.ASCII)
        if match is None:
            raise CircuitSpecError(f"bad {what} {_got(entry.strip())}")
        groups.append(match.groups())
    return groups


def _parse_positions(text: str, n: int) -> tuple[int, ...]:
    """Sorted positions from ``all`` or a list like ``1,3,5-8``; an empty
    entry, a range that runs backwards, a position outside ``[1, n]`` or one
    given twice is an error."""
    if text.strip().lower() == "all":
        return tuple(range(1, n + 1))
    positions: list[int] = []
    for lo, hi in _entries(text, "position", rf"{_NUMBER}(?:\s*-\s*{_NUMBER})?"):
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise CircuitSpecError(f"range {lo}-{hi} in {text!r} runs backwards")
        if lo < 1 or hi > n:
            raise CircuitSpecError(f"position {lo if lo < 1 else hi} outside register [1, {n}]")
        positions.extend(range(lo, hi + 1))
    out = tuple(sorted(positions))
    if len(set(out)) != len(out):
        raise CircuitSpecError(f"position list {text!r} names a qubit more than once")
    return out


def _parse_postselect(text: str, n: int) -> dict[int, int]:
    """``{position: bit}`` from a list like ``2=0,4=1``; a position outside
    ``[1, n]`` or given twice is an error."""
    assignment: dict[int, int] = {}
    for pos, bit in _entries(text, "postselect entry", rf"{_NUMBER}\s*=\s*([01])"):
        pos = int(pos)
        if not 1 <= pos <= n:
            raise CircuitSpecError(f"postselect position {pos} outside register [1, {n}]")
        if pos in assignment:
            raise CircuitSpecError(f"postselect position {pos} given more than once")
        assignment[pos] = int(bit)
    return assignment


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

    n = circuit.initial.n
    measured = _parse_positions(args.measure, n) if args.measure is not None else circuit.readout
    postselect = _parse_postselect(args.postselect, n) if args.postselect is not None else {}
    with _reported():
        plan = MeasurementPlan(
            measured=measured,
            sample_count=args.samples,
            seed=args.seed,
            postselect=postselect,
        )

    _check_writable(args.out)
    run, report = _run(circuit, plan)

    shor_rows = None
    if circuit.shor_base is not None and measured == circuit.readout:
        report, shor_rows = catalog.shor_readout(circuit.shor_base, report)

    _write_report(report, args.out, args.format, shor_rows)
    _print_summary(circuit, run, report, shor_rows)
    return EXIT_OK


def _run(circuit: catalog.Circuit, plan: MeasurementPlan):
    """Run ``circuit`` and sample its final state by ``plan``; an exact output
    above the dense cap or running out of memory is bad input (exit 2)."""
    stage = "executor"
    try:
        run = catalog.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
        stage = "sampler"
        return run, sample(run.state, plan)
    except DenseCapExceeded as exc:
        raise CircuitSpecError(
            f"{exc}; draw samples with --samples N or measure fewer qubits with --measure"
        ) from exc
    except MemoryError as exc:
        raise CircuitSpecError(f"the {stage} ran out of memory: {str(exc) or 'MemoryError'}; "
                               "bound the bond rank with policy.max_rank in a JSON circuit") from exc


def _write_report(report: SampleReport, out: str | None, fmt: str, shor_rows) -> None:
    if not out:
        return
    if fmt == "csv":
        texts = report.csv_lines()  # streamed line by line, never the whole text
    else:
        payload = report.to_json_dict()
        payload["version"] = __version__
        if shor_rows is not None:
            payload["period_extraction"] = [asdict(row) for row in shor_rows]
        texts = [json.dumps(payload, indent=2, sort_keys=True) + "\n"]
    _write(out, texts)


def _write(out: str, texts, mode: str = "w") -> None:
    """Write ``texts`` to the file ``out``; an ``OSError`` is bad input (exit 2)."""
    try:
        with open(out, mode, encoding="utf-8") as handle:
            handle.writelines(texts)
    except OSError as exc:
        raise CircuitSpecError(f"cannot write {_got(out)}: {exc.strerror or exc}") from exc


def _check_writable(out: str | None) -> None:
    """Fail before the run (exit 2) if ``out`` cannot be opened for writing;
    a missing file is created empty, an existing one is left as it is."""
    if out:
        _write(out, [], "a")


def _print_summary(circuit: catalog.Circuit, run, report: SampleReport, shor_rows) -> None:
    ranks = ";".join(str(max(r)) for r in run.rank_history)
    print(f"circuit {circuit.sequence.label}: n={circuit.initial.n}, max rank per step [{ranks}]")
    print(
        f"measured {list(report.measured)} with s={report.sample_count}, "
        f"seed={report.seed} ({report.elapsed_seconds:.3f} s)"
    )
    # the run state is right-orthonormal: its norm is its first core's.  Each cut
    # scaled it by 1 - (discarded weight), a fidelity estimate, not a bound
    norm2 = float(np.linalg.norm(run.state.cores[0])) ** 2
    if abs(1.0 - norm2) > _NORM_LOSS_REPORTED:
        print(f"truncation left squared norm {norm2:.12g} (lost {1.0 - norm2:.3e}); "
              "outcome probabilities are renormalized")
    if report.clamped_mass > 0:
        print(f"clamped probability mass {report.clamped_mass:.3e} (negative rounding noise set to 0)")
    # largest count first, ties by bitstring, so the lines do not depend on
    # the order the sampler's blocks inserted the outcomes in
    outcomes = report.counts or report.probabilities or {}
    for key, value in heapq.nsmallest(8, outcomes.items(), key=lambda kv: (-kv[1], kv[0])):
        prob = "" if report.probabilities is None else f"  p={report.probabilities.get(key, 0.0):.6f}"
        print(f"  {key}  {value}{prob}")
    if len(outcomes) > 8:
        print(f"  ... {len(outcomes) - 8} more outcomes")
    if shor_rows:
        for row in shor_rows:
            outcome = f"factors {row.factors}" if row.factors else f"no factors ({row.failure})"
            print(f"  y={row.y}: period candidate q={row.period}, {outcome}")


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    sizes = [None]
    if args.sizes is not None:
        sizes = [int(size) for (size,) in _entries(args.sizes, "size", _NUMBER)]
    lines = ["builtin,size,n_qubits,samples,repeats,mean_seconds,std_seconds,max_rank,rank_trajectory"]
    _check_writable(args.out)
    for size in sizes:
        times = []
        with _reported():
            circuit = catalog.build_builtin(args.builtin, size)
        for repeat in range(args.repeats):
            begin = time.perf_counter()
            plan = MeasurementPlan(
                measured=circuit.readout,
                sample_count=args.samples,
                seed=args.seed + repeat,
                exact_probabilities=False,
            )
            run, _ = _run(circuit, plan)
            times.append(time.perf_counter() - begin)
        trajectory = ";".join(str(max(r)) for r in run.rank_history)
        mean = statistics.fmean(times)
        std = statistics.stdev(times) if len(times) > 1 else 0.0
        lines.append(
            f"{args.builtin},{'' if size is None else size},{circuit.initial.n},{args.samples},{args.repeats},"
            f"{mean:.6f},{std:.6f},{run.max_rank_seen},{trajectory}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, [text])
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
    circuit = catalog.build_builtin("simon")
    result = catalog.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
    marginal = marginal_distribution(result.state, circuit.readout).reshape(-1)
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
    results = {a: catalog.shor_run(a) for a in catalog.SHOR_BASES}
    for a, result in results.items():
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
    rows = results[7].extractions
    got = {row.y: (row.period, row.factors) for row in rows}
    want = {0: (1, None), 64: (4, (3, 5)), 128: (2, (3, 1)), 192: (4, (3, 5))}
    if got != want:
        return False, f"a=7 extraction table {got}"
    return True, "supports, ranks, operators and a=7 extraction rows all match"


_VERIFY_CHECKS = {"qfa": _check_qfa, "simon": _check_simon, "qft": _check_qft, "shor": _check_shor}


def cmd_verify(args) -> int:
    selected = _VERIFY_CHECKS if args.only is None else {
        name for (name,) in _entries(args.only, "check name", f"({'|'.join(_VERIFY_CHECKS)})")
    }
    failures = 0
    for name, check in _VERIFY_CHECKS.items():
        if name in selected:
            ok, detail = check()
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
    """argparse ``type`` accepting ASCII decimal integers of at least ``minimum``."""

    def parse(text: str) -> int:
        if re.fullmatch(_NUMBER, text.strip(), re.ASCII) and int(text) >= minimum:
            return int(text)
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {_got(text)}")

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
    sim.add_argument("--seed", type=_at_least(0), default=0)
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
    bench.add_argument("--seed", type=_at_least(0), default=0)
    bench.add_argument("--out", help="output CSV path")
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="run the golden-value checks")
    verify.add_argument("--only", help="comma-separated checks to run: " + ", ".join(_VERIFY_CHECKS))
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _reported():
            dense_cap()
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
