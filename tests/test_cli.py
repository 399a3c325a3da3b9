"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpoq import circuit_catalog as catalog
from mpoq import cli
from mpoq import dense_oracle as oracle
from mpoq.born_sampler import MeasurementPlan, ZeroProbabilityError, sample
from mpoq.gate_library import HADAMARD, PAULI_X, GatePlacement, phase_shift, phase_shift_k
from mpoq.tensor_core import MPO, MPS


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# circuit loading


def test_builtin_parsing_errors(tmp_path, capsys):
    code, _, err = run_cli(["simulate", "--builtin", "nonsense(3)"], capsys)
    assert code == cli.EXIT_SCHEMA
    assert "nonsense" in err
    code, _, _ = run_cli(["simulate", "--builtin", "qft"], capsys)
    assert code == cli.EXIT_SCHEMA
    code, _, _ = run_cli(["simulate"], capsys)
    assert code == cli.EXIT_SCHEMA
    bad_args = [
        ["simulate", "--builtin", text]
        for text in ("qfa-network(0)", "qfa(3)", "simon(9)", "qft(0)", "inverse-qft(0)")
    ]
    bad_args.append(["bench", "qfa-network"])
    for i, (n, op) in enumerate((
        (4, {"builtin": "qft", "params": {"n": 9}}),
        (4, {"builtin": "qfa-network", "params": {"count": "x"}}),
        (12, {"builtin": "shor", "params": {"a": 7}}),
        (2, {"gate": "h", "target": 1, "phi": 0.3}),
        (2, {"gate": "cphase", "target": 1, "controls": [2], "k": 2, "phi": 9.0}),
        (2, {"gate": "rk", "target": 1, "k": 2, "phi": 0.1}),
        (2, {"gate": "phase", "target": 1, "phi": 0.3, "k": 2}),
        (2, {"gate": "cnot", "target": 1, "controls": [2], "k": 1}),
    )):
        path = tmp_path / f"op{i}.json"
        path.write_text(json.dumps({"n": n, "ops": [op]}))
        bad_args.append(["simulate", "--circuit", str(path)])
    for args in bad_args:
        code, _, err = run_cli(args, capsys)
        assert code == cli.EXIT_SCHEMA, args
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--builtin", "qfa", "--measure", "x"],
        ["simulate", "--builtin", "qfa", "--samples", "-1"],
        ["simulate", "--builtin", "qfa", "--postselect", "1=0", "--measure", "1-4"],
        ["bench", "qfa", "--repeats", "0"],
        [
            "simulate", "--builtin", "qfa-network(2)",
            "--measure", "2-4", "--postselect", "1=0,1=1",
        ],
        ["simulate", "--builtin", "qfa-network(2)", "--samples", "10", "--seed", "-1"],
        ["bench", "qft", "--sizes", "4", "--seed", "-1"],
        # builtin arguments above circuit_catalog.MAX_QUBITS are refused before any build
        ["simulate", "--builtin", "qfa-network(1000000000)"],
        ["simulate", "--builtin", "qft(100001)"],
        ["bench", "qft", "--sizes", "100001"],
        ["simulate", "--builtin", "qft(" + "1" * 5000 + ")"],  # beyond int()'s digit limit
        # --measure takes each position once, ranges running forwards, all inside the register
        ["simulate", "--builtin", "qfa", "--measure", "1,4-2"],
        ["simulate", "--builtin", "qfa", "--measure", "1,1"],
        ["simulate", "--builtin", "qfa", "--measure", "1-3,2"],
        ["simulate", "--builtin", "qfa", "--measure", "1-1000000000000"],
        # an empty entry is an error, not skipped
        ["simulate", "--builtin", "qfa", "--measure", "1,,3"],
        ["simulate", "--builtin", "qfa", "--measure", "1", "--postselect", "2=0,"],
        # a builtin name that does not parse
        ["simulate", "--builtin", "qft(8"],
    ],
    ids=[
        "measure-x", "negative-samples", "postselect-measured", "zero-repeats",
        "postselect-twice", "simulate-negative-seed", "bench-negative-seed",
        "builtin-count-above-cap", "builtin-qft-above-cap", "bench-size-above-cap",
        "builtin-argument-digits", "measure-reversed-range", "measure-repeated",
        "measure-overlapping-ranges", "measure-huge-range", "measure-empty-entry",
        "postselect-empty-entry", "builtin-unparsable",
    ],
)
def test_bad_command_line_exits_2(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == cli.EXIT_SCHEMA
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["abc", "1e6", "0", "-3"])
def test_bad_dense_cap_variable_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("MPOQ_DENSE_CAP", value)
    code, _, err = run_cli(["simulate", "--builtin", "simon"], capsys)
    assert code == cli.EXIT_SCHEMA
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "MPOQ_DENSE_CAP" in err


def test_qft_above_the_core_budget_is_rejected_before_any_group_is_built(
    tmp_path, monkeypatch, capsys
):
    def qft_group_mpo(i, n):
        raise AssertionError(f"built group {i} of qft({n})")

    monkeypatch.setattr(catalog, "qft_group_mpo", qft_group_mpo)
    # 1413 * 1414 / 2 = 998,991 cores fit the budget; 1414 * 1415 / 2 do not
    with pytest.raises(AssertionError, match="qft"):
        catalog.qft_sequence(1413)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n": 1414, "ops": [{"builtin": "qft", "params": {"n": 1414}}]}))
    for args in (
        ["simulate", "--builtin", "qft(1414)"],
        ["simulate", "--builtin", "inverse-qft(1414)"],
        ["bench", "inverse-qft", "--sizes", "2000"],
        ["simulate", "--circuit", str(path)],
    ):
        code, _, err = run_cli(args, capsys)
        assert code == cli.EXIT_SCHEMA, args
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
        assert str(catalog.MAX_CORES) in err, (args, err)
    assert "ops[0].params" in err


def test_wide_gates_above_the_core_budget_are_rejected_before_they_are_lifted(monkeypatch):
    lifted = []
    to_mpo = GatePlacement.to_mpo

    def counting_to_mpo(self, n):
        lifted.append((self.target, *self.controls))
        return to_mpo(self, n)

    monkeypatch.setattr(GatePlacement, "to_mpo", counting_to_mpo)
    monkeypatch.setattr(catalog, "MAX_CORES", 50)
    wide = {"gate": "cnot", "controls": [1], "target": 20}
    circuit = cli.load_circuit_payload({"n": 20, "ops": [wide, wide, _gate("h", 3)]}, "wide")
    assert sum(len(g.cores) for g in circuit.sequence.groups) == 41
    assert len(lifted) == 3
    with pytest.raises(cli.CircuitSpecError, match=r"ops\[2\]: .*60 operator cores"):
        cli.load_circuit_payload({"n": 20, "ops": [wide, wide, wide]}, "wide")
    assert len(lifted) == 5  # the gate over the budget is never lifted
    # an embedded builtin counts its stored cores: 9 for the gate, 45 for qft(9)
    ops = [wide | {"target": 9}, {"builtin": "qft", "params": {"n": 9}}]
    with pytest.raises(cli.CircuitSpecError, match=r"ops\[1\]: .*54 operator cores"):
        cli.load_circuit_payload({"n": 9, "ops": ops}, "wide")


def test_exact_output_above_dense_cap_exits_2(capsys):
    code, _, err = run_cli(["simulate", "--builtin", "qft(24)"], capsys)
    assert code == cli.EXIT_SCHEMA
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--samples" in err and "--measure" in err


def test_nan_state_exits_3_with_one_line_and_no_warning(monkeypatch, capsys):
    circuit = catalog.build_builtin("qft", 3)
    cores = [core.copy() for core in circuit.initial.cores]
    cores[1][0, 0, 0] = np.nan
    monkeypatch.setattr(cli, "load_builtin", lambda text: replace(circuit, initial=MPS(cores)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["simulate", "--builtin", "qft(3)"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert err == "error: numerical failure: SVD did not converge\n"


def test_schema_rejects_malformed_circuit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "ops": [{"gate": "h"}]}))
    code, _, err = run_cli(["simulate", "--circuit", str(bad)], capsys)
    assert code == cli.EXIT_SCHEMA
    assert "invalid" in err
    bad.write_text("not json at all")
    code, _, _ = run_cli(["simulate", "--circuit", str(bad)], capsys)
    assert code == cli.EXIT_SCHEMA


def _gate(name, target, **fields):
    return {"gate": name, "target": target, **fields}


NAN, INF = float("nan"), float("inf")
PLUS = {"initial": {"hadamard_on": [1]}}
BELL = {**PLUS, "ops": [_gate("cnot", 2, controls=[1])]}

#: id -> (payload, path the error must name)
MALFORMED = {
    # rules the JSON schema enforced
    "missing-n": ({"ops": []}, "n"),
    "missing-ops": ({"n": 2}, "ops"),
    "missing-target": ({"n": 2, "ops": [{"gate": "h"}]}, "ops[0].target"),
    "unknown-top-key": ({"n": 2, "ops": [], "extra": 1}, "extra"),
    "unknown-op-key": ({"n": 2, "ops": [_gate("h", 1, angle=1)]}, "ops[0].angle"),
    "unknown-initial-key": ({"n": 2, "ops": [], "initial": {"ones": "11"}}, "initial.ones"),
    "unknown-policy-key": ({"n": 2, "ops": [], "policy": {"cutoff": 1}}, "policy.cutoff"),
    "n-zero": ({"n": 0, "ops": []}, "n"),
    "n-bool": ({"n": True, "ops": []}, "n"),
    "ops-not-list": ({"n": 2, "ops": {}}, "ops"),
    "op-not-object": ({"n": 2, "ops": [1]}, "ops[0]"),
    "unknown-gate": ({"n": 2, "ops": [_gate("y", 1)]}, "ops[0].gate"),
    "control-zero": ({"n": 2, "ops": [_gate("cnot", 1, controls=[0])]}, "ops[0].controls[0]"),
    "controls-not-list": ({"n": 2, "ops": [_gate("cnot", 1, controls=2)]}, "ops[0].controls"),
    "cnot-two-controls": ({"n": 3, "ops": [_gate("cnot", 3, controls=[1, 2])]}, "ops[0].controls"),
    "phi-string": ({"n": 1, "ops": [_gate("phase", 1, phi="x")]}, "ops[0].phi"),
    "k-zero": ({"n": 1, "ops": [_gate("rk", 1, k=0)]}, "ops[0].k"),
    "builtin-not-string": ({"n": 4, "ops": [{"builtin": 5}]}, "ops[0].builtin"),
    "params-not-object": ({"n": 4, "ops": [{"builtin": "qfa", "params": []}]}, "ops[0].params"),
    "basis-digits": ({"n": 3, "ops": [], "initial": {"basis": "012"}}, "initial.basis"),
    "named-not-string": ({"n": 2, "ops": [], "initial": {"named": 5}}, "initial.named"),
    "named-not-exact": ({"n": 2, "ops": [], "initial": {"named": " GHZ"}}, "initial.named"),
    "initial-string": ({"n": 2, "ops": [], "initial": "ones"}, "initial"),
    "initial-two-keys": (
        {"n": 2, "ops": [], "initial": {"basis": "00", "named": "ghz"}}, "initial"
    ),
    "negative-threshold": (
        {"n": 2, "ops": [], "policy": {"rel_threshold": -1}}, "policy.rel_threshold"
    ),
    "max-rank-zero": ({"n": 2, "ops": [], "policy": {"max_rank": 0}}, "policy.max_rank"),
    # rules the schema let through
    "n-float": ({"n": 3.0, "ops": []}, "n"),
    "target-float": ({"n": 3, "ops": [_gate("h", 2.0)]}, "ops[0].target"),
    "k-float": ({"n": 1, "ops": [_gate("rk", 1, k=2.0)]}, "ops[0].k"),
    "hadamard-float": (
        {"n": 2, "ops": [], "initial": {"hadamard_on": [1.0]}}, "initial.hadamard_on[0]"
    ),
    "hadamard-twice": (
        {"n": 2, "ops": [], "initial": {"hadamard_on": [1, 1]}}, "initial.hadamard_on"
    ),
    "max-rank-float": (  # a rank-4 middle bond, so the cap is used
        {
            "n": 4,
            "initial": {"hadamard_on": [1, 2]},
            "ops": [_gate("cnot", 3, controls=[1]), _gate("cnot", 4, controls=[2])],
            "policy": {"max_rank": 2.0},
        },
        "policy.max_rank",
    ),
    "threshold-nan": ({"n": 2, **BELL, "policy": {"rel_threshold": NAN}}, "policy.rel_threshold"),
    "phi-nan": ({"n": 2, **PLUS, "ops": [_gate("phase", 1, phi=NAN)]}, "ops[0].phi"),
    "phi-infinity": ({"n": 2, **PLUS, "ops": [_gate("phase", 1, phi=INF)]}, "ops[0].phi"),
    # a register too large to allocate
    "n-above-cap": ({"n": 10**9, "ops": []}, "n"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_circuit_fields_exit_2(name, tmp_path, capsys):
    payload, field_path = MALFORMED[name]
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["simulate", "--circuit", str(path)], capsys)
    assert code == cli.EXIT_SCHEMA, out
    assert err.startswith(f"error: circuit description invalid: {field_path}: "), err
    assert err.count("\n") == 1, err


def test_oversized_embedded_builtin_is_rejected_before_it_is_built(tmp_path, monkeypatch, capsys):
    def build_builtin(name, arg=None):
        raise AssertionError(f"built {name}({arg})")

    monkeypatch.setattr(catalog, "build_builtin", build_builtin)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n": 4, "ops": [{"builtin": "qft", "params": {"n": 100000}}]}))
    code, _, err = run_cli(["simulate", "--circuit", str(path)], capsys)
    assert code == cli.EXIT_SCHEMA
    assert err.startswith("error: circuit description invalid: ops[0].params.n: "), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "n, op, where, message",
    [
        (1200, {"builtin": "qft", "params": {"n": 1000}}, ".params.n", "qft(1000) acts on 1000"),
        (4, {"builtin": "inverse-qft", "params": {"n": 3}}, ".params.n", "inverse-qft(3) acts on 3"),
        (8, {"builtin": "qfa-network", "params": {"count": 2}}, ".params.count", "qfa-network(2) acts on 7"),
        (5, {"builtin": "qfa"}, "", "qfa acts on 4"),
        (9, {"builtin": "simon", "params": {}}, "", "simon acts on 8"),
    ],
)
def test_mismatched_embedded_builtin_is_rejected_before_it_is_built(
    tmp_path, monkeypatch, capsys, n, op, where, message
):
    def build_builtin(name, arg=None):
        raise AssertionError(f"built {name}({arg})")

    monkeypatch.setattr(catalog, "build_builtin", build_builtin)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n": n, "ops": [op]}))
    code, _, err = run_cli(["simulate", "--circuit", str(path)], capsys)
    assert code == cli.EXIT_SCHEMA
    assert err == f"error: circuit description invalid: ops[0]{where}: builtin {message} qubits, not n={n}\n"


def test_payloads_the_schema_accepted_still_run(tmp_path, capsys):
    controlled = [
        _gate("h", 1, controls=[2]),
        _gate("x", 2, controls=[1, 3]),
        _gate("phase", 3, phi=0.5, controls=[1]),
        _gate("rk", 1, k=3, controls=[3]),
    ]
    payloads = {
        "integer-phi": {"n": 1, "ops": [_gate("h", 1), _gate("phase", 1, phi=1)]},
        "float-phi": {"n": 1, "ops": [_gate("h", 1), _gate("phase", 1, phi=1.0)]},
        "zero-threshold": {"n": 2, **BELL, "policy": {"rel_threshold": 0}},
        "null-max-rank": {"n": 2, **BELL, "policy": {"max_rank": None}},
        "empty-policy": {"n": 2, **BELL, "policy": {}},
        "no-ops": {"n": 2, "ops": []},
        "controlled-gates": {"n": 3, "initial": {"hadamard_on": [1, 2, 3]}, "ops": controlled},
        "k-beyond-float-range": {"n": 1, "ops": [_gate("rk", 1, k=1100)]},
    }
    outputs = {}
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        out_path = tmp_path / f"{name}.csv"
        code, _, err = run_cli(["simulate", "--circuit", str(path), "--out", str(out_path)], capsys)
        assert code == 0, (name, err)
        outputs[name] = out_path.read_bytes()
    assert outputs["integer-phi"] == outputs["float-phi"]


def test_cli_needs_no_jsonschema():
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None  # any import of it now fails\n"
        "from mpoq import cli\n"
        f"sys.exit(cli.main(['simulate', '--circuit', {str(root / 'docs/examples/custom.json')!r}]))\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    block = re.search(r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(), re.M | re.S)
    assert re.findall(r'"([^"]+)"', block.group(1)) == ["numpy>=2.0"]


def test_custom_circuit_bell_state(tmp_path, capsys):
    circuit = {
        "n": 2,
        "initial": "zeros",
        "ops": [
            {"gate": "h", "target": 1},
            {"gate": "cnot", "target": 2, "controls": [1]},
        ],
    }
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(circuit))
    out_path = tmp_path / "bell.csv"
    code, _, _ = run_cli(
        ["simulate", "--circuit", str(path), "--samples", "4000", "--seed", "11",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "bitstring,count,frequency,probability"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"00", "11"}
    assert float(rows["00"][3]) == pytest.approx(0.5, abs=1e-12)


def test_circuit_with_embedded_builtin(tmp_path, capsys):
    circuit = {"n": 4, "initial": {"basis": "0110"}, "ops": [{"builtin": "qfa"}]}
    path = tmp_path / "adder.json"
    path.write_text(json.dumps(circuit))
    out_path = tmp_path / "adder.csv"
    code, _, _ = run_cli(
        ["simulate", "--circuit", str(path), "--out", str(out_path)], capsys
    )
    assert code == 0
    # |0,1,1,0> -> s=0, carry=1
    body = out_path.read_text().splitlines()[1:]
    support = [line.split(",")[0] for line in body if float(line.split(",")[3]) > 1e-9]
    assert support == ["0111"]


def test_initial_state_variants(tmp_path, capsys):
    for initial in ("zeros", {"named": "ghz"}, {"hadamard_on": [1]}):
        circuit = {"n": 3, "initial": initial, "ops": [{"gate": "x", "target": 2}]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circuit))
        code, _, _ = run_cli(["simulate", "--circuit", str(path)], capsys)
        assert code == 0
    circuit = {"n": 3, "initial": {"basis": "01"}, "ops": []}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit))
    code, _, _ = run_cli(["simulate", "--circuit", str(path)], capsys)
    assert code == cli.EXIT_SCHEMA


# ---------------------------------------------------------------------------
# simulate behaviour


def test_simulate_exact_only_when_no_samples(tmp_path, capsys):
    out_path = tmp_path / "ghz.json"
    code, _, _ = run_cli(
        ["simulate", "--builtin", "qfa", "--format", "json", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["sample_count"] == 0
    assert payload["counts"] == {}
    assert payload["probabilities"] == {"0000": 1.0}
    assert payload["version"]


def test_simulate_outputs_are_byte_stable(tmp_path, capsys):
    args = [
        "simulate", "--builtin", "simon", "--samples", "5000", "--seed", "123",
        "--format", "json",
    ]
    paths = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        code, _, _ = run_cli(args + ["--out", str(out_path)], capsys)
        assert code == 0
        paths.append(out_path.read_bytes())
    assert paths[0] == paths[1]


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

# sha256 of `simulate --out`, recorded with the complex-coordinate sampler at
# 1 BLAS thread.  The draw, the keys and the CSV must not move a byte; a
# different BLAS build could still move a last probability digit.
GOLDEN_OUTPUTS = {
    "qfa-network-csv": (
        ["--builtin", "qfa-network(10)", "--samples", "5000", "--seed", "11"],
        "678d1690fe7420e1882cb6d973f494c4a5e3a286b87db0a871f99c135f804709",
    ),
    "qfa-network-json": (
        ["--builtin", "qfa-network(10)", "--samples", "5000", "--seed", "11", "--format", "json"],
        "1de66ce14bbbd47c39ed8cef8a34a68aa35a6a61118b9c827eafd2c2a91058db",
    ),
    "qft": (
        ["--builtin", "qft(6)", "--samples", "5000", "--seed", "11"],
        "557dbc9155e79cff30ad5c58d502fc495c55489b88c0ba904212cc4dd3611a61",
    ),
    "postselected": (
        ["--builtin", "qfa-network(3)", "--measure", "2-6", "--postselect", "1=0,7=1",
         "--samples", "5000", "--seed", "11"],
        "c3b947bb772c5f09474d59b71d09dfadc43c3a13d5ecd57df99dd6cd34b756e7",
    ),
    "simon-exact": (
        ["--builtin", "simon", "--samples", "0"],
        "26dddabd56111ba903ad29ce99184105a25b46630783aa3d39e3799465bca2a4",
    ),
    "above-one-chunk": (  # 70,000 samples span two chunks of born_sampler._CHUNK
        ["--builtin", "qfa-network(10)", "--samples", "70000", "--seed", "11"],
        "56ed04c373a0512a2308a2b0d15e0b5382461cda7ad193ce8ef821cb4737cfbb",
    ),
    # the only case whose environments have an imaginary part at rank > 1
    "complex-phases": (
        ["--circuit", str(EXAMPLES / "custom.json"), "--samples", "5000", "--seed", "11"],
        "5e1e41494420be4e06d3a291cfa80f4106588685267a85a0b96708af36a6ce06",
    ),
    # shor's readout reverses the keys and adds the period extraction rows
    "shor-exact-json": (
        ["--builtin", "shor(7)", "--samples", "0", "--format", "json"],
        "cecb12d28d7f549ad6a52cea1c6a310a042cb9ca7140b85a646188c8eeed6f0c",
    ),
    "shor-sampled": (
        ["--builtin", "shor(13)", "--samples", "5000", "--seed", "11"],
        "a7d3cd3ad6c76ab0c3c399b9039e46ec001575d9900f0a0d25878bcbe252c06f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_simulate_output_bytes_are_pinned(name, tmp_path, capsys):
    args, digest = GOLDEN_OUTPUTS[name]
    out_path = tmp_path / "out"
    code, _, _ = run_cli(["simulate", *args, "--out", str(out_path)], capsys)
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_clamped_mass_gets_a_summary_line(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["simulate", "--builtin", "qfa", "--samples", "100"], capsys)
    assert code == 0
    assert "clamped" not in out

    def noisy_sample(state, plan):
        return replace(sample(state, plan), clamped_mass=3e-13)

    # shor re-keys its report; the clamped mass must survive that
    monkeypatch.setattr(cli, "sample", noisy_sample)
    out_path = tmp_path / "shor.json"
    code, out, _ = run_cli(
        ["simulate", "--builtin", "shor(7)", "--samples", "200", "--format", "json",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert "clamped probability mass 3.000e-13" in out
    assert "clamped" not in out_path.read_text()


def test_simulate_measure_and_postselect(tmp_path, capsys):
    out_path = tmp_path / "ghz.csv"
    code, _, _ = run_cli(
        ["simulate", "--builtin", "qfa", "--measure", "2-4", "--postselect", "1=0",
         "--samples", "64", "--seed", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["000"]


def test_zero_probability_postselect_exit_code(capsys):
    code, _, err = run_cli(
        ["simulate", "--builtin", "qfa", "--postselect", "1=1", "--measure", "2-4"],
        capsys,
    )
    assert code == cli.EXIT_ZERO_POSTSELECT
    assert "probability" in err


#: JSON gate name -> (number of controls, the op's 2x2 matrix)
_JSON_GATES = {
    "h": (0, lambda op: HADAMARD),
    "x": (0, lambda op: PAULI_X),
    "phase": (0, lambda op: phase_shift(op["phi"])),
    "cnot": (1, lambda op: PAULI_X),
    "cphase": (1, lambda op: phase_shift_k(op["k"])),
    "ccnot": (2, lambda op: PAULI_X),
}


@st.composite
def postselected_json_circuits(draw):
    """Random JSON payloads of at most 8 qubits plus a readout.

    Returns ``(payload, postselect, measured)``: a non-empty postselection
    and a non-empty measured set, disjoint from each other.  Controls land
    on either side of the target.
    """
    n = draw(st.integers(2, 8))
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        gate = draw(st.sampled_from([g for g, (c, _) in _JSON_GATES.items() if c < n]))
        target, *controls = draw(st.permutations(range(1, n + 1)))[: _JSON_GATES[gate][0] + 1]
        op = {"gate": gate, "target": target}
        if controls:
            op["controls"] = controls
        if gate == "phase":
            op["phi"] = draw(st.floats(-4.0, 4.0))
        if gate == "cphase":
            op["k"] = draw(st.integers(1, 4))
        ops.append(op)
    initial = draw(st.one_of(
        st.just("zeros"),
        st.text("01", min_size=n, max_size=n).map(lambda bits: {"basis": bits}),
        st.sets(st.integers(1, n)).map(lambda qs: {"hadamard_on": sorted(qs)}),
    ))
    order = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(1, n - 1))
    postselect = {p: draw(st.integers(0, 1)) for p in sorted(order[:cut])}
    rest = order[cut:]
    measured = sorted(draw(st.lists(st.sampled_from(rest), min_size=1, unique=True)))
    return {"n": n, "initial": initial, "ops": ops}, postselect, measured


def _dense_payload_state(payload) -> np.ndarray:
    initial = payload["initial"] if isinstance(payload["initial"], dict) else {}
    state = oracle.basis_state(int(c) for c in initial.get("basis", "0" * payload["n"]))
    for q in initial.get("hadamard_on", ()):
        state = oracle.apply_gate_dense(state, HADAMARD, target=q)
    for op in payload["ops"]:
        matrix = _JSON_GATES[op["gate"]][1](op)
        state = oracle.apply_gate_dense(state, matrix, op["target"], op.get("controls", ()))
    return state


@settings(max_examples=60)
@given(postselected_json_circuits())
def test_postselected_json_circuits_match_dense_oracle(case):
    payload, postselect, measured = case
    n = payload["n"]
    dense = _dense_payload_state(payload).reshape((2,) * n)
    conditioned = dense[tuple(postselect.get(q, slice(None)) for q in range(1, n + 1))]
    mass = float(np.sum(np.abs(conditioned) ** 2))
    # an outcome is either impossible or clearly possible; no cancellation
    # close to the sampler's zero threshold
    assume(mass < 1e-24 or mass > 1e-8)

    circuit = cli.load_circuit_payload(payload, "random")
    run = catalog.run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
    plan = MeasurementPlan(measured=tuple(measured), sample_count=0, postselect=postselect)
    if mass < 1e-24:
        with pytest.raises(ZeroProbabilityError):
            sample(run.state, plan)
        return
    report = sample(run.state, plan)

    remaining = [q for q in range(1, n + 1) if q not in postselect]
    local = [remaining.index(q) + 1 for q in measured]
    probs = np.abs(conditioned.reshape(-1)) ** 2 / mass
    want = oracle.marginal_dense(probs, local, len(remaining)).reshape(-1)
    got = [report.probabilities.get(format(i, f"0{len(measured)}b"), 0.0) for i in range(want.size)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_simon_simulation_support(capsys):
    code, out, _ = run_cli(
        ["simulate", "--builtin", "simon", "--samples", "2000", "--seed", "5"], capsys
    )
    assert code == 0
    assert "p=0.125" in out


def test_shor_simulation_reports_periods(tmp_path, capsys):
    out_path = tmp_path / "shor.json"
    code, out, _ = run_cli(
        ["simulate", "--builtin", "shor(7)", "--samples", "2000", "--seed", "3",
         "--format", "json", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert "factors (3, 5)" in out
    payload = json.loads(out_path.read_text())
    assert set(payload["counts"]) <= {"00000000", "01000000", "10000000", "11000000"}
    rows = {r["y"]: r for r in payload["period_extraction"]}
    assert rows[64]["period"] == 4 and rows[64]["factors"] == [3, 5]
    assert rows[0]["factors"] is None


def test_shor_exact_distribution_matches_oracle(tmp_path, capsys):
    out_path = tmp_path / "shor4.json"
    code, _, _ = run_cli(
        ["simulate", "--builtin", "shor(4)", "--format", "json", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    probs = payload["probabilities"]
    assert probs["00000000"] == pytest.approx(0.5, abs=1e-10)
    assert probs["10000000"] == pytest.approx(0.5, abs=1e-10)  # reversed reading: y=128


# ---------------------------------------------------------------------------
# bench and verify


def test_qfa_network_distribution_matches_oracle(tmp_path, capsys):
    import numpy as np

    from mpoq import circuit_catalog as cat
    from mpoq import dense_oracle as oracle
    from mpoq.gate_library import HADAMARD

    out_path = tmp_path / "net.json"
    code, _, _ = run_cli(
        ["simulate", "--builtin", "qfa-network(2)", "--format", "json",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    probs = json.loads(out_path.read_text())["probabilities"]

    dense = oracle.basis_state([0] * 7)
    for q in cat.full_adder_network_summands(2):
        dense = oracle.apply_gate_dense(dense, HADAMARD, target=q)
    dense = cat.full_adder_network_mpo(2).to_dense() @ dense
    want = oracle.marginal_dense(
        oracle.born_distribution(dense), cat.full_adder_network_outputs(2), 7
    ).reshape(-1)
    for index in range(8):
        assert probs.get(format(index, "03b"), 0.0) == pytest.approx(
            float(want[index]), abs=1e-12
        )


def test_bench_single_point(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        ["bench", "qfa-network", "--sizes", "2", "--samples", "500", "--repeats", "2",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("builtin,size,n_qubits,samples")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "qfa-network" and fields[1] == "2" and fields[2] == "7"
    assert float(fields[5]) > 0


def test_every_builtin_runs_through_simulate_and_bench(tmp_path, capsys):
    for name, entry in catalog.BUILTINS.items():
        text = name if entry.arg is None else f"{name}({entry.example})"
        out_path = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(
            ["simulate", "--builtin", text, "--samples", "20", "--out", str(out_path)], capsys
        )
        assert code == 0, text
        assert sum(int(line.split(",")[1]) for line in out_path.read_text().splitlines()[1:]) == 20
        sizes = [] if entry.arg is None else ["--sizes", str(entry.example)]
        code, out, _ = run_cli(["bench", name, *sizes, "--samples", "20", "--repeats", "1"], capsys)
        assert code == 0, name
        assert out.splitlines()[1].startswith(f"{name},"), name


def test_bench_qft_rows(capsys):
    code, out, _ = run_cli(
        ["bench", "qft", "--sizes", "4,6", "--samples", "100", "--repeats", "1"], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_verify_all_pass(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_negative_control(monkeypatch, capsys):
    qft_sequence = catalog.qft_sequence

    def detuned(n):
        sequence = qft_sequence(n)
        cores = [np.array(c) for c in sequence.groups[0].cores]
        cores[-1][1, 1, 1, 0] *= np.exp(1e-3j)  # detune one phase of group 0
        groups = (MPO(cores),) + sequence.groups[1:]
        return catalog.GateGroupSequence(groups, label=sequence.label)

    monkeypatch.setattr(catalog, "qft_sequence", detuned)
    code, out, _ = run_cli(["verify", "--only", "qft"], capsys)
    assert code == 1
    assert "FAIL qft" in out


def test_verify_vacuous_selection(capsys):
    code, out, _ = run_cli(["verify", "--only", "bogus"], capsys)
    assert code == 0
    assert "vacuous" in out


# ---------------------------------------------------------------------------
# helpers


def test_parse_positions():
    assert cli._parse_positions("1,3,5-7", 8) == (1, 3, 5, 6, 7)
    assert cli._parse_positions("all", 3) == (1, 2, 3)
    with pytest.raises(cli.CircuitSpecError):
        cli._parse_positions("0,2", 4)
    with pytest.raises(cli.CircuitSpecError):
        cli._parse_positions("9", 4)


def test_parse_postselect():
    assert cli._parse_postselect("2=0, 4=1", 5) == {2: 0, 4: 1}
    with pytest.raises(cli.CircuitSpecError):
        cli._parse_postselect("2:0", 5)
    with pytest.raises(cli.CircuitSpecError):
        cli._parse_postselect("2=7", 5)
