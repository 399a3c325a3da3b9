"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from mpoq import circuit_catalog as catalog
from mpoq import cli
from mpoq.tensor_core import MPO


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
    for n, op in (
        (4, {"builtin": "qft", "params": {"n": 9}}),
        (4, {"builtin": "qfa-network", "params": {"count": "x"}}),
        (12, {"builtin": "shor", "params": {"a": 7}}),
    ):
        path = tmp_path / f"{op['builtin']}.json"
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
    ],
    ids=["measure-x", "negative-samples", "postselect-measured", "zero-repeats"],
)
def test_bad_command_line_exits_2(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == cli.EXIT_SCHEMA
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_exact_output_above_dense_cap_exits_2(capsys):
    code, _, err = run_cli(["simulate", "--builtin", "qft(24)"], capsys)
    assert code == cli.EXIT_SCHEMA
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--samples" in err and "--measure" in err


def test_schema_rejects_malformed_circuit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "ops": [{"gate": "h"}]}))
    code, _, err = run_cli(["simulate", "--circuit", str(bad)], capsys)
    assert code == cli.EXIT_SCHEMA
    assert "invalid" in err
    bad.write_text("not json at all")
    code, _, _ = run_cli(["simulate", "--circuit", str(bad)], capsys)
    assert code == cli.EXIT_SCHEMA


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
