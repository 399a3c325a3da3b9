"""The package's public names and the README's Python quick start."""

from pathlib import Path

import mpoq

#: Lifts and group builders folded into ``controlled_mpo`` and the sequences.
REMOVED = ("qft_group_mpo", "inverse_qft_group_mpo", "single_qubit_mpo")


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from mpoq import *", namespace)
    assert len(set(mpoq.__all__)) == len(mpoq.__all__)
    assert [name for name in mpoq.__all__ if name not in namespace] == []
    assert [name for name in REMOVED if name in mpoq.__all__ or hasattr(mpoq, name)] == []


def test_the_readme_python_quick_start_runs_as_printed(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("## Quick start (Python)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-2:] == ["(0, 64, 128, 192)", "(3, 5)"]
    report = namespace["report"]
    assert set(report.counts) <= mpoq.circuit_catalog.SIMON_SUPPORT
    assert sum(report.counts.values()) == 100_000
    assert report.probabilities.keys() == mpoq.circuit_catalog.SIMON_SUPPORT
    assert all(abs(p - 1 / 8) < 1e-12 for p in report.probabilities.values())
