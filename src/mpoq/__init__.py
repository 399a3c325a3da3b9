"""Tensor-network quantum circuit simulator.

States are chains of order-3 cores, gates and whole circuits are chains of
order-4 cores with small bond ranks, and measurement outcomes are drawn
qubit-wise from conditional distributions.  See the submodules:

- :mod:`mpoq.tensor_core`: chain containers and their algebra
- :mod:`mpoq.gate_library`: elementary gates lifted to operator chains
- :mod:`mpoq.circuit_catalog`: adder networks, Simon, QFT, factoring 15
- :mod:`mpoq.born_sampler`: marginals, postselection, generative sampling
- :mod:`mpoq.dense_oracle`: brute-force statevector reference for tests
- :mod:`mpoq.cli`: ``mpoq`` command-line entry point
"""

__version__ = "0.1.0"

from .tensor_core import (
    DEFAULT_POLICY,
    LOSSLESS,
    MPO,
    MPS,
    TruncationPolicy,
    basis_state_mps,
    compress_mpo,
    diag_mpo,
    named_state_mps,
    orthonormalize_left,
    orthonormalize_right,
    random_mps,
)
from .born_sampler import MeasurementPlan, SampleReport, marginal_distribution, postselect, sample
from .circuit_catalog import (
    GateGroupSequence,
    extract_period,
    full_adder_mpo,
    full_adder_network_mpo,
    modular_exponentiation_mpo,
    run_gate_sequence,
    shor_run,
    simon_circuit_mpo,
)
from .gate_library import controlled_mpo, hadamard_layer

__all__ = [
    "DEFAULT_POLICY",
    "LOSSLESS",
    "MPO",
    "MPS",
    "MeasurementPlan",
    "GateGroupSequence",
    "SampleReport",
    "TruncationPolicy",
    "basis_state_mps",
    "compress_mpo",
    "controlled_mpo",
    "diag_mpo",
    "extract_period",
    "full_adder_mpo",
    "full_adder_network_mpo",
    "hadamard_layer",
    "marginal_distribution",
    "modular_exponentiation_mpo",
    "named_state_mps",
    "orthonormalize_left",
    "orthonormalize_right",
    "postselect",
    "random_mps",
    "run_gate_sequence",
    "sample",
    "shor_run",
    "simon_circuit_mpo",
    "__version__",
]
