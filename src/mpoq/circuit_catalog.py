"""Closed-form low-rank operator builders for the benchmark circuits.

Covers the four-qubit reversible full adder and chains of coupled adders,
the fixed Simon instance with interleaved registers, the quantum Fourier
transform split into per-qubit gate groups, and the modular-exponentiation
operators for factoring 15, together with the windowed sequential
executor, the classical period-extraction step and the
registry of named builtin circuits.

No SWAP gates are used anywhere; where the omission matters (QFT output,
factoring measurements) the bit order is reversed on readout, and that
reversal is owned by this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from . import born_sampler
from .gate_library import (
    CONTROL_0,
    CONTROL_1,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    GatePlacement,
    hadamard_layer,
    phase_shift_k,
)
from .tensor_core import (
    DEFAULT_POLICY,
    LOSSLESS,
    MPO,
    MPS,
    TruncationPolicy,
    apply_window,
    basis_state_mps,
    compress_mpo,
    move_center,
    mpo_add,
    orthonormalize_left,
    orthonormalize_right,
)


def _row(mats) -> np.ndarray:
    """(1, 2, 2, k) core from a list of 2x2 blocks."""
    return np.stack([np.asarray(m, dtype=np.complex128) for m in mats], axis=-1)[None]


def _col(mats) -> np.ndarray:
    """(k, 2, 2, 1) core from a list of 2x2 blocks."""
    return np.stack([np.asarray(m, dtype=np.complex128) for m in mats], axis=0)[..., None]


def _block(rows) -> np.ndarray:
    """(len(rows), 2, 2, len(rows[0])) core; ``None`` entries are zero blocks."""
    out = np.zeros((len(rows), 2, 2, len(rows[0])), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, m in enumerate(row):
            if m is not None:
                out[i, :, :, j] = m
    return out


# ---------------------------------------------------------------------------
# quantum full adder


def full_adder_mpo() -> MPO:
    """Closed-form four-qubit full adder, bond profile (3, 4, 2).

    Maps |c_in, a, b, 0> to |s, a, b, c_out> with s the sum bit and c_out
    the carry.  Equals the ordered product of the five elementary gates
    returned by :func:`full_adder_gate_placements`.
    """
    sx = PAULI_X
    return MPO([
        _row([sx @ CONTROL_0, IDENTITY, sx @ CONTROL_1]),
        _block([
            [CONTROL_0, CONTROL_1, None, None],
            [None, CONTROL_0, CONTROL_1, None],
            [None, None, CONTROL_0, CONTROL_1],
        ]),
        _block([
            [CONTROL_1, None],
            [CONTROL_0, None],
            [None, CONTROL_1],
            [None, CONTROL_0],
        ]),
        _col([IDENTITY, sx]),
    ])


def full_adder_gate_placements() -> tuple[GatePlacement, ...]:
    """The five elementary gates of the adder, in application order."""
    return (
        GatePlacement(PAULI_X, target=4, controls=(2, 3), name="ccnot"),
        GatePlacement(PAULI_X, target=3, controls=(2,), name="cnot"),
        GatePlacement(PAULI_X, target=4, controls=(1, 3), name="ccnot"),
        GatePlacement(PAULI_X, target=1, controls=(3,), name="cnot"),
        GatePlacement(PAULI_X, target=3, controls=(2,), name="cnot"),
    )


def adder_coupling_core() -> np.ndarray:
    """Shared-qubit core fusing one adder's carry-out into the next carry-in."""
    adder = full_adder_mpo()
    first, last = adder.cores[0], adder.cores[3]
    core = np.zeros((2, 2, 2, 3), dtype=np.complex128)
    for k in range(2):
        for l in range(3):
            # next adder acts after the previous one on the shared qubit
            core[k, :, :, l] = first[0, :, :, l] @ last[k, :, :, 0]
    return core


def full_adder_network_mpo(count: int) -> MPO:
    """Chain of ``count`` coupled full adders on ``3*count + 1`` qubits.

    Adder ``i`` occupies qubits ``3i-2 .. 3i+1``; its carry-out qubit is the
    next adder's carry-in.  The maximum bond rank stays 4 for any count.
    """
    if count < 1:
        raise ValueError("network needs at least one adder")
    adder = full_adder_mpo()
    if count == 1:
        return adder
    coupling = adder_coupling_core()
    cores = [adder.cores[0], adder.cores[1], adder.cores[2]]
    for _ in range(count - 1):
        cores.extend([coupling, adder.cores[1], adder.cores[2]])
    cores.append(adder.cores[3])
    return MPO(cores)


def full_adder_network_input(count: int) -> MPS:
    """All-zero register with the two summand qubits of every adder superposed."""
    n = 3 * count + 1
    layer = hadamard_layer(full_adder_network_summands(count), n)
    return layer.apply(basis_state_mps([0] * n))


def full_adder_network_summands(count: int) -> tuple[int, ...]:
    return tuple(q for i in range(1, count + 1) for q in (3 * i - 1, 3 * i))


def full_adder_network_outputs(count: int) -> tuple[int, ...]:
    """Positions holding the sum bits and the final carry after the network."""
    return tuple(3 * i - 2 for i in range(1, count + 1)) + (3 * count + 1,)


# ---------------------------------------------------------------------------
# Simon's circuit (fixed oracle with hidden string 1010 on 4+4 qubits)

SIMON_HIDDEN_STRING = "1010"
SIMON_FIRST_REGISTER = (1, 3, 5, 7)
SIMON_SECOND_REGISTER = (2, 4, 6, 8)

#: Measurement support of the first register for the fixed instance.
SIMON_SUPPORT = frozenset(
    {"0000", "0001", "0100", "0101", "1010", "1011", "1110", "1111"}
)


def simon_gate_groups() -> tuple[MPO, MPO, MPO, MPO]:
    """The four gate groups of the circuit, in application order.

    Registers are interleaved (first register on odd positions), which is
    what keeps the combined operator rank at most 4.
    """
    n = 8
    g1 = hadamard_layer(SIMON_FIRST_REGISTER, n)
    copy_register = MPO.identity(n)
    for p in SIMON_FIRST_REGISTER:
        copy_register = GatePlacement(PAULI_X, target=p + 1, controls=(p,)).to_mpo(n) @ copy_register
    flip = GatePlacement(PAULI_X, target=6, controls=(1,)).to_mpo(n) \
        @ GatePlacement(PAULI_X, target=2, controls=(1,)).to_mpo(n)
    return g1, compress_mpo(copy_register), compress_mpo(flip), g1


def simon_circuit_mpo() -> MPO:
    """Closed-form rank-4 operator for the whole circuit.

    The blocks are the Hadamard conjugations of the two control projectors;
    the inner CNOT pair acting on the first two qubits cancels out.
    """
    a = HADAMARD @ CONTROL_0 @ HADAMARD
    b = HADAMARD @ CONTROL_1 @ HADAMARD
    sx = PAULI_X
    return MPO([
        _row([a, b]),
        _block([[IDENTITY, None], [None, IDENTITY]]),
        _block([[a, b, None, None], [None, None, a, b]]),
        _block([[IDENTITY, None], [sx, None], [None, IDENTITY], [None, sx]]),
        _block([[a, b], [b, a]]),
        _col([IDENTITY, sx]),
        _row([a, b]),
        _col([IDENTITY, sx]),
    ])


def solve_hidden_string(support) -> list[str]:
    """Nonzero mod-2 solutions b of z . b = 0 for every z in ``support``.

    Standard Simon postprocessing; the instance is solved when exactly one
    nonzero solution remains.
    """
    bitstrings = sorted(support)
    if not bitstrings:
        return []
    width = len(bitstrings[0])
    rows = [int(z, 2) for z in bitstrings]
    # Gaussian elimination over GF(2); then enumerate the nullspace.
    pivots: list[int] = []
    reduced: list[int] = []
    for row in rows:
        for p, r in zip(pivots, reduced):
            if row >> p & 1:
                row ^= r
        if row:
            p = row.bit_length() - 1
            pivots.append(p)
            reduced.append(row)
    free = [i for i in range(width) if i not in pivots]
    solutions = []
    for mask in range(1, 2 ** len(free)):
        b = 0
        for j, i in enumerate(free):
            if mask >> j & 1:
                b |= 1 << i
        for p, r in zip(pivots, reduced):
            if bin(r & b).count("1") % 2:
                b |= 1 << p
        solutions.append(format(b, f"0{width}b"))
    return sorted(solutions)


# ---------------------------------------------------------------------------
# quantum Fourier transform gate groups

_QFT_TOP_0 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128) / np.sqrt(2.0)
_QFT_TOP_1 = np.array([[0.0, 0.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def qft_group_mpo(i: int, n: int) -> MPO:
    """Gate group ``i`` of the QFT: Hadamard on qubit ``i`` followed by its
    controlled dyadic phases, merged into one chain of bond rank <= 2."""
    if not 1 <= i <= n:
        raise ValueError(f"group index {i} outside [1, {n}]")
    eye = IDENTITY[None, :, :, None]
    cores = [eye] * (i - 1)
    if i == n:
        cores.append(HADAMARD[None, :, :, None])
        return MPO(cores)
    cores.append(_row([_QFT_TOP_0, _QFT_TOP_1]))
    for j in range(i + 1, n):
        cores.append(_block([[IDENTITY, None], [None, phase_shift_k(j - i + 1)]]))
    cores.append(_col([IDENTITY, phase_shift_k(n - i + 1)]))
    return MPO(cores)


def inverse_qft_group_mpo(i: int, n: int) -> MPO:
    """Adjoint of gate group ``i``: conjugated phases, Hadamard applied last."""
    return qft_group_mpo(i, n).adjoint()


def qft_sequence(n: int) -> "GateGroupSequence":
    """All QFT gate groups in application order (qubit order reversed on output)."""
    return GateGroupSequence(
        groups=tuple(qft_group_mpo(i, n) for i in range(1, n + 1)),
        label=f"qft({n})",
    )


def inverse_qft_sequence(n: int) -> "GateGroupSequence":
    """Exact inverse of :func:`qft_sequence` (adjoint groups, reverse order)."""
    return GateGroupSequence(
        groups=tuple(inverse_qft_group_mpo(i, n) for i in range(n, 0, -1)),
        label=f"inverse-qft({n})",
    )


# ---------------------------------------------------------------------------
# sequential circuit executor


@dataclass(frozen=True)
class GateGroupSequence:
    """An ordered list of operator chains sharing one register."""

    groups: tuple[MPO, ...]
    label: str = ""
    register_layout: Mapping[str, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        dims = {g.dims for g in self.groups}
        if len(dims) > 1:
            raise ValueError("all groups must share the register size")
        if self.register_layout and self.groups:
            n = self.groups[0].n
            positions = sorted(p for ps in self.register_layout.values() for p in ps)
            if positions != list(range(1, n + 1)):
                raise ValueError("register layout must cover positions 1..n exactly once")

    @property
    def n(self) -> int:
        return self.groups[0].n if self.groups else 0


@dataclass(frozen=True)
class RunResult:
    """Final state of a sequence run plus the per-step rank trajectory."""

    state: MPS
    rank_history: tuple[tuple[int, ...], ...]

    @property
    def max_rank_seen(self) -> int:
        return max((max(r) for r in self.rank_history), default=self.state.max_rank)


def run_gate_sequence(
    sequence: GateGroupSequence,
    initial: MPS,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> RunResult:
    """Apply the groups in order, each on its support window only.

    The input is first rounded once with ``policy`` (a lossless left sweep
    and a truncating right sweep, as a full-width step would do), which
    leaves it right-orthonormal with the center on site 1; the center is
    then tracked.  Each group is contracted on the span between its
    outermost non-identity cores and only that span, plus one bond on each
    side, is rounded back to its numerical ranks
    (:func:`tensor_core.apply_window`), so a group costs what its window
    costs, not what the register costs.  For unitary
    groups the bond profile after each group equals that of a full
    lossless-left, truncating-right sweep.  The returned state is
    right-orthonormal and directly samplable; with unitary groups and a
    normalized input it stays normalized.
    """
    if not sequence.groups:
        return RunResult(state=initial, rank_history=())
    # the sequence guarantees that all its groups share one register
    if sequence.groups[0].dims != initial.dims:
        raise ValueError("group register size does not match the state")
    cores = list(orthonormalize_right(orthonormalize_left(initial, LOSSLESS), policy).cores)
    center = 0
    history = []
    for group in sequence.groups:
        center = apply_window(cores, center, group, policy)
        history.append((1,) + tuple(c.shape[2] for c in cores))
    move_center(cores, center, 0)
    return RunResult(state=MPS(cores, right_orthonormal=True), rank_history=tuple(history))


# ---------------------------------------------------------------------------
# factoring 15: modular exponentiation operators and period extraction

SHOR_MODULUS = 15
SHOR_BASES = (2, 4, 7, 8, 11, 13, 14)

#: Transcription of the explicit two-term / four-term decompositions for
#: M = 15: (pattern of the two least-significant input qubits, f value).
#: '-' marks an identity slot, '0'/'1' the projectors onto those bits.
SHOR_UF_CLOSED_FORM = {
    2: (("00", 1), ("01", 2), ("10", 4), ("11", 8)),
    4: (("-0", 1), ("-1", 4)),
    7: (("00", 1), ("01", 7), ("10", 4), ("11", 13)),
    8: (("00", 1), ("01", 8), ("10", 4), ("11", 2)),
    11: (("-0", 1), ("-1", 11)),
    13: (("00", 1), ("01", 13), ("10", 4), ("11", 7)),
    14: (("-0", 1), ("-1", 14)),
}

_PROJECTOR = {"0": CONTROL_0, "1": CONTROL_1, "-": IDENTITY}


def _rank_one_terms_mpo(terms) -> MPO:
    """Sum of elementary product operators, one bond unit of rank per term."""
    result = None
    for term in terms:
        cores = [np.asarray(m, dtype=np.complex128)[None, :, :, None] for m in term]
        result = MPO(cores) if result is None else mpo_add(result, MPO(cores))
    return result


def _uf_term(input_pattern: str, f_value: int, n_input: int, n_target: int):
    pattern = input_pattern.rjust(n_input, "-")
    f_bits = format(f_value, f"0{n_target}b")
    return [_PROJECTOR[c] for c in pattern] + [
        PAULI_X if b == "1" else IDENTITY for b in f_bits
    ]


def shor_closed_form_mpo(a: int) -> MPO:
    """Golden-reference operator for M = 15, transcribed term by term."""
    if a not in SHOR_UF_CLOSED_FORM:
        raise ValueError(f"no closed form for base {a}; supported: {SHOR_BASES}")
    terms = [_uf_term(pattern, f, 8, 4) for pattern, f in SHOR_UF_CLOSED_FORM[a]]
    return _rank_one_terms_mpo(terms)


def target_register_size(modulus: int) -> int:
    n = modulus.bit_length()
    return n if 2 ** n > modulus else n + 1


def multiplicative_order(a: int, modulus: int) -> int:
    value, order = a % modulus, 1
    while value != 1:
        value = value * a % modulus
        order += 1
        if order > modulus:
            raise ValueError(f"{a} has no multiplicative order mod {modulus}")
    return order


def modular_exponentiation_mpo(a: int, modulus: int = SHOR_MODULUS) -> MPO:
    """Operator mapping |x, 0> to |x, a^x mod modulus> on 3n qubits.

    Built from the sum over input residues.  When the order of ``a`` is a
    power of two the sum collapses to one projector pattern per residue
    class of the trailing input bits (rank = order); otherwise the full
    sum over inputs is accumulated and compressed blockwise.
    """
    if not 1 < a < modulus:
        raise ValueError(f"base must satisfy 1 < a < {modulus}")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"base {a} shares a factor with {modulus}")
    n_target = target_register_size(modulus)
    n_input = 2 * n_target
    order = multiplicative_order(a, modulus)
    if order & (order - 1) == 0:
        bits = order.bit_length() - 1
        terms = [
            _uf_term(format(j, f"0{bits}b") if bits else "", pow(a, j, modulus), n_input, n_target)
            for j in range(order)
        ]
        return compress_mpo(_rank_one_terms_mpo(terms))
    # order not a power of two: residue classes are not bit patterns
    result = None
    block = []
    for x in range(2 ** n_input):
        block.append(_uf_term(format(x, f"0{n_input}b"), pow(a, x, modulus), n_input, n_target))
        if len(block) == 64:
            chunk = _rank_one_terms_mpo(block)
            result = chunk if result is None else compress_mpo(mpo_add(result, chunk))
            block = []
    if block:
        chunk = _rank_one_terms_mpo(block)
        result = chunk if result is None else mpo_add(result, chunk)
    return compress_mpo(result)


@dataclass(frozen=True)
class PeriodExtraction:
    """Classical post-processing outcome for one measured value."""

    y: int
    period: int
    factors: tuple[int, int] | None
    failure: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.factors is not None


def extract_period(y: int, denominator: int, a: int, modulus: int) -> PeriodExtraction:
    """Continued-fraction period candidate for ``y / denominator`` plus factors.

    The candidate is the best rational approximation with denominator below
    the modulus.  An odd candidate, a zero measurement, or ``a^(q/2) = -1``
    yields no factors; otherwise the gcd pair
    ``(gcd(a^(q/2) - 1, M), gcd(a^(q/2) + 1, M))`` is returned.
    """
    if not 0 <= y < denominator:
        raise ValueError(f"measured value {y} outside [0, {denominator})")
    q = Fraction(y, denominator).limit_denominator(modulus - 1).denominator
    if y == 0:
        return PeriodExtraction(y, q, None, "zero measurement")
    if q % 2:
        return PeriodExtraction(y, q, None, "odd period candidate")
    half = pow(a, q // 2, modulus)
    if half == modulus - 1:
        return PeriodExtraction(y, q, None, "a^(q/2) is -1 mod M")
    return PeriodExtraction(y, q, (math.gcd(half - 1, modulus), math.gcd(half + 1, modulus)))


@dataclass(frozen=True)
class ShorResult:
    """Distribution over the input register plus extraction per outcome."""

    a: int
    modulus: int
    distribution: tuple[tuple[int, float], ...]
    extractions: tuple[PeriodExtraction, ...]
    rank_history: tuple[tuple[int, ...], ...]
    final_ranks: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.distribution)

    @property
    def factors_found(self) -> tuple[int, ...]:
        found = set()
        for row in self.extractions:
            if row.factors:
                found.update(f for f in row.factors if 1 < f < self.modulus)
        return tuple(sorted(found))


def _embed_trailing_identity(op: MPO, total: int) -> MPO:
    eye = IDENTITY[None, :, :, None]
    return MPO(list(op.cores) + [eye] * (total - op.n))


def shor_sequence(a: int, modulus: int = SHOR_MODULUS) -> GateGroupSequence:
    """Factoring pipeline as a group sequence: superpose, U_f, Fourier-invert.

    The phase-conjugated Fourier groups are swept over the input register so
    that the measured bitstrings, read in reversed order, are the phase
    estimates y directly (no SWAP gates anywhere).
    """
    n_target = target_register_size(modulus)
    n_input = 2 * n_target
    total = n_input + n_target
    groups = [
        hadamard_layer(range(1, n_input + 1), total),
        modular_exponentiation_mpo(a, modulus),
    ]
    # conjugated = inverse transform up to the qubit reversal read off later
    groups += [
        _embed_trailing_identity(qft_group_mpo(i, n_input).conj(), total)
        for i in range(1, n_input + 1)
    ]
    return GateGroupSequence(
        groups=tuple(groups),
        label=f"shor({a})",
        register_layout={
            "input": tuple(range(1, n_input + 1)),
            "target": tuple(range(n_input + 1, total + 1)),
        },
    )


def shor_run(
    a: int,
    modulus: int = SHOR_MODULUS,
    policy: TruncationPolicy = DEFAULT_POLICY,
    probability_floor: float = 1e-12,
) -> ShorResult:
    """Run the factoring pipeline and post-process every possible outcome."""
    sequence = shor_sequence(a, modulus)
    n_input = len(sequence.register_layout["input"])
    run = run_gate_sequence(sequence, basis_state_mps([0] * sequence.n), policy)
    marginal = born_sampler.marginal_distribution(run.state, range(1, n_input + 1))
    flat = marginal.reshape(-1)
    distribution = []
    for index in range(flat.size):
        if flat[index] > probability_floor:
            y = int(format(index, f"0{n_input}b")[::-1], 2)
            distribution.append((y, float(flat[index])))
    distribution.sort()
    extractions = tuple(
        extract_period(y, 2 ** n_input, a, modulus) for y, _ in distribution
    )
    return ShorResult(
        a=a,
        modulus=modulus,
        distribution=tuple(distribution),
        extractions=extractions,
        rank_history=run.rank_history,
        final_ranks=run.state.ranks,
    )


# ---------------------------------------------------------------------------
# builtin registry


@dataclass(frozen=True)
class Builtin:
    """A named catalog circuit, written ``name`` or ``name(arg)``.

    ``arg`` names its single integer argument and ``example`` is a valid
    value for it; both are ``None`` when the circuit takes no argument.
    ``build(arg)`` returns the gate sequence, its input state and the
    default readout positions.
    """

    arg: str | None
    example: int | None
    build: Callable[[int | None], tuple[GateGroupSequence, MPS, tuple[int, ...]]]


def _from_zeros(sequence: GateGroupSequence, readout: tuple[int, ...] | None = None):
    n = sequence.n
    return sequence, basis_state_mps([0] * n), readout or tuple(range(1, n + 1))


def _qfa_network(count: int):
    label = f"qfa-network({count})"
    sequence = GateGroupSequence((full_adder_network_mpo(count),), label=label)
    return sequence, full_adder_network_input(count), full_adder_network_outputs(count)


def _simon(_):
    layout = {"first": SIMON_FIRST_REGISTER, "second": SIMON_SECOND_REGISTER}
    sequence = GateGroupSequence((simon_circuit_mpo(),), label="simon", register_layout=layout)
    return _from_zeros(sequence, SIMON_FIRST_REGISTER)


def _shor(a: int):
    sequence = shor_sequence(a)
    return _from_zeros(sequence, sequence.register_layout["input"])


#: Every builtin circuit by name.  Builders look catalog functions up as
#: module globals when called, so a patched attribute is seen.
BUILTINS: dict[str, Builtin] = {
    "qfa": Builtin(
        None, None, lambda _: _from_zeros(GateGroupSequence((full_adder_mpo(),), label="qfa"))
    ),
    "qfa-network": Builtin("count", 2, _qfa_network),
    "simon": Builtin(None, None, _simon),
    "qft": Builtin("n", 8, lambda n: _from_zeros(qft_sequence(n))),
    "inverse-qft": Builtin("n", 8, lambda n: _from_zeros(inverse_qft_sequence(n))),
    "shor": Builtin("a", 7, _shor),
}


def build_builtin(name: str, arg: int | None = None):
    """Check ``arg`` against builtin ``name`` and build it.

    Returns ``(sequence, input state, default readout)``.  Raises
    ``ValueError`` for an unknown name, an argument given to a circuit that
    takes none, and a missing, non-integer or non-positive argument.
    """
    entry = BUILTINS.get(name)
    if entry is None:
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(BUILTINS)}")
    if entry.arg is None:
        if arg is not None:
            raise ValueError(f"builtin {name} takes no argument, got {arg!r}")
    elif arg is None:
        example = f"{name}({entry.example})"
        raise ValueError(f"builtin {name} needs its argument {entry.arg}, e.g. {example}")
    elif isinstance(arg, bool) or not isinstance(arg, int) or arg < 1:
        raise ValueError(f"builtin {name}: {entry.arg} must be an integer >= 1, got {arg!r}")
    return entry.build(arg)
