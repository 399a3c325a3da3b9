"""Closed-form low-rank operator builders for the benchmark circuits.

Covers the four-qubit reversible full adder and chains of coupled adders,
the fixed Simon instance with interleaved registers, the quantum Fourier
transform split into per-qubit gate groups, and the modular-exponentiation
operators for factoring 15, together with the windowed sequential
executor, the classical period-extraction step and the
registry of named builtin circuits, each built as one runnable
:class:`Circuit` record.

No SWAP gates are used anywhere, so a QFT leaves its output bits in
reverse order; ``qft(n)`` still reports them in register order, and only
``shor(a)`` reverses its readout, in :func:`shor_readout`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import born_sampler
from .gate_library import (
    CONTROL_0,
    CONTROL_1,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    GatePlacement,
    controlled_core,
    hadamard_layer,
    phase_shift_k,
)
from .tensor_core import (
    DEFAULT_POLICY,
    MPO,
    MPS,
    TruncationPolicy,
    adjoint_core,
    apply_window,
    basis_state_mps,
    block_core,
    compress_mpo,
    is_integer,
    move_center,
    mpo_add,
    sealed,
)


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
        block_core([[sx @ CONTROL_0, IDENTITY, sx @ CONTROL_1]]),
        block_core([
            [CONTROL_0, CONTROL_1, None, None],
            [None, CONTROL_0, CONTROL_1, None],
            [None, None, CONTROL_0, CONTROL_1],
        ]),
        block_core([
            [CONTROL_1, None],
            [CONTROL_0, None],
            [None, CONTROL_1],
            [None, CONTROL_0],
        ]),
        block_core([[IDENTITY], [sx]]),
    ])


def full_adder_gate_placements() -> tuple[GatePlacement, ...]:
    """The five elementary gates of the adder, in application order."""
    return (
        GatePlacement(PAULI_X, target=4, controls=(2, 3)),
        GatePlacement(PAULI_X, target=3, controls=(2,)),
        GatePlacement(PAULI_X, target=4, controls=(1, 3)),
        GatePlacement(PAULI_X, target=1, controls=(3,)),
        GatePlacement(PAULI_X, target=3, controls=(2,)),
    )


def adder_coupling_core() -> np.ndarray:
    """Shared-qubit core fusing one adder's carry-out into the next carry-in."""
    adder = full_adder_mpo()
    first, last = adder.cores[0], adder.cores[3]
    # next adder acts after the previous one on the shared qubit
    return block_core([[first[0, :, :, l] @ last[k, :, :, 0] for l in range(3)] for k in range(2)])


def full_adder_network_mpo(count: int) -> MPO:
    """Chain of ``count`` coupled full adders on ``3*count + 1`` qubits.

    Adder ``i`` occupies qubits ``3i-2 .. 3i+1``; its carry-out qubit is the
    next adder's carry-in.  The maximum bond rank stays 4 for any count.
    """
    if not is_integer(count) or count < 1:
        raise ValueError(f"adder count must be an integer >= 1, got {count!r}")
    adder = full_adder_mpo()
    coupling = adder_coupling_core()
    cores = [adder.cores[0], adder.cores[1], adder.cores[2]]
    for _ in range(count - 1):
        cores.extend([coupling, adder.cores[1], adder.cores[2]])
    cores.append(adder.cores[3])
    return MPO(cores)


def full_adder_network_input(count: int) -> MPS:
    """All-zero register with the two summand qubits of every adder superposed."""
    if not is_integer(count) or count < 1:
        raise ValueError(f"adder count must be an integer >= 1, got {count!r}")
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
        block_core([[a, b]]),
        block_core([[IDENTITY, None], [None, IDENTITY]]),
        block_core([[a, b, None, None], [None, None, a, b]]),
        block_core([[IDENTITY, None], [sx, None], [None, IDENTITY], [None, sx]]),
        block_core([[a, b], [b, a]]),
        block_core([[IDENTITY], [sx]]),
        block_core([[a, b]]),
        block_core([[IDENTITY], [sx]]),
    ])


def solve_hidden_string(support) -> list[str]:
    """Nonzero mod-2 solutions b of z . b = 0 for every z in ``support``.

    Standard Simon postprocessing; the instance is solved when exactly one
    nonzero solution remains.  The register is narrow (width 4 for the
    fixed instance), so every nonzero candidate is tested directly.
    """
    if not support:
        return []
    width = len(next(iter(support)))
    rows = [int(z, 2) for z in support]
    return [
        format(b, f"0{width}b")
        for b in range(1, 2 ** width)
        if not any((b & z).bit_count() % 2 for z in rows)
    ]


# ---------------------------------------------------------------------------
# quantum Fourier transform gate groups

def _fourier_groups(n: int, form: str, total: int | None = None) -> tuple[MPO, ...]:
    """Gate groups ``1..n`` of ``qft(n)`` in ``form``: ``""`` (qft),
    ``"conj"`` (every entry conjugated; shor) or ``"adjoint"`` (each core's
    :func:`adjoint_core`, groups in reverse order; inverse-qft), group ``i``
    on qubits ``i..n`` of a register of ``total`` qubits (default ``n``);
    ``n`` must be an integer >= 1 whose ``n (n + 1) / 2`` cores fit
    :func:`check_core_budget`, checked before any core is built.

    Group ``i`` is the Hadamard on qubit ``i`` followed by its controlled
    dyadic phases, merged into one chain of bond rank <= 2.  A core depends
    only on its place in the group and its phase index, so the call builds
    the 2n - 1 distinct cores once and every group holds references to them.
    """
    if not is_integer(n):
        raise ValueError(f"a Fourier transform size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"a Fourier transform needs at least one qubit, got {n!r}")
    n = int(n)
    check_core_budget(n * (n + 1) // 2, f"{'inverse-qft' if form == 'adjoint' else 'qft'}({n})")
    phases = [phase_shift_k(k) for k in range(2, n + 1)]
    cores = [block_core([[HADAMARD]]),
             block_core([[np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128) / np.sqrt(2.0),
                          np.array([[0.0, 0.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)]])]
    cores += [controlled_core(1, p) for p in phases[:-1]] + [controlled_core(2, p) for p in phases]
    if form:
        cores = [sealed(c.conj() if form == "conj" else adjoint_core(c)) for c in cores]
    # the last group's Hadamard, the top core (the Hadamard split over the
    # bond), the middle cores of phases 2..n-1 and the last of phases 2..n
    single, top, middle, last = cores[0], cores[1], cores[2:n], cores[n:]
    groups = [[top, *middle[:n - i - 1], last[n - i - 1]] for i in range(1, n)] + [[single]]
    order = range(n, 0, -1) if form == "adjoint" else range(1, n + 1)
    return tuple(MPO(groups[i - 1], i - 1, total or n) for i in order)


def qft_sequence(n: int) -> "GateGroupSequence":
    """All QFT gate groups in application order (qubit order reversed on output)."""
    return GateGroupSequence(groups=_fourier_groups(n, ""), label=f"qft({n})")


def inverse_qft_sequence(n: int) -> "GateGroupSequence":
    """Exact inverse of :func:`qft_sequence`: adjoint groups (conjugated
    phases, Hadamard applied last) in reverse order."""
    return GateGroupSequence(groups=_fourier_groups(n, "adjoint"), label=f"inverse-qft({n})")


# ---------------------------------------------------------------------------
# sequential circuit executor


@dataclass(frozen=True)
class GateGroupSequence:
    """An ordered list of operator chains sharing one register."""

    groups: tuple[MPO, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len({g.n for g in self.groups}) > 1:
            raise ValueError("all groups must share the register size")

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

    The input is rounded on the executor's own list of its cores by the two
    :func:`tensor_core.move_center` sweeps that ``apply_window`` rounds a
    window with, here the whole register: lossless to the last site, then
    cut by ``policy`` back to site 1, where the center is then tracked.
    Each group is contracted on its span (``MPO.span``) and only that span,
    plus one bond on each side, is rounded back to its numerical ranks
    (:func:`tensor_core.apply_window`), so a group costs its window, not
    the register, and every value a run cuts is cut by one of these
    ``move_center`` calls.  For unitary groups the bond profile after each
    group equals that of a full lossless-left, truncating-right sweep.  The
    returned state, right-orthonormal and samplable, is the only state a
    run builds; with unitary groups and a normalized input it stays
    normalized.
    """
    # the sequence guarantees that all its groups share one register
    if sequence.groups and sequence.n != initial.n:
        raise ValueError("group register size does not match the state")
    cores = list(initial.cores)
    move_center(cores, 0, len(cores) - 1)
    center = move_center(cores, len(cores) - 1, 0, policy)
    ranks = [1] + [c.shape[2] for c in cores]
    history = []
    for group in sequence.groups:
        center, stepped = apply_window(cores, center, group, policy)
        for i in stepped:
            ranks[i + 1] = cores[i].shape[2]
        history.append(tuple(ranks))
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
    if not is_integer(a) or a not in SHOR_UF_CLOSED_FORM:
        raise ValueError(f"no closed form for base {a!r}; supported: {SHOR_BASES}")
    terms = [_uf_term(pattern, f, 8, 4) for pattern, f in SHOR_UF_CLOSED_FORM[a]]
    return _rank_one_terms_mpo(terms)


def target_register_size(modulus: int) -> int:
    """Qubits that hold every residue below ``modulus``, an integer >= 2."""
    if not is_integer(modulus) or modulus < 2:
        raise ValueError(f"a modulus must be an integer >= 2, got {modulus!r}")
    return int(modulus).bit_length()


def multiplicative_order(a: int, modulus: int) -> int:
    value, order = a % modulus, 1
    while value != 1:
        value = value * a % modulus
        order += 1
        if order > modulus:
            raise ValueError(f"{a} has no multiplicative order mod {modulus}")
    return order


def modular_exponentiation_mpo(a: int, modulus: int = SHOR_MODULUS) -> MPO:
    """Operator mapping |x, t> to |x, t XOR (a^x mod modulus)> on 3n qubits.

    ``a^x mod modulus`` depends only on ``x mod r`` (``r`` the order of
    ``a``), so the chain is a residue automaton of :func:`block_core` cores:
    its bonds carry the residue ``s`` of the input bits read so far, most
    significant first, an input core's block ``(s, t)`` being ``CONTROL_b``
    for ``t = (2 s + b) mod r``, and each target core is a diagonal over the
    residue ``j`` of X where its bit of ``a^j mod modulus`` is 1 (else the
    identity).  One rounding pass brings the bonds to their minimal ranks.
    """
    if not is_integer(a) or not is_integer(modulus) or not 1 < a < modulus:
        raise ValueError(f"base and modulus must be integers with 1 < a < modulus, got {a!r} and {modulus!r}")
    a, modulus = int(a), int(modulus)
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"base {a} shares a factor with {modulus}")
    n_target = target_register_size(modulus)
    order = multiplicative_order(a, modulus)
    step = block_core([[{2 * s % order: CONTROL_0, (2 * s + 1) % order: CONTROL_1}.get(t)
                        for t in range(order)] for s in range(order)])
    cores = [step[:1]] + [step] * (2 * n_target - 1)
    powers = [format(pow(a, j, modulus), f"0{n_target}b") for j in range(order)]
    for k in range(n_target):
        gates = [PAULI_X if bits[k] == "1" else IDENTITY for bits in powers]
        cores.append(block_core([[g if t == j else None for t in range(order)] for j, g in enumerate(gates)]))
    cores[-1] = cores[-1].sum(axis=3, keepdims=True)
    return compress_mpo(MPO(cores))


@dataclass(frozen=True)
class PeriodExtraction:
    """Classical post-processing outcome for one measured value."""

    y: int
    period: int
    factors: tuple[int, int] | None
    failure: str | None = None


def extract_period(y: int, denominator: int, a: int, modulus: int) -> PeriodExtraction:
    """Continued-fraction period candidate for ``y / denominator`` plus factors.

    The candidate is the best rational approximation with denominator below
    the modulus.  An odd candidate, a zero measurement, or ``a^(q/2) = -1``
    yields no factors; otherwise the gcd pair
    ``(gcd(a^(q/2) - 1, M), gcd(a^(q/2) + 1, M))`` is returned.
    """
    if not all(map(is_integer, (denominator, a, modulus))) or not 1 < a < modulus:
        raise ValueError("denominator, base and modulus must be integers with 1 < a < modulus, "
                         f"got {denominator!r}, {a!r} and {modulus!r}")
    if not is_integer(y) or not 0 <= y < denominator:
        raise ValueError(f"measured value must be an integer in [0, {denominator}), got {y!r}")
    y, denominator, a, modulus = int(y), int(denominator), int(a), int(modulus)
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
    distribution: tuple[tuple[int, float], ...]
    extractions: tuple[PeriodExtraction, ...]
    final_ranks: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.distribution)

    @property
    def factors_found(self) -> tuple[int, ...]:
        found = set()
        for row in self.extractions:
            if row.factors:
                found.update(f for f in row.factors if 1 < f < SHOR_MODULUS)
        return tuple(sorted(found))


#: The input register of ``shor(a)``: its first ``2 * target_register_size(15)`` qubits.
SHOR_INPUT = tuple(range(1, 2 * target_register_size(SHOR_MODULUS) + 1))


def shor_sequence(a: int) -> GateGroupSequence:
    """Factoring pipeline for 15 as a group sequence: superpose, U_f, Fourier-invert.

    The phase-conjugated Fourier groups are swept over the input register
    :data:`SHOR_INPUT` so that the measured bitstrings, read in reversed
    order, are the phase estimates y directly (no SWAP gates anywhere).
    """
    n_input = len(SHOR_INPUT)
    total = n_input + target_register_size(SHOR_MODULUS)
    groups = [hadamard_layer(SHOR_INPUT, total), modular_exponentiation_mpo(a, SHOR_MODULUS)]
    # conjugated = inverse transform up to the qubit reversal read off later
    groups += _fourier_groups(n_input, "conj", total)
    return GateGroupSequence(groups=tuple(groups), label=f"shor({a})")


def shor_readout(a: int, report: born_sampler.SampleReport):
    """Read a ``shor(a)`` report over the input register as phase estimates.

    The Fourier groups leave the input register in reversed bit order, so
    each bitstring read backwards is the phase estimate ``y``.  Returns the
    report with its counts and probabilities keyed by the reversed
    bitstrings, and one :func:`extract_period` row per ``y`` in ascending
    order: over the exact support when the report has one, over the drawn
    outcomes otherwise.
    """
    counts = Counter({key[::-1]: c for key, c in report.counts.items()})
    probabilities = report.probabilities and {key[::-1]: p for key, p in report.probabilities.items()}
    support = sorted(probabilities or counts)
    rows = tuple(extract_period(int(y, 2), 2 ** len(y), a, SHOR_MODULUS) for y in support)
    return replace(report, counts=counts, probabilities=probabilities), rows


def shor_run(a: int) -> ShorResult:
    """Run ``shor(a)`` as ``simulate --builtin shor(a)`` does, with exact
    probabilities, and post-process every possible outcome."""
    circuit = build_builtin("shor", a)
    run = run_gate_sequence(circuit.sequence, circuit.initial, circuit.policy)
    plan = born_sampler.MeasurementPlan(circuit.readout)
    report, extractions = shor_readout(circuit.shor_base, born_sampler.sample(run.state, plan))
    return ShorResult(
        a=circuit.shor_base,
        distribution=tuple((int(key, 2), p) for key, p in sorted(report.probabilities.items())),
        extractions=extractions,
        final_ranks=run.state.ranks,
    )


# ---------------------------------------------------------------------------
# builtin registry

#: Largest JSON register ``n`` and largest builtin argument: the input state
#: alone is one core per qubit, so an unbounded size could exhaust memory.
MAX_QUBITS = 100_000

#: Most operator cores one circuit may store over all its groups.  It bounds
#: the core references the groups hold and the core applications of a run
#: (each stored core is contracted once).  The groups of one QFT sequence
#: share its 2n - 1 cores, so ``qft(1413)``'s 998,991 references hold about
#: 9 MB; the cores of lifted gates are their own arrays, about 460 bytes
#: each, 0.46 GB at the budget.
MAX_CORES = 10 ** 6


def check_core_budget(count: int, what: str) -> None:
    """Raise ``ValueError`` when ``what`` would store ``count`` > :data:`MAX_CORES` cores."""
    if count > MAX_CORES:
        raise ValueError(f"{what} would store {count} operator cores, above the budget of {MAX_CORES}")


@dataclass(frozen=True)
class Circuit:
    """A runnable circuit: gate groups, input state, default readout and the
    truncation policy to run it with.  ``shor_base`` is ``a`` for ``shor(a)``,
    whose readout :func:`shor_readout` turns into phase estimates."""

    sequence: GateGroupSequence
    initial: MPS
    readout: tuple[int, ...]
    policy: TruncationPolicy = DEFAULT_POLICY
    shor_base: int | None = None


@dataclass(frozen=True)
class Builtin:
    """A named catalog circuit, written ``name`` or ``name(arg)``.

    ``arg`` names its single integer argument and ``example`` is a valid
    value for it; both are ``None`` when the circuit takes no argument.
    ``qubits(arg)`` is the register size the circuit acts on, known
    without building it; ``build(arg)`` returns the :class:`Circuit`.
    """

    arg: str | None
    example: int | None
    qubits: Callable[[int | None], int]
    build: Callable[[int | None], Circuit]


def _from_zeros(sequence: GateGroupSequence, readout=None, shor_base=None) -> Circuit:
    """``sequence`` on the all-zero register, read at ``readout`` (default: every qubit)."""
    n = sequence.n
    readout = readout or tuple(range(1, n + 1))
    return Circuit(sequence, basis_state_mps([0] * n), readout, shor_base=shor_base)


def _qfa(_) -> Circuit:
    return _from_zeros(GateGroupSequence((full_adder_mpo(),), label="qfa"))


def _qfa_network(count: int) -> Circuit:
    sequence = GateGroupSequence((full_adder_network_mpo(count),), label=f"qfa-network({count})")
    return Circuit(sequence, full_adder_network_input(count), full_adder_network_outputs(count))


def _simon(_) -> Circuit:
    sequence = GateGroupSequence((simon_circuit_mpo(),), label="simon")
    return _from_zeros(sequence, SIMON_FIRST_REGISTER)


#: Every builtin circuit by name.  Builders look catalog functions up as
#: module globals when called, so a patched attribute is seen.
BUILTINS: dict[str, Builtin] = {
    "qfa": Builtin(None, None, lambda _: 4, _qfa),
    "qfa-network": Builtin("count", 2, lambda count: 3 * count + 1, _qfa_network),
    "simon": Builtin(None, None, lambda _: 8, _simon),
    "qft": Builtin("n", 8, lambda n: n, lambda n: _from_zeros(qft_sequence(n))),
    "inverse-qft": Builtin("n", 8, lambda n: n, lambda n: _from_zeros(inverse_qft_sequence(n))),
    "shor": Builtin(
        "a", 7, lambda _: len(SHOR_INPUT) + target_register_size(SHOR_MODULUS),
        lambda a: _from_zeros(shor_sequence(a), SHOR_INPUT, shor_base=a),
    ),
}


def build_builtin(name: str, arg: int | None = None) -> Circuit:
    """Check ``arg`` against builtin ``name`` and build its :class:`Circuit`.

    Raises ``ValueError`` for an unknown name, an argument given to a
    circuit that takes none, and a missing or non-integer argument (see
    :func:`~mpoq.tensor_core.is_integer`) or one outside ``[1, MAX_QUBITS]``;
    the builder is passed the argument as an ``int``.
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
    elif not is_integer(arg) or not 1 <= arg <= MAX_QUBITS:
        raise ValueError(f"builtin {name}: {entry.arg} must be an integer in [1, {MAX_QUBITS}], got {arg!r}")
    return entry.build(arg if arg is None else int(arg))
