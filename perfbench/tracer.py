"""Spans around calls into the mpoq layers, recorded from outside the package.

A traced job replaces each public entry point below with a wrapper at every
name its callers look up: the module globals that hold the function (for
example ``mpoq.cli.sample`` and ``mpoq.circuit_catalog.orthonormalize_left``)
and the class attribute for methods (``MPO.apply``).  The package itself is
not edited.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from mpoq import born_sampler, circuit_catalog, cli, gate_library, tensor_core

MODULES = (cli, gate_library, circuit_catalog, tensor_core, born_sampler)

#: Span name of the job itself; its self time is the benchmark's own code
#: plus program code reached without passing a wrapped entry point.
JOB = "bench.job"


def _count_run(counts, args, kwargs, result):
    sequence = args[0] if args else kwargs["sequence"]
    counts["circuit_catalog.groups"] += len(sequence.groups)
    counts["circuit_catalog.max_rank"] = max(counts["circuit_catalog.max_rank"], result.max_rank_seen)


def _count_sweep(counts, args, kwargs, result):
    counts["tensor_core.sweep_sites"] += result.n


def _count_lift(counts, args, kwargs, result):
    counts["gate_library.cores_built"] += result.n


def _count_sample(counts, args, kwargs, result):
    counts["born_sampler.samples"] += result.sample_count
    counts["born_sampler.distinct_outcomes"] += len(result.counts)


#: (owner, attribute, span name, extra counter).  The span name starts with
#: the layer.  Functions are patched in every mpoq module that binds them;
#: methods on their class.
ENTRY_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "load_builtin", "cli.load", None),
    (cli, "load_circuit_payload", "cli.load", None),
    (gate_library.GatePlacement, "to_mpo", "gate_library.to_mpo", _count_lift),
    (gate_library, "hadamard_layer", "gate_library.to_mpo", _count_lift),
    (circuit_catalog, "run_gate_sequence", "circuit_catalog.run_gate_sequence", _count_run),
    (circuit_catalog, "full_adder_network_mpo", "circuit_catalog.build", None),
    (circuit_catalog, "full_adder_network_input", "circuit_catalog.build", None),
    (circuit_catalog, "qft_sequence", "circuit_catalog.build", None),
    (circuit_catalog, "inverse_qft_sequence", "circuit_catalog.build", None),
    (circuit_catalog, "shor_sequence", "circuit_catalog.build", None),
    (circuit_catalog, "shor_run", "circuit_catalog.shor_run", None),
    (circuit_catalog, "modular_exponentiation_mpo", "circuit_catalog.modexp", None),
    (tensor_core.MPO, "apply", "tensor_core.apply", None),
    (tensor_core, "orthonormalize_left", "tensor_core.orthonormalize_left", _count_sweep),
    (tensor_core, "orthonormalize_right", "tensor_core.orthonormalize_right", _count_sweep),
    (tensor_core, "compress_mpo", "tensor_core.compress_mpo", None),
    (tensor_core, "mpo_add", "tensor_core.mpo_add", None),
    (tensor_core, "basis_state_mps", "tensor_core.basis_state_mps", None),
    (born_sampler, "sample", "born_sampler.sample", _count_sample),
    (born_sampler, "marginal_distribution", "born_sampler.marginal", None),
    (born_sampler.SampleReport, "to_csv_text", "born_sampler.serialize", None),
    (born_sampler.SampleReport, "to_json_dict", "born_sampler.serialize", None),
    (born_sampler.SampleReport, "to_json_text", "born_sampler.serialize", None),
)


class Tracer:
    """Span recorder.  A span is ``(id, name, layer, start, end, parent, job)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._job: int | None = None

    def _wrap(self, fn, stem: str, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        layer = stem.split(".")[0]
        calls = stem + "_calls"

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, stem, layer, start, end, parent, self._job)
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every entry point; :meth:`uninstall` restores the originals."""
        for owner, attr, stem, counter in ENTRY_POINTS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, stem, counter)
            holders = [owner] if isinstance(owner, type) else [
                m for m in MODULES if m.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def job(self, job_id: int, fn):
        """Run ``fn`` traced as one job span; returns ``fn()``."""
        self._job = job_id
        self.install()
        try:
            return self._wrap(fn, JOB, None)()
        finally:
            self.uninstall()
            self._job = None

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` over all spans.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans of a job add up to the
        job span's duration.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, list] = {}
        for span_id, name, _, start, end, _, _ in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[span_id]
        return {key: tuple(row) for key, row in table.items()}

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        keys = ("id", "name", "layer", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
