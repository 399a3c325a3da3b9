"""mpoq benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload adder-sampling --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it print every metric by name and unit, the workload's own
component metrics and the environment record.  Results and spans are also
written under ``.perfbench_runs/``.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

#: BLAS threads per process, at most ``nproc``.  The workloads' matrices are
#: at most 65536 x 16.  On a 2-core VM with a second busy process, two
#: OpenBLAS threads made one modexp(2, 21) build take 51 s instead of 4 s.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Extra processes started only to measure set-up time again.
SETUP_PROBES = 4

#: Metrics reported by the traced run: (name, unit).
PER_LAYER = (
    ("gate_library.self_s", "s"),
    ("circuit_catalog.self_s", "s"),
    ("tensor_core.self_s", "s"),
    ("born_sampler.self_s", "s"),
    ("gate_library.to_mpo_s", "s"),
    ("circuit_catalog.run_gate_sequence_s", "s"),
    ("tensor_core.apply_s", "s"),
    ("tensor_core.orthonormalize_left_s", "s"),
    ("tensor_core.orthonormalize_right_s", "s"),
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("born_sampler.distinct_per_sample", "ratio"),
    ("cli.load_calls", "count"),
    ("gate_library.to_mpo_calls", "count"),
    ("gate_library.cores_built", "count"),
    ("circuit_catalog.run_gate_sequence_calls", "count"),
    ("circuit_catalog.groups", "count"),
    ("circuit_catalog.max_rank", "count"),
    ("circuit_catalog.build_calls", "count"),
    ("circuit_catalog.shor_run_calls", "count"),
    ("circuit_catalog.modexp_calls", "count"),
    ("tensor_core.apply_calls", "count"),
    ("tensor_core.orthonormalize_left_calls", "count"),
    ("tensor_core.orthonormalize_right_calls", "count"),
    ("tensor_core.sweep_sites", "count"),
    ("tensor_core.compress_mpo_calls", "count"),
    ("tensor_core.mpo_add_calls", "count"),
    ("born_sampler.sample_calls", "count"),
    ("born_sampler.marginal_calls", "count"),
    ("born_sampler.serialize_calls", "count"),
    ("born_sampler.distinct_outcomes", "count"),
    ("trace.spans", "count"),
)

def pin_blas_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout from ``.git`` without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: start to warmed-up workload."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    q = int(100 * (n - 10) / n) if n > 10 else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100)[q - 1]


def tally(entries):
    """Failed operation count and ``(operation, message)`` list of check entries."""
    failures = [(op, msg) for op, msgs in entries for msg in msgs]
    return sum(1 for _, msgs in entries if msgs), failures


def per_layer_metrics(tracer, traced, untraced):
    """Per-job means over the traced jobs, the tracing overhead, and the span table.

    ``<layer>.self_s`` sums the self time of the layer's spans,
    ``<span>_s`` is the total time inside spans of that name, and every
    other name is a count kept by the tracer.
    """
    jobs = len(traced)
    table = tracer.self_times()
    self_by_layer = {}
    for name, (_, _, self_s) in table.items():
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
    counts = tracer.counts
    traced_mean = statistics.fmean(traced)
    layer_self = sum(v for layer, v in self_by_layer.items() if layer != "bench")
    values = {
        "trace.job_s": statistics.median(traced),
        "trace.untraced_job_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.coverage": layer_self / jobs / traced_mean,
        "trace.spans": len(tracer.spans) / jobs,
        "circuit_catalog.max_rank": counts["circuit_catalog.max_rank"],
        "born_sampler.distinct_per_sample": (
            counts["born_sampler.distinct_outcomes"] / counts["born_sampler.samples"]
            if counts["born_sampler.samples"] else 0.0
        ),
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        stem, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_by_layer.get(stem, 0.0) / jobs
        elif name.endswith("_s"):
            values[name] = table.get(name[:-2], (0, 0.0))[1] / jobs
        else:
            values[name] = counts[name] / jobs
    return values, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpoq" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'mpoq'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import mpoq

    if Path(mpoq.__file__).resolve().parent != SRC / "mpoq":
        print(f"error: imported mpoq from {mpoq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup = [time.perf_counter() - _START]
        if args.setup_probe:
            print(repr(setup[0]))
            return 0
        return measure(args, workload, setup, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup, tracer) -> int:
    entries = list(workload.once())
    setup += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    unit = 2 if tracer is not None else workload.unit
    jobs, traced, untraced, parts = [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        inputs = workload.inputs(k)
        is_traced = tracer is not None and k % 2 == 1
        begin = time.perf_counter()
        if is_traced:
            part, output = tracer.job(k, lambda: workload.job(inputs))
        else:
            part, output = workload.job(inputs)
        elapsed = time.perf_counter() - begin
        jobs.append(elapsed)
        if is_traced:
            traced.append(elapsed)
        else:
            untraced.append(elapsed)
            for name, (value, unit_) in part.items():
                parts.setdefault((name, unit_), []).append(value)
        entries += workload.check(k, inputs, output)
        k += 1
        if k % unit == 0 and time.perf_counter() >= deadline:
            break

    failed, failures = tally(entries)
    for op, msg in failures:
        print(f"FAIL {op}: {msg}", file=sys.stderr)

    extra = {name: (statistics.median(v), unit_) for (name, unit_), v in parts.items()}
    tail = tail_percentile(untraced)
    if tail is not None:
        extra[f"job_s.p{tail[0]}"] = (tail[1], "s")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "job_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        table = {}
    else:
        values, table = per_layer_metrics(tracer, traced, untraced)
        metrics = {name: (values[name], unit_) for name, unit_ in PER_LAYER}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")

    env = environment()
    print(f"workload {args.workload}: seed {args.seed}, {len(jobs)} jobs "
          f"({len(traced)} traced) in {args.seconds:g} s window, BLAS threads {env['blas_threads']}")
    for name, (value, unit_) in {**metrics, **extra}.items():
        print(f"{name} = {value!r} {unit_}")
    print(f"failed_frac = {failed / len(entries)!r} ratio "
          f"({failed} of {len(entries)} checked operations failed)")
    if table:
        print("span                                     calls     total_s      self_s")
        for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:<38} {calls:>7} {total:>11.6f} {self_s:>11.6f}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(entries),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_} for name, (value, unit_) in metrics.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "setup_samples_s": setup,
        "job_samples_s": jobs,
        "failures": failures,
        "env": env,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
