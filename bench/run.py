"""Benchmark of barydeg: degree identification, fitting and extrapolation.

Run from the repository root:

    python3 bench/run.py                          # all workloads, one process
    python3 bench/run.py --workload vf-noisy --seed 3 --seconds 10 --trace 0

It uses the sources under ``src/`` of the checkout it sits in (nothing needs
to be installed) and pins BLAS to one thread.  Each workload builds its
inputs from ``--seed``, times a closed loop over its fixed operation list for
``--seconds``, checks every output, and prints its metrics by name and unit.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json, measured untraced; with ``--trace 1``
they are the per-layer metrics of a traced run (see bench/README.md).
"""

import os

# Pin BLAS to one thread before numpy is first imported (the import-time
# probes inherit it): on a small host BLAS threads compete with the measured
# process and make the timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is repeated this many times per run and the median reported; the
# import is timed in as many fresh interpreters.
SETUP_REPS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import barydeg, barydeg.cli; print(time.perf_counter() - t)"
)


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.s = time.perf_counter() - self.t0
        return False


class TracedStopwatch(Stopwatch):
    """Stopwatch whose block runs with the tracer's wrappers installed."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.tracer.__enter__()
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        return self.tracer.__exit__(*exc)


class PeakProbe:
    """tracemalloc peak (MB) of the block, relative to memory in use at entry."""

    def __enter__(self):
        self.base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc):
        self.mb = (tracemalloc.get_traced_memory()[1] - self.base) / 1e6
        return False


class Tally:
    """Attempted/failed counts and the per-operation outcomes of one workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}  # op label -> Outcome of its first execution
        self.worst_err = 0.0

    def add(self, outcome, label=None):
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            print(f"FAILED {label or 'set-up'}: {outcome.detail}", file=sys.stderr)
        if label is not None:
            self.first.setdefault(label, outcome)
            self.worst_err = max(self.worst_err, outcome.err)

    def hit_rate(self):
        return sum(o.hit for o in self.first.values()) / len(self.first)


def execute(op, tally, probe):
    """Run one operation inside ``probe`` (only the call is measured), then check it."""
    from workloads import FAILED

    try:
        with probe:
            out = op.run()
        outcome = op.check(out)
    except Exception:  # a raising operation is counted as failed, the run goes on
        traceback.print_exc()
        outcome = FAILED
    tally.add(outcome, op.label)
    return probe


def closed_loop(ops, kernel, seconds, tally):
    """Cycle through ``ops`` one at a time until ``seconds`` have passed and
    every operation ran at least once, timing the calibration ``kernel``
    before each; return each operation's times and the kernel's times."""
    times = {op.label: [] for op in ops}
    kernel_times = []
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        with Stopwatch() as sw:
            kernel()
        kernel_times.append(sw.s)
        times[op.label].append(execute(op, tally, Stopwatch()).s)
        i += 1
    return times, kernel_times


def peak_pass(ops, tally):
    """Largest tracemalloc peak (MB) of any single operation."""
    tracemalloc.start()
    try:
        return max(execute(op, tally, PeakProbe()).mb for op in ops)
    finally:
        tracemalloc.stop()


def finite(x):
    return x if math.isfinite(x) else sys.float_info.max


def import_seconds():
    """Median time to import barydeg in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(wl, seed, seconds, workdir, import_s):
    """Untraced run: end-to-end metrics of one workload."""
    tally = Tally()
    build_times = []
    for _ in range(SETUP_REPS):
        with Stopwatch() as sw:
            built = wl.build(seed, workdir)
        build_times.append(sw.s)
    for outcome in built.setup_checks:
        tally.add(outcome)
    times, kernel_times = closed_loop(built.ops, wl.kernel, seconds, tally)
    peak_mb = peak_pass(built.ops, tally)

    op_s = sum(statistics.median(t) for t in times.values())
    ops_per_s = len(built.ops) / op_s
    factor = statistics.median(kernel_times) / wl.kernel_ref_s
    metrics = {
        "setup_s": (import_s + statistics.median(build_times), "s"),
        "cal_ops_per_s": (ops_per_s * factor, "1/s"),
        "peak_alloc_mb": (peak_mb, "MB"),
        "degree_hit_rate": (tally.hit_rate(), "ratio"),
        "max_rel_err": (finite(tally.worst_err), "ratio"),
    }
    # wall-clock throughput under the name the workload's users know it by
    if wl.points_per_op:
        throughput = (ops_per_s * wl.points_per_op / 1e6, "Mpts/s")
    else:
        throughput = (ops_per_s, "1/s")
    extra = {wl.throughput_name: throughput,
             "kernel_factor": (factor, "ratio"),
             "error_rate": (tally.failed / tally.attempted, "ratio")}
    if wl.points_per_op:
        extra["extrap_max_rel_err"] = metrics["max_rel_err"]
    all_times = [x for t in times.values() for x in t]
    print(f"# {wl.name}: {len(built.ops)} ops, {len(all_times)} timed executions, "
          f"op time median {statistics.median(all_times) * 1e3:.2f} ms, "
          f"max {max(all_times) * 1e3:.2f} ms; set-up: import {import_s:.4f} s + build "
          + ", ".join(f"{t:.4f}" for t in build_times) + " s")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{wl.name:14s} {name:20s} {value:.6g} {unit}")
    return tally, metrics


def measure_traced(wl, seed, seconds, workdir):
    """Traced run: per-layer metrics of one workload, plus tracing overhead.

    Set-up runs once, traced.  Then untraced and traced passes over the
    operations alternate until ``seconds`` have passed (at least one each).
    A last traced set-up and pass run under tracemalloc for the peaks of the
    solve layers only: tracemalloc slows Python-heavy code several times
    over, so it is kept out of the timed spans.
    """
    import tracing

    tally = Tally()
    tracer = tracing.Tracer()
    with tracer:
        built = wl.build(seed, workdir)
    setup_stats = tracer.take()
    for outcome in built.setup_checks:
        tally.add(outcome)

    def run_pass(probe_factory):
        return sum(execute(op, tally, probe_factory()).s for op in built.ops)

    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain.append(run_pass(Stopwatch))
        traced.append(run_pass(lambda: TracedStopwatch(tracer)))
        passes.append(tracer.take())

    tracemalloc.start()
    try:
        with tracer:
            wl.build(seed, workdir)
        run_pass(lambda: TracedStopwatch(tracer))
    finally:
        tracemalloc.stop()
    peaks = tracer.take()

    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = tracing.layer_metrics(setup_stats, passes, peaks, overhead)
    print(f"# {wl.name}: traced profile (set-up + first pass), {len(passes)} traced passes, "
          f"untraced pass {statistics.median(plain):.4f} s, traced {statistics.median(traced):.4f} s")
    for line in tracing.profile_lines(tracing.merge(setup_stats, passes[0]), peaks):
        print(line)
    for name, m in metrics.items():
        print(f"{wl.name:14s} {name:40s} {m['value']:.6g} {m['unit']}")
    return tally, {k: (m["value"], m["unit"]) for k, m in metrics.items()}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        blas_n = blas_threads()
    except (OSError, ValueError):
        blas_n = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_n,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "barydeg" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no barydeg sources (src/barydeg) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(argv, list(whys))

    sys.path.insert(0, str(SRC))
    import barydeg

    if Path(barydeg.__file__).resolve().parent != SRC / "barydeg":
        print(f"error: imported barydeg from {barydeg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(whys) if args.workload == "all" else [args.workload]
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print("env " + json.dumps(environment(args)))
    import_s = 0.0 if args.trace else import_seconds()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    results = []
    try:
        for name in names:
            print(f"# {name}: {whys[name]}")
            wl = WORKLOADS[name]
            if args.trace:
                results.append((name, *measure_traced(wl, args.seed, args.seconds, workdir)))
            else:
                results.append((name, *measure(wl, args.seed, args.seconds, workdir, import_s)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, _, metrics in results:
        if sorted(metrics) != sorted(declared):
            print(f"error: {name} metrics differ from BENCHMARK.json", file=sys.stderr)
            return 1
    attempted = sum(t.attempted for _, t, _ in results)
    failed = sum(t.failed for _, t, _ in results)
    prefix = len(results) > 1
    metrics = {
        (f"{name}.{k}" if prefix else k): {"value": v, "unit": u}
        for name, _, ms in results for k, (v, u) in ms.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
