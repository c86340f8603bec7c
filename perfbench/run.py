"""utcat benchmark: one workload per process, end to end or per layer.

    python3 perfbench/run.py --workload annular --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout: it imports `utcat` from `src/` there and
reads the metric names and units from `BENCHMARK.json`.  Each workload (see
`workloads.py`) is a fixed list of small and large ops.  After set-up the run
repeats sweeps over them (the small ops several times per sweep) until
`--seconds` would be passed, and at least `MIN_SWEEPS` times.  Every time is
scaled to reference speed by a host speed probe (see `speed.py`).

`--trace 0` reports the end-to-end metrics: `setup_s` (import plus the
median of `SETUP_REPEATS` input generations with one warm-up op each),
`small_s` and `large_s` (the sum over the small or large ops of each op's
median latency) and `peak_rss_mb`.  `--trace 1` alternates untraced and
traced sweeps, reports per-layer self time, calls and errors per sweep
(medians over the traced sweeps), the computed work counters per sweep and
`trace.overhead_s`, and writes the spans to `perfbench/out/`.

The last line of stdout is the result object; the line before it records
the op counts, raw and scaled per-op medians, failures and the environment.
Exit code 2 means the benchmark could not run at all.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, direct, layer_totals  # noqa: E402

BLAS_THREADS = 1          # pinned, never inherited; at most nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_SWEEPS = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Run:
    """Timed phase of one workload: latencies, counters and failures."""

    def __init__(self, ops, small_repeats: int, probe):
        from utcat.errors import UtcatError
        from workloads import KNOWN_DEFECTS, CheckFailed

        self.verdicts = (UtcatError, CheckFailed)
        self.known = KNOWN_DEFECTS
        self.ops = ops
        self.probe = probe
        small = [op for op in ops if op.size == "small"]
        self.sweep = small * small_repeats + \
            [op for op in ops if op.size == "large"]
        self.latencies = defaultdict(list)   # op name -> reference seconds
        self.raw = defaultdict(list)         # op name -> measured seconds
        self.attempted = 0
        self.failures = defaultdict(int)     # (op, message, known) -> count

    def timed(self, fn, call) -> tuple:
        """(seconds, counters, exception or None) of one op run."""
        t0 = time.perf_counter()
        try:
            counters = fn(call)
        except self.verdicts as exc:
            return time.perf_counter() - t0, {}, exc
        except Exception as exc:  # a bug, not a verdict: report and go on
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return elapsed, {}, exc
        return time.perf_counter() - t0, counters, None

    def is_known(self, op, exc) -> bool:
        known = self.known.get(op.name)
        return (known is not None and type(exc).__name__ == known[0]
                and str(exc).startswith(known[1]))

    def sweep_once(self, tracer=None) -> tuple:
        """One pass over the sweep: (reference seconds, counters, scales).

        `scales[k]` converts the k-th op's measured seconds to reference
        seconds, from the speed probes right before and after it.  With a
        tracer, each op's run is itself a span, the parent of the layer
        spans it makes, so its self time is the benchmark's glue.
        """
        call = direct if tracer is None else tracer
        counters = defaultdict(int)
        scales = {}
        total = 0.0
        before = self.probe()
        for k, op in enumerate(self.sweep):
            fn = op.run
            if tracer is not None:
                tracer.op = k
                fn = functools.partial(tracer, f"op:{op.name}", op.run)
            dt, got, exc = self.timed(fn, call)
            after = self.probe()
            scales[k] = 2 * self.probe.reference / (before + after)
            before = after
            self.raw[op.name].append(dt)
            self.latencies[op.name].append(dt * scales[k])
            total += dt * scales[k]
            self.attempted += 1
            for name, value in got.items():
                counters[name] += value
            if exc is not None:
                self.failures[(op.name, f"{type(exc).__name__}: {exc}",
                               self.is_known(op, exc))] += 1
        return total, dict(counters), scales

    def class_seconds(self, size: str) -> float:
        return sum(statistics.median(self.latencies[op.name])
                   for op in self.ops if op.size == size)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return all(known for (_, _, known) in self.failures)


def _keep_going(started, n, last, seconds, minimum) -> bool:
    elapsed = time.perf_counter() - started
    return n < minimum or elapsed + last <= seconds


def _end_to_end(run, setup_s, seconds) -> tuple:
    started = time.perf_counter()
    n, last = 0, 0.0
    while _keep_going(started, n, last, seconds, MIN_SWEEPS):
        t0 = time.perf_counter()
        run.sweep_once()
        last = time.perf_counter() - t0
        n += 1
    return n, {
        "setup_s": setup_s,
        "small_s": run.class_seconds("small"),
        "large_s": run.class_seconds("large"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(run, seconds, names) -> tuple:
    tracer = Tracer()
    plain, traced, per_sweep = [], [], []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, len(traced), last, seconds, 1):
        t0 = time.perf_counter()
        plain.append(run.sweep_once()[0])
        lo = len(tracer.spans)
        total, counters, scales = run.sweep_once(tracer)
        traced.append(total)
        per_sweep.append((layer_totals(tracer.spans, lo, len(tracer.spans),
                                       scales), counters))
        last = time.perf_counter() - t0

    def value(name, totals, counters):
        if name == "trace.overhead_s":
            return statistics.median(traced) - statistics.median(plain)
        span, _, field = name.rpartition(".")
        if field in ("s", "calls", "errors"):
            return totals.get(span, {}).get(field, 0)
        return counters.get(name, 0)

    return len(traced), {
        name: statistics.median(value(name, t, c) for t, c in per_sweep)
        for name in names}, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "utcat" / "__init__.py").is_file():
        return _fail(f"no utcat sources under {SRC}")
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import utcat
    from speed import SpeedProbe
    from workloads import WORKLOADS

    if Path(utcat.__file__).resolve().parent != SRC / "utcat":
        return _fail(f"imported utcat from {utcat.__file__}, not {SRC}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _STARTED

    workload = WORKLOADS[args.workload]
    setup_probe = SpeedProbe("interpreter")
    setup_probe()
    probe = SpeedProbe(workload.speed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.build(args.seed)
        run = Run(ops, workload.small_repeats, probe)
        run.timed(ops[0].run, direct)        # warm-up, not counted
        setups.append(time.perf_counter() - t0)
        setup_probe()
    setup_s = ((import_s + statistics.median(setups)) * setup_probe.reference
               / statistics.median(setup_probe.kernel_s))

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__},
        "ops": {"small": sum(op.size == "small" for op in ops),
                "large": sum(op.size == "large" for op in ops),
                "small_repeats": workload.small_repeats},
    }
    tracer = None
    if args.trace:
        section = spec["per_layer"]
        sweeps, values, tracer = _per_layer(run, args.seconds,
                                            [m["name"] for m in section])
    else:
        section = spec["end_to_end"]
        sweeps, values = _end_to_end(run, setup_s, args.seconds)
    meta.update(sweeps=sweeps,
                speed={"kernel": workload.speed,
                       "reference_s": run.probe.reference,
                       "kernel_median_s":
                           statistics.median(run.probe.kernel_s)},
                op_median_s={op.name: statistics.median(run.latencies[op.name])
                             for op in ops},
                op_raw_median_s={op.name: statistics.median(run.raw[op.name])
                                 for op in ops},
                attempted=run.attempted, failed=run.failed,
                fail_ratio=run.failed / run.attempted,
                failures=[{"op": op, "error": msg, "known_defect": known,
                           "count": count}
                          for (op, msg, known), count in run.failures.items()])
    if tracer is not None:
        tracer.write(Path(__file__).resolve().parent / "out"
                     / f"trace-{args.workload}-{args.seed}.json", meta)
    print(json.dumps(meta))
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
