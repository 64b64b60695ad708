#!/usr/bin/env python3
"""Benchmark of the augoverlap pipelines, with per-case oracle checks.

    python3 bench/run.py --workload graph-metrics --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --seconds 45            # every workload, one process each

One workload runs as a closed loop with one client in this process: the next
case starts when the previous one returns. Each case is timed around the
library calls only; its oracle checks run after the clock stops. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` whole periods of the loop alternate between
untraced and traced, and the JSON carries the per-layer metrics of the traced
cases plus the tracing overhead. A full record (environment, every case, the
failed checks, the spans) is written under ``--out``.

The library is imported from ``src/`` beside this directory, never from an
installed copy; without it the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many cases above it
# Failed checks of the two known defects of the seed commit, once the checker
# has confirmed them (bench/README.md): a case whose only failed checks are of
# these kinds shows a known defect and is not a failed case. Every other kind,
# and any kind added later, fails the case and makes the run incorrect.
EXCUSED_KINDS = ("known_defect", "consistency")

END_TO_END = [
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]


def limit_blas_threads() -> None:
    """One BLAS thread, whatever the environment says. Must run before numpy
    is imported: on a shared machine a second BLAS thread mostly measures
    whoever else holds the other core, and every run must measure the same
    program."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; every workload in turn when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0, help="timed case time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out", help="directory for the full run records")
    return parser.parse_args(argv)


def import_library():
    """Put ``src/`` first on the path and import the library from there."""
    src = ROOT / "src"
    if not (src / "augoverlap" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import augoverlap  # noqa: F401


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the library from
    ``src/``: the process-start part of set-up, without the harness."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import augoverlap"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms and the
        # measurement comes out in those steps
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND values above it, as
    (value, percentile, 1-based rank); the maximum when there are too few."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), rank


def is_correct(records) -> bool:
    return not any(r.unexcused for r in records)


@dataclass
class CaseRecord:
    index: int
    size: int
    period: int
    seconds: float
    traced: bool
    checks: list

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    @property
    def unexcused(self):
        return [c for c in self.failures if c.kind not in EXCUSED_KINDS]


def run_cases(workload, state, seed: int, seconds: float, tracer):
    """The closed loop, in whole periods so every combination of case
    parameters runs equally often. Stops after the period in which the timed
    case time reaches ``seconds``; a traced loop alternates untraced and
    traced periods and runs at least one of each."""
    from oracles import Check

    records, timed, period = [], 0.0, 0
    while not records or timed < seconds or (tracer is not None and period < 2):
        traced = tracer is not None and period % 2 == 1
        if traced:
            tracer.install()
        for pass_no in range(period * workload.period, (period + 1) * workload.period):
            for size in workload.sizes:
                index = len(records)
                params = workload.params(seed, index, pass_no, size)
                if traced:
                    tracer.open_case(f"{workload.name}/{seed}/{index}", size)
                start = time.perf_counter()
                try:
                    out, error = workload.run(state, params), None
                except Exception as exc:  # a failed case is counted, never retried
                    out, error = None, exc
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.close_case()
                if error is not None:
                    checks = [Check("raised", False, f"{type(error).__name__}: {error}", kind="raised")]
                else:
                    try:
                        checks = workload.check(state, params, out)
                    except Exception as exc:  # output the checker cannot even read is wrong
                        checks = [Check("checker", False, f"{type(exc).__name__}: {exc}")]
                records.append(CaseRecord(index, size, period, elapsed, traced, checks))
                timed += elapsed
        if traced:
            tracer.uninstall()
        period += 1
    return records


def period_rates(records) -> list:
    """Cases per second of timed wall time in each period."""
    cases, seconds = {}, {}
    for r in records:
        cases[r.period] = cases.get(r.period, 0) + 1
        seconds[r.period] = seconds.get(r.period, 0.0) + r.seconds
    return [cases[p] / seconds[p] for p in cases]


def end_to_end(records, setup_s: float):
    import resource

    times = [r.seconds for r in records]
    value, percentile, rank = tail(times)
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": median(period_rates(records)),
        "case_ms_p50": 1e3 * median(times),
        "case_ms_tail": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = {"case_ms_tail": f"p{percentile:.1f}, rank {rank} of {len(times)}"}
    return metrics, note


def trace_overhead(records) -> float:
    """1 - traced/untraced cases per second, each the median over its periods."""
    traced = median(period_rates([r for r in records if r.traced]))
    untraced = median(period_rates([r for r in records if not r.traced]))
    return 1.0 - traced / untraced


def openblas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # not a git checkout; never report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, records) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sizes = {}
    for r in records:
        sizes[str(r.size)] = sizes.get(str(r.size), 0) + 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": openblas_threads(),
        "AUGOVERLAP_THREADS": os.environ.get("AUGOVERLAP_THREADS", "unset"),
        "commit": git_commit(),
        "seed": seed,
        "cases_per_size": sizes,
    }


def failure_summary(records) -> dict:
    reasons = {}
    for r in records:
        for c in r.failures:
            key = f"{c.kind}:{c.name}" + (f" {c.detail.split(':')[0]}" if c.name == "raised" else "")
            reasons[key] = reasons.get(key, 0) + 1
    return reasons


def run_one(args) -> int:
    import tempfile

    import_library()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cases-", dir=out_dir) as workdir:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(args.seed, Path(workdir))
            setups.append(time.perf_counter() - start)
        setup_s = import_seconds() + median(setups)
        tracer = Tracer() if args.trace else None
        records = run_cases(workload, state, args.seed, args.seconds, tracer)

    untraced = [r for r in records if not r.traced]
    e2e, notes = end_to_end(untraced, setup_s)
    failed = sum(1 for r in records if r.unexcused)
    defects = sum(1 for r in records if r.failures and not r.unexcused)
    correct = is_correct(records)
    env = environment(args.seed, records)
    reasons = failure_summary(records)

    if tracer is None:
        result = {name: (e2e[name], unit) for name, unit in END_TO_END}
    else:
        misses = sum(1 for r in records if r.traced for c in r.failures if c.name == "exact_radius_connected")
        result = layer_metrics(tracer, misses, trace_overhead(records))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  cases {len(records)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END:
        extra = f"  ({notes[name]})" if name in notes else ""
        label = "  (untraced half)" if tracer is not None else ""
        print(f"{name:<14} {e2e[name]:>12.4f} {unit}{extra}{label}")
    print(f"{'failed_frac':<14} {failed / len(records):>12.4f} ratio  ({failed} of {len(records)} cases failed)")
    print(f"{'defect_frac':<14} {defects / len(records):>12.4f} ratio  ({defects} of {len(records)} cases show a known defect)")
    for reason, count in sorted(reasons.items()):
        print(f"  failed check {reason}: {count}")
    if tracer is not None:
        for name, (value, unit) in result.items():
            print(f"{name:<44} {value:>14.4f} {unit}")

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "failed_frac": failed / len(records),
        "defect_frac": defects / len(records),
        "cases": [
            {
                "index": r.index,
                "size": r.size,
                "ms": 1e3 * r.seconds,
                "traced": r.traced,
                "failures": [{"check": c.name, "kind": c.kind, "detail": c.detail} for c in r.failures],
            }
            for r in records
        ],
        "spans": tracer.spans if tracer is not None else [],
    }
    record_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    import_library()
    from workloads import WORKLOADS

    status, rows = 0, {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print()
    if rows and not args.trace:
        print(f"{'metric':<14} {'unit':<6}" + "".join(f"{name:>16}" for name in rows))
        for metric, unit in END_TO_END:
            print(f"{metric:<14} {unit:<6}" + "".join(f"{rows[n]['metrics'][metric]['value']:>16.4f}" for n in rows))
        print(f"{'failed_frac':<14} {'ratio':<6}" + "".join(f"{rows[n]['failed'] / rows[n]['attempted']:>16.4f}" for n in rows))
        print(f"{'correct':<14} {'':<6}" + "".join(f"{str(rows[n]['correct']):>16}" for n in rows))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
