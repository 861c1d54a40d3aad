"""hadperm benchmark: one closed-loop client timing hadperm's op chains.

    python3 perfbench/run.py --workload grid|criteria|semigroup --seed N \\
        --seconds S --trace 0|1

Run from a checkout; the library is imported from the checkout's ``src``.
The inputs come from ``inputs.py`` and depend on the seed alone.  After one
untimed warm-up op, the run repeats whole passes over the input pool until
the op time adds up to ``--seconds`` and at least ``MIN_OPS`` ops ran.  Every
answer is checked, outside the timed window, against the generator's known
answer and against the answer to the same input in the first pass.  With
``--trace 0``, ``SETUP_REPEATS`` cold starts for ``setup_s`` run between ops,
spread evenly over the timed window.

The run is pinned to one core, and every time it reports is scaled to a
reference speed by a calibration loop timed beside the op (``speed.py``):
the cores' speed swings too much from minute to minute for raw times to be
compared between runs.  The raw figures are in the info line.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of the traced passes, the tracing overhead, and writes the
spans to ``perfbench/out/``.  The line before it records the machine, the
versions, the commit, the seed and the sample counts.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
import speed

HERE = Path(__file__).resolve().parent
MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
SETUP_REPEATS = 15  # cold starts, spread evenly over the timed window
MAX_WALL_S = 120.0  # stop adding passes past this, whatever the sample count


class Side:
    """Latencies of the timed passes run with or without tracing, as
    measured and scaled to reference speed."""

    def __init__(self, meter):
        self.meter = meter
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.busy_s = 0.0
        self.passes = 0
        self._pending: list[float] = []

    def record(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.busy_s += seconds
        self._pending.append(seconds)
        if sum(self._pending) >= speed.EVERY_S:
            self.settle()

    def settle(self) -> None:
        """Calibrate now and scale the ops recorded since the last calibration."""
        if self._pending:
            self.scaled.extend(self.meter.scale(self._pending))
            self._pending.clear()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "criteria", "semigroup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_start(side: Side, kind: str, text: str) -> tuple[float, float]:
    """Seconds a fresh process takes to import hadperm and run one op, as
    ``probe.py`` measures them, and the same at reference speed.  The process
    runs on the pinned core between two calibrations."""
    side.settle()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), kind], input=text,
                          text=True, cwd=bootstrap.ROOT, capture_output=True, check=True,
                          timeout=60)
    seconds = float(proc.stdout.splitlines()[-1])
    return seconds, side.meter.scale([seconds])[0]


def _plain(value):
    """numpy scalars and arrays as Python data, anything else as its text."""
    return value.tolist() if hasattr(value, "tolist") else str(value)


def digest(ans: dict) -> str:
    return hashlib.sha256(json.dumps(ans, sort_keys=True, default=_plain).encode()).hexdigest()


def _named(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def attempt(chains, inst, reference: str | None, side: Side) -> tuple[str | None, list[str]]:
    """Time one op, then check its answer; returns (digest, problems).
    Any exception counts as a problem on the op, named, and never ends the run."""
    start = time.perf_counter()
    try:
        raw = chains.run(inst.kind, inst.text)
    except Exception as exc:
        side.record(time.perf_counter() - start)
        return None, [_named(exc)]
    side.record(time.perf_counter() - start)
    try:
        ans = chains.answer(inst.kind, raw)
        problems = chains.check(inst.kind, inst.expect, ans)
        key = digest(ans)
    except Exception as exc:
        return None, [f"checking the answer raised {_named(exc)}"]
    if reference is not None and key != reference:
        problems.append("answer differs from the first pass")
    return key, problems


def blas_threads(np) -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np, args, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np), "git_commit": git_commit(),
    }


def percentiles(times: list[float]) -> tuple[float, float]:
    """The 50th and 90th percentiles."""
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return cuts[49], cuts[89]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    import numpy as np

    import chains
    import inputs
    import spans

    nproc = len(os.sched_getaffinity(0))
    core = speed.pin_to_one_core()
    pool = inputs.pool(args.workload, args.seed)
    warm = inputs.smallest(args.workload, args.seed)
    setup: list[tuple[float, float]] = []
    setup_due = 0 if args.trace else SETUP_REPEATS

    chains.run(warm.kind, warm.text)
    meter = speed.Meter()
    wall_start = time.perf_counter()
    reference: list[str | None] = [None] * len(pool)

    tracer = spans.Tracer() if args.trace else None
    untraced, traced = Side(meter), Side(meter)
    failures: dict[str, str] = {}
    failed = 0
    while True:
        use_trace = tracer is not None and untraced.passes > traced.passes
        side = traced if use_trace else untraced
        if use_trace:
            tracer.install()
        try:
            for k, inst in enumerate(pool):
                if use_trace:
                    tracer.op_id += 1
                while len(setup) < setup_due and (
                        side.busy_s >= len(setup) * args.seconds / SETUP_REPEATS):
                    setup.append(cold_start(side, warm.kind, warm.text))
                key, problems = attempt(chains, inst, reference[k], side)
                reference[k] = reference[k] or key
                if problems:
                    failed += 1
                    failures.setdefault(inst.name, "; ".join(problems))
        finally:
            if use_trace:
                tracer.uninstall()
        side.settle()
        side.passes += 1
        if tracer is not None and traced.passes < untraced.passes:
            continue
        if time.perf_counter() - wall_start > MAX_WALL_S:
            break
        if untraced.busy_s + traced.busy_s >= args.seconds and (
                tracer is not None or len(untraced.latencies) >= MIN_OPS):
            break

    while len(setup) < setup_due:  # only when MAX_WALL_S cut the run short
        setup.append(cold_start(untraced, warm.kind, warm.text))
    attempted = len(untraced.latencies) + len(traced.latencies)
    info = environment(np, args, nproc)
    info.update({
        "core": core, "calibrations": len(meter.samples),
        "calibration_median_ms": 1e3 * statistics.median(meter.samples),
        "pool": len(pool), "passes": untraced.passes + traced.passes,
        "ops": attempted, "failed_frac": failed / attempted,
        "failures": failures,
    })
    if tracer is None:
        raw_p50, raw_p90 = percentiles(untraced.latencies)
        p50, p90 = percentiles(untraced.scaled)
        info["beyond_p90"] = sum(1 for x in untraced.scaled if x > p90)
        info["raw"] = {
            "ops_per_s": len(untraced.latencies) / untraced.busy_s,
            "latency_p50_ms": 1e3 * raw_p50, "latency_p90_ms": 1e3 * raw_p90,
            "setup_s": statistics.median(raw for raw, _ in setup),
        }
        info["setup_runs_s"] = [raw for raw, _ in setup]
        metrics = {
            "ops_per_s": metric(len(untraced.scaled) / sum(untraced.scaled), "1/s"),
            "latency_p50_ms": metric(1e3 * p50, "ms"),
            "latency_p90_ms": metric(1e3 * p90, "ms"),
            "correct_frac": metric(1.0 - failed / attempted, "fraction"),
            "setup_s": metric(statistics.median(scaled for _, scaled in setup), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        rate_off = len(untraced.scaled) / sum(untraced.scaled)
        rate_on = len(traced.scaled) / sum(traced.scaled)
        metrics = {name: metric(v, unit) for name, (v, unit)
                   in tracer.metrics(traced.passes, len(traced.latencies)).items()}
        metrics["trace.untraced_ops_per_s"] = metric(rate_off, "1/s")
        metrics["trace.traced_ops_per_s"] = metric(rate_on, "1/s")
        metrics["trace.overhead_frac"] = metric(rate_off / rate_on - 1.0, "fraction")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        span_file = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        info["spans"] = str(span_file.relative_to(bootstrap.ROOT))
        info["spans_recorded"] = len(tracer.spans)

    for name, problem in sorted(failures.items()):
        print(f"FAIL {name}: {problem}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
