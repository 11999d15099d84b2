"""nchodisk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``inputs.WHY``) through the public entry point
``nchodisk.cli.main(argv)``: in-process, one client, closed loop, the
workload's op list repeated in passes for about S seconds.  BLAS thread
settings are left as found.  Every output is checked (``checks.py``)
outside the timed region.  Pass and call times are reported scaled to a
reference machine speed, measured by short fixed slices of work between
the ops (``execute``); the measured seconds are in the report line.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of ``tracing.py``, from
traced passes that alternate with untraced ones so the tracing overhead
can be reported.  The lines before it give machine facts, sample counts
and every failed op with its exception class.

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = Path(__file__).resolve().parent / "refs.json"
METRICS = json.loads((Path(__file__).resolve().parent / "metrics.json").read_text())
UNITS = {m["name"]: m["unit"] for m in METRICS["end_to_end"] + METRICS["per_layer"]}
SETUP_REPS = 3
SLICE_EVERY_S = 0.25
REFERENCE_SLICE_S = (0.0016, 0.0078)  # speed slices at the reference machine speed
_SLICE_SMALL = np.array([[2.0, 1j, 0.5], [-1j, 3.0, 0.0], [0.5, 0.0, 1.0]])
_SLICE_DENSE = np.random.default_rng(0).standard_normal((256, 512)).view(complex)
_SLICE_DENSE = _SLICE_DENSE + _SLICE_DENSE.conj().T
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_cli():
    """nchodisk.cli from this checkout's src/, or None when it is not there."""
    init = SRC / "nchodisk" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(SRC))
    import nchodisk
    import nchodisk.cli

    if Path(nchodisk.__file__).resolve() != init.resolve():
        return None
    return nchodisk.cli


def machine_facts() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def setup_seconds(reps: int) -> list[float]:
    """Wall time of fresh processes that import nchodisk.cli, ready to dispatch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nchodisk.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def run_op(cli, op):
    """(seconds, exit code or the exception raised, stdout) of one call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # the op failed; the run goes on
            code = exc
        seconds = time.perf_counter() - t0
    return seconds, code, buf.getvalue()


class Tally:
    """Checks outputs and counts ops attempted and failed across passes."""

    def __init__(self, ops, refs, nodes):
        self.ops, self.refs, self.nodes = ops, refs, nodes
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, dict] = {}
        self._seen: dict[int, tuple] = {}

    def _reason(self, i, op, code, out):
        if isinstance(code, BaseException):
            return f"raised {type(code).__name__}: {code}"
        seen = self._seen.get(i)
        if seen is not None and seen[:2] == (code, out):
            return seen[2]
        reason = checks.check(op, code, out, self.refs, self.nodes)
        self._seen[i] = (code, out, reason)
        return reason

    def record(self, results) -> None:
        for i, (op, (_, code, out)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            reason = self._reason(i, op, code, out)
            if reason is None:
                continue
            self.failed += 1
            self.unexpected += op.known_defect is None
            entry = self.failures.setdefault(
                op.label, {"op": op.label, "reason": reason, "known_defect": op.known_defect, "count": 0}
            )
            entry["count"] += 1


def speed_slice() -> tuple[float, float]:
    """Seconds taken by two fixed slices of work: interpreter plus
    small-matrix numpy, and one dense LAPACK eigensolve.

    On a shared 2-vCPU Xeon virtual machine the processor speed was seen to
    drift by +-20% over tens of seconds, with no steal time and with CPU time
    tracking wall time.  Slices interleaved with the ops measure that speed
    where the ops run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(9000):
        acc += i * i % 7
    for _ in range(180):
        np.linalg.eigvalsh(_SLICE_SMALL)
    t1 = time.perf_counter()
    np.linalg.eigvalsh(_SLICE_DENSE)
    return t1 - t0, time.perf_counter() - t1


def execute(cli, ops):
    """Runs the ops once, with speed slices between them at least every
    SLICE_EVERY_S of op time.  Returns the results of ``run_op`` and each
    op's seconds scaled to the reference speed.

    An op's speed is the geometric mean of its two slice kinds, each the
    mean of the slices just before and after the op over REFERENCE_SLICE_S:
    the interpreter slice tracks the single-threaded Python work, the
    LAPACK slice the dense multi-threaded solves, and ops mix both."""
    results, marks, slices = [], [], [speed_slice()]
    since = 0.0
    for op in ops:
        if since >= SLICE_EVERY_S:
            slices.append(speed_slice())
            since = 0.0
        marks.append(len(slices) - 1)
        results.append(run_op(cli, op))
        since += results[-1][0]
    slices.append(speed_slice())
    scaled = []
    for (seconds, _, _), m in zip(results, marks):
        py, la = (0.5 * (slices[m][k] + slices[m + 1][k]) / REFERENCE_SLICE_S[k] for k in (0, 1))
        scaled.append(seconds / math.sqrt(py * la))
    return results, scaled


def warm_up(cli, ops) -> None:
    """One untimed call of each kind of op: the first LAPACK call in a process
    costs about a second, which would otherwise land in the first pass."""
    kinds = {}
    for op in ops:
        kinds.setdefault(op.label.split()[0], op)
    execute(cli, list(kinds.values()))


class Passes:
    """Per-op times of the untraced passes, measured and scaled to the
    reference speed, and what the traced passes yield."""

    def __init__(self):
        self.raw: list[list[float]] = []
        self.scaled: list[list[float]] = []
        self.traced_raw: list[list[float]] = []
        self.layers: list[dict] = []
        self.spans: list[list] = []


def measure(cli, ops, tally, seconds, traced) -> Passes:
    """Passes over the op list for about `seconds`, at least one; with
    `traced`, each untraced pass is followed by a traced one."""
    start = time.perf_counter()
    out = Passes()
    clock = []
    while True:
        t0 = time.perf_counter()
        results, scaled = execute(cli, ops)
        out.raw.append([r[0] for r in results])
        out.scaled.append(scaled)
        tally.record(results)
        if traced:
            with Tracer() as tracer:
                results, _ = execute(cli, ops)
            out.traced_raw.append([r[0] for r in results])
            out.layers.append(layer_metrics(tracer.spans))
            out.spans.append([s[:4] for s in tracer.spans])
            tally.record(results)
        clock.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(clock) > seconds:
            return out


def end_to_end(passes: Passes, setups, tally) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts.  Pass and call
    times are scaled to the reference speed (see ``execute``)."""
    # Percentiles over the ops of each op's median across passes, so that a
    # burst of machine noise in one pass does not reach them.
    calls_ms = 1e3 * np.median(np.array(passes.scaled), axis=0)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(map(sum, passes.scaled)), len(passes.scaled)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "passed_frac": ((tally.attempted - tally.failed) / tally.attempted, tally.attempted),
        "call_p50_ms": (float(np.percentile(calls_ms, 50)), tally.attempted),
        "call_p90_ms": (float(np.percentile(calls_ms, 90)), tally.attempted),
    }
    return {k: v for k, (v, _) in values.items()}, {k: n for k, (_, n) in values.items()}


def per_layer(passes: Passes) -> tuple[dict, dict]:
    """Per-layer metric values (medians over traced passes, measured
    seconds) and pass counts."""
    values = {k: float(np.median([m[k] for m in passes.layers])) for k in passes.layers[0]}
    traced = statistics.median(map(sum, passes.traced_raw))
    untraced = statistics.median(map(sum, passes.raw))
    values["trace.overhead_s"] = traced - untraced
    return values, {"traced_passes": len(passes.traced_raw), "untraced_passes": len(passes.raw),
                    "traced_wall_s": traced, "untraced_wall_s": untraced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except ImportError as exc:
        cli, reason = None, f"{type(exc).__name__}: {exc}"
    else:
        reason = f"no nchodisk package under {SRC}"
    if cli is None:
        print(f"run.py: cannot load the program ({reason})", file=sys.stderr)
        return 2

    facts = machine_facts()
    refs = json.loads(REFS.read_text())
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, nodes = inputs.build(args.workload, args.seed, workdir)
        start = time.perf_counter()
        setups = [] if args.trace else setup_seconds(SETUP_REPS)
        tally = Tally(ops, refs, nodes)
        warm_up(cli, ops)
        budget = args.seconds - (time.perf_counter() - start)
        passes = measure(cli, ops, tally, budget, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, samples = per_layer(passes)
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps(passes.spans))
        samples["spans_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics, samples = end_to_end(passes, setups, tally)
        samples["measured_wall_s"] = statistics.median(map(sum, passes.raw))
    failed_frac = tally.failed / tally.attempted

    report = {
        "workload": args.workload,
        "why": inputs.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "ops_per_pass": len(ops),
        "samples": samples,
        "failed_frac": {"value": failed_frac, "failed": tally.failed, "attempted": tally.attempted},
        "failures": list(tally.failures.values()),
    }
    print(json.dumps(report))
    for name, value in metrics.items():
        n = samples.get(name)
        print(f"{args.workload:15s} {name:34s} {value:14.6g} {UNITS[name]}" + (f"  (n={n})" if n else ""))
    print(f"{args.workload:15s} {'failed_frac':34s} {failed_frac:14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} ops)")
    for f in tally.failures.values():
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"failed x{f['count']} [{tag}] {f['op']}: {f['reason']}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
