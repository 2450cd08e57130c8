"""dcbf benchmark: host time per simulated step, set-up, memory, and layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rx_interf|coherence_sweep|sync \
        [--seed N] [--seconds S] [--trace 0|1]

The package is imported from this checkout's ``src/``. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the run environment, the
physical outputs and the output digest. With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` the layers are traced
on every other step, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from tracer import RAISING, SETUP, SETUP_FUNCTIONS, STEP, STEP_FUNCTIONS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("rx_interf", "coherence_sweep", "sync")
DIGESTS = Path(__file__).resolve().parent / "digests.json"
TRACE_DIR = ROOT / ".perfbench"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def environment() -> dict:
    import numpy
    import scipy

    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dcbf").glob("*.py")))
    cpu = ""
    try:
        cpu = next(
            (ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name")), ""
        )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_loc": loc,
    }


def measure(workload: str, seed: int, seconds: float, layers: bool):
    from workloads import WORKLOADS

    tracer = Tracer(layers=layers)
    with tracer:
        run = WORKLOADS[workload](seed, seconds, tracer)
    return tracer, run


def end_to_end(tracer, run) -> dict:
    steps_ms = [1e3 * d for d in tracer.durations(STEP)]
    return {
        "step_ms_p90": (percentile(steps_ms, 90), "ms"),
        "setup_s": (statistics.median(run.setups_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, run) -> tuple[dict, set[str]]:
    """Per-step layer counts and self times over the traced steps, per-set-up
    ones over the set-ups; returns them and the names of any spans inside
    traced steps that no metric reports."""
    agg = tracer.aggregate()
    steps, setups = agg[STEP], agg[SETUP]
    n_steps = len(tracer.tops(STEP, traced=True))
    n_setups = max(len(tracer.tops(SETUP)), 1)
    zero = {"calls": 0, "raised": 0, "self_s": 0.0}
    out = {}
    for name in STEP_FUNCTIONS:
        e = steps.get(name, zero)
        out[f"{name}.calls"] = (e["calls"] / n_steps, "count/step")
        out[f"{name}.self_ms"] = (1e3 * e["self_s"] / n_steps, "ms/step")
    for name in RAISING:
        out[f"{name}.raised"] = (steps.get(name, zero)["raised"] / n_steps, "count/step")
    out["scenario.self_ms"] = (1e3 * steps[STEP]["self_s"] / n_steps, "ms/step")
    out["timesync.corrected_bits"] = (run.counts.get("timesync.corrected_bits", 0.0), "bits/step")
    for name in SETUP_FUNCTIONS:
        e = setups.get(name, zero)
        out[f"setup.{name}.calls"] = (e["calls"] / n_setups, "count/setup")
        out[f"setup.{name}.self_ms"] = (1e3 * e["self_s"] / n_setups, "ms/setup")
    out["setup.scenario.self_ms"] = (1e3 * setups.get(SETUP, zero)["self_s"] / n_setups, "ms/setup")

    traced_p50, untraced_p50 = (
        statistics.median(1e3 * d for d in tracer.durations(STEP, traced)) for traced in (True, False)
    )
    out["trace.step_ms_p50"] = (traced_p50, "ms")
    out["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    unreported = set(steps) - set(STEP_FUNCTIONS) - {STEP}
    return out, unreported


def check_names(trace: int, results: dict) -> None:
    """The printed metrics must be exactly the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(results):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(declared ^ set(results))}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the bundled config's)")
    ap.add_argument("--seconds", type=float, default=35.0, help="host seconds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dcbf" / "__init__.py").is_file():
        print(f"error: no dcbf sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import dcbf

    if Path(dcbf.__file__).resolve().parent != SRC / "dcbf":
        print(f"error: imported dcbf from {dcbf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEEDS

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    tracer, run = measure(args.workload, seed, args.seconds, layers=bool(args.trace))
    checks = dict(run.checks)
    trace_file = layer_share = None
    if args.trace:
        results, unreported = per_layer(tracer, run)
        checks["spans_nest"] = tracer.nesting_error() <= 1e-9
        checks["every_step_span_reported"] = not unreported
        checks["untraced_steps_have_no_spans"] = tracer.untraced_children() == 0
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{seed}.jsonl"
        tracer.write(trace_file)
        mean_step_ms = 1e3 * statistics.fmean(tracer.durations(STEP, traced=True))
        layer_share = 1 - results["scenario.self_ms"][0] / mean_step_ms
    else:
        results = end_to_end(tracer, run)

    check_names(args.trace, results)
    attempted = run.n_steps + len(checks)
    failed = run.failed_steps + sum(not ok for ok in checks.values())
    expected = json.loads(DIGESTS.read_text())[args.workload].get(str(seed))
    info = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "environment": environment(),
        "step_samples": run.n_steps,
        # not bounded in BENCHMARK.json: they follow the host's speed states (NOTES.md)
        "step_ms_p50": statistics.median(1e3 * d for d in tracer.durations(STEP, traced=False)),
        "steps_per_s": run.n_steps / run.elapsed_s,
        "setup_samples": len(run.setups_s),
        "setup_first_s": run.setups_s[0],
        "fail_ratio": failed / attempted,
        "checks": checks,
        "outputs": run.outputs,
        "digest": run.digest,
        "digest_matches_seed_commit": None if expected is None else run.digest == expected,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        # share of traced step time inside the wrapped layer functions
        "layer_share": layer_share,
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in results.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
