"""gmx benchmark: one closed-loop workload per process, checked against oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload x_dicke_sweep --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with no hooks
installed.  With ``--trace 1`` it measures half the time untraced, replays
exactly the same estimates with span hooks installed, and reports the
per-layer metrics, the tracing overhead and a kernel-scaling pass.  Human
readable lines come first; the last line of standard output is one JSON
object.  The exit code is 0 only when every estimate passed every check.
The library is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 before printing a result.  A run record and,
with tracing, the spans are written under ``perfbench/out/``.
"""

import time

START = time.perf_counter()

import os

# A plain single-threaded baseline: pin BLAS before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("x_dicke_sweep", "phi_random_mixed", "threshold_race")
E2E_UNITS = {"estimates_per_s": "1/s", "estimate_s_p50": "s", "estimate_s_p90": "s", "bound_mean": "1"}

# Fresh-process set-ups per run; setup_s is their median.  Each process
# times itself from its first statement, so interpreter start-up is left
# out and the parent's wait adds nothing.
SETUP_SAMPLES = 5


def import_library() -> None:
    if not (SRC / "gmx" / "__init__.py").is_file():
        print(f"gmx sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """Import gmx and numpy, build every input, run one untimed warm-up estimate."""
    import_library()
    import workloads

    inputs = workloads.build(workload, seed)
    workloads.warm_up(workload, inputs)
    return inputs


def timed_setups(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)],
            check=True, timeout=170, capture_output=True, text=True,
        )
        times.append(float(child.stdout.split()[-1]))
    return times


def run_record(args) -> dict:
    import numpy as np

    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
        build = describe.stdout.strip() if describe.returncode == 0 else "not a git checkout"
    except OSError:
        build = "git unavailable"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "optim_config": workloads.CONFIGS[args.workload],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "build": build,
    }


def measure(workload: str, inputs, seconds: float, tracer=None, replay=None):
    """One closed-loop run; ``replay`` repeats the work of an earlier run exactly.

    Returns the outcomes, what to pass as ``replay`` and the wall time.
    """
    import workloads

    if workload == "threshold_race":
        return workloads.run_race(inputs, seconds, tracer, schedule=replay)
    return workloads.run_sweep(inputs, seconds, tracer, n_passes=replay)


def evaluate(workload: str, inputs, outcomes):
    """Oracle checks plus figures; returns figures, info, violations, attempted, failed."""
    import workloads

    if workload == "threshold_race":
        bad = workloads.check_race(inputs)
        attempted = len(outcomes) + len(inputs.thresholds)
        figures, info = workloads.race_figures(inputs, outcomes)
    else:
        bad = []
        attempted = len(outcomes)
        workloads.check_sweep(outcomes, len(inputs))
        figures, info = workloads.sweep_figures(outcomes, len(inputs))
    failed = len(bad) + sum(bool(o.errors) for o in outcomes)
    bad += [msg for o in outcomes for msg in o.errors]
    info["failed_share"] = failed / attempted
    return figures, info, bad, attempted, failed


def run_plain(args):
    setup_times = timed_setups(args.workload, args.seed)
    inputs = setup(args.workload, args.seed)
    outcomes, _, wall = measure(args.workload, inputs, args.seconds)
    figures, info, bad, attempted, failed = evaluate(args.workload, inputs, outcomes)
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics.update({name: (value, E2E_UNITS[name]) for name, value in figures.items()})
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info["setup_s_samples"] = setup_times
    info["measured_wall_s"] = wall
    return metrics, info, bad, attempted, failed


def run_traced(args, tag: str):
    from spans import Tracer, kernel_scaling, layer_unit

    tracer = Tracer()
    tracer.install()
    try:
        inputs = setup(args.workload, args.seed)
    finally:
        tracer.restore()
    states_build_s = tracer.total_s("states.factory")

    half = args.seconds / 2
    plain, replay, wall = measure(args.workload, inputs, half)
    plain_info = {}
    if args.workload == "threshold_race":
        import workloads

        plain_info = workloads.race_figures(inputs, plain)[1]
    tracer.reset()
    tracer.install()
    try:
        traced, _, traced_wall = measure(args.workload, inputs, half, tracer, replay=replay)
    finally:
        tracer.restore()
    tracer.save(OUT / f"spans-{tag}.npz")

    layers = tracer.layer_metrics(traced_wall)
    if tracer.measured("states.build_s"):
        layers["states.build_s"] = states_build_s
    layers["bench.threshold_s"] = getattr(inputs, "threshold_s", 0.0)
    layers["bench.ttt_x_s_p50"] = plain_info.get("ttt_x_s_p50", 0.0)
    layers["bench.ttt_phi_s_p50"] = plain_info.get("ttt_phi_s_p50", 0.0)
    layers["trace.overhead_ratio"] = traced_wall / wall
    layers.update(kernel_scaling(args.seed))

    _, info, bad, attempted, failed = evaluate(args.workload, inputs, plain + traced)
    info.update(untraced_wall_s=wall, traced_wall_s=traced_wall)
    if tracer.absent:
        info["absent_hooks"] = sorted(tracer.absent)
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    return metrics, info, bad, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_only:
        setup(args.workload, args.seed)
        print(time.perf_counter() - START)
        return 0

    import_library()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = run_traced(args, tag) if args.trace else run_plain(args)
    metrics, info, bad, attempted, failed = run

    record = run_record(args)
    record.update(info=info, metrics={k: v for k, (v, _) in metrics.items()}, violations=bad[:50])
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"# gmx benchmark  workload={args.workload} seed={args.seed} trace={args.trace}  "
          f"numpy {record['numpy']}, {record['blas']}, {record['blas_threads']} BLAS thread, "
          f"python {record['python']}, nproc {record['nproc']}, build {record['build']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, value in info.items():
        print(f"# {name}: {value}")
    for msg in bad[:20]:
        print(f"# VIOLATION: {msg}")

    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
