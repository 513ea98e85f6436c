"""tsrg benchmark: one workload per invocation, checked outputs, one JSON result line.

    python3 bench/run.py --workload desk_grid --seed 0 --seconds 45 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of untraced
passes.  With ``--trace 1`` it makes one untraced and one traced pass and
reports the per-layer metrics of the traced one, plus the tracing
overhead.  The last line of standard output is the result object; the
lines before it give the environment and every metric with its unit.
Details, workload rationale and reference numbers: bench/README.md.
"""
import os


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


NPROC = _cap_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DEFAULT_SEED = 0          # datasets 0..19: the acceptance criterion 8 protocol
HELD_OUT_SEED = 424242    # kept unused while tuning; confirms later claims
SETUP_REPEATS = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); "
               "import numpy, scipy.linalg, tsrg.cli, tsrg.experiment, tsrg.lbptop; "
               "print(time.perf_counter() - t)")

# end-to-end metric -> unit
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cell_s_p50": "s", "cell_s_p90": "s",
    "cells_per_s": "1/s", "uar_adapted": "uar", "mmd_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_seconds() -> float:
    """Package import time in a fresh interpreter, since a process imports once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def git_commit() -> str:
    """HEAD of the enclosing checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def layer_metrics(tracer, wall_traced: float, wall_untraced: float) -> dict:
    """Per-layer numbers of one traced pass (``_s`` inclusive, ``_self_s`` self)."""
    s = tracer.summary()
    iters = tracer.counters.get("solver.iters", 0)
    fit_s = s["solver.fit"]["total"]
    extract_s = s["lbptop.extract"]["total"]
    clips = s["lbptop.extract"]["calls"]
    return {
        "solver.fit_s": (fit_s, "s"),
        "solver.fit_self_s": (s["solver.fit"]["self"], "s"),
        "solver.iters": (iters, "count"),
        "solver.ms_per_iter": (1e3 * fit_s / iters if iters else 0.0, "ms"),
        "solver.linear_solve_s": (s["solver.linear_solve"]["total"], "s"),
        "solver.linear_solves": (s["solver.linear_solve"]["calls"], "count"),
        "solver.prox_s": (s["solver.prox"]["total"], "s"),
        "solver.multiplier_s": (s["solver.multiplier"]["total"], "s"),
        "solver.objective_s": (s["solver.objective"]["total"], "s"),
        "solver.regenerate_s": (s["solver.regenerate"]["total"], "s"),
        "classifier.train_s": (s["classifier.train"]["total"], "s"),
        "classifier.trains": (s["classifier.train"]["calls"], "count"),
        "classifier.binary_s": (s["classifier.binary"]["total"], "s"),
        "classifier.binary_problems": (s["classifier.binary"]["calls"], "count"),
        "classifier.predict_s": (s["classifier.predict"]["total"], "s"),
        "kernels.bandwidth_s": (s["kernels.resolved"]["total"], "s"),
        "kernels.build_augmented_s": (s["kernels.build_augmented"]["total"], "s"),
        "kernels.gram_s": (s["kernels.gram"]["total"], "s"),
        "kernels.gram_calls": (s["kernels.gram"]["calls"], "count"),
        "kernels.mmd_s": (s["kernels.mmd"]["total"], "s"),
        "experiment.cells": (s["experiment.run_experiment"]["calls"], "count"),
        "experiment.cell_self_s": (s["experiment.run_experiment"]["self"], "s"),
        "metrics.evaluate_s": (s["metrics.evaluate"]["total"], "s"),
        "lbptop.extract_s": (extract_s, "s"),
        "lbptop.clips": (clips, "count"),
        "lbptop.clips_per_s": (clips / extract_s if extract_s else 0.0, "1/s"),
        "data.ingest_s": (s["data.ingest_csv"]["total"], "s"),
        "cli.emit_s": (s["cli.emit_records"]["total"], "s"),
        "cli.self_s": (s["cli.main"]["self"], "s"),
        "trace.overhead_frac": ((wall_traced - wall_untraced) / wall_untraced, "fraction"),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            size=None, workdir: Path | None = None) -> dict:
    """Set up, run passes and return the result object (plus ``env`` and ``log``)."""
    import workloads
    from tracer import CELL, Tracer

    size = size or workloads.FULL
    workdir = workdir or Path("bench") / ".work" / workload_name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](size, workdir)
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None  # keep one copy of the inputs, so peak_rss_mb sees one
        imports = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setups.append(imports + time.perf_counter() - t0)

    def one_pass(tracer):
        with tracer:
            t0 = time.perf_counter()
            outcome = workload.run_pass(inputs)
            wall = time.perf_counter() - t0
        return outcome, wall

    outcomes, walls, cells = [], [], []
    if trace:
        outcome, wall_untraced = one_pass(Tracer((CELL,)))
        outcomes.append(outcome)
        tracer = Tracer()
        outcome, wall_traced = one_pass(tracer)
        outcomes.append(outcome)
        metrics = layer_metrics(tracer, wall_traced, wall_untraced)
        tracer.write(workdir / f"spans-seed{seed}.jsonl")
    else:
        t_measure = time.perf_counter()
        while True:
            clock = Tracer((CELL,))
            outcome, wall = one_pass(clock)
            outcomes.append(outcome)
            walls.append(wall)
            cells.extend(clock.durations(CELL))
            elapsed = time.perf_counter() - t_measure
            # start another pass only if it should end within the budget
            if elapsed + elapsed / len(walls) > seconds:
                break
        uars = [median(o.uars) for o in outcomes if o.uars]
        ratios = [median(o.ratios) for o in outcomes if o.ratios]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "cell_s_p50": median(cells) if cells else 0.0,
            "cell_s_p90": float(np.percentile(cells, 90)) if cells else 0.0,
            "cells_per_s": len(cells) / sum(walls),
            "uar_adapted": median(uars) if uars else 0.0,
            "mmd_ratio": median(ratios) if ratios else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    log = [f"pass {i}: {o.attempted} cells, {o.failed} failed"
           + "".join(f"\n  {p}" for p in o.problems) for i, o in enumerate(outcomes)]
    log.append(f"failed_frac = {failed / max(attempted, 1)} ({failed} of {attempted} cells)")
    if not trace:
        gains = [median(o.gains) for o in outcomes if o.gains]
        log.append(f"samples: wall_s {len(walls)} passes, cell_s {len(cells)} cells "
                   f"({len(cells) // 10} beyond p90), setup_s {len(setups)} set-ups "
                   "with imports timed in a fresh interpreter")
        log.append(f"uar_gain = {median(gains) if gains else float('nan')} (not bounded): "
                   "median over datasets of the oracle-selected cell's target UAR "
                   "minus the baseline UAR; oracle = flagged best by target labels")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": environment(),
        "log": log,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk_grid", "gauss_cli_grid", "lbp_pipeline"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed for confirming claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measuring budget; passes stop when the next would overrun it")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsrg" / "__init__.py").is_file():
        print(f"error: no tsrg package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env, log = result.pop("env"), result.pop("log")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(log))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
