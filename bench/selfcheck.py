"""Fast self-check of the benchmark itself, on tiny inputs (about a minute).

    python3 bench/selfcheck.py

For each workload it checks that an untraced run emits every end-to-end
metric and a traced run every per-layer metric named in BENCHMARK.json,
that clean tiny runs fail no cell, and that deliberately corrupted outputs
(an unconverged solver trace, an identity re-generator) raise failed_frac
above 0.  It also checks that a hook point that no longer exists reports
zero calls instead of stopping the traced run.
"""
import json
import shutil
import sys
from contextlib import contextmanager

import run  # caps BLAS threads before numpy is imported

sys.path[:0] = [str(run.ROOT / "src")]

import tsrg.experiment  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


@contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def unconverged(run_experiment):
    def corrupt(*args, **kwargs):
        result = run_experiment(*args, **kwargs)
        result.trace.converged = False
        return result
    return corrupt


def tiny(name: str, trace: bool) -> dict:
    return run.measure(name, seed=0, seconds=0.0, trace=trace, size=workloads.TINY,
                       workdir=run.BENCH / ".work" / f"selfcheck-{name}")


def check_workload(name: str) -> None:
    shutil.rmtree(run.BENCH / ".work" / f"selfcheck-{name}", ignore_errors=True)
    clean = tiny(name, trace=False)
    expect(sorted(clean["metrics"]) == sorted(E2E), f"{name}: end-to-end metric names")
    expect(clean["failed"] == 0, f"{name}: clean run failed {clean['failed']} cells: "
                                 f"{clean['log']}")
    traced = tiny(name, trace=True)
    expect(sorted(traced["metrics"]) == sorted(PER_LAYER), f"{name}: per-layer metric names")
    expect(traced["failed"] == 0, f"{name}: traced run failed cells")
    expect(traced["metrics"]["experiment.cells"]["value"] > 0, f"{name}: no cells traced")

    with patched(tsrg.experiment, "run_experiment",
                 unconverged(tsrg.experiment.run_experiment)):
        bad = tiny(name, trace=False)
    expect(bad["failed"] > 0, f"{name}: unconverged fits not counted as failed")
    with patched(tsrg.experiment, "regenerate", lambda model, x: x):
        bad = tiny(name, trace=False)
    expect(bad["failed"] > 0, f"{name}: identity re-generator not counted as failed")
    print(f"ok {name}")


def check_missing_hook() -> None:
    hooks = dict(tracer.HOOKS, **{"solver.linear_solve": ("tsrg.solver._no_such_step",)})
    with patched(tracer, "HOOKS", hooks):
        result = tiny("desk_grid", trace=True)
    metrics = result["metrics"]
    expect(result["failed"] == 0, "run with a missing hook failed cells")
    expect(metrics["solver.linear_solves"]["value"] == 0, "missing hook reported calls")
    expect(metrics["solver.fit_self_s"]["value"] > 0, "fit self time missing")
    print("ok missing hook")


def main() -> int:
    for name in workloads.WORKLOADS:
        check_workload(name)
    check_missing_hook()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
