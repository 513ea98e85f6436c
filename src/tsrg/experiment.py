"""Experiment orchestration: fit -> regenerate -> train -> evaluate.

The baseline path trains on the labeled source and predicts the raw
target; the adapted path fits the re-generator on (X_s, unlabeled X_t)
and predicts the regenerated target.  Fitting and training never see the
target labels; they are used for scoring, and by ``grid_search`` to flag
the best (lambda, mu) cell by target UAR.  That flag is the paper's oracle
selection protocol, not an unsupervised model-selection criterion.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import classifier as clf
from .classifier import LabeledDataset
from .errors import DimensionError, IngestionError
from .kernels import FeatureMatrix, KernelSpec, mmd
from .metrics import EvalReport, evaluate, render_text
from .solver import SolverConfig, SolverTrace, TsrgModel, fit, regenerate


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: KernelSpec = KernelSpec("linear")
    solver: SolverConfig = SolverConfig()
    penalty_c: float = 1.0
    standardize: bool = False           # per-dimension, fitted on source only
    train_on_regenerated: bool = False  # train on G(X_s) instead of raw X_s


@dataclass
class ExperimentResult:
    """One adapted run: scores, MMDs, solver trace and model (None in a ``GridRow``)."""

    baseline: EvalReport
    tsrg: EvalReport
    mmd_before: float
    mmd_after: float
    trace: SolverTrace
    model: TsrgModel | None

    def record(self, source: str = "", target: str = "") -> dict:
        """One line-record for the adapted run and its baseline; lambda and mu are null."""
        return {
            "source": source,
            "target": target,
            "method": "tsrg",
            "lambda": None,
            "mu": None,
            "baseline": self.baseline.to_dict(),
            "tsrg": self.tsrg.to_dict(),
            "mmd_before": self.mmd_before,
            "mmd_after": self.mmd_after,
            "converged": self.trace.converged,
            "iters": self.trace.iters_run,
        }


def prepare_pair(source: LabeledDataset, target: LabeledDataset,
                 config: ExperimentConfig = ExperimentConfig()) -> tuple:
    """The solver-independent part of a run, shared by every cell of a grid:
    (x_s, x_t, resolved kernel, baseline SVM, its report, MMD before adaptation)
    after optional standardization.  ``config.solver`` is not read."""
    if source.class_names != target.class_names:
        raise ValueError(
            f"class sets differ: {source.class_names} vs {target.class_names}"
        )
    x_s, x_t = source.features, target.features
    if x_s.d != x_t.d:
        raise DimensionError(f"source and target feature counts differ: {x_s.d} vs {x_t.d}")
    if config.standardize:
        mean = x_s.data.mean(axis=1, keepdims=True)
        std = x_s.data.std(axis=1, keepdims=True)
        std[std == 0] = 1.0
        x_s, x_t = (FeatureMatrix((x.data - mean) / std) for x in (x_s, x_t))

    spec = config.kernel.resolved(x_s, x_t)
    base_model = clf.train(
        LabeledDataset(x_s, source.labels, source.class_names), config.penalty_c
    )
    baseline = evaluate(target.labels, clf.predict(base_model, x_t), source.class_names)
    return x_s, x_t, spec, base_model, baseline, mmd(x_s, x_t, spec)


def run_experiment(source: LabeledDataset, target: LabeledDataset,
                   config: ExperimentConfig = ExperimentConfig(),
                   pair: tuple | None = None) -> ExperimentResult:
    """One adapted run; ``pair`` is ``prepare_pair(source, target, config)``,
    computed here unless given."""
    x_s, x_t, spec, base_model, baseline, mmd_before = (
        pair or prepare_pair(source, target, config))

    model, trace = fit(x_s, x_t, spec, config.solver)
    regen_t = regenerate(model, x_t)
    if config.train_on_regenerated:
        regen_s = regenerate(model, x_s)
        adapted_model = clf.train(
            LabeledDataset(regen_s, source.labels, source.class_names),
            config.penalty_c,
        )
    else:
        adapted_model = base_model
    adapted = evaluate(target.labels, clf.predict(adapted_model, regen_t), source.class_names)

    return ExperimentResult(
        baseline=baseline,
        tsrg=adapted,
        mmd_before=mmd_before,
        mmd_after=mmd(x_s, regen_t, spec),
        trace=trace,
        model=model,
    )


@dataclass(frozen=True)
class GridRow:
    """A grid cell's solver config, its run without a model, and the best flag."""

    cell: SolverConfig
    result: ExperimentResult
    best: bool

    def record(self, source: str = "", target: str = "") -> dict:
        """The run's record with the cell's lambda and mu and the best flag."""
        return {**self.result.record(source, target),
                "lambda": self.cell.lam, "mu": self.cell.mu, "best": self.best}


def grid_cells(lambda_grid: list[float], mu_grid: list[float]) -> list[SolverConfig]:
    """One ``SolverConfig(lam, mu)`` per cell, lambda-major, each checked as it is built."""
    if not lambda_grid or not mu_grid:
        raise ValueError("lambda and mu grids must be non-empty")
    return [SolverConfig(lam, mu) for lam in lambda_grid for mu in mu_grid]


def grid_search(source: LabeledDataset, target: LabeledDataset,
                config: ExperimentConfig,
                lambda_grid: list[float], mu_grid: list[float]) -> list[GridRow]:
    """One run per ``grid_cells`` cell, sharing one ``prepare_pair``; every cell is
    built first, so a bad value fails before any fit, and ``config.solver`` is not read.
    Each cell's model is dropped once its run returns, so at most one is held.

    The best row (highest target UAR, then WAR, earliest on ties) is flagged.
    That uses the target labels: it is the paper's oracle selection protocol,
    and the flag reports the best achievable cell, not a label-free choice.
    """
    cells = grid_cells(lambda_grid, mu_grid)
    pair = prepare_pair(source, target, config)
    results = [replace(run_experiment(source, target, replace(config, solver=cell), pair),
                       model=None) for cell in cells]
    best = max(range(len(results)), key=lambda i: (results[i].tsrg.uar, results[i].tsrg.war, -i))
    return [GridRow(cell, result, i == best)
            for i, (cell, result) in enumerate(zip(cells, results))]


def emit_records(rows, source_name: str = "", target_name: str = "") -> str:
    """Line-delimited JSON records of runs or grid rows, deterministic key order."""
    return "".join(json.dumps(row.record(source_name, target_name), sort_keys=True) + "\n"
                   for row in rows)


def parse_records(text: str, name: str = "records") -> list[dict]:
    """The records of a report or grid file as ``read_reports`` checks them,
    each the JSON object its line holds."""
    return [rec for rec, _, _ in read_reports(text, name)]


def read_reports(text: str, name: str = "records") -> list[tuple[dict, EvalReport, EvalReport]]:
    """Each record of a report or grid file, one JSON object per non-blank
    line, with its baseline and adapted reports.  A line that is not an
    object holding the fields ``tsrg report`` renders, with the types it
    renders them as and reports that ``EvalReport.from_dict`` accepts, is an
    ``IngestionError`` naming ``name`` and the line number."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{name}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise IngestionError(f"{where}: {err}") from err
        if not isinstance(rec, dict):
            raise IngestionError(f"{where}: a record must be a JSON object")
        missing = [k for k in ("baseline", "tsrg", "mmd_before", "mmd_after") if k not in rec]
        if rec.get("lambda") is not None and "mu" not in rec:
            missing.append("mu")
        if missing:
            raise IngestionError(f"{where}: record lacks {', '.join(missing)}")
        reports = []
        for key in ("baseline", "tsrg"):
            try:
                reports.append(EvalReport.from_dict(rec[key]))
            except ValueError as err:
                raise IngestionError(f"{where}: {key} {err}") from err
        for key in ("mmd_before", "mmd_after"):
            if not isinstance(rec[key], (int, float)) or isinstance(rec[key], bool):
                raise IngestionError(f"{where}: {key} must be a number")
        records.append((rec, *reports))
    return records


def render_result(result: ExperimentResult, source_name: str = "source",
                  target_name: str = "target") -> str:
    parts = [
        f"experiment: {source_name} -> {target_name}",
        f"mmd before adaptation: {result.mmd_before:.6g}",
        f"mmd after adaptation:  {result.mmd_after:.6g}",
        f"solver: {'converged' if result.trace.converged else 'hit max iterations'} "
        f"after {result.trace.iters_run} iterations",
        "",
        render_text(result.baseline, "baseline (no adaptation)"),
        render_text(result.tsrg, "re-generated target"),
    ]
    return "\n".join(parts)
