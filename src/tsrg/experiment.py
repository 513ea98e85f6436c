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
from .errors import IngestionError
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
    baseline: EvalReport
    tsrg: EvalReport
    mmd_before: float
    mmd_after: float
    trace: SolverTrace
    model: TsrgModel

    def record(self, source: str = "", target: str = "",
               lam: float | None = None, mu: float | None = None) -> dict:
        """One structured line-record for the adapted run (plus baseline)."""
        return {
            "source": source,
            "target": target,
            "method": "tsrg",
            "lambda": lam,
            "mu": mu,
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
    if config.standardize:
        mean = x_s.data.mean(axis=1, keepdims=True)
        std = x_s.data.std(axis=1, keepdims=True)
        std[std == 0] = 1.0
        x_s, x_t = (FeatureMatrix((x.data - mean) / std) for x in (x_s, x_t))

    spec = config.kernel.resolved(x_s, x_t)
    base_model = clf.train(
        LabeledDataset(x_s, source.labels, source.class_names), config.penalty_c
    )
    baseline = evaluate(target.labels, clf.predict(base_model, x_t),
                        source.num_classes, source.class_names)
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
    adapted = evaluate(target.labels, clf.predict(adapted_model, regen_t),
                       source.num_classes, source.class_names)

    return ExperimentResult(
        baseline=baseline,
        tsrg=adapted,
        mmd_before=mmd_before,
        mmd_after=mmd(x_s, regen_t, spec),
        trace=trace,
        model=model,
    )


@dataclass
class GridRow:
    result: ExperimentResult         # its model's config holds the cell's lam and mu
    best: bool = False


def grid_search(source: LabeledDataset, target: LabeledDataset,
                config: ExperimentConfig,
                lambda_grid: list[float], mu_grid: list[float]) -> list[GridRow]:
    """One run per (lambda, mu) pair in grid order, sharing one ``prepare_pair``.

    The best row (highest target UAR, then WAR, earliest on ties) is flagged.
    That uses the target labels: it is the paper's oracle selection protocol,
    and the flag reports the best achievable cell, not a label-free choice.
    """
    if not lambda_grid or not mu_grid:
        raise ValueError("lambda and mu grids must be non-empty")
    pair = prepare_pair(source, target, config)
    rows = []
    for lam in lambda_grid:
        for mu in mu_grid:
            cell = replace(config, solver=replace(config.solver, lam=lam, mu=mu))
            result = run_experiment(source, target, cell, pair)
            rows.append(GridRow(result))
    best = max(range(len(rows)), key=lambda i: (rows[i].result.tsrg.uar, rows[i].result.tsrg.war, -i))
    rows[best].best = True
    return rows


def emit_records(rows_or_result, source_name: str = "", target_name: str = "") -> str:
    """Line-delimited JSON records, deterministic key order."""
    if isinstance(rows_or_result, ExperimentResult):
        records = [rows_or_result.record(source_name, target_name)]
    else:
        records = []
        for row in rows_or_result:
            cell = row.result.model.config
            rec = row.result.record(source_name, target_name, lam=cell.lam, mu=cell.mu)
            rec["best"] = row.best
            records.append(rec)
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def parse_records(text: str, name: str = "records") -> list[dict]:
    """The records of a report or grid file, one JSON object per non-blank
    line.  A line that is not an object holding the fields ``tsrg report``
    renders, with the types it renders them as and reports that
    ``EvalReport.from_dict`` accepts, is an ``IngestionError`` naming
    ``name`` and the line number."""
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
        for key in ("baseline", "tsrg"):
            try:
                EvalReport.from_dict(rec[key])
            except ValueError as err:
                raise IngestionError(f"{where}: {key} {err}") from err
        for key in ("mmd_before", "mmd_after"):
            if not _is_real(rec[key]):
                raise IngestionError(f"{where}: {key} must be a number")
        records.append(rec)
    return records


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
