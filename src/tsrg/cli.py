"""Command-line harness: extract / synth / run / grid / report."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

from .data import (SynthSpec, ingest_csv, ingest_manifest, load_manifest,
                   synth_generate, write_dataset_csv)
from .errors import IngestionError, SpecError, TsrgError
from .experiment import (ExperimentConfig, emit_records, grid_search, read_reports,
                         render_result, run_experiment)
from .kernels import KernelSpec
from .lbptop import LbpTopParams
from .metrics import render_text
from .solver import SolverConfig, save_model


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True, help="source dataset CSV")
    p.add_argument("--target", required=True, help="target dataset CSV")
    p.add_argument("--kernel", choices=["linear", "gaussian"],
                   default=ExperimentConfig.kernel.kind)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="gaussian bandwidth (default: median heuristic)")
    p.add_argument("--penalty-c", type=float, default=ExperimentConfig.penalty_c)
    p.add_argument("--standardize", action="store_true",
                   help="per-dimension standardization fitted on source")
    p.add_argument("--train-on-regenerated", action="store_true",
                   help="train the classifier on regenerated source samples")
    p.add_argument("--label-map", default=None,
                   help="JSON file mapping old label -> new label (null drops)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)


def _read_json(path: str):
    """The JSON value in a file; a parse error names the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise IngestionError(f"{path}: {err}") from err


def _load_datasets(args):
    label_map = None
    if args.label_map:
        label_map = _read_json(args.label_map)
    source = ingest_csv(args.source, label_map)
    target = ingest_csv(args.target, label_map, class_names=source.class_names)
    return source, target


def _experiment_config(args, **penalties: float) -> ExperimentConfig:
    """The run's configuration; ``penalties`` sets lam and mu, which a grid
    leaves at their defaults for ``grid_search`` to replace per cell."""
    return ExperimentConfig(
        kernel=KernelSpec(args.kernel, args.bandwidth),
        solver=SolverConfig(**penalties),
        penalty_c=args.penalty_c,
        standardize=args.standardize,
        train_on_regenerated=args.train_on_regenerated,
    )


def _parse_grid(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_synth(args) -> int:
    raw = _read_json(args.spec)
    if not isinstance(raw, dict):
        raise SpecError(f"{args.spec}: the spec must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(SynthSpec)})
    if unknown:
        raise SpecError(f"{args.spec}: unknown spec keys: {', '.join(unknown)}")
    source, target = synth_generate(SynthSpec(**raw))
    _write_files({
        Path(args.out_source): lambda path: write_dataset_csv(path, source),
        Path(args.out_target): lambda path: write_dataset_csv(path, target),
    })
    print(f"wrote {source.features.n} source / {target.features.n} target samples")
    return 0


def cmd_extract(args) -> int:
    params = LbpTopParams(radius=args.radius, points=args.points,
                          grids=tuple(int(g) for g in args.grids.split(",")))
    manifest = load_manifest(args.manifest)
    manifest.validate_counts()
    dataset = ingest_manifest(manifest, params)
    _write_files({Path(args.out): lambda path: write_dataset_csv(path, dataset)})
    print(f"wrote {dataset.features.n} feature vectors of length {dataset.features.d}")
    return 0


def _write_files(writers: dict[Path, Callable[[Path], object]]) -> None:
    """Write every file or none: each writer fills a file of its destination's
    name in a temporary directory beside the destination, the files are moved
    into place once all exist, and the temporary directories go either way."""
    with contextlib.ExitStack() as stack:
        staged = {}
        for dest, write in writers.items():
            try:
                tmp_dir = stack.enter_context(tempfile.TemporaryDirectory(dir=dest.parent))
            except OSError as err:
                raise OSError(f"cannot write {dest}: {err.strerror or err}") from err
            staged[dest] = Path(tmp_dir) / dest.name
            write(staged[dest])
        for dest, tmp in staged.items():
            os.replace(tmp, dest)


def _write_outputs(out_dir: str, texts: dict[str, str], model=None) -> None:
    """Write the text files (and model.npz) into out_dir, all or none."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writers = {out_dir / name: (lambda path, text=text: path.write_text(text))
               for name, text in texts.items()}
    if model is not None:
        writers[out_dir / "model.npz"] = lambda path: save_model(model, path)
    _write_files(writers)


def cmd_run(args) -> int:
    source, target = _load_datasets(args)
    config = _experiment_config(args, lam=args.lam, mu=args.mu)
    result = run_experiment(source, target, config)
    records = emit_records(result, args.source, args.target)
    text = render_result(result, args.source, args.target)
    _write_outputs(args.out_dir, {"report.jsonl": records, "report.txt": text}, result.model)
    print(text)
    return 0


def cmd_grid(args) -> int:
    source, target = _load_datasets(args)
    config = _experiment_config(args)
    rows = grid_search(source, target, config,
                       _parse_grid(args.lambda_grid), _parse_grid(args.mu_grid))
    records = emit_records(rows, args.source, args.target)
    lines = ["  lambda        mu       WAR       UAR"]
    for row in rows:
        flag = "  <- best" if row.best else ""
        cell, scores = row.result.model.config, row.result.tsrg
        lines.append(f"{cell.lam:8g}  {cell.mu:8g}  {scores.war:8.4f}  {scores.uar:8.4f}{flag}")
    table = "\n".join(lines) + "\n"
    _write_outputs(args.out_dir, {"grid.jsonl": records, "grid.txt": table})
    print(table)
    return 0


def cmd_report(args) -> int:
    for rec, baseline, adapted in read_reports(Path(args.records).read_text(), args.records):
        header = f"{rec.get('source', '?')} -> {rec.get('target', '?')}"
        if rec.get("lambda") is not None:
            header += f"  (lambda={rec['lambda']}, mu={rec['mu']})"
        print(header)
        print(render_text(baseline, "baseline (no adaptation)"))
        print(render_text(adapted, "re-generated target"))
        print(f"mmd: {rec['mmd_before']:.6g} -> {rec['mmd_after']:.6g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsrg", allow_abbrev=False,
        description="Unsupervised domain adaptation by target sample re-generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a shifted-Gaussian dataset pair", allow_abbrev=False)
    p.add_argument("--spec", required=True, help="JSON file with the synthesis spec")
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract LBP-TOP features from clips", allow_abbrev=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--radius", type=int, default=LbpTopParams.radius)
    p.add_argument("--points", type=int, default=LbpTopParams.points)
    p.add_argument("--grids", default=",".join(map(str, LbpTopParams.grids)))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("run", help="run one adaptation experiment", allow_abbrev=False)
    _add_experiment_args(p)
    p.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam)
    p.add_argument("--mu", type=float, default=SolverConfig.mu)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="grid search over (lambda, mu)", allow_abbrev=False)
    _add_experiment_args(p)
    p.add_argument("--lambda-grid", required=True, help="comma-separated values")
    p.add_argument("--mu-grid", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("report", help="render tables from a records file", allow_abbrev=False)
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TsrgError, ValueError, OSError) as err:
        # bad flag values and failed reads or writes end in one line, not a traceback
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
