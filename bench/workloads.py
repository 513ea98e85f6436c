"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload is closed-loop with one caller in one process.  A workload
object has ``setup(seed)``, which builds the inputs (timed as set-up, not
as part of a pass), and ``run_pass(inputs)``, which does one full pass and
returns a ``PassOutcome``.  Output checks never raise: a cell that raised,
did not converge or failed a check is counted in ``failed``.

Why these (README.md in this directory has the long form):

- ``desk_grid``: criterion 8 through ``tsrg grid``; many small fits where
  per-iteration solver overhead and the pure-Python SVM dominate and the
  n x d elementwise work is negligible.
- ``lbp_pipeline``: paper-shaped clips -> LBP-TOP -> one fit with d >> n.
- ``gauss_cli_grid``: the same grid with a gaussian kernel and an SVM
  retrained per cell; runnable, but left out of BENCHMARK.json because it
  cannot be made steady within the run budget.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import tsrg.cli
import tsrg.experiment
import tsrg.lbptop
from tsrg.classifier import LabeledDataset
from tsrg.data import SynthSpec, synth_generate, write_dataset_csv
from tsrg.experiment import ExperimentConfig, parse_records
from tsrg.kernels import FeatureMatrix, KernelSpec
from tsrg.lbptop import LbpTopParams, VideoClip
from tsrg.solver import SolverConfig

LAMBDAS = (1.0, 10.0, 100.0)
MUS = (1e-3, 1e-2)
GRID_CELLS = len(LAMBDAS) * len(MUS)

# acceptance criterion 8 quality bounds on the desk grid
MIN_MEDIAN_UAR_GAIN = 0.10
MAX_MEDIAN_MMD_RATIO = 0.5


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, TINY is for the self-check."""

    datasets: int = 20            # dataset pairs per grid pass (6 cells each)
    per_class: int = 20           # desk/gauss samples per class per domain
    clips_source: int = 148       # CASME II sample count
    clips_target: int = 164       # SMIC sample count
    clip_shape: tuple[int, int, int] = (12, 64, 64)
    grids: tuple[int, ...] = (1, 2, 4)


FULL = Size()
TINY = Size(datasets=2, clips_source=12, clips_target=12)


@dataclass
class PassOutcome:
    attempted: int = 0
    failed: int = 0
    uars: list[float] = field(default_factory=list)    # per dataset, oracle-selected cell
    gains: list[float] = field(default_factory=list)   # the same cells' UAR minus baseline
    ratios: list[float] = field(default_factory=list)  # per cell, mmd_after / mmd_before
    problems: list[str] = field(default_factory=list)

    def fail(self, cells: int, why: str) -> None:
        self.failed += cells
        self.problems.append(why)


def _report_exception(what: str) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{what}: {sys.exc_info()[1]!r}"


def desk_spec(seed: int, per_class: int) -> SynthSpec:
    # 3 Gaussian classes in d=20, target translated by 3 sigma along two axes
    offset = np.zeros(20)
    offset[:2] = 3.0
    return SynthSpec(classes=3, dim=20, n_source_per_class=per_class,
                     n_target_per_class=per_class, shift_offset=offset,
                     center_spread=3.5, cov_scale=1.0, seed=seed)


def dataset_seeds(seed: int, size: Size) -> list[int]:
    # seed 0 gives datasets 0..19, the acceptance criterion 8 protocol
    return [seed * 1000 + i for i in range(size.datasets)]


def _source_digest() -> str:
    """Hash of the package sources, so stored grid digests follow the code."""
    h = hashlib.sha256()
    for path in sorted(Path(tsrg.cli.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class CliGrid:
    """``tsrg grid`` in-process over the (lambda, mu) grid for each dataset pair.

    Set-up writes each pair as source and target CSVs.  grid.jsonl must be
    byte-identical across the passes of a run and across the runs of one
    seed on the same package sources and flags; the reference digests are
    kept in the work directory.
    """

    name: str
    flags: tuple[str, ...]
    criterion8: bool

    def __init__(self, size: Size, workdir: Path):
        self.size = size
        self.workdir = workdir
        self.digests = workdir / "digests.json"

    def setup(self, seed: int):
        pairs = []
        for s in dataset_seeds(seed, self.size):
            d = self.workdir / f"data-{s}"
            d.mkdir(parents=True, exist_ok=True)
            source, target = synth_generate(desk_spec(s, self.size.per_class))
            write_dataset_csv(d / "source.csv", source)
            write_dataset_csv(d / "target.csv", target)
            pairs.append((s, d))
        return {"seed": seed, "pairs": pairs}

    def run_pass(self, inputs) -> PassOutcome:
        out = PassOutcome()
        digest = hashlib.sha256()
        best_ratios = []
        for s, d in inputs["pairs"]:
            out.attempted += GRID_CELLS
            out_dir = d / "out"
            argv = ["grid", "--source", str(d / "source.csv"),
                    "--target", str(d / "target.csv"), *self.flags,
                    "--lambda-grid", ",".join(map(repr, LAMBDAS)),
                    "--mu-grid", ",".join(map(repr, MUS)),
                    "--seed", str(s), "--out-dir", str(out_dir)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = tsrg.cli.main(argv)
                text = (out_dir / "grid.jsonl").read_text()
                records = parse_records(text)
            except Exception:
                out.fail(GRID_CELLS, _report_exception(f"dataset {s}"))
                continue
            digest.update(text.encode())
            if status != 0 or len(records) != GRID_CELLS:
                out.fail(GRID_CELLS, f"dataset {s}: exit {status}, {len(records)} records")
                continue
            for rec in records:
                if not rec["converged"]:
                    out.fail(1, f"dataset {s} cell ({rec['lambda']}, {rec['mu']}) "
                                "did not converge")
                out.ratios.append(rec["mmd_after"] / rec["mmd_before"])
            best = next(r for r in records if r["best"])
            out.uars.append(best["tsrg"]["uar"])
            out.gains.append(best["tsrg"]["uar"] - best["baseline"]["uar"])
            best_ratios.append(best["mmd_after"] / best["mmd_before"])
        if not self._same_as_reference(inputs["seed"], digest.hexdigest()):
            out.fail(out.attempted - out.failed,
                     "grid.jsonl differs from an earlier run of this seed")
        if self.criterion8 and out.gains:
            gain, ratio = median(out.gains), median(best_ratios)
            if gain < MIN_MEDIAN_UAR_GAIN or ratio > MAX_MEDIAN_MMD_RATIO:
                out.fail(out.attempted - out.failed,
                         f"criterion 8 bounds missed: median UAR gain {gain:.3f}, "
                         f"median MMD ratio of the flagged cells {ratio:.3f}")
        return out

    def _same_as_reference(self, seed: int, digest: str) -> bool:
        key = f"{seed}:{_source_digest()}:{' '.join(self.flags)}"
        known = json.loads(self.digests.read_text()) if self.digests.exists() else {}
        if key in known:
            return known[key] == digest
        known[key] = digest
        tmp = self.digests.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
        os.replace(tmp, self.digests)
        return True


class DeskGrid(CliGrid):
    """Criterion 8: linear kernel, checked against its quality bounds."""

    name = "desk_grid"
    flags = ("--kernel", "linear")
    criterion8 = True


class GaussCliGrid(CliGrid):
    """Gaussian kernel with standardization and an SVM retrained per cell.

    Runnable, but not listed in BENCHMARK.json: its pass time follows the
    per-dataset SVM cost, which varies too much across seeds for a steady
    median (see README.md).
    """

    name = "gauss_cli_grid"
    flags = ("--kernel", "gaussian", "--standardize", "--train-on-regenerated")
    criterion8 = False


def _blur_filter(shape: tuple[int, int, int], scale: float) -> np.ndarray:
    """Gaussian low-pass transfer function of width `scale` pixels/frames."""
    t, h, w = shape
    ft = np.fft.fftfreq(t)[:, None, None]
    fy = np.fft.fftfreq(h)[None, :, None]
    fx = np.fft.rfftfreq(w)[None, None, :]
    return np.exp(-2.0 * np.pi ** 2 * scale ** 2 * (ft ** 2 + fy ** 2 + fx ** 2))


# classes differ in texture scale; the target domain adds sensor noise
TEXTURE_SCALES = (1.0, 2.0, 4.0)
SENSOR_NOISE = 1.0   # noise std relative to the texture std


def draw_clips(rng: np.random.Generator, n: int, shape: tuple[int, int, int],
               noise: float) -> tuple[list[VideoClip], np.ndarray]:
    filters = [_blur_filter(shape, s) for s in TEXTURE_SCALES]
    labels = np.arange(n) % len(TEXTURE_SCALES)
    clips = []
    for c in labels:
        vol = np.fft.irfftn(np.fft.rfftn(rng.standard_normal(shape)) * filters[c],
                            s=shape, axes=(0, 1, 2))
        vol /= vol.std()
        if noise:
            vol += noise * rng.standard_normal(shape)
        clips.append(VideoClip(128.0 + 40.0 * vol))
    return clips, labels


class LbpPipeline:
    """Clips -> LBP-TOP (grids 1,2,4; d=3717) -> one linear-kernel experiment."""

    name = "lbp_pipeline"

    def __init__(self, size: Size, workdir: Path):
        self.size = size
        self.params = LbpTopParams(grids=size.grids)

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        source = draw_clips(rng, self.size.clips_source, self.size.clip_shape, 0.0)
        target = draw_clips(rng, self.size.clips_target, self.size.clip_shape,
                            SENSOR_NOISE)
        return source, target

    def run_pass(self, inputs) -> PassOutcome:
        (src_clips, src_labels), (tgt_clips, tgt_labels) = inputs
        out = PassOutcome(attempted=1)
        names = tuple(f"scale{s:g}" for s in TEXTURE_SCALES)
        config = ExperimentConfig(kernel=KernelSpec("linear"),
                                  solver=SolverConfig(lam=10.0, mu=1e-3))
        try:
            x_s = np.stack([tsrg.lbptop.extract(c, self.params) for c in src_clips], axis=1)
            x_t = np.stack([tsrg.lbptop.extract(c, self.params) for c in tgt_clips], axis=1)
            result = tsrg.experiment.run_experiment(
                LabeledDataset(FeatureMatrix(x_s), src_labels, names),
                LabeledDataset(FeatureMatrix(x_t), tgt_labels, names), config)
        except Exception:
            out.fail(1, _report_exception("lbp experiment"))
            return out
        d = self.params.feature_length
        if x_s.shape != (d, len(src_clips)) or x_t.shape != (d, len(tgt_clips)):
            out.fail(1, f"feature shapes {x_s.shape}, {x_t.shape}; expected d={d}")
        elif not result.trace.converged:
            out.fail(1, "lbp fit did not converge")
        elif not result.mmd_after < result.mmd_before:
            out.fail(1, f"mmd did not shrink: {result.mmd_before} -> {result.mmd_after}")
        out.uars.append(result.tsrg.uar)
        out.gains.append(result.tsrg.uar - result.baseline.uar)
        out.ratios.append(result.mmd_after / result.mmd_before)
        return out


WORKLOADS = {w.name: w for w in (DeskGrid, GaussCliGrid, LbpPipeline)}
