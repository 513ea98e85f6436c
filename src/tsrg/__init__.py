"""Kernel-based target sample re-generator for unsupervised domain adaptation,
with LBP-TOP features, a linear max-margin classifier and WAR/UAR metrics."""

from .kernels import (AugmentedKernels, FeatureMatrix, KernelSpec,
                      build_augmented, gram_matrix, kernel_eval, mmd)
from .solver import (SolverConfig, SolverTrace, TsrgModel, fit, load_model,
                     regenerate, save_model, shrink, update_multiplier, update_p,
                     update_q)
from .classifier import LabeledDataset, LinearClassifier, predict, train
from .metrics import EvalReport, evaluate, render_text
from .lbptop import LbpTopParams, VideoClip, extract, lbp_code, uniform_lut
from .data import (DatasetManifest, ManifestEntry, SynthSpec, apply_label_map,
                   ingest_csv, ingest_manifest, load_manifest, synth_generate,
                   write_dataset_csv)
from .experiment import (ExperimentConfig, ExperimentResult, GridRow,
                         grid_search, run_experiment)

__all__ = [
    "AugmentedKernels", "FeatureMatrix", "KernelSpec", "build_augmented",
    "gram_matrix", "kernel_eval", "mmd",
    "SolverConfig", "SolverTrace", "TsrgModel", "fit", "load_model",
    "regenerate", "save_model", "shrink",
    "update_multiplier", "update_p", "update_q",
    "LabeledDataset", "LinearClassifier", "predict", "train",
    "EvalReport", "evaluate", "render_text",
    "LbpTopParams", "VideoClip", "extract", "lbp_code", "uniform_lut",
    "DatasetManifest", "ManifestEntry", "SynthSpec", "apply_label_map",
    "ingest_csv", "ingest_manifest", "load_manifest", "synth_generate",
    "write_dataset_csv",
    "ExperimentConfig", "ExperimentResult", "GridRow", "grid_search",
    "run_experiment",
]

__version__ = "0.1.0"
