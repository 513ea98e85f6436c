"""Kernel-based target sample re-generator for unsupervised domain adaptation,
with LBP-TOP features, a linear max-margin classifier and WAR/UAR metrics.

The top level exports the pipeline; every other public name is importable
from its submodule.
"""

from .kernels import FeatureMatrix, KernelSpec, mmd
from .solver import (SolverConfig, TsrgModel, fit, load_model, regenerate,
                     save_model)
from .classifier import LabeledDataset
from .metrics import EvalReport
from .lbptop import LbpTopParams, VideoClip, extract
from .data import SynthSpec, ingest_csv, synth_generate
from .experiment import ExperimentConfig, grid_search, run_experiment

__all__ = [
    "FeatureMatrix", "KernelSpec", "mmd",
    "SolverConfig", "TsrgModel", "fit", "regenerate", "save_model", "load_model",
    "LabeledDataset", "EvalReport",
    "LbpTopParams", "VideoClip", "extract",
    "SynthSpec", "synth_generate", "ingest_csv",
    "ExperimentConfig", "run_experiment", "grid_search",
]

__version__ = "0.1.0"
