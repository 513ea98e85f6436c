"""Dataset ingestion, label remapping and synthetic shifted-Gaussian data.

Feature files are CSV (header row, one sample per line, label column
last) and come in through ``ingest_csv``.  A manifest lists clips, which
``ingest_manifest`` turns into LBP-TOP feature vectors.
"""
from __future__ import annotations

import csv
import json
import numbers
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import LabeledDataset
from .errors import (EmptyDatasetError, IngestionError, LabelMapError, SpecError,
                     UnmappedLabelError)
from .kernels import FeatureMatrix
from .lbptop import LbpTopParams, VideoClip, extract


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    entries: tuple[ManifestEntry, ...]
    expected_counts: dict | None = None   # class name -> expected sample count

    def class_counts(self, label_map: dict[str, str | None] | None = None) -> dict[str, int]:
        labels = [e.label for e in self.entries]
        if label_map is not None:
            labels, _ = apply_label_map(labels, label_map)
        return Counter(labels)

    def validate_counts(self, label_map: dict[str, str | None] | None = None) -> None:
        if self.expected_counts is None:
            return
        actual = self.class_counts(label_map)
        for name, expected in self.expected_counts.items():
            got = actual.get(name, 0)
            if got != expected:
                raise IngestionError(
                    f"manifest {self.name!r}: class {name!r} has {got} samples, "
                    f"expected {expected}"
                )


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise IngestionError(f"cannot read manifest {path}: {err}") from err
    if not isinstance(raw, dict):
        raise IngestionError(f"{path}: the manifest must be a JSON object")
    raw_entries = raw.get("entries", [])
    if not isinstance(raw_entries, list):
        raise IngestionError(f"{path}: entries must be a list")
    for i, e in enumerate(raw_entries):
        if not (isinstance(e, dict) and isinstance(e.get("path"), str)
                and isinstance(e.get("label"), str)):
            raise IngestionError(
                f"{path}: entry {i} must be an object with string path and label")
    counts = raw.get("expected_counts")
    if counts is not None and not (isinstance(counts, dict) and all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in counts.values())):
        raise IngestionError(
            f"{path}: expected_counts must map class names to non-negative integers")
    return DatasetManifest(
        name=raw.get("name", path.stem),
        entries=tuple(ManifestEntry(path=e["path"], label=e["label"]) for e in raw_entries),
        expected_counts=counts,
    )


def apply_label_map(labels: list[str],
                    mapping: dict[str, str | None]) -> tuple[list[str], list[int]]:
    """Remap label strings; a None target drops the sample, and a label the
    map does not name is an ``UnmappedLabelError``, a ``LabelMapError``.

    Returns the new labels and the indices of the kept samples.
    """
    if not isinstance(mapping, dict):
        raise LabelMapError(f"a label map must be a JSON object, not {type(mapping).__name__}")
    for old, new in mapping.items():
        if not isinstance(old, str) or not (new is None or isinstance(new, str)):
            raise LabelMapError(f"label map entry {old!r}: {new!r} must map a label "
                                "to a label or null")
    out, kept = [], []
    for i, lab in enumerate(labels):
        if lab not in mapping:
            raise UnmappedLabelError(f"label {lab!r} has no mapping and no drop policy")
        if mapping[lab] is not None:
            out.append(mapping[lab])
            kept.append(i)
    return out, kept


def _read_clip(path: Path) -> VideoClip:
    """Clip directory of numbered images, read in numeric frame order (img2
    before img10), or a packed raw volume with header."""
    if path.is_dir():
        try:
            from PIL import Image
        except ImportError as err:
            raise IngestionError("Pillow required to read image directories") from err
        # digit runs compare as integers; the name breaks ties such as img01 / img1
        files = sorted((p for p in path.iterdir() if p.is_file()), key=lambda p: (
            [int(s) if s.isdecimal() else s for s in re.split(r"(\d+)", p.name)], p.name))
        if not files:
            raise IngestionError(f"{path}: empty clip directory")
        return VideoClip(np.stack([np.asarray(Image.open(f).convert("L"), dtype=np.float64)
                                   for f in files]))
    # packed raw file: json header line, then <f8 voxels in t,y,x order
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            if not isinstance(header, dict):
                raise IngestionError(f"cannot read clip {path}: the header must be a JSON object")
            t, h, w = header["t"], header["h"], header["w"]
            if not all(isinstance(s, int) and not isinstance(s, bool) and s > 0 for s in (t, h, w)):
                raise IngestionError(
                    f"cannot read clip {path}: t, h and w must be positive integers")
            # checked before reading: a count too large for memory is not allocated
            if t * h * w * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
                raise IngestionError(f"{path}: truncated clip volume")
            vol = np.fromfile(fh, dtype="<f8", count=t * h * w)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        raise IngestionError(f"cannot read clip {path}: {err}") from err
    return VideoClip(vol.reshape(t, h, w))


def dataset_from_arrays(features: np.ndarray, labels: list[str],
                        class_names: tuple[str, ...] | None = None) -> LabeledDataset:
    """Build a LabeledDataset, deriving class ids from sorted label names."""
    if class_names is None:
        class_names = tuple(sorted(set(labels)))
    index = {name: i for i, name in enumerate(class_names)}
    try:
        ids = np.array([index[lab] for lab in labels], dtype=np.int64)
    except KeyError as err:
        raise IngestionError(f"unknown label {err.args[0]!r}") from err
    return LabeledDataset(FeatureMatrix(features), ids, class_names)


def ingest_csv(path: str | Path, label_map: dict[str, str | None] | None = None,
               class_names: tuple[str, ...] | None = None) -> LabeledDataset:
    """Load a whole dataset from one feature CSV, parsing each row as it is read."""
    rows, labels = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            width = len(next(reader, ()))
            if width < 2:  # at least one feature, then the label
                raise IngestionError(f"{path}:1: expected at least 2 columns, got {width}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise IngestionError(f"{path}:{lineno}: expected {width} columns, "
                                         f"got {len(row)}")
                try:
                    rows.append(np.fromiter(map(float, row[:-1]), np.float64, width - 1))
                except ValueError as err:
                    raise IngestionError(f"{path}:{lineno}: {err}") from err
                labels.append(row[-1])
        except csv.Error as err:
            raise IngestionError(f"{path}:{reader.line_num}: {err}") from err
        except UnicodeDecodeError as err:  # decoding is per buffered chunk, not per line
            raise IngestionError(f"{path}: {err}") from err
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    features = np.array(rows).T  # an F-ordered d x n view; the peak is about 2x the matrix
    if label_map is not None:
        try:
            labels, kept = apply_label_map(labels, label_map)
        except UnmappedLabelError as err:  # a malformed map is the map's fault, not the file's
            raise UnmappedLabelError(f"{path}: {err}") from err
        features = features[:, kept]
    if not labels:
        raise EmptyDatasetError(f"{path}: no samples after label mapping")
    try:
        return dataset_from_arrays(features, labels, class_names)
    except IngestionError as err:  # a label outside the given class_names
        raise IngestionError(f"{path}: {err}") from err


def ingest_manifest(manifest: DatasetManifest,
                    params: LbpTopParams = LbpTopParams()) -> LabeledDataset:
    """Extract one LBP-TOP feature vector per manifest clip, in entry order.

    Precomputed features do not go through a manifest: ``ingest_csv`` reads
    them from one feature CSV.
    """
    if not manifest.entries:
        raise EmptyDatasetError(f"manifest {manifest.name!r} has no entries")
    paths = [Path(e.path) for e in manifest.entries]
    for path in paths:  # every clip is checked before the first one is read
        if not path.exists():
            raise IngestionError(f"manifest {manifest.name!r}: missing file {path}")
    vectors = [extract(_read_clip(path), params) for path in paths]
    return dataset_from_arrays(np.stack(vectors, axis=1), [e.label for e in manifest.entries])


def write_dataset_csv(path: str | Path, dataset: LabeledDataset) -> None:
    """Emit a dataset in the feature-CSV format (label column last)."""
    d = dataset.features.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for j in range(dataset.features.n):
            row = [repr(float(v)) for v in dataset.features.data[:, j]]
            writer.writerow(row + [dataset.class_names[dataset.labels[j]]])


@dataclass(frozen=True)
class SynthSpec:
    """Shifted-Gaussian class mixture for desk-scale benchmarking."""

    classes: int = 3
    dim: int = 20
    n_source_per_class: int = 20
    n_target_per_class: int = 20
    cov_scale: float = 1.0
    shift_offset: np.ndarray | None = None  # default zero
    center_spread: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("classes", numbers.Integral), ("dim", numbers.Integral),
                           ("n_source_per_class", numbers.Integral),
                           ("n_target_per_class", numbers.Integral),
                           ("seed", numbers.Integral), ("cov_scale", numbers.Real),
                           ("center_spread", numbers.Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                expected = "an integer" if kind is numbers.Integral else "a number"
                raise SpecError(f"{name} must be {expected}, not {value!r}")
        if self.classes < 2 or self.dim < 1:
            raise SpecError("need classes >= 2 and dim >= 1")
        if self.n_source_per_class < 2 or self.n_target_per_class < 2:
            raise SpecError("need at least 2 samples per class per domain")
        if not self.cov_scale > 0:
            raise SpecError("cov_scale must be > 0")
        for name in ("cov_scale", "center_spread"):
            # NaN fails it too, and so does an integer too large for a double
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise SpecError(f"{name} must be finite")
        if self.shift_offset is not None:
            try:
                b = np.asarray(self.shift_offset, dtype=np.float64)
            except OverflowError as err:  # an integer too large for a double
                raise SpecError("shift_offset entries must be finite") from err
            if b.shape != (self.dim,):
                raise SpecError(f"shift offset must have length {self.dim}")
            if not np.isfinite(b).all():
                raise SpecError("shift_offset entries must be finite")
            object.__setattr__(self, "shift_offset", b)


def synth_generate(spec: SynthSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Draw source/target datasets; class c is centred at ``center_spread``
    on axis ``c % dim``, and target samples are shifted by ``shift_offset``."""
    rng = np.random.default_rng(spec.seed)
    centers = np.zeros((spec.classes, spec.dim))
    centers[np.arange(spec.classes), np.arange(spec.classes) % spec.dim] = spec.center_spread
    b = spec.shift_offset if spec.shift_offset is not None else np.zeros(spec.dim)
    class_names = tuple(f"c{c}" for c in range(spec.classes))

    def draw(n_per_class: int) -> tuple[np.ndarray, list[str]]:
        cols, labels = [], []
        for c in range(spec.classes):
            pts = centers[c][:, None] + spec.cov_scale * rng.standard_normal((spec.dim, n_per_class))
            cols.append(pts)
            labels.extend([class_names[c]] * n_per_class)
        return np.concatenate(cols, axis=1), labels

    src_x, src_labels = draw(spec.n_source_per_class)
    tgt_x, tgt_labels = draw(spec.n_target_per_class)
    tgt_x = tgt_x + b[:, None]
    return (
        dataset_from_arrays(src_x, src_labels, class_names),
        dataset_from_arrays(tgt_x, tgt_labels, class_names),
    )
