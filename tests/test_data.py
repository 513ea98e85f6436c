import json
import re
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import tsrg.cli
import tsrg.data
from tsrg.data import (DatasetManifest, ManifestEntry, SynthSpec, _read_clip,
                       apply_label_map, ingest_csv, ingest_manifest,
                       load_manifest, synth_generate, write_dataset_csv)
from tsrg.errors import (EmptyDatasetError, IngestionError, LabelMapError,
                         NonFiniteError, SpecError)
from tsrg.kernels import FeatureMatrix, KernelSpec, mmd
from tsrg.lbptop import LbpTopParams, VideoClip, extract

from oracles import write_clip

CASME_STYLE_MAP = {
    "Happiness": "Positive",
    "Disgust": "Negative",
    "Repression": "Negative",
    "Surprise": "Surprise",
    "Others": None,
}


class TestLabelMap:
    def test_casme_style_remap(self):
        labels = ["Happiness", "Disgust", "Repression", "Surprise", "Others"]
        mapped, kept = apply_label_map(labels, CASME_STYLE_MAP)
        assert mapped == ["Positive", "Negative", "Negative", "Surprise"]
        assert kept == [0, 1, 2, 3]

    def test_unmapped_without_drop_policy(self):
        with pytest.raises(LabelMapError):
            apply_label_map(["Mystery"], CASME_STYLE_MAP)

    def test_non_string_key_rejected(self):
        with pytest.raises(LabelMapError, match="label map entry 1: 'a'"):
            apply_label_map(["a"], {1: "a", "a": "a"})


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        from tsrg.classifier import LabeledDataset
        rng = np.random.default_rng(0)
        data = LabeledDataset(FeatureMatrix(rng.standard_normal((4, 6))),
                              np.array([0, 1, 2, 0, 1, 2]), ("a", "b", "c"))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        loaded = ingest_csv(path)
        np.testing.assert_array_equal(loaded.features.data, data.features.data)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert loaded.class_names == data.class_names

    def test_small_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1,f2,f3,label\n1,2,3,4,x\n5,6,7,8,y\n0,0,0,0,x\n")
        data = ingest_csv(path)
        assert data.features.d == 4 and data.features.n == 3

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,label\n")
        with pytest.raises(EmptyDatasetError):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1,2,x\n3,y\n")
        with pytest.raises(IngestionError, match="bad.csv:3"):
            ingest_csv(path)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # a bad value on line 2 comes before an oversized field on line 3
        path = tmp_path / "bad.csv"
        path.write_text('f0,label\nabc,x\n2,"' + "y" * 131073 + "\n")
        with pytest.raises(IngestionError,
                           match="^" + re.escape(f"{path}:2: could not convert string to "
                                                 "float: 'abc'") + "$"):
            ingest_csv(path)

    def test_write_then_ingest_is_bit_exact(self, tmp_path):
        from tsrg.classifier import LabeledDataset
        values = np.array([[-0.0, 5e-324, 1e308, -1e308],
                           [0.30000000000000004, 1.2345678901234567, 2.2250738585072014e-308,
                            -9.999999999999998e-301],
                           [1.0, -2.5, 0.0, 3.141592653589793]])
        names = ("a,b", 'say "hi"', "two\nlines")
        data = LabeledDataset(FeatureMatrix(values), np.array([0, 1, 2, 1]), names)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        loaded = ingest_csv(path)
        assert loaded.features.data.tobytes() == values.tobytes()
        assert loaded.features.data.strides == (8, 8 * 3)  # F-ordered d x n
        assert loaded.class_names == tuple(sorted(names))
        assert ([loaded.class_names[i] for i in loaded.labels]
                == [names[i] for i in data.labels])

    def test_float_forms_are_those_of_float(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text("f0,f1,f2,label\n1_0, 2.5 ,+1e3,x\n")
        assert ingest_csv(path).features.data.tobytes() == np.array([10.0, 2.5, 1000.0]).tobytes()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1,{cell},x\n")
        with pytest.raises(NonFiniteError, match="feature matrix contains NaN/Inf"):
            ingest_csv(path)

    def test_peak_memory_is_near_twice_the_matrix(self, tmp_path):
        from tsrg.classifier import LabeledDataset
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, LabeledDataset(FeatureMatrix(rng.standard_normal((4000, 150))),
                                               np.arange(150) % 3, ("a", "b", "c")))
        tracemalloc.start()
        try:
            data = ingest_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the row arrays, then the matrix stacked from them: about 2x
        assert peak < 2.5 * data.features.data.nbytes


SMALL_LBP = LbpTopParams(grids=(1, 2))


def clip_volume(i):
    return np.random.default_rng(i).integers(0, 256, size=(8, 16, 16)).astype(float)


def make_manifest(tmp_path, label_counts, expected=None, write_files=True):
    entries = []
    i = 0
    for label, count in label_counts.items():
        for _ in range(count):
            path = tmp_path / f"s{i:04d}.raw"
            if write_files:
                write_clip(path, clip_volume(i))
            entries.append(ManifestEntry(path=str(path), label=label))
            i += 1
    return DatasetManifest(name="synthetic", entries=tuple(entries),
                           expected_counts=expected)


class TestManifest:
    def test_ingest_precomputed(self, tmp_path):
        manifest = make_manifest(tmp_path, {"a": 2, "b": 3})
        data = ingest_manifest(manifest, SMALL_LBP)
        assert data.features.n == 5 and data.features.d == SMALL_LBP.feature_length
        # entry order preserved: column j holds the features of entry j's clip
        for j in range(5):
            np.testing.assert_array_equal(data.features.data[:, j],
                                          extract(VideoClip(clip_volume(j)), SMALL_LBP))

    def test_empty_manifest(self):
        manifest = DatasetManifest(name="empty", entries=())
        with pytest.raises(EmptyDatasetError):
            ingest_manifest(manifest)

    def test_non_csv_precomputed_entry_rejected(self, tmp_path):
        # a float64 vector with a length sidecar, bytes that are not UTF-8: not a clip
        path = tmp_path / "x.bin"
        np.arange(4.0).tofile(path)
        (tmp_path / "x.bin.json").write_text('{"dim": 4}')
        manifest = DatasetManifest(name="bin", entries=(ManifestEntry(str(path), "a"),))
        with pytest.raises(IngestionError,
                           match=re.escape(f"cannot read clip {path}: ") + ".*utf-8"):
            ingest_manifest(manifest)

    @pytest.mark.parametrize("header", [b"[1]", b'{"t": null, "h": 2, "w": 2}'],
                             ids=["list", "null-size"])
    def test_clip_header_not_an_object_of_sizes_rejected(self, tmp_path, header):
        path = tmp_path / "clip.raw"
        path.write_bytes(header + b"\n" + np.zeros(4).tobytes())
        manifest = DatasetManifest(name="bad", entries=(ManifestEntry(str(path), "a"),))
        with pytest.raises(IngestionError, match=re.escape(f"cannot read clip {path}: ")):
            ingest_manifest(manifest)

    @pytest.mark.parametrize("sizes", [{"t": 1.7}, {"t": 0}, {"t": -1}, {"h": True},
                                       {"w": "2"}],
                             ids=["fractional", "zero", "negative", "bool", "string"])
    def test_clip_sizes_must_be_positive_integers(self, tmp_path, sizes):
        path = tmp_path / "clip.raw"
        header = json.dumps({"t": 1, "h": 2, "w": 2, **sizes}).encode()
        path.write_bytes(header + b"\n" + np.zeros(4).tobytes())
        manifest = DatasetManifest(name="bad", entries=(ManifestEntry(str(path), "a"),))
        with pytest.raises(IngestionError, match=re.escape(
                f"cannot read clip {path}: t, h and w must be positive integers")):
            ingest_manifest(manifest)

    @pytest.mark.parametrize("sizes", [{"t": 10 ** 30, "h": 1, "w": 1},
                                       {"t": 10 ** 6, "h": 10 ** 6, "w": 10 ** 6},
                                       {"t": 1, "h": 2, "w": 3}],
                             ids=["beyond-ssize-t", "beyond-memory", "two-voxels-short"])
    def test_clip_volume_larger_than_file_rejected_before_reading(self, tmp_path, sizes):
        # the first two volumes exceed any address space, so reading before
        # checking ends in OverflowError or MemoryError, not an IngestionError
        path = tmp_path / "clip.raw"
        path.write_bytes(json.dumps(sizes).encode() + b"\n" + np.zeros(4).tobytes())
        manifest = DatasetManifest(name="bad", entries=(ManifestEntry(str(path), "a"),))
        with pytest.raises(IngestionError, match=re.escape(f"{path}: truncated clip volume")):
            ingest_manifest(manifest)

    def test_missing_file_named(self, tmp_path):
        manifest = make_manifest(tmp_path, {"a": 2}, write_files=False)
        with pytest.raises(IngestionError, match="missing file"):
            ingest_manifest(manifest)

    def test_every_file_checked_before_the_first_clip_is_read(self, monkeypatch, tmp_path):
        def no_extract(*args):
            pytest.fail("a clip was read before every path was checked")
        monkeypatch.setattr(tsrg.data, "extract", no_extract)
        present = make_manifest(tmp_path, {"a": 2, "b": 1})
        missing = tmp_path / "missing.raw"
        manifest = DatasetManifest(name="clips", entries=(
            *present.entries, ManifestEntry(path=str(missing), label="b")))
        with pytest.raises(IngestionError) as err:
            ingest_manifest(manifest, SMALL_LBP)
        assert str(err.value) == f"manifest 'clips': missing file {missing}"

    def test_count_validation_passes_after_remap(self, tmp_path):
        counts = {"Happiness": 32, "Disgust": 60, "Repression": 31, "Surprise": 25}
        manifest = make_manifest(
            tmp_path, counts,
            expected={"Negative": 91, "Positive": 32, "Surprise": 25},
            write_files=False,
        )
        manifest.validate_counts(CASME_STYLE_MAP)

    def test_count_validation_failure(self, tmp_path):
        manifest = make_manifest(tmp_path, {"Happiness": 3},
                                 expected={"Positive": 4}, write_files=False)
        with pytest.raises(IngestionError, match="Positive"):
            manifest.validate_counts(CASME_STYLE_MAP)

    def test_load_manifest_json(self, tmp_path):
        raw = {"name": "demo",
               "entries": [{"path": "x.csv", "label": "a", "subject": "s1"}],
               "expected_counts": {"a": 1}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(raw))
        manifest = load_manifest(path)
        assert manifest.name == "demo"
        assert manifest.entries == (ManifestEntry(path="x.csv", label="a"),)
        manifest.validate_counts()

    def test_negative_expected_count_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": [], "expected_counts": {"a": -1}}))
        with pytest.raises(IngestionError, match=re.escape(f"{path}: expected_counts")):
            load_manifest(path)

    def test_lbptop_mode(self, tmp_path):
        from tsrg.lbptop import LbpTopParams
        rng = np.random.default_rng(1)
        entries = []
        for i, label in enumerate(["a", "a", "b"]):
            path = tmp_path / f"clip{i}.raw"
            write_clip(path, rng.integers(0, 256, size=(8, 16, 16)).astype(float))
            entries.append(ManifestEntry(path=str(path), label=label))
        manifest = DatasetManifest(name="clips", entries=tuple(entries))
        params = LbpTopParams(grids=(1, 2))
        data = ingest_manifest(manifest, params)
        assert data.features.d == params.feature_length
        assert data.features.n == 3


class TestImageDirectory:
    """Pillow is not a dependency, so these tests stand a stub in for it."""

    @staticmethod
    def stub_pillow(monkeypatch):
        # each "image" file holds one number; it opens as a 4 x 4 frame of that value
        class Frame:
            def __init__(self, path):
                self.value = float(Path(path).read_text())

            def convert(self, mode):
                assert mode == "L"
                return np.full((4, 4), self.value)

        image = types.ModuleType("PIL.Image")
        image.open = Frame
        pil = types.ModuleType("PIL")
        pil.Image = image
        monkeypatch.setitem(sys.modules, "PIL", pil)
        monkeypatch.setitem(sys.modules, "PIL.Image", image)

    def test_frames_read_in_numeric_order(self, monkeypatch, tmp_path):
        self.stub_pillow(monkeypatch)
        for i in (11, 2, 10, 1, 9):
            (tmp_path / f"img{i}.png").write_text(str(i))
        frames = _read_clip(tmp_path).frames
        assert frames.shape == (5, 4, 4)
        assert frames[:, 0, 0].tolist() == [1, 2, 9, 10, 11]

    def test_extract_without_pillow_exits_1(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(sys.modules, "PIL", None)
        clip = tmp_path / "clip"
        clip.mkdir()
        (clip / "img1.png").write_text("1")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [{"path": str(clip), "label": "a"}]}))
        out = tmp_path / "f.csv"
        status = tsrg.cli.main(["extract", "--manifest", str(manifest), "--out", str(out)])
        assert status == 1
        assert capsys.readouterr().err == "error: Pillow required to read image directories\n"
        assert not out.exists()


class TestSynth:
    def test_deterministic_from_seed(self):
        spec = SynthSpec(seed=42)
        s1, t1 = synth_generate(spec)
        s2, t2 = synth_generate(spec)
        np.testing.assert_array_equal(s1.features.data, s2.features.data)
        np.testing.assert_array_equal(t1.features.data, t2.features.data)
        np.testing.assert_array_equal(s1.labels, s2.labels)

    def test_identity_shift_mmd_shrinks_with_count(self):
        linear = KernelSpec("linear")
        small, large = [], []
        for seed in range(10):
            s, t = synth_generate(SynthSpec(n_source_per_class=17, n_target_per_class=17,
                                            seed=seed))
            small.append(mmd(s.features, t.features, linear))
            s, t = synth_generate(SynthSpec(n_source_per_class=134, n_target_per_class=134,
                                            seed=seed))
            large.append(mmd(s.features, t.features, linear))
        assert np.mean(large) < np.mean(small)

    def test_offset_increases_mmd(self):
        linear = KernelSpec("linear")
        b = np.zeros(20)
        b[3] = 8.0
        s0, t0 = synth_generate(SynthSpec(seed=5))
        s1, t1 = synth_generate(SynthSpec(shift_offset=b, seed=5))
        assert mmd(s1.features, t1.features, linear) > mmd(s0.features, t0.features, linear)

    def test_too_few_samples_rejected(self):
        with pytest.raises(SpecError):
            SynthSpec(n_source_per_class=1)

    def test_shift_applied_to_target_only(self):
        b = np.full(20, 100.0)
        s, t = synth_generate(SynthSpec(shift_offset=b, seed=1))
        assert t.features.data.mean() > 50
        assert abs(s.features.data.mean()) < 5
