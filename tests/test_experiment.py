import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tsrg.cli
import tsrg.data
import tsrg.experiment
import tsrg.metrics
import tsrg.solver
from tsrg.data import SynthSpec, synth_generate, write_dataset_csv
from tsrg.experiment import (ExperimentConfig, emit_records, grid_search,
                             parse_records, render_result, run_experiment)
from tsrg.kernels import KernelSpec
from tsrg.lbptop import LbpTopParams
from tsrg.solver import SolverConfig, save_model

BENCH_OFFSET = np.zeros(20)
BENCH_OFFSET[0] = 3.0
BENCH_OFFSET[1] = 3.0


def bench_spec(seed):
    return SynthSpec(shift_offset=BENCH_OFFSET, center_spread=3.5, seed=seed)


def test_identical_domains_no_degradation():
    spec = SynthSpec(seed=0)
    source, _ = synth_generate(spec)
    result = run_experiment(source, source, ExperimentConfig())
    assert result.baseline.war > 0.9
    assert abs(result.tsrg.war - result.baseline.war) < 0.05


def test_shifted_benchmark_improves_uar():
    wins = 0
    for seed in range(5):
        source, target = synth_generate(bench_spec(seed))
        config = ExperimentConfig(solver=SolverConfig(lam=10.0, mu=1e-3))
        result = run_experiment(source, target, config)
        if result.tsrg.uar > result.baseline.uar:
            wins += 1
        assert result.mmd_after < result.mmd_before
    assert wins >= 4


def test_target_labels_not_used_for_adaptation():
    # scrambling target labels must not change the regenerated samples or
    # the adapted predictions, only the scores
    source, target = synth_generate(bench_spec(0))
    config = ExperimentConfig(solver=SolverConfig(lam=10.0, mu=1e-3))
    r1 = run_experiment(source, target, config)
    from tsrg.classifier import LabeledDataset
    scrambled = LabeledDataset(target.features,
                               np.roll(target.labels, 7), target.class_names)
    r2 = run_experiment(source, scrambled, config)
    np.testing.assert_array_equal(r1.model.p, r2.model.p)
    np.testing.assert_array_equal(r1.tsrg.confusion.sum(axis=0),
                                  r2.tsrg.confusion.sum(axis=0))


def test_standardization_path():
    source, target = synth_generate(bench_spec(1))
    config = ExperimentConfig(standardize=True, solver=SolverConfig(lam=10.0, mu=1e-3))
    result = run_experiment(source, target, config)
    assert 0.0 <= result.tsrg.uar <= 1.0


def test_standardized_run_saves_standardized_anchors(tmp_path):
    # the anchors are the standardized data fit saw, and no mean or std is saved,
    # so a loaded model is right only on inputs standardized the same way
    source, target = synth_generate(bench_spec(1))
    config = ExperimentConfig(standardize=True, solver=SolverConfig(lam=10.0, mu=1e-3))
    model = run_experiment(source, target, config).model
    x_s = source.features.data
    mean, std = x_s.mean(axis=1, keepdims=True), x_s.std(axis=1, keepdims=True)
    raw = np.concatenate([x_s, target.features.data], axis=1)
    np.testing.assert_array_equal(model.anchors.data, (raw - mean) / std)
    assert np.abs(model.anchors.data[:, :model.x_s.n].mean(axis=1)).max() < 1e-12
    save_model(model, tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as z:
        assert sorted(z.files) == ["anchors", "config_json", "kernel_bandwidth", "kernel_kind",
                                   "n_s", "n_t", "p", "version"]
        np.testing.assert_array_equal(z["anchors"], model.anchors.data)


def test_train_on_regenerated_flag():
    source, target = synth_generate(bench_spec(2))
    config = ExperimentConfig(train_on_regenerated=True,
                              solver=SolverConfig(lam=10.0, mu=1e-3))
    result = run_experiment(source, target, config)
    assert result.tsrg.uar > 0.4


def test_grid_single_cell_equals_run():
    source, target = synth_generate(bench_spec(3))
    config = ExperimentConfig(solver=SolverConfig(lam=5.0, mu=1e-2))
    rows = grid_search(source, target, config, [5.0], [1e-2])
    assert len(rows) == 1 and rows[0].best
    direct = run_experiment(source, target, config)
    assert rows[0].result.tsrg.to_dict() == direct.tsrg.to_dict()
    assert rows[0].result.baseline.to_dict() == direct.baseline.to_dict()
    # byte-identical records, once the run record's null lambda and mu and
    # its missing best flag are filled in
    record = parse_records(emit_records([direct], "s", "t"))[0]
    record.update({"lambda": 5.0, "mu": 1e-2, "best": True})
    assert emit_records(rows, "s", "t") == json.dumps(record, sort_keys=True) + "\n"
    # in a 2x2 grid too, each row's record is its cell's standalone run record
    # with lambda, mu and best filled in, and that run gives the cell's model
    rows = grid_search(source, target, config, [1.0, 10.0], [1e-3, 1e-2])
    assert sum(row.best for row in rows) == 1
    for row in rows:
        direct = run_experiment(source, target, dataclasses.replace(config, solver=row.cell))
        assert direct.model.config == row.cell
        record = direct.record("s", "t")
        assert (record["lambda"], record["mu"]) == (None, None) and "best" not in record
        record.update({"lambda": row.cell.lam, "mu": row.cell.mu, "best": row.best})
        assert (json.dumps(row.record("s", "t"), sort_keys=True)
                == json.dumps(record, sort_keys=True))
    assert [(r.cell.lam, r.cell.mu) for r in rows] == [
        (1.0, 1e-3), (1.0, 1e-2), (10.0, 1e-3), (10.0, 1e-2)]


def test_grid_rows_are_frozen():
    source, target = synth_generate(bench_spec(3))
    row = grid_search(source, target, ExperimentConfig(), [5.0], [1e-2])[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.best = False
    assert row.best


def test_grid_rows_hold_no_model():
    # no output reads a cell's model, so no row keeps one; each row holds its cell's config
    source, target = synth_generate(bench_spec(3))
    config = ExperimentConfig(solver=SolverConfig(lam=5.0, mu=0.5))
    rows = grid_search(source, target, config, [1.0, 10.0, 100.0], [1e-3, 1e-2])
    assert all(row.result.model is None for row in rows)
    assert [row.cell for row in rows] == [SolverConfig(lam=lam, mu=mu)
                                          for lam in (1.0, 10.0, 100.0) for mu in (1e-3, 1e-2)]


def test_grid_peaks_at_one_run(monkeypatch):
    # over a d >> n pair, a 3x2 grid peaks where its largest single run does:
    # rows that kept their n x d P would add five of them by the last cell
    monkeypatch.setattr(tsrg.solver, "_MAX_ITERS", 4)
    source, target = synth_generate(SynthSpec(dim=4000, n_source_per_class=6,
                                              n_target_per_class=6, seed=0))
    config, lambdas, mus = ExperimentConfig(), [1.0, 10.0, 100.0], [1e-3, 1e-2]
    grid_search(source, target, config, lambdas, mus)  # numpy's lazy imports, untraced

    def peak(run):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        run_peak = max(peak(lambda: run_experiment(
            source, target, dataclasses.replace(config, solver=SolverConfig(lam=lam, mu=mu))))
            for lam in lambdas for mu in mus)
        grid_peak = peak(lambda: grid_search(source, target, config, lambdas, mus))
    finally:
        tracemalloc.stop()
    p_bytes = (source.features.n + target.features.n) * 4000 * 8
    assert grid_peak <= run_peak + p_bytes / 2


def test_grid_checks_every_cell_before_the_first_fit(monkeypatch, tmp_path, dataset_files):
    # a bad value late in the grid fails before the pair is prepared or a cell fitted
    calls = []

    def counting(name):
        original = getattr(tsrg.experiment, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("fit", "prepare_pair"):
        monkeypatch.setattr(tsrg.experiment, name, counting(name))
    src, tgt = dataset_files
    status = tsrg.cli.main(["grid", "--source", str(src), "--target", str(tgt),
                            "--lambda-grid", "1,10", "--mu-grid", "0.001,-1",
                            "--seed", "0", "--out-dir", str(tmp_path / "o")])
    assert status == 1
    assert calls == []
    source, target = synth_generate(bench_spec(3))
    with pytest.raises(ValueError, match="^lam and mu must be nonnegative$"):
        grid_search(source, target, ExperimentConfig(), [1.0, np.nan], [1e-3])
    assert calls == []


@pytest.mark.parametrize("regenerated, trains", [(False, 1), (True, 1 + 4)])
def test_grid_trains_baseline_once_per_pair(monkeypatch, regenerated, trains):
    calls = []
    train = tsrg.experiment.clf.train

    def counting(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(tsrg.experiment.clf, "train", counting)
    source, target = synth_generate(bench_spec(8))
    config = ExperimentConfig(train_on_regenerated=regenerated)
    rows = grid_search(source, target, config, [1.0, 10.0], [1e-3, 1e-2])
    assert len(rows) == 4
    assert len(calls) == trains


def test_grid_best_row_tie_break():
    from tsrg.experiment import GridRow
    # identical scores across cells: earliest grid-order row must win
    source, target = synth_generate(SynthSpec(seed=4))
    config = ExperimentConfig(solver=SolverConfig(lam=1.0, mu=1e-3))
    rows = grid_search(source, target, config, [1.0, 1.0], [1e-3])
    assert (rows[0].result.tsrg.uar == rows[1].result.tsrg.uar
            and rows[0].result.tsrg.war == rows[1].result.tsrg.war)
    assert rows[0].best and not rows[1].best


def test_records_round_trip():
    source, target = synth_generate(bench_spec(5))
    config = ExperimentConfig(solver=SolverConfig(lam=10.0, mu=1e-3))
    rows = grid_search(source, target, config, [1.0, 10.0], [1e-3])
    text = emit_records(rows, "src", "tgt")
    records = parse_records(text)
    assert len(records) == 2
    assert emit_records(rows, "src", "tgt") == text  # deterministic emission
    best = [r for r in records if r["best"]]
    assert len(best) == 1
    from tsrg.metrics import EvalReport
    report = EvalReport.from_dict(records[0]["tsrg"])
    assert report.to_dict() == records[0]["tsrg"]


def test_mismatched_class_sets_rejected():
    source, _ = synth_generate(SynthSpec(seed=6))
    other, _ = synth_generate(SynthSpec(classes=4, seed=6))
    with pytest.raises(ValueError):
        run_experiment(source, other, ExperimentConfig())


def test_render_result_mentions_mmd():
    source, target = synth_generate(bench_spec(7))
    result = run_experiment(source, target,
                            ExperimentConfig(solver=SolverConfig(lam=10.0, mu=1e-3)))
    text = render_result(result, "a", "b")
    assert "mmd before" in text and "a -> b" in text


@pytest.fixture
def dataset_files(tmp_path):
    source, target = synth_generate(bench_spec(11))
    src, tgt = tmp_path / "source.csv", tmp_path / "target.csv"
    write_dataset_csv(src, source)
    write_dataset_csv(tgt, target)
    return src, tgt


class TestCli:
    def test_run_produces_reports(self, run_cli, tmp_path, dataset_files):
        src, tgt = dataset_files
        out = tmp_path / "out"
        proc = run_cli(["run", "--source", str(src), "--target", str(tgt),
                        "--lambda", "10", "--mu", "0.001",
                        "--seed", "0", "--out-dir", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        records = parse_records((out / "report.jsonl").read_text())
        assert records[0]["mmd_after"] < records[0]["mmd_before"]
        assert (out / "report.txt").exists()
        assert (out / "model.npz").exists()

    def test_run_deterministic(self, run_cli, tmp_path, dataset_files):
        src, tgt = dataset_files
        outputs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            proc = run_cli(["run", "--source", str(src), "--target", str(tgt),
                            "--lambda", "10", "--mu", "0.001",
                            "--seed", "3", "--out-dir", str(out)], tmp_path)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "report.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_grid_deterministic_and_flags_best(self, run_cli, tmp_path, dataset_files):
        src, tgt = dataset_files
        outputs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            proc = run_cli(["grid", "--source", str(src), "--target", str(tgt),
                            "--lambda-grid", "1,10", "--mu-grid", "0.001,0.01",
                            "--seed", "3", "--out-dir", str(out)], tmp_path)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "grid.jsonl").read_bytes())
        assert outputs[0] == outputs[1]
        records = parse_records(outputs[0].decode())
        assert len(records) == 4
        assert sum(r["best"] for r in records) == 1

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, run_cli, tmp_path,
                                                             dataset_files):
        # byte-identity holds for one BLAS thread count; on desk-scale data the
        # outputs are also the same at 1 and 2 OpenBLAS threads
        src, tgt = dataset_files
        commands = {
            "run": (["--lambda", "10", "--mu", "0.001"],
                    ("report.jsonl", "report.txt", "model.npz")),
            "grid": (["--lambda-grid", "1,10", "--mu-grid", "0.001,0.01"],
                     ("grid.jsonl", "grid.txt")),
        }
        outputs = {}
        for threads in ("1", "2"):
            for command, (flags, names) in commands.items():
                out = tmp_path / f"{command}-{threads}"
                proc = run_cli([command, "--source", str(src), "--target", str(tgt),
                                "--kernel", "linear", *flags, "--seed", "0",
                                "--out-dir", str(out)], tmp_path,
                               env={"OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                for name in names:
                    outputs.setdefault(name, []).append((out / name).read_bytes())
        assert len(outputs) == 5
        assert all(one == two for one, two in outputs.values())

    def test_synth_and_report_commands(self, run_cli, tmp_path):
        spec = {"classes": 3, "dim": 5, "n_source_per_class": 5,
                "n_target_per_class": 5, "seed": 9}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = run_cli(["synth", "--spec", str(spec_path),
                        "--out-source", str(tmp_path / "s.csv"),
                        "--out-target", str(tmp_path / "t.csv")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "run"
        proc = run_cli(["run", "--source", str(tmp_path / "s.csv"),
                        "--target", str(tmp_path / "t.csv"),
                        "--seed", "0", "--out-dir", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["report", "--records", str(out / "report.jsonl")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "WAR" in proc.stdout

    @pytest.fixture
    def clip_manifest(self, tmp_path):
        from oracles import write_clip
        clip = tmp_path / "clip.raw"
        write_clip(clip, np.random.default_rng(0).integers(0, 256, size=(8, 16, 16)).astype(float))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [{"path": str(clip), "label": "a"}]}))
        return manifest

    def test_extract_writes_nothing_when_the_write_fails(self, monkeypatch, capsys, tmp_path,
                                                         clip_manifest):
        def partial(path, dataset):
            Path(path).write_text("f0,f1,f2\n0.5,")
            raise OSError("disk full")
        monkeypatch.setattr(tsrg.cli, "write_dataset_csv", partial)
        status = tsrg.cli.main(["extract", "--manifest", str(clip_manifest), "--grids", "1",
                                "--out", str(tmp_path / "features.csv")])
        assert status == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.raw", "manifest.json"]

    @pytest.mark.parametrize("flags, message", [
        (["--grids", "1,100000000"], "{clip}: grid 100000000x100000000 produces blocks "
                                     "smaller than 7 pixels for a 16x16 frame"),
        (["--grids", ", ,"], "grids must be a non-empty list of positive divisions"),
    ], ids=["huge-grid", "blank-grids"])
    def test_extract_rejects_lbp_settings_without_traceback(self, capsys, tmp_path,
                                                            clip_manifest, flags, message):
        status = tsrg.cli.main(["extract", "--manifest", str(clip_manifest), *flags,
                                "--out", str(tmp_path / "f.csv")])
        assert status == 1
        message = message.format(clip=tmp_path / "clip.raw")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("frames, pixel, message", [
        (4, 0.0, "clip 4x16x16 smaller than 7 along some axis for radius 3"),
        (8, np.nan, "clip contains non-finite pixels"),
    ], ids=["too-small", "nan-pixel"])
    def test_extract_names_the_clip_at_fault(self, capsys, tmp_path, frames, pixel, message):
        from oracles import write_clip
        entries = []
        for i in range(2):  # the second clip is at fault
            volume = np.random.default_rng(i).integers(0, 256, size=(8, 16, 16)).astype(float)
            if i == 1:
                volume = volume[:frames]
                volume[0, 0, 0] = pixel
            write_clip(tmp_path / f"clip{i}.raw", volume)
            entries.append({"path": str(tmp_path / f"clip{i}.raw"), "label": "a"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": entries}))
        status = tsrg.cli.main(["extract", "--manifest", str(manifest), "--grids", "1",
                                "--out", str(tmp_path / "f.csv")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'clip1.raw'}: {message}\n"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("flag", ["--radius", "--points"])
    def test_extract_has_no_lbp_operator_flags(self, capsys, tmp_path, clip_manifest, flag):
        # the command line extracts R=3, P=8; other operators go through LbpTopParams
        value = str(getattr(LbpTopParams, flag[2:]))
        with pytest.raises(SystemExit) as exit_:
            tsrg.cli.main(["extract", "--manifest", str(clip_manifest), flag, value,
                           "--out", str(tmp_path / "f.csv")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f" error: unrecognized arguments: {flag} {value}\n")
        assert not (tmp_path / "f.csv").exists()

    def test_extract_checks_every_clip_before_reading_one(self, monkeypatch, capsys, tmp_path,
                                                          clip_manifest):
        def no_extract(*args):
            pytest.fail("a clip was read before every path was checked")
        monkeypatch.setattr(tsrg.data, "extract", no_extract)
        monkeypatch.chdir(tmp_path)  # where missing.raw is looked for
        raw = json.loads(clip_manifest.read_text())
        raw["entries"].append({"path": "missing.raw", "label": "a"})
        clip_manifest.write_text(json.dumps({"name": "clips", **raw}))
        status = tsrg.cli.main(["extract", "--manifest", str(clip_manifest),
                                "--out", str(tmp_path / "f.csv")])
        assert status == 1
        assert capsys.readouterr().err == "error: manifest 'clips': missing file missing.raw\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.raw", "manifest.json"]

    def test_extract_command(self, run_cli, tmp_path):
        from oracles import write_clip
        rng = np.random.default_rng(2)
        entries = []
        for i, label in enumerate(["a", "a", "b"]):
            path = tmp_path / f"clip{i}.raw"
            write_clip(path, rng.integers(0, 256, size=(8, 16, 16)).astype(float))
            entries.append({"path": str(path), "label": label})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"name": "clips", "entries": entries}))
        out = tmp_path / "features.csv"
        proc = run_cli(["extract", "--manifest", str(manifest), "--grids", "1,2",
                        "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        from tsrg.data import ingest_csv
        data = ingest_csv(out)
        assert data.features.n == 3

    @pytest.mark.parametrize("manifest, message", [
        ([1, 2], "the manifest must be a JSON object"),
        ({"entries": {"a": 1}}, "entries must be a list"),
        ({"entries": [1]}, "entry 0 must be an object with string path and label"),
        ({"entries": [{"label": "a"}]}, "entry 0 must be an object with string path and label"),
        ({"entries": [{"path": "x.raw"}]},
         "entry 0 must be an object with string path and label"),
        ({"entries": [{"path": "x.raw", "label": "a"}], "expected_counts": {"a": "1"}},
         "expected_counts must map class names to non-negative integers"),
    ], ids=["not-an-object", "entries-object", "entry-not-object", "entry-without-path",
            "entry-without-label", "string-count"])
    def test_extract_rejects_bad_manifest_without_traceback(self, capsys, tmp_path,
                                                            manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        status = tsrg.cli.main(["extract", "--manifest", str(path),
                                "--out", str(tmp_path / "f.csv")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("label_map, message", [
        (["a"], "a label map must be a JSON object, not list"),
        ({"a": 3, "b": "x"}, "label map entry 'a': 3 must map a label to a label or null"),
        ({"a": "y", "b": ["x"]},
         "label map entry 'b': ['x'] must map a label to a label or null"),
    ], ids=["list", "int-target", "list-target"])
    def test_run_rejects_bad_label_map_without_traceback(self, capsys, tmp_path,
                                                         label_map, message):
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,label\n0,1,a\n1,0,b\n0,2,a\n2,0,b\n")
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(label_map))
        status = tsrg.cli.main(["run", "--source", str(data), "--target", str(data),
                                "--label-map", str(map_path),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("holder", ["source", "target"])
    def test_unmapped_label_names_the_file_that_holds_it(self, capsys, tmp_path, holder):
        files = {"source": tmp_path / "s.csv", "target": tmp_path / "t.csv"}
        for name, path in files.items():
            extra = "x" if name == holder else "a"
            path.write_text(f"f0,f1,label\n0,1,a\n1,0,b\n0,2,{extra}\n2,0,b\n")
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"a": "a", "b": "b"}))
        status = tsrg.cli.main(["run", "--source", str(files["source"]),
                                "--target", str(files["target"]), "--label-map", str(map_path),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: {files[holder]}: label 'x' has no mapping and no drop policy\n")
        assert not (tmp_path / "o").exists()

    def test_target_label_missing_from_source_names_the_target(self, capsys, tmp_path):
        src, tgt = tmp_path / "s.csv", tmp_path / "t.csv"
        src.write_text("f0,f1,label\n0,1,a\n1,0,b\n0,2,a\n2,0,b\n")
        tgt.write_text("f0,f1,label\n0,1,a\n1,0,c\n")
        status = tsrg.cli.main(["run", "--source", str(src), "--target", str(tgt),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {tgt}: unknown label 'c'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kernel", ["linear", "gaussian"])
    def test_feature_counts_must_agree(self, capsys, tmp_path, kernel):
        # checked before the kernel (gaussian) or the SVM (linear) meets the mismatch
        src, tgt = tmp_path / "s.csv", tmp_path / "t.csv"
        src.write_text("f0,f1,label\n0,1,a\n1,0,b\n0,2,a\n2,0,b\n")
        tgt.write_text("f0,label\n0,a\n1,b\n")
        status = tsrg.cli.main(["run", "--source", str(src), "--target", str(tgt),
                                "--kernel", kernel, "--seed", "0",
                                "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: source and target feature counts differ: 2 vs 1\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content, message", [
        (b"f0,f1,label\n0,1,a\n1,b\n", ":3: expected 3 columns, got 2"),
        (b"f0,f1,label\n0,1,a\n1,abc,b\n", ":3: could not convert string to float: 'abc'"),
        (b'f0,f1,label\n0,1,a\n1,0,"' + b"b" * 131073 + b"\n",
         ":3: field larger than field limit (131072)"),
        (b"f0,f1,label\n0,1,\xff\n", ": 'utf-8' codec can't decode byte 0xff in position 16: "
                                     "invalid start byte"),
        (b"\n\n", ":1: expected at least 2 columns, got 0"),
        (b"label\na\nb\n", ":1: expected at least 2 columns, got 1"),
    ], ids=["ragged", "not-a-number", "unclosed-quote", "not-utf-8", "blank-header",
            "label-only-header"])
    def test_unreadable_feature_csv_exits_1_naming_the_file(self, capsys, tmp_path,
                                                            dataset_files, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        src, _ = dataset_files
        status = tsrg.cli.main(["run", "--source", str(src), "--target", str(bad),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {bad}{message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "run"], ids=["spec", "label-map"])
    def test_json_parse_error_names_the_file(self, capsys, tmp_path, dataset_files, command):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        src, tgt = dataset_files
        argv = {"synth": ["synth", "--spec", str(bad), "--out-source", str(tmp_path / "s.csv"),
                          "--out-target", str(tmp_path / "t.csv")],
                "run": ["run", "--source", str(src), "--target", str(tgt), "--label-map",
                        str(bad), "--seed", "0", "--out-dir", str(tmp_path / "o")]}[command]
        status = tsrg.cli.main(argv)
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: Expecting value: line 1 column 1 (char 0)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "source.csv",
                                                             "target.csv"]

    @pytest.mark.parametrize("line, message", [
        ("[1]", "a record must be a JSON object"),
        ('{"tsrg": {}, "mmd_after": 0.5}', "record lacks baseline, mmd_before"),
        ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["not-an-object", "missing-fields", "not-json"])
    def test_report_rejects_malformed_record_without_traceback(self, capsys, tmp_path,
                                                               line, message):
        records = tmp_path / "report.jsonl"
        records.write_text("\n" + line + "\n")
        status = tsrg.cli.main(["report", "--records", str(records)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err == f"error: {records}:2: {message}\n"
        assert captured.out == ""

    GOOD_REPORT = {"class_names": ["a", "b"], "confusion": [[2, 0], [1, 1]],
                   "war": 0.75, "uar": 0.75, "absent_classes": []}

    @pytest.mark.parametrize("change, message", [
        ({"baseline": 1}, "baseline must be a JSON object"),
        ({"tsrg": {"war": 0.5}}, "tsrg lacks confusion, uar, class_names, absent_classes"),
        ({"baseline": dict(GOOD_REPORT, class_names=["a", 2])},
         "baseline class_names must be a non-empty list of strings"),
        ({"tsrg": dict(GOOD_REPORT, confusion=[[2, 0]])},
         "tsrg confusion must be a 2 x 2 list of counts"),
        ({"tsrg": dict(GOOD_REPORT, confusion=[[2, 0], [1.5, 1]])},
         "tsrg confusion must be a 2 x 2 list of counts"),
        ({"tsrg": dict(GOOD_REPORT, confusion=[[2, 0], [2 ** 63, 1]])},
         "tsrg confusion must be a 2 x 2 list of counts"),
        ({"tsrg": dict(GOOD_REPORT, confusion=[[2 ** 62, 2 ** 62], [0, 1]])},
         "tsrg confusion must be a 2 x 2 list of counts"),
        ({"baseline": dict(GOOD_REPORT, uar=None)},
         "baseline war, uar and absent_classes must match the confusion matrix"),
        ({"baseline": dict(GOOD_REPORT, absent_classes=[2])},
         "baseline war, uar and absent_classes must match the confusion matrix"),
        ({"baseline": dict(GOOD_REPORT, war=0.99, uar=0.99, absent_classes=[1])},
         "baseline war, uar and absent_classes must match the confusion matrix"),
        ({"tsrg": dict(GOOD_REPORT, uar=0.5)},
         "tsrg war, uar and absent_classes must match the confusion matrix"),
        ({"tsrg": dict(GOOD_REPORT, confusion=[[1, 0], [0, 1]], war=True, uar=1.0)},
         "tsrg war, uar and absent_classes must match the confusion matrix"),
        ({"tsrg": dict(GOOD_REPORT, confusion=[[0, 0], [0, 0]])},
         "tsrg confusion matrix is empty"),
        ({"mmd_before": None}, "mmd_before must be a number"),
        ({"mmd_after": True}, "mmd_after must be a number"),
        ({"lambda": 1.0}, "record lacks mu"),
    ], ids=["baseline-int", "report-lacks-fields", "class-name-int", "confusion-shape",
            "confusion-float", "confusion-overflow", "confusion-sum-overflow", "uar-null",
            "absent-out-of-range", "scores-contradict-counts", "uar-contradicts-counts",
            "war-bool", "confusion-all-zero", "mmd-null", "mmd-bool", "lambda-without-mu"])
    def test_report_rejects_mistyped_record_without_traceback(self, capsys, tmp_path,
                                                              change, message):
        # an int mmd_before is a number: each case fails on its own change only
        record = {"baseline": self.GOOD_REPORT, "tsrg": self.GOOD_REPORT,
                  "mmd_before": 1, "mmd_after": 0.5, **change}
        records = tmp_path / "report.jsonl"
        records.write_text(json.dumps(record) + "\n")
        status = tsrg.cli.main(["report", "--records", str(records)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err == f"error: {records}:1: {message}\n"
        assert captured.out == ""

    def test_report_checks_each_report_once(self, monkeypatch, capsys, tmp_path):
        calls = []
        from_dict = tsrg.metrics.EvalReport.from_dict

        def counted(d):
            calls.append(d)
            return from_dict(d)
        monkeypatch.setattr(tsrg.metrics.EvalReport, "from_dict", staticmethod(counted))
        adapted = dict(self.GOOD_REPORT, confusion=[[2, 0], [0, 2]], war=1.0, uar=1.0)
        record = {"baseline": self.GOOD_REPORT, "tsrg": adapted, "mmd_before": 1,
                  "mmd_after": 0.5, "source": "s", "target": "t", "lambda": 1.0, "mu": 0.01}
        records = tmp_path / "report.jsonl"
        records.write_text(json.dumps(record) + "\n")
        assert tsrg.cli.main(["report", "--records", str(records)]) == 0
        assert calls == [self.GOOD_REPORT, adapted]
        assert capsys.readouterr().out == (
            "s -> t  (lambda=1.0, mu=0.01)\n"
            "baseline (no adaptation)\n"
            "                   a         b\n"
            "a             100.00      0.00\n"
            "b              50.00     50.00\n"
            "WAR = 75.00%  UAR = 75.00%\n\n"
            "re-generated target\n"
            "                   a         b\n"
            "a             100.00      0.00\n"
            "b               0.00    100.00\n"
            "WAR = 100.00%  UAR = 100.00%\n\n"
            "mmd: 1 -> 0.5\n\n")

    def test_run_writes_nothing_when_a_write_fails(self, monkeypatch, capsys, tmp_path,
                                                   dataset_files):
        def fail(model, path):
            raise OSError("disk full")
        monkeypatch.setattr(tsrg.cli, "save_model", fail)
        src, tgt = dataset_files
        out = tmp_path / "out"
        status = tsrg.cli.main(["run", "--source", str(src), "--target", str(tgt),
                                "--seed", "0", "--out-dir", str(out)])
        assert status == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["run", "--lambda", "inf"], "lam must be finite"),
        (["run", "--lambda", "1e308"],
         "Q-step system K_s K_s^T + lam dk dk^T overflows at lam = 1e+308"),
        (["run", "--kernel", "gaussian", "--bandwidth", "inf"],
         "gaussian bandwidth must be finite"),
        (["run", "--kernel", "gaussian", "--bandwidth", "1e200"],
         "gaussian bandwidth must keep 2 * bandwidth**2 positive and finite"),
        (["run", "--kernel", "gaussian", "--bandwidth", "1e-170"],
         "gaussian bandwidth must keep 2 * bandwidth**2 positive and finite"),
        (["grid", "--lambda-grid", ",", "--mu-grid", "0.001"],
         "lambda and mu grids must be non-empty"),
        (["grid", "--lambda-grid", "1,10", "--mu-grid", "0.001,-1"],
         "lam and mu must be nonnegative"),
        (["run", "--kernel", "linear", "--bandwidth", "-3"],
         "bandwidth applies to the gaussian kernel only"),
        (["grid", "--lambda-grid", "1", "--mu-grid", "0.001", "--bandwidth", "2"],
         "bandwidth applies to the gaussian kernel only"),
    ], ids=["run-inf-lambda", "run-huge-lambda", "run-inf-bandwidth",
            "run-huge-bandwidth", "run-tiny-bandwidth", "grid-empty-lambda-grid",
            "grid-late-negative-mu", "run-linear-bandwidth", "grid-default-linear-bandwidth"])
    def test_bad_flag_value_exits_1_without_traceback(self, capsys, tmp_path,
                                                      dataset_files, argv, message):
        src, tgt = dataset_files
        status = tsrg.cli.main([*argv, "--source", str(src), "--target", str(tgt),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["grid", "--lambda-grid", ",", "--mu-grid", "0.1"],
         "lambda and mu grids must be non-empty"),
        (["grid", "--lambda-grid", "1,-1", "--mu-grid", "0.1"],
         "lam and mu must be nonnegative"),
        (["run", "--kernel", "linear", "--bandwidth", "1"],
         "bandwidth applies to the gaussian kernel only"),
        (["run", "--lambda", "-1"], "lam and mu must be nonnegative"),
        (["run", "--kernel", "gaussian", "--bandwidth", "0"], "gaussian bandwidth must be > 0"),
    ], ids=["grid-empty-lambda-grid", "grid-negative-lambda", "run-linear-bandwidth",
            "run-negative-lambda", "run-zero-bandwidth"])
    def test_bad_flag_value_exits_1_before_any_file_is_read(self, monkeypatch, capsys,
                                                            tmp_path, argv, message):
        def no_read(*args, **kwargs):
            pytest.fail("a CSV was read before the flags were checked")
        monkeypatch.setattr(tsrg.cli, "ingest_csv", no_read)
        status = tsrg.cli.main([*argv, "--source", str(tmp_path / "missing.csv"),
                                "--target", str(tmp_path / "missing.csv"),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["grid", "--lambda-grid", "abc", "--mu-grid", "0.001"],
         "argument --lambda-grid: could not convert string to float: 'abc'"),
        (["grid", "--lambda-grid", "1", "--mu-grid", "0.001,,x"],
         "argument --mu-grid: could not convert string to float: 'x'"),
        (["extract", "--grids", "1,,2.5"],
         "argument --grids: invalid literal for int() with base 10: '2.5'"),
    ], ids=["grid-bad-lambda-grid", "grid-bad-mu-grid", "extract-bad-grids"])
    def test_bad_list_flag_exits_2_before_any_file_is_read(self, capsys, tmp_path,
                                                           argv, message):
        # none of the named files exists, so reading any of them would exit 1
        rest = {"grid": ["--source", tmp_path / "s.csv", "--target", tmp_path / "t.csv",
                         "--seed", "0", "--out-dir", tmp_path / "o"],
                "extract": ["--manifest", tmp_path / "m.json", "--out", tmp_path / "f.csv"]}
        with pytest.raises(SystemExit) as exit_:
            tsrg.cli.main([*argv, *map(str, rest[argv[0]])])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_list_flags_skip_blank_entries(self):
        parser = tsrg.cli.build_parser()
        args = parser.parse_args(["grid", "--source", "s.csv", "--target", "t.csv",
                                  "--lambda-grid", "1,,10,", "--mu-grid", " ,0.001",
                                  "--seed", "0", "--out-dir", "o"])
        assert (args.lambda_grid, args.mu_grid) == ([1.0, 10.0], [0.001])
        args = parser.parse_args(["extract", "--manifest", "m.json", "--grids", "1,,2",
                                  "--out", "f.csv"])
        assert args.grids == [1, 2]
        default = parser.parse_args(["extract", "--manifest", "m.json", "--out", "f.csv"])
        assert default.grids == LbpTopParams.grids

    @pytest.mark.parametrize("command, required", [
        ("run", []),
        ("grid", ["--lambda-grid", "1", "--mu-grid", "0.001"]),
    ], ids=["run", "grid"])
    @pytest.mark.parametrize("flag", ["--kappa0", "--rho", "--kappa-max", "--epsilon",
                                      "--max-iters", "--penalty-c"])
    def test_solver_schedule_flags_are_gone(self, capsys, command, required, flag):
        # the IALM schedule is fixed in the solver and the SVM's C is 1: neither is a
        # command-line setting
        parser = tsrg.cli.build_parser()
        with pytest.raises(SystemExit) as help_exit:
            parser.parse_args([command, "--help"])
        assert help_exit.value.code == 0
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([command, "--source", "s.csv", "--target", "t.csv", *required,
                               "--seed", "0", "--out-dir", "o", flag, "2"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--stand"], "unrecognized arguments: --stand"),
        (["grid", "--lambda-grid", "1", "--mu-grid", "0.001", "--lambda", "5", "--mu", "0.1"],
         "unrecognized arguments: --lambda 5 --mu 0.1"),
        (["grid", "--lambda", "5", "--mu", "0.1"],
         "the following arguments are required: --lambda-grid, --mu-grid"),
    ], ids=["run-stand", "grid-lambda-mu", "grid-lambda-mu-alone"])
    def test_abbreviated_flags_are_rejected(self, capsys, argv, message):
        # a prefix of a longer flag is not that flag: grid's --lambda would set
        # --lambda-grid, and run's --stand would set --standardize
        with pytest.raises(SystemExit) as exit_:
            tsrg.cli.build_parser().parse_args([*argv, "--source", "s.csv", "--target", "t.csv",
                                                "--seed", "0", "--out-dir", "o"])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    def test_synth_into_missing_directory_exits_1(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": 2, "dim": 3, "seed": 0}))
        missing = tmp_path / "missing" / "s.csv"
        status = tsrg.cli.main(["synth", "--spec", str(spec_path),
                                "--out-source", str(missing),
                                "--out-target", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("spec, message", [
        ({"classes": 2, "dim": 3, "bogus": 1}, "unknown spec keys: bogus"),
        ([1, 2], "the spec must be a JSON object"),
        ({"classes": "2", "dim": 3}, "classes must be an integer, not '2'"),
        ({"classes": 2, "dim": 3.0}, "dim must be an integer, not 3.0"),
        ({"classes": 2, "dim": 3, "n_source_per_class": 2.5},
         "n_source_per_class must be an integer, not 2.5"),
        ({"classes": 2, "dim": 3, "n_target_per_class": None},
         "n_target_per_class must be an integer, not None"),
        ({"classes": 2, "dim": 3, "seed": True}, "seed must be an integer, not True"),
        ({"classes": 2, "dim": 3, "cov_scale": "1"}, "cov_scale must be a number, not '1'"),
        ({"classes": 2, "dim": 3, "center_spread": [5]},
         "center_spread must be a number, not [5]"),
        ({"classes": 2, "dim": 3, "cov_scale": float("nan")}, "cov_scale must be > 0"),
        ({"classes": 2, "dim": 3, "centers": [[5, 0, 0], [0, 5, 0]]},
         "unknown spec keys: centers"),
        ({"classes": 2, "dim": 3, "shift_matrix": np.eye(3).tolist()},
         "unknown spec keys: shift_matrix"),
        # json writes and reads these as the literals Infinity and NaN
        ({"classes": 2, "dim": 3, "center_spread": float("inf")},
         "center_spread must be finite"),
        ({"classes": 2, "dim": 3, "center_spread": float("nan")},
         "center_spread must be finite"),
        ({"classes": 2, "dim": 3, "cov_scale": float("inf")}, "cov_scale must be finite"),
        ({"classes": 2, "dim": 3, "shift_offset": [float("nan"), 0.0, 0.0]},
         "shift_offset entries must be finite"),
        ({"classes": 2, "dim": 3, "shift_offset": [0.0, 0.0, float("-inf")]},
         "shift_offset entries must be finite"),
        # integers too large for a double
        ({"classes": 2, "dim": 3, "center_spread": 10 ** 400},
         "center_spread must be finite"),
        ({"classes": 2, "dim": 3, "cov_scale": 10 ** 400}, "cov_scale must be finite"),
        ({"classes": 2, "dim": 3, "shift_offset": [0, -10 ** 400, 0]},
         "shift_offset entries must be finite"),
    ], ids=["unknown-key", "not-an-object", "string-classes", "float-dim",
            "float-source-count", "null-target-count", "bool-seed", "string-cov-scale",
            "list-center-spread", "nan-cov-scale", "centers-key", "shift-matrix-key",
            "inf-center-spread", "nan-center-spread", "inf-cov-scale", "nan-shift-offset",
            "inf-shift-offset", "huge-int-center-spread", "huge-int-cov-scale",
            "huge-int-shift-offset"])
    def test_synth_rejects_bad_spec_without_traceback(self, capsys, tmp_path, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        status = tsrg.cli.main(["synth", "--spec", str(spec_path),
                                "--out-source", str(tmp_path / "s.csv"),
                                "--out-target", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_synth_writes_neither_csv_into_missing_target_directory(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": 2, "dim": 3, "seed": 0}))
        out = tmp_path / "out"
        out.mkdir()
        status = tsrg.cli.main(["synth", "--spec", str(spec_path),
                                "--out-source", str(out / "s.csv"),
                                "--out-target", str(out / "missing" / "t.csv")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: ") and str(out / "missing" / "t.csv") in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("target", ["./same.csv", "sub/../same.csv"],
                             ids=["dot", "dot-dot"])
    def test_synth_rejects_one_file_for_both_outputs(self, monkeypatch, capsys, tmp_path,
                                                     target):
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(json.dumps({"classes": 2, "dim": 3, "seed": 0}))
        Path("sub").mkdir()
        status = tsrg.cli.main(["synth", "--spec", "spec.json", "--out-source", "same.csv",
                                "--out-target", target])
        assert status == 1
        assert capsys.readouterr().err == ("error: --out-source and --out-target name "
                                           "the same file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "sub"]
        assert list(Path("sub").iterdir()) == []

    def test_synth_writes_neither_csv_when_the_second_write_fails(self, monkeypatch,
                                                                   capsys, tmp_path):
        write = tsrg.cli.write_dataset_csv
        calls = []

        def fail_second(path, dataset):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write(path, dataset)

        monkeypatch.setattr(tsrg.cli, "write_dataset_csv", fail_second)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": 2, "dim": 3, "seed": 0}))
        out = tmp_path / "out"
        out.mkdir()
        status = tsrg.cli.main(["synth", "--spec", str(spec_path),
                                "--out-source", str(out / "s.csv"),
                                "--out-target", str(out / "t.csv")])
        assert status == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(out.iterdir()) == []

    def test_numerical_error_exits_1_without_traceback(self, monkeypatch, capsys,
                                                      tmp_path, dataset_files):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        src, tgt = dataset_files
        status = tsrg.cli.main(["run", "--source", str(src), "--target", str(tgt),
                                "--seed", "0", "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: eigendecomposition") and "Traceback" not in err

    def test_run_rejects_bad_dataset(self, run_cli, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\n")
        proc = run_cli(["run", "--source", str(bad), "--target", str(bad),
                        "--seed", "0", "--out-dir", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
