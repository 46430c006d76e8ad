import dataclasses
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecgformer import attention_viz, autograd, cli, dsp, errors, metrics, model, record_io, train
from ecgformer.runconfig import RunConfig

TOY_INI = """\
[preprocess]
window_samples = 192

[model]
d_model = 16
num_layers = 2
num_heads = 2
d_ff = 16
d_deep = 8
d_wide = 4

[train]
batch_size_train = 8
batch_size_val = 8
learning_rate = 0.003
max_steps = 12
eval_every = 6
folds = 2
lead_subset = two
normal_class = SR
seed = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--records", "10", "--seed", "2"]) == 0
    ini = root / "toy.ini"
    ini.write_text(TOY_INI)
    manifest = root / "manifest.csv"
    assert cli.main(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                     "--out", str(manifest)]) == 0
    folds = root / "folds.csv"
    assert cli.main(["folds", "--manifest", str(manifest), "--k", "2", "--seed", "3",
                     "--out", str(folds)]) == 0
    return root, data, ini, manifest, folds


@pytest.fixture(scope="module")
def overfit_run(workspace, tmp_path_factory):
    root, data, ini, manifest, folds = workspace
    run = tmp_path_factory.mktemp("overfit") / "run"
    assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                     "--out", str(run), "--config", str(ini)]) == 0
    return run


class TestSynth:
    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--out", str(a), "--records", "3", "--seed", "7"]) == 0
        assert cli.main(["synth", "--out", str(b), "--records", "3", "--seed", "7"]) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["synth", "--out", str(a), "--records", "2", "--seed", "1"])
        cli.main(["synth", "--out", str(b), "--records", "2", "--seed", "2"])
        assert (a / "synth00000.dat").read_bytes() != (b / "synth00000.dat").read_bytes()


class TestChain:
    def test_train_fold_and_evaluate(self, workspace, tmp_path):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_f0"
        assert cli.main(["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "0",
                         "--weights", str(data / "weights.csv"), "--out", str(run),
                         "--config", str(ini), "--threads", "2"]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint.wft1", "config_used.ini", "thresholds.csv"]

    def test_overfit_mode_then_single_evaluate(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_all"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1",
                         "--weights", str(data / "weights.csv"), "--out", str(run),
                         "--config", str(ini), "--threads", "1"]) == 0
        report = tmp_path / "report.csv"
        assert cli.main(["evaluate", "--manifest", str(manifest), "--runs", str(run),
                         "--weights", str(data / "weights.csv"), "--out", str(report),
                         "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "challenge metric:" in out
        lines = report.read_text().splitlines()
        assert len(lines) == 3  # header + one run row + mean row
        assert lines[0].startswith("fold,challenge_metric,auroc_macro")

    def test_predict_emits_probability_row(self, workspace, tmp_path):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_pred"
        cli.main(["train", "--manifest", str(manifest), "--fold", "-1",
                  "--weights", str(data / "weights.csv"), "--out", str(run), "--config", str(ini)])
        out_csv = tmp_path / "probs.csv"
        assert cli.main(["predict", "--record", str(data / "synth00000.hea"),
                         "--run", str(run), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[0] == "record_id" and len(header) == 1 + 5
        assert row[0] == "synth00000"
        probs = [float(v) for v in row[1:]]
        assert all(0.0 < p < 1.0 for p in probs)

    def test_fold_dirs_usable_by_predict_and_attention(self, workspace, tmp_path):
        # Artifacts from `train --fold all` must be self-describing per fold.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_cv"
        assert cli.main(["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "all",
                         "--weights", str(data / "weights.csv"), "--out", str(run),
                         "--config", str(ini)]) == 0
        out_csv = tmp_path / "p.csv"
        assert cli.main(["predict", "--record", str(data / "synth00002.hea"),
                         "--run", str(run / "fold1"), "--out", str(out_csv)]) == 0
        assert out_csv.exists()
        maps = tmp_path / "m"
        assert cli.main(["attention", "--record", str(data / "synth00002.hea"),
                         "--run", str(run / "fold1"), "--format", "csv", "--out", str(maps)]) == 0
        assert (maps / "synth00002_L1_mean.csv").exists()

    @pytest.mark.parametrize("feature_lead, per_record", [("II", 2), ("V1", 3)])
    def test_commands_decode_only_the_leads_they_use(self, workspace, tmp_path, monkeypatch, feature_lead, per_record):
        # Two-lead commands decode the subset's leads of each record, and the feature lead when it lies outside;
        # `manifest` checks every record and decodes none.
        root, data, ini, manifest, folds = workspace
        decoded = []
        decode = record_io._decode_leads

        def counting_decode(adc, columns, gains, baselines):
            decoded.append(len(columns))
            return decode(adc, columns, gains, baselines)

        monkeypatch.setattr(record_io, "_decode_leads", counting_decode)
        lead_ini = tmp_path / "lead.ini"
        lead_ini.write_text(TOY_INI.replace("max_steps = 12", "max_steps = 2") + f"\n[features]\nfeature_lead = {feature_lead}\n")
        num_records = len(record_io.load_manifest(manifest).entries)
        assert cli.main(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                         "--out", str(tmp_path / "m.csv")]) == 0
        assert decoded == []
        assert cli.main(["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "all", "--weights",
                         str(data / "weights.csv"), "--out", str(tmp_path / "cv"), "--config", str(lead_ini)]) == 0
        assert decoded == [per_record] * num_records
        decoded.clear()
        assert cli.main(["evaluate", "--manifest", str(manifest), "--folds", str(folds), "--runs", str(tmp_path / "cv"),
                         "--weights", str(data / "weights.csv"), "--out", str(tmp_path / "report.csv")]) == 0
        assert decoded == [per_record] * num_records
        decoded.clear()
        assert cli.main(["predict", "--record", str(data / "synth00002.hea"), "--run", str(tmp_path / "cv" / "fold0"),
                         "--out", str(tmp_path / "p.csv")]) == 0
        assert decoded == [per_record]

    def test_retraining_without_the_scaler_removes_the_earlier_one(self, workspace, tmp_path):
        # Train runA standardising the wide features, copy it to runAB and train runAB again without: runAB must
        # hold and predict what a fresh runB does, not apply runA's leftover wide_scaler.csv.
        root, data, ini, manifest, folds = workspace

        def train_into(run, *overrides):
            argv = ["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "0",
                    "--weights", str(data / "weights.csv"), "--out", str(run), "--config", str(ini)]
            assert cli.main(argv + [arg for o in overrides for arg in ("--set", o)]) == 0

        train_into(tmp_path / "runA", "train.standardize_wide=true")
        assert (tmp_path / "runA" / "wide_scaler.csv").exists()
        shutil.copytree(tmp_path / "runA", tmp_path / "runAB")
        train_into(tmp_path / "runAB")
        train_into(tmp_path / "runB")
        for name in ("runAB", "runB"):
            assert cli.main(["predict", "--record", str(data / "synth00000.hea"), "--run", str(tmp_path / name),
                             "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "runAB.csv").read_bytes() == (tmp_path / "runB.csv").read_bytes()
        files = {name: {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} for name in ("runAB", "runB")}
        assert files["runAB"] == files["runB"] and "wide_scaler.csv" not in files["runB"]

    def test_fold_all_honours_features_section(self, workspace, tmp_path):
        # `--fold all` trains each fold exactly as `--fold N` alone does,
        # including the [features] section.
        root, data, ini, manifest, folds = workspace
        wide_ini = tmp_path / "wide.ini"
        wide_ini.write_text(TOY_INI.replace("d_wide = 4", "d_wide = 22") + "\n[features]\nfeature_lead = I\n")
        common = ["--manifest", str(manifest), "--folds", str(folds), "--weights", str(data / "weights.csv"),
                  "--config", str(wide_ini), "--threads", "1"]
        assert cli.main(["train", "--fold", "all", "--out", str(tmp_path / "cv"), *common]) == 0
        assert cli.main(["train", "--fold", "0", "--out", str(tmp_path / "f0"), *common]) == 0
        for name in ("checkpoint.wft1", "thresholds.csv"):
            assert (tmp_path / "cv" / "fold0" / name).read_bytes() == (tmp_path / "f0" / name).read_bytes(), name

    def test_fold_all_standardized_matches_single_folds(self, workspace, tmp_path):
        # Records are preprocessed once for all folds; each fold still fits and
        # applies its own wide-feature scaler.
        root, data, ini, manifest, folds = workspace
        std_ini = tmp_path / "std.ini"
        std_ini.write_text(TOY_INI + "standardize_wide = true\n")
        common = ["--manifest", str(manifest), "--folds", str(folds), "--weights", str(data / "weights.csv"),
                  "--config", str(std_ini), "--threads", "1"]
        assert cli.main(["train", "--fold", "all", "--out", str(tmp_path / "cv"), *common]) == 0
        for fold in (0, 1):
            assert cli.main(["train", "--fold", str(fold), "--out", str(tmp_path / f"f{fold}"), *common]) == 0
            for name in ("checkpoint.wft1", "thresholds.csv", "wide_scaler.csv"):
                single = (tmp_path / f"f{fold}" / name).read_bytes()
                assert (tmp_path / "cv" / f"fold{fold}" / name).read_bytes() == single, (fold, name)

    @pytest.mark.parametrize("standardize", ["false", "true"])
    @pytest.mark.parametrize("scope", ["recording", "window"])
    def test_predict_row_equals_predict_probabilities(self, workspace, tmp_path, scope, standardize):
        # `predict` on a record gives, bit for bit, the probabilities the
        # manifest path (validation, `evaluate`) computes for that record.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(ini), "--set", f"preprocess.normalize_scope={scope}",
                         "--set", f"train.standardize_wide={standardize}"]) == 0
        config = RunConfig.load(run / "config_used.ini")
        loaded = record_io.load_manifest(manifest)
        subset = config.train_config().subset()
        model_config = config.model_config(num_leads=len(subset.leads), d_class=len(loaded.class_list))
        params = model.params_from_arrays(autograd.load_checkpoint(run / "checkpoint.wft1"), model_config)
        prepared = train.prepare_records(loaded, np.arange(len(loaded.entries)), subset,
                                         config.preprocess_config(), config.feature_config(), model_config.d_wide)
        records = [prepared[i] for i in range(len(loaded.entries))]
        if standardize == "true":
            mean, std = train.load_wide_scaler(run / "wide_scaler.csv", model_config.d_wide)
            records = [dataclasses.replace(p, wide=(p.wide - mean) / std) for p in records]
        expected = train.predict_probabilities(records, params, model_config, config.preprocess_config())
        for entry, row in zip(loaded.entries, expected):
            out = tmp_path / f"{entry.record_id}.csv"
            assert cli.main(["predict", "--record", entry.file_path, "--run", str(run), "--out", str(out)]) == 0
            record_id, *values = out.read_text().splitlines()[1].split(",")
            assert record_id == entry.record_id
            assert np.array_equal(np.array([float(v) for v in values]), row), record_id

    @pytest.mark.parametrize("standardize", ["false", "true"])
    @pytest.mark.parametrize("scope", ["recording", "window"])
    def test_attention_csv_equals_the_map_of_an_eval_forward(self, workspace, tmp_path, scope, standardize):
        # `attention --format csv` writes, byte for byte, the map that an eval forward captures on the record
        # as the manifest path (validation, `evaluate`) prepares it: `prepare_records`, then the start window.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(ini), "--set", f"preprocess.normalize_scope={scope}",
                         "--set", f"train.standardize_wide={standardize}"]) == 0
        config = RunConfig.load(run / "config_used.ini")
        loaded = record_io.load_manifest(manifest)
        subset = config.train_config().subset()
        model_config = config.model_config(num_leads=len(subset.leads), d_class=len(loaded.class_list))
        params = model.params_from_arrays(autograd.load_checkpoint(run / "checkpoint.wft1"), model_config)
        scaler = train.load_wide_scaler(run / "wide_scaler.csv", model_config.d_wide) if standardize == "true" else None
        indices = np.arange(len(loaded.entries))
        prepared = train.prepare_records(loaded, indices, subset, config.preprocess_config(), config.feature_config(),
                                         model_config.d_wide, scaler=scaler)
        windows = [dsp.cut_window(prepared[i].processed, config.preprocess_config()) for i in indices]
        wide = np.stack([prepared[i].wide for i in indices])
        maps = model.forward(windows, wide, params, model_config, mode="eval", capture_attention=True).attention_maps
        for layer, head, region in [(1, "mean", "patch"), (0, "1", "full")]:
            label = "mean" if head == "mean" else f"head{head}"
            for i, entry in enumerate(loaded.entries):
                assert cli.main(["attention", "--record", entry.file_path, "--run", str(run), "--format", "csv",
                                 "--layer", str(layer), "--head", head, "--region", region,
                                 "--out", str(tmp_path / "maps")]) == 0
                matrix = maps[layer][i].mean(axis=0) if head == "mean" else maps[layer][i][int(head)]
                expected = attention_viz.render_csv(matrix[1:, 1:] if region == "patch" else matrix)
                written = tmp_path / "maps" / f"{entry.record_id}_L{layer}_{label}.csv"
                assert written.read_text() == expected, (entry.record_id, layer, head)

    def test_attention_export(self, workspace, tmp_path):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_att"
        cli.main(["train", "--manifest", str(manifest), "--fold", "-1",
                  "--weights", str(data / "weights.csv"), "--out", str(run), "--config", str(ini)])
        out_dir = tmp_path / "maps"
        assert cli.main(["attention", "--record", str(data / "synth00001.hea"), "--run", str(run),
                         "--format", "pgm", "--out", str(out_dir)]) == 0
        produced = out_dir / "synth00001_L1_mean.pgm"
        assert produced.exists()
        assert produced.read_bytes().startswith(b"P5\n3 3\n255\n")
        assert cli.main(["attention", "--record", str(data / "synth00001.hea"), "--run", str(run),
                         "--format", "svg", "--layer", "0", "--head", "1", "--out", str(out_dir)]) == 0
        assert (out_dir / "synth00001_L0_head1.svg").exists()


class TestErrors:
    def test_unknown_config_key_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nlr = 5\n")
        code = cli.main(["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "0",
                         "--weights", str(data / "weights.csv"), "--out", str(tmp_path / "x"),
                         "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ConfigError:") and err.count("\n") == 1

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = cli.main(["folds", "--manifest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERROR MissingFileError:")

    def test_fold_out_of_range_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        code = cli.main(["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "9",
                         "--weights", str(data / "weights.csv"), "--out", str(tmp_path / "y"),
                         "--config", str(ini)])
        assert code == 4
        assert capsys.readouterr().err.startswith("ERROR ArgumentRangeError:")

    def test_a_loaded_run_detaches_its_parameters_once(self, overfit_run, monkeypatch):
        detached, detach = [], autograd.Tensor.detach

        def counted_detach(tensor):
            detached.append(tensor)
            return detach(tensor)

        monkeypatch.setattr(autograd.Tensor, "detach", counted_detach)
        run = cli.RunArtifacts.load(overfit_run, RunConfig.load(overfit_run / "config_used.ini"))
        config = run.model_config
        rng = np.random.default_rng(5)
        window = dsp.ProcessedWindow(rng.uniform(-1.0, 1.0, size=(config.num_leads, config.window_samples)),
                                     config.window_samples, 0)
        wide = rng.normal(size=(1, config.d_wide))
        first, second = (model.forward([window], wide, run.params, config).probabilities.data for _ in range(2))
        assert len(detached) == len(run.params.tensors) and first.tobytes() == second.tobytes()

    def test_non_integer_fold_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        code = cli.main(["train", "--manifest", str(manifest), "--folds", str(folds), "--fold", "xyz",
                         "--weights", str(data / "weights.csv"), "--out", str(tmp_path / "y"),
                         "--config", str(ini)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ERROR ArgumentRangeError:") and "--fold" in err and err.count("\n") == 1
        assert not (tmp_path / "y").exists()

    def test_non_integer_head_exit_code(self, workspace, overfit_run, tmp_path, capsys):
        data = workspace[1]
        capsys.readouterr()
        for head in ("abc", "1.5", ""):
            code = cli.main(["attention", "--record", str(data / "synth00000.hea"), "--run", str(overfit_run),
                             "--head", head, "--out", str(tmp_path / "maps")])
            assert code == 4, head
            err = capsys.readouterr().err
            assert err.startswith("ERROR ArgumentRangeError:") and "--head" in err and err.count("\n") == 1
        assert not (tmp_path / "maps").exists()

    def test_layer_out_of_range_exit_code(self, workspace, overfit_run, tmp_path, capsys):
        # -1 is the final layer; every other layer outside 0..num_layers-1 is out of range.
        data = workspace[1]
        capsys.readouterr()
        for layer in ("-5", "-2", "2"):
            code = cli.main(["attention", "--record", str(data / "synth00000.hea"), "--run", str(overfit_run),
                             "--layer", layer, "--out", str(tmp_path / "maps")])
            assert code == 4, layer
            self._assert_one_error(capsys, "ArgumentRangeError", f"layer {layer} out of range for 2 layers")
        assert not (tmp_path / "maps").exists()
        assert cli.main(["attention", "--record", str(data / "synth00000.hea"), "--run", str(overfit_run),
                         "--layer", "-1", "--out", str(tmp_path / "maps")]) == 0
        assert (tmp_path / "maps" / "synth00000_L1_mean.pgm").exists()

    @pytest.mark.parametrize("leads", [0, 13, -1])
    def test_lead_count_out_of_range_exit_code(self, tmp_path, capsys, leads):
        capsys.readouterr()
        code = cli.main(["synth", "--out", str(tmp_path / "data"), "--records", "2", "--leads", str(leads)])
        assert code == 4
        self._assert_one_error(capsys, "ArgumentRangeError", f"num_leads must be in 1..12, got {leads}")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("fs", [30.0, 25.0])
    def test_a_record_at_30_hz_or_less_is_predicted(self, overfit_run, tmp_path, capsys, fs):
        # The R-peak detector cannot run at such a rate, so the record's peak features are imputed.
        rng = np.random.default_rng(5)
        record = record_io.EcgRecord("slow", fs, rng.normal(size=(12, int(12 * fs))), record_io.STANDARD_12_LEADS,
                                     age_years=40.0, sex="male", dx_codes={"SR"})
        header, _, _ = record_io.write_record(record, tmp_path)
        capsys.readouterr()
        assert cli.main(["predict", "--record", str(header), "--run", str(overfit_run),
                         "--out", str(tmp_path / "p.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "p.csv").read_text().startswith("record_id,")

    def test_damaged_checkpoint_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_damaged"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(ini), "--threads", "1"]) == 0
        checkpoint = run / "checkpoint.wft1"
        blob = checkpoint.read_bytes()
        predict = ["predict", "--record", str(data / "synth00000.hea"), "--run", str(run),
                   "--out", str(tmp_path / "p.csv")]
        capsys.readouterr()
        for damaged in (blob[:-5], blob[:9], blob + b"\x00\x00"):
            checkpoint.write_bytes(damaged)
            assert cli.main(predict) == 5
            err = capsys.readouterr().err
            assert err.startswith("ERROR RecordFormatError:") and err.count("\n") == 1

    def test_wrong_checkpoint_magic_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_magic"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(ini)]) == 0
        checkpoint = run / "checkpoint.wft1"
        checkpoint.write_bytes(b"WFT2" + checkpoint.read_bytes()[4:])
        capsys.readouterr()
        assert cli.main(["predict", "--record", str(data / "synth00000.hea"), "--run", str(run),
                         "--out", str(tmp_path / "p.csv")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("ERROR RecordFormatError:") and "WFT1" in err and err.count("\n") == 1

    def test_malformed_thresholds_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_thr"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(ini)]) == 0
        path = run / "thresholds.csv"
        header, *rows = path.read_text().splitlines()
        first, second = (r.split(",")[0] for r in rows[:2])
        damaged = [
            (f"no threshold for class {second!r}", [rows[0]] + rows[2:]),
            (f"class {first!r} appears twice", rows + [rows[0]]),
            ("unknown class 'XYZ'", rows + ["XYZ,0.5"]),
            (f"class {second!r} has 1 fields", [rows[0], second] + rows[2:]),
            (f"for class {second!r} is not a number", [rows[0], f"{second},high"] + rows[2:]),
            (f"for class {second!r} is not strictly inside (0, 1)", [rows[0], f"{second},1.5"] + rows[2:]),
        ]
        evaluate = ["evaluate", "--manifest", str(manifest), "--runs", str(run), "--weights", str(data / "weights.csv"),
                    "--out", str(tmp_path / "report.csv"), "--threads", "1"]
        capsys.readouterr()
        for needle, lines in damaged:
            path.write_text("\n".join([header, *lines]) + "\n")
            assert cli.main(evaluate) == 5, needle
            err = capsys.readouterr().err
            assert err.startswith("ERROR RecordFormatError:") and err.count("\n") == 1, err
            assert "thresholds.csv" in err and needle in err, err

    def test_predict_rejects_malformed_thresholds(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run_thr_predict"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(ini)]) == 0
        path = run / "thresholds.csv"
        header, first, *rows = path.read_text().splitlines()
        predict = ["predict", "--record", str(data / "synth00000.hea"), "--run", str(run),
                   "--out", str(tmp_path / "p.csv")]
        capsys.readouterr()
        for lines in ([first, "", *rows], [first, first, *rows], [first.split(",")[0], *rows]):
            path.write_text("\n".join([header, *lines]) + "\n")
            assert cli.main(predict) == 5, lines
            err = capsys.readouterr().err
            assert err.startswith("ERROR RecordFormatError:") and err.count("\n") == 1, err

    def _inference_argv(self, command, data, manifest, run, tmp_path):
        return {
            "predict": ["predict", "--record", str(data / "synth00000.hea"), "--run", str(run),
                        "--out", str(tmp_path / "p.csv")],
            "attention": ["attention", "--record", str(data / "synth00000.hea"), "--run", str(run),
                          "--out", str(tmp_path / "maps")],
            "evaluate": ["evaluate", "--manifest", str(manifest), "--runs", str(run),
                         "--weights", str(data / "weights.csv"), "--out", str(tmp_path / "report.csv")],
        }[command]

    @pytest.mark.parametrize("command", ["predict", "attention"])
    @pytest.mark.parametrize("cause, tensor", [("thresholds_row", "'head.fc2.weight'"),
                                               ("set_dimension", "'layers.0.ff.fc1.weight'")])
    def test_model_that_does_not_fit_the_checkpoint_is_a_shape_error(self, workspace, overfit_run, tmp_path, capsys,
                                                                     command, cause, tensor):
        # The model is built from config_used.ini, --set and the classes of thresholds.csv: a thresholds.csv
        # one row short or a --set of another width no longer fits the checkpoint. The error names the
        # checkpoint, and where the shape it was checked against came from.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        argv = self._inference_argv(command, data, manifest, run, tmp_path)
        if cause == "thresholds_row":
            lines = (run / "thresholds.csv").read_text().splitlines(keepends=True)
            assert len(lines) == 6
            (run / "thresholds.csv").write_text("".join(lines[:-1]))
            classes = 4
        else:
            argv += ["--set", "model.d_ff=32"]
            classes = 5
        capsys.readouterr()
        assert cli.main(argv) == 7
        self._assert_one_error(capsys, "ShapeError", str(run / "checkpoint.wft1"), tensor,
                               f"the {classes} classes of {run / 'thresholds.csv'}, config_used.ini and --set")
        assert not (tmp_path / "p.csv").exists() and not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("command", ["predict", "attention", "evaluate"])
    @pytest.mark.parametrize("damage, code, kind, needle", [
        (None, 3, "MissingFileError", "run configuration not found"),
        (("d_model = 16\n", "d_model = 16\nd_modle = 16\n"), 2, "ConfigError",
         "unknown key 'd_modle' in section [model]"),
        (("d_model = 16\n", "d_model = 16.5\n"), 2, "ConfigError", "bad value for model.d_model"),
        (("mask_padding = False\n", "mask_padding = maybe\n"), 2, "ConfigError", "bad value for model.mask_padding"),
    ], ids=["missing", "unknown_key", "non_integer", "bad_bool"])
    def test_malformed_run_config_exit_code(self, workspace, overfit_run, tmp_path, capsys, command, damage, code,
                                            kind, needle):
        # Inference builds the model from the run's own config_used.ini, and from nothing else.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        path = run / "config_used.ini"
        if damage is None:
            path.unlink()
        else:
            text = path.read_text()
            assert damage[0] in text
            path.write_text(text.replace(*damage))
        capsys.readouterr()
        assert cli.main(self._inference_argv(command, data, manifest, run, tmp_path)) == code
        self._assert_one_error(capsys, kind, str(path), needle)
        assert not any((tmp_path / name).exists() for name in ("p.csv", "maps", "report.csv"))

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_checkpoint_weight_exit_code(self, workspace, overfit_run, tmp_path, capsys, command):
        # A NaN weight is a malformed record that names the file and the tensor, not a numerical error.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        arrays = autograd.load_checkpoint(run / "checkpoint.wft1")
        arrays["layers.1.ff.fc2.weight"][3, 2] = np.nan
        autograd.save_checkpoint(run / "checkpoint.wft1", arrays)
        capsys.readouterr()
        assert cli.main(self._inference_argv(command, data, manifest, run, tmp_path)) == 5
        self._assert_one_error(capsys, "RecordFormatError", str(run / "checkpoint.wft1"), "'layers.1.ff.fc2.weight'",
                               "non-finite")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_model_config_beyond_the_checkpoint_exit_code(self, workspace, overfit_run, tmp_path, capsys, command):
        # A num_layers far beyond the checkpoint's tensors is a shape mismatch before any per-layer work.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        path = run / "config_used.ini"
        text = path.read_text()
        assert "num_layers = 2\n" in text
        path.write_text(text.replace("num_layers = 2\n", "num_layers = 1000000000\n"))
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.main(self._inference_argv(command, data, manifest, run, tmp_path)) == 7
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak  # no shape map, parameter or graph of a billion layers
        self._assert_one_error(capsys, "ShapeError", str(run / "checkpoint.wft1"), "num_layers=1000000000")

    @pytest.mark.parametrize("source", ["--set", "ini"])
    def test_ignored_key_must_be_an_integer(self, workspace, tmp_path, capsys, source):
        root, data, ini, manifest, folds = workspace
        argv = ["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                "--out", str(tmp_path / "z")]
        if source == "--set":
            argv += ["--config", str(ini), "--set", "train.batch_size_val=x"]
        else:
            bad = tmp_path / "bad.ini"
            bad.write_text(ini.read_text().replace("batch_size_val = 8\n", "batch_size_val = x\n"))
            argv += ["--config", str(bad)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ConfigError:") and "train.batch_size_val" in err and err.count("\n") == 1, err
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("override", ["train.max_steps=0", "train.eval_every=0"])
    def test_step_counts_below_one_exit_code(self, workspace, tmp_path, capsys, override):
        root, data, ini, manifest, folds = workspace
        code = cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(tmp_path / "z"), "--config", str(ini), "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ConfigError:") and "max_steps and eval_every" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, code, kind", [
        ("synth", 4, "ArgumentRangeError"), ("folds", 4, "ArgumentRangeError"), ("train", 2, "ConfigError"),
    ])
    def test_negative_seed_exit_code(self, workspace, tmp_path, capsys, command, code, kind):
        root, data, ini, manifest, folds = workspace
        out = tmp_path / "z"
        argv = {
            "synth": ["synth", "--out", str(out), "--records", "2", "--seed", "-1"],
            "folds": ["folds", "--manifest", str(manifest), "--k", "2", "--seed", "-1", "--out", str(out)],
            "train": ["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                      "--out", str(out), "--config", str(ini), "--set", "train.seed=-1"],
        }[command]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {kind}:") and "seed must be a non-negative integer" in err, err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("override, needle", [
        ("model.dropout_encoder=1.5", "dropout_encoder must be in [0, 1)"),
        ("model.dropout_encoder=-0.1", "dropout_encoder must be in [0, 1)"),
        ("model.dropout_head=1.0", "dropout_head must be in [0, 1)"),
        ("model.dropout_head=nan", "dropout_head must be in [0, 1)"),
        ("train.learning_rate=nan", "learning_rate must be finite and positive"),
        ("train.learning_rate=inf", "learning_rate must be finite and positive"),
        ("train.learning_rate=0", "learning_rate must be finite and positive"),
    ])
    def test_bad_rate_exit_code(self, workspace, tmp_path, capsys, override, needle):
        # Rejected before any record is read, not at the first forward or step.
        root, data, ini, manifest, folds = workspace
        code = cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(tmp_path / "z"), "--config", str(ini), "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ConfigError:") and needle in err and err.count("\n") == 1, err
        assert not (tmp_path / "z").exists()

    def test_malformed_wide_scaler_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        std_ini = tmp_path / "std.ini"
        std_ini.write_text(TOY_INI + "standardize_wide = true\n")
        run = tmp_path / "run_scaler"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(run), "--config", str(std_ini)]) == 0
        path = run / "wide_scaler.csv"
        header, *rows = path.read_text().splitlines()
        assert len(rows) == 4
        names = [r.split(",")[0] for r in rows]
        mean, std = rows[1].split(",")[1:]
        damaged = [
            ("extra scaler row for feature 'extra'", rows + ["extra,0.0,1.0"]),
            (f"row for feature {names[1]!r} has 2 fields", [rows[0], f"{names[1]},{mean}"] + rows[2:]),
            (f"no scaler row for feature {names[3]!r}", rows[:3]),
            (f"no scaler row for feature {names[0]!r}", []),
            (f"names feature 'bogus', expected {names[1]!r}", [rows[0], f"bogus,{mean},{std}"] + rows[2:]),
            (f"values for feature {names[1]!r} are not numbers", [rows[0], f"{names[1]},abc,{std}"] + rows[2:]),
            (f"mean 'nan' for feature {names[1]!r} is not finite", [rows[0], f"{names[1]},nan,{std}"] + rows[2:]),
            (f"std '0.0' for feature {names[1]!r} is not finite", [rows[0], f"{names[1]},{mean},0.0"] + rows[2:]),
            (f"std '-1' for feature {names[1]!r} is not finite", [rows[0], f"{names[1]},{mean},-1"] + rows[2:]),
            (f"std 'inf' for feature {names[1]!r} is not finite", [rows[0], f"{names[1]},{mean},inf"] + rows[2:]),
        ]
        commands = [
            ["evaluate", "--manifest", str(manifest), "--runs", str(run), "--weights", str(data / "weights.csv"),
             "--out", str(tmp_path / "report.csv")],
            ["predict", "--record", str(data / "synth00000.hea"), "--run", str(run), "--out", str(tmp_path / "p.csv")],
        ]
        capsys.readouterr()
        for needle, lines in damaged:
            path.write_text("\n".join([header, *lines]) + "\n")
            for argv in commands:
                assert cli.main(argv) == 5, (argv[0], needle)
                err = capsys.readouterr().err
                assert err.startswith("ERROR RecordFormatError:") and err.count("\n") == 1, err
                assert "wide_scaler.csv" in err and needle in err, err

    def test_wide_scaler_must_agree_with_the_run_config(self, workspace, overfit_run, tmp_path, capsys):
        # A valid wide_scaler.csv in a run whose config says standardize_wide = false is a configuration error,
        # and a run whose config says true but has no scaler misses a file; both for every inference command.
        root, data, ini, manifest, folds = workspace
        std_ini = tmp_path / "std.ini"
        std_ini.write_text(TOY_INI + "standardize_wide = true\n")
        std_run = tmp_path / "std_run"
        assert cli.main(["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                         "--out", str(std_run), "--config", str(std_ini)]) == 0
        stray = tmp_path / "stray"
        shutil.copytree(overfit_run, stray)
        shutil.copy(std_run / "wide_scaler.csv", stray / "wide_scaler.csv")
        missing = tmp_path / "missing"
        shutil.copytree(std_run, missing)
        (missing / "wide_scaler.csv").unlink()

        def commands(run):
            return [
                ["evaluate", "--manifest", str(manifest), "--runs", str(run), "--weights", str(data / "weights.csv"),
                 "--out", str(tmp_path / "report.csv")],
                ["predict", "--record", str(data / "synth00000.hea"), "--run", str(run), "--out", str(tmp_path / "p.csv")],
                ["attention", "--record", str(data / "synth00000.hea"), "--run", str(run), "--format", "csv",
                 "--out", str(tmp_path / "maps")],
            ]

        capsys.readouterr()
        for argv in commands(stray):
            assert cli.main(argv) == 2, argv[0]
            self._assert_one_error(capsys, "ConfigError", str(stray / "wide_scaler.csv"), "config_used.ini",
                                   "standardize_wide = false")
        for argv in commands(missing):
            assert cli.main(argv) == 3, argv[0]
            self._assert_one_error(capsys, "MissingFileError", str(missing / "wide_scaler.csv"), "config_used.ini",
                                   "standardize_wide = true")
        # The same checks hold against --set, and an agreeing override loads the run.
        assert cli.main(commands(std_run)[1] + ["--set", "train.standardize_wide=false"]) == 2
        self._assert_one_error(capsys, "ConfigError", "--set")
        assert cli.main(commands(stray)[1] + ["--set", "train.standardize_wide=true"]) == 0
        assert not (tmp_path / "report.csv").exists() and not (tmp_path / "maps").exists()

    def _train_argv(self, data, ini, manifest, out, folds=None, weights=None):
        fold = ["--folds", str(folds), "--fold", "0"] if folds else ["--fold", "-1"]
        return ["train", "--manifest", str(manifest), *fold, "--weights", str(weights or data / "weights.csv"),
                "--out", str(out), "--config", str(ini)]

    def _assert_one_error(self, capsys, kind, *needles):
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {kind}:") and err.count("\n") == 1, err
        for needle in needles:
            assert needle in err, (needle, err)

    def test_malformed_manifest_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        header, first, row, *rest = manifest.read_text().splitlines()
        record_id, path, samples, rate, codes = row.split(",")
        damaged = [
            ("has 3 fields, expected 5", f"{record_id},{path},{samples}"),
            ("has sampling rate 'abc'", f"{record_id},{path},{samples},abc,{codes}"),
            ("has sampling rate '-500'", f"{record_id},{path},{samples},-500,{codes}"),
            ("has num_samples '1.5'", f"{record_id},{path},1.5,{rate},{codes}"),
            ("has code 'NOPE' outside the #classes row", f"{record_id},{path},{samples},{rate},NOPE"),
        ]
        bad = tmp_path / "manifest.csv"
        capsys.readouterr()
        for needle, line in damaged:
            bad.write_text("\n".join([header, first, line, *rest]) + "\n")
            assert cli.main(self._train_argv(data, ini, bad, tmp_path / "run")) == 5, needle
            self._assert_one_error(capsys, "RecordFormatError", "manifest.csv", "line 3", repr(record_id), needle)
        assert not (tmp_path / "run").exists()

    def test_malformed_fold_file_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        header, first, row, *rest = folds.read_text().splitlines()
        record_id = row.split(",")[0]
        damaged = [(f"fold {v!r}", f"{record_id},{v}") for v in ("x", "2.5", "", "-3", " 1", "99")]
        damaged += [("has 1 fields, expected 2", record_id), ("appears twice", first)]
        bad = tmp_path / "folds.csv"
        capsys.readouterr()
        for needle, line in damaged:
            bad.write_text("\n".join([header, first, line, *rest]) + "\n")
            assert cli.main(self._train_argv(data, ini, manifest, tmp_path / "run", folds=bad)) == 5, needle
            rid = first.split(",")[0] if needle == "appears twice" else record_id
            self._assert_one_error(capsys, "RecordFormatError", "folds.csv", "line 3", repr(rid), needle)
        assert not (tmp_path / "run").exists()

    def test_malformed_weight_matrix_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        header, *rows = (data / "weights.csv").read_text().splitlines()
        code = rows[1].split(",")[0]
        cells = rows[1].split(",")
        damaged = [
            (f"row for class {code!r} holds a weight that is not a number", [rows[0], ",".join(cells[:2] + ["high"] + cells[3:])] + rows[2:]),
            (f"row for class {code!r} holds a non-finite weight", [rows[0], ",".join(cells[:2] + ["nan"] + cells[3:])] + rows[2:]),
            (f"row for class {code!r} has {len(cells) - 2} weights", [rows[0], ",".join(cells[:-1])] + rows[2:]),
            (f"{len(rows) + 1} rows for {len(rows)} class codes", rows + [rows[-1]]),
            (f"{len(rows) - 1} rows for {len(rows)} class codes", rows[:-1]),
        ]
        bad = tmp_path / "weights.csv"
        capsys.readouterr()
        for needle, lines in damaged:
            bad.write_text("\n".join([header, *lines]) + "\n")
            assert cli.main(self._train_argv(data, ini, manifest, tmp_path / "run", weights=bad)) == 5, needle
            self._assert_one_error(capsys, "RecordFormatError", "weights.csv", needle)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("target", ["manifest", "folds", "class_map", "weights", "thresholds", "wide_scaler",
                                        "header"])
    def test_non_utf8_file_exit_code(self, workspace, overfit_run, tmp_path, capsys, target):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        out = tmp_path / "out"

        def predict(record=data / "synth00000.hea"):
            return ["predict", "--record", str(record), "--run", str(run), "--out", str(tmp_path / "p.csv")]

        bad, argv = {
            "manifest": (tmp_path / "manifest.csv", self._train_argv(data, ini, tmp_path / "manifest.csv", out)),
            "folds": (tmp_path / "folds.csv", self._train_argv(data, ini, manifest, out, folds=tmp_path / "folds.csv")),
            "class_map": (tmp_path / "class_map.csv", ["manifest", "--data", str(data), "--class-map",
                                                       str(tmp_path / "class_map.csv"), "--out", str(out)]),
            "weights": (tmp_path / "weights.csv",
                        self._train_argv(data, ini, manifest, out, weights=tmp_path / "weights.csv")),
            "thresholds": (run / "thresholds.csv", predict()),
            "wide_scaler": (run / "wide_scaler.csv", predict()),
            "header": (tmp_path / "rec.hea", predict(tmp_path / "rec.hea")),
        }[target]
        bad.write_bytes(b"\xff\xfe")
        capsys.readouterr()
        assert cli.main(argv) == 5
        self._assert_one_error(capsys, "RecordFormatError", str(bad), "not UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["ini", "run_config_predict", "run_config_evaluate"])
    def test_non_utf8_configuration_is_a_config_error(self, workspace, overfit_run, tmp_path, capsys, target):
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        out = tmp_path / "out"
        bad, argv = {
            "ini": (tmp_path / "bad.ini", self._train_argv(data, tmp_path / "bad.ini", manifest, out)),
            "run_config_predict": (run / "config_used.ini", [
                "predict", "--record", str(data / "synth00000.hea"), "--run", str(run), "--out", str(out)]),
            "run_config_evaluate": (run / "config_used.ini", [
                "evaluate", "--manifest", str(manifest), "--runs", str(run), "--weights", str(data / "weights.csv"),
                "--out", str(out)]),
        }[target]
        valid = bad.read_bytes() if bad.exists() else ini.read_bytes()
        for blob in (b"\xff\xfe", b"[model]\n\xff\xfe = 1\n", valid + b"\x80"):
            bad.write_bytes(blob)
            capsys.readouterr()
            assert cli.main(argv) == 2, blob
            self._assert_one_error(capsys, "ConfigError", str(bad), "not UTF-8")
        assert not out.exists()

    def test_percent_in_a_value_round_trips_into_predict(self, workspace, tmp_path, capsys):
        # An INI value is its text: `%` is no interpolation syntax, in --config, --set or config_used.ini.
        root, data, ini, manifest, folds = workspace
        lead = "II%(x)s%"
        percent_ini = tmp_path / "percent.ini"
        percent_ini.write_text(TOY_INI + f"\n[features]\nfeature_lead = {lead}\n")
        assert RunConfig.load(percent_ini)["features"]["feature_lead"] == lead
        run = tmp_path / "run"
        assert cli.main(self._train_argv(data, ini, manifest, run) + ["--set", f"features.feature_lead={lead}"]) == 0
        assert f"feature_lead = {lead}\n" in (run / "config_used.ini").read_text()
        assert RunConfig.load(run / "config_used.ini")["features"]["feature_lead"] == lead
        capsys.readouterr()
        assert cli.main(["predict", "--record", str(data / "synth00000.hea"), "--run", str(run),
                         "--out", str(tmp_path / "p.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "p.csv").read_text().startswith("record_id,")

    def test_non_finite_gradient_stops_training_before_adam_moves(self, workspace, tmp_path, capsys, monkeypatch):
        root, data, ini, manifest, folds = workspace
        collect, adam_step = autograd.collect_gradients, autograd.adam_step
        calls, untouched = [], []

        def planting_collect(loss, wanted, into):
            out = collect(loss, wanted, into)
            calls.append(loss)
            if len(calls) == 2:  # step 1: one update has already set the moments
                out[next(iter(wanted))].flat[3] = np.inf
            return out

        def watched_adam_step(params, grads, state, *args, **kwargs):
            before = [flat.copy() for flat in state["flat"][:3]]
            try:
                return adam_step(params, grads, state, *args, **kwargs)
            except errors.NumericalError:
                untouched.append(state["t"] == 1 and all(
                    flat.tobytes() == old.tobytes() for flat, old in zip(state["flat"][:3], before)))
                raise

        monkeypatch.setattr(autograd, "collect_gradients", planting_collect)
        monkeypatch.setattr(autograd, "adam_step", watched_adam_step)
        capsys.readouterr()
        assert cli.main(self._train_argv(data, ini, manifest, tmp_path / "run")) == 8
        self._assert_one_error(capsys, "NumericalError", "training diverged at step 1", "not finite")
        assert len(calls) == 2 and untouched == [True]

    @pytest.mark.parametrize("failure", ["diverged", "undefined thresholds"])
    def test_failed_train_leaves_the_directory_as_it_was(self, workspace, overfit_run, tmp_path, capsys, monkeypatch,
                                                         failure):
        # With eval_every = 1 the first step's evaluation writes the new checkpoint to checkpoint.wft1.tmp. Then
        # the second step's gradient turns infinite, or, after the last step, the threshold fit finds its metric
        # undefined: either way the run directory's own files must come out unchanged.
        root, data, ini, manifest, folds = workspace
        run = tmp_path / "run"
        shutil.copytree(overfit_run, run)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        collect = autograd.collect_gradients
        calls, present = [], []

        def planting_collect(loss, wanted, into):
            out = collect(loss, wanted, into)
            calls.append(loss)
            if len(calls) == 2:
                present.extend(p.name for p in run.iterdir())
                if failure == "diverged":
                    out[next(iter(wanted))].flat[3] = np.inf
            return out

        def undefined_fit(*args, **kwargs):
            raise metrics.UndefinedScoreError("threshold fitting target metric is undefined on this data")

        monkeypatch.setattr(autograd, "collect_gradients", planting_collect)
        if failure == "undefined thresholds":
            monkeypatch.setattr(train, "fit_thresholds", undefined_fit)
        capsys.readouterr()
        code = cli.main(self._train_argv(data, ini, manifest, run) + ["--set", "train.eval_every=1"])
        if failure == "diverged":
            assert code == 8
            self._assert_one_error(capsys, "NumericalError", "training diverged at step 1", "not finite")
        else:
            assert code == 9 and len(calls) == 12
            self._assert_one_error(capsys, "UndefinedScoreError", "undefined")
        assert "checkpoint.wft1.tmp" in present
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_odd_length_signal_file_exit_code(self, workspace, overfit_run, tmp_path, capsys):
        # One byte short of a whole sample is a truncation, like two bytes too many.
        root, data, ini, manifest, folds = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        dat = copy / "synth00001.dat"
        blob = dat.read_bytes()
        capsys.readouterr()
        for damaged in (blob + b"\x00", blob[:-1], blob + b"\x00\x00"):
            dat.write_bytes(damaged)
            assert cli.main(["manifest", "--data", str(copy), "--class-map", str(copy / "class_map.csv"),
                             "--out", str(tmp_path / "m.csv")]) == 5
            self._assert_one_error(capsys, "TruncationError", "synth00001.dat", f"found {len(damaged)} bytes")
            assert cli.main(["predict", "--record", str(copy / "synth00001.hea"), "--run", str(overfit_run),
                             "--out", str(tmp_path / "p.csv")]) == 5
            self._assert_one_error(capsys, "TruncationError", "synth00001.dat", f"found {len(damaged)} bytes")

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["train", "--manifest", "missing.csv", "--weights", "missing.csv", "--out", "run", "--fold", "-1"],
        ["evaluate", "--manifest", "missing.csv", "--runs", "run", "--weights", "missing.csv", "--out", "r.csv"],
    ], ids=["train", "evaluate"])
    def test_threads_below_one_exit_code(self, tmp_path, capsys, monkeypatch, command, threads):
        # The files named do not exist: the count is refused before any of them is read.
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli.main([*command, "--threads", threads]) == 4
        self._assert_one_error(capsys, "ArgumentRangeError", f"--threads must be at least 1, got {threads}")
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_threads_default_to_one(self):
        args = cli.build_parser().parse_args(["evaluate", "--manifest", "m", "--runs", "r", "--weights", "w",
                                              "--out", "o"])
        assert args.threads == 1

    def test_train_threads_default_to_one(self):
        args = cli.build_parser().parse_args(["train", "--manifest", "m", "--weights", "w", "--out", "o"])
        assert args.threads == 1

    def test_bad_override_exit_code(self, workspace, tmp_path, capsys):
        root, data, ini, manifest, folds = workspace
        code = cli.main(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                         "--out", str(tmp_path / "m.csv"), "--set", "nonsense"])
        assert code == 2

    def test_help_for_every_subcommand(self, capsys):
        for command in ("synth", "manifest", "folds", "train", "evaluate", "predict", "attention"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            assert "--help" in capsys.readouterr().out


    def test_parser_is_built_once_and_dispatches_to_the_current_command(self, monkeypatch, tmp_path, capsys):
        argv = ["predict", "--record", str(tmp_path / "r.hea"), "--run", str(tmp_path / "run"),
                "--out", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 3  # no run directory; the parser is built by now
        parser = cli._parser()
        calls = []

        def wrapper(args):
            calls.append(args.record)
            return 0

        monkeypatch.setattr(cli, "cmd_predict", wrapper)
        assert cli.main(argv) == 0 and calls == [str(tmp_path / "r.hea")]
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--record", "r.hea", "--bogus"])
        assert exc.value.code == 2
        assert cli.main(argv) == 0 and len(calls) == 2
        assert cli._parser() is parser
        capsys.readouterr()


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ecgformer.cli", "synth", "--out", str(tmp_path / "d"), "--records", "1", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "wrote 1 records" in result.stdout


def test_readme_config_snippet_loads(tmp_path):
    # The desk-scale INI in README is a working config file.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.ini").write_text(snippet)
    config = RunConfig.load(tmp_path / "readme.ini")
    assert config["preprocess"]["window_samples"] == 192 and config["train"]["lead_subset"] == "two"
