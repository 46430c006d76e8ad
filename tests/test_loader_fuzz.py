"""Fuzz the manifest, fold and reward-matrix CSV loaders: whatever the text,
a loader returns a usable object or raises an `EcgFormerError` subclass. Raw
bytes, which need not be UTF-8, go to every text-file loader the same way.
The INI file is fuzzed through the command line, as `train --config` and
as a run's `config_used.ini`: whatever its bytes, a command ends with one
`ERROR` line naming a package error and the exit code README gives it. A
signal file of any size but the header's is a truncation error for the
reader and every command that reads it. A header rate that is not a finite positive number, and samples that
decode finite but overflow the wide features, make a malformed record."""

import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgformer import cli, errors, metrics, record_io, stratify, train
from ecgformer.errors import EcgFormerError, RecordFormatError
from ecgformer.features import FEATURE_NAMES

RECORD_IDS = ["r0", "r1", "r2", "r3"]
CLASSES = ["SR", "TACH", "BRAD"]

VALID_MANIFEST = [
    ["record_id", "file_path", "num_samples", "sampling_rate_hz", "dx_codes"],
    ["r0", "d/r0.hea", "5000", "500", "SR"],
    ["r1", "d/r1.hea", "5000", "500", "TACH;BRAD"],
    ["r2", "d/r2.hea", "2570", "257", ""],
    ["r3", "d/r3.hea", "10000", "1000", "BRAD"],
    ["#classes", "SR;TACH;BRAD", "", "", ""],
    ["#unmapped", "r2", "XTRA", "", ""],
]
VALID_FOLDS = [["record_id", "fold"], ["r0", "0"], ["r1", "1"], ["r2", "0"], ["r3", "1"]]
VALID_WEIGHTS = [
    ["", "SR", "TACH", "BRAD"],
    ["SR", "1.0", "0.5", "0.25"],
    ["TACH", "0.5", "1.0", "0.5"],
    ["BRAD", "0.25", "0.5", "1.0"],
]

CELLS = st.one_of(
    st.sampled_from(["", "x", "abc", "2.5", "-3", "0", "1", "7", "1e400", "nan", "inf", "-inf", " 1", "+1", "٣",
                     "99999999999999999999999", "#classes", "#unmapped", "SR", "TACH;BRAD", "NOPE", "r0", '"']),
    st.text(max_size=6),
)


def _edits(valid):
    """A valid file's rows with random cells replaced, rows dropped, duplicated or cut short."""
    @st.composite
    def edited(draw):
        rows = [list(r) for r in valid]
        for _ in range(draw(st.integers(0, 4))):
            r = draw(st.integers(0, len(rows) - 1)) if rows else 0
            action = draw(st.sampled_from(["cell", "cut", "drop", "dup", "blank", "extra"]))
            if not rows:
                rows.append([])
            elif action == "cell" and rows[r]:
                rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELLS)
            elif action == "cut":
                rows[r] = rows[r][: draw(st.integers(0, max(len(rows[r]) - 1, 0)))]
            elif action == "drop":
                del rows[r]
            elif action == "dup":
                rows.insert(r, list(rows[r]))
            elif action == "blank":
                rows.insert(r, [])
            else:
                rows[r].append(draw(CELLS))
        return "\n".join(",".join(r) for r in rows) + draw(st.sampled_from(["", "\n", "\r\n"]))

    return st.one_of(edited(), st.text(max_size=80))


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(text=_edits(VALID_MANIFEST))
def test_manifest_loader_raises_only_package_errors(tmp_path, text):
    path = tmp_path / "manifest.csv"
    path.write_text(text)
    try:
        manifest = record_io.load_manifest(path)
    except EcgFormerError:
        return
    labels = manifest.label_matrix()
    assert labels.shape == (len(manifest.record_ids()), len(manifest.class_list))
    assert all(e.num_samples >= 1 and e.sampling_rate_hz > 0 for e in manifest.entries)


@FUZZ
@given(text=_edits(VALID_FOLDS))
def test_fold_loader_raises_only_package_errors(tmp_path, text):
    path = tmp_path / "folds.csv"
    path.write_text(text)
    try:
        assignment = stratify.load_folds(path, RECORD_IDS)
    except EcgFormerError:
        return
    assert 1 <= assignment.k <= len(text.splitlines())
    assert sum(assignment.records_in_fold(f).size for f in range(assignment.k)) == len(RECORD_IDS)


@FUZZ
@given(text=_edits(VALID_WEIGHTS), normal=st.sampled_from(CLASSES + ["NOPE"]))
def test_weight_loader_raises_only_package_errors(tmp_path, text, normal):
    path = tmp_path / "weights.csv"
    path.write_text(text)
    try:
        weights = metrics.load_weight_matrix(path, normal)
    except EcgFormerError:
        return
    assert weights.w.shape == (len(weights.class_codes),) * 2 and np.isfinite(weights.w).all()
    assert weights.class_codes[weights.normal_class_index] == normal


def _csv_bytes(rows):
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


# Valid files as bytes, each with the call that loads it.
VALID_FILES = {
    "manifest": (_csv_bytes(VALID_MANIFEST), record_io.load_manifest),
    "folds": (_csv_bytes(VALID_FOLDS), lambda path: stratify.load_folds(path, RECORD_IDS)),
    "weights": (_csv_bytes(VALID_WEIGHTS), lambda path: metrics.load_weight_matrix(path, "SR")),
    "class_map": (b"code,class_index,class_code\nSR,0,SR\nTACH,1,TACH\nBRAD,2,BRAD\n", record_io.load_class_map),
    "thresholds": (b"class_code,threshold\nSR,0.5\nTACH,0.25\nBRAD,0.75\n",
                   lambda path: train.load_thresholds(path, CLASSES)),
    "wide_scaler": (_csv_bytes([["feature", "mean", "std"]] + [[n, "0.5", "2.0"] for n in FEATURE_NAMES[:2]]),
                    lambda path: train.load_wide_scaler(path, 2)),
    "header": (b"r0 2 500 1000\nr0.dat 16 1000 0 I\nr0.dat 16 1000 0 II\n# Age: 43\n# Sex: Female\n# Dx: SR\n",
               record_io._parse_header_text),
}


@pytest.mark.parametrize("name", sorted(VALID_FILES))
def test_non_utf8_bytes_are_a_record_format_error(tmp_path, name):
    blob, load = VALID_FILES[name]
    path = tmp_path / name
    path.write_bytes(blob)
    load(path)
    for damaged in (b"\xff\xfe", blob + b"\xff\xfe", blob[:5] + b"\xc3" + blob[5:], blob.replace(b"\n", b"\x80\n", 1)):
        path.write_bytes(damaged)
        with pytest.raises(RecordFormatError, match="not UTF-8"):
            load(path)


@FUZZ
@given(name=st.sampled_from(sorted(VALID_FILES)), at=st.integers(0, 1000), raw=st.binary(min_size=1, max_size=8))
def test_loaders_raise_only_package_errors_on_raw_bytes(tmp_path, name, at, raw):
    blob, load = VALID_FILES[name]
    at %= len(blob) + 1
    path = tmp_path / name
    path.write_bytes(blob[:at] + raw + blob[at:])
    try:
        load(path)
    except EcgFormerError:
        pass


# -- configuration files, through the command line ---------------------------------

VALID_INI = """\
[preprocess]
window_samples = 192
normalize_scope = recording

[model]
d_model = 16
num_layers = 2
num_heads = 2
d_ff = 16
dropout_head = 0.2
mask_padding = false

[train]
learning_rate = 0.003
max_steps = 12
folds = 2
lead_subset = two
normal_class = SR
precision = float32

[features]
feature_lead = II
""".splitlines()

LINES = st.one_of(
    st.sampled_from(["", "[model]", "[train]", "[nope]", "[DEFAULT]", "[", "]", "=", ":", "; note", "# note",
                     "d_model = 17", "num_heads = 0", "d_patch = 7", "folds = x", "learning_rate = nan",
                     "learning_rate = -1", "max_steps = 0", "precision = float16", "lead_subset = custom",
                     "custom_leads = II,XX", "positional = none", "fir_taps = 4", "mask_padding = maybe",
                     "feature_lead = %", "normal_class = %(x)s", "normal_class = NOPE", "dropout_encoder = 1",
                     "d_model", "  indented = 1", "d_model=16", "num_leads=0", "num_leads=2", "gelu_exact=True",
                     "window_samples=1e3", "d_model=99999999999999999999999", "num_leads = %%"]),
    st.text(max_size=12),
)


def _line_edits(valid_lines):
    """A valid file's lines with random lines replaced, inserted, dropped or duplicated, or any short text."""
    @st.composite
    def edited(draw):
        lines = list(valid_lines)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(lines)))
            action = draw(st.sampled_from(["replace", "insert", "drop", "dup"]))
            if action == "insert" or at == len(lines):
                lines.insert(at, draw(LINES))
            elif action == "replace":
                lines[at] = draw(LINES)
            elif action == "drop":
                del lines[at]
            else:
                lines.insert(at, lines[at])
        return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))

    return st.one_of(edited(), st.text(max_size=80))


def _assert_one_package_error(capsys, code):
    """The command printed one ERROR line, of an EcgFormerError subclass whose exit code is `code`."""
    out = capsys.readouterr()
    kind = out.err.removeprefix("ERROR ").split(":", 1)[0]
    assert out.err.startswith("ERROR ") and out.err.count("\n") == 1, out.err
    family = getattr(errors, kind, None)
    assert isinstance(family, type) and issubclass(family, EcgFormerError) and family.exit_code == code, out.err


def _train_on_config(tmp_path, capsys, blob: bytes, overrides=()):
    """`train --fold all` without `--folds` under the INI `blob`: once every typed view of the
    configuration is built, it stops with exit 4, before a record is read."""
    (tmp_path / "manifest.csv").write_bytes(_csv_bytes(VALID_MANIFEST))
    (tmp_path / "weights.csv").write_bytes(_csv_bytes(VALID_WEIGHTS))
    (tmp_path / "run.ini").write_bytes(blob)
    argv = ["train", "--config", str(tmp_path / "run.ini"), "--manifest", str(tmp_path / "manifest.csv"),
            "--weights", str(tmp_path / "weights.csv"), "--fold", "all", "--out", str(tmp_path / "train_out")]
    for item in overrides:
        argv += ["--set", item]
    capsys.readouterr()
    code = cli.main(argv)
    _assert_one_package_error(capsys, code)
    assert code in (2, 4, 5) and not (tmp_path / "train_out").exists()
    return code


def _predict_on_run_config(tmp_path, capsys, blob: bytes):
    """`predict` on a run directory that holds `config_used.ini` (here `blob`) and `thresholds.csv`
    but no checkpoint: once the model configuration is built, it stops at the missing checkpoint, exit 3.
    An unknown lead subset is exit 4, as in `train`."""
    run = tmp_path / "run"
    run.mkdir(exist_ok=True)
    (run / "config_used.ini").write_bytes(blob)
    (run / "thresholds.csv").write_bytes(VALID_FILES["thresholds"][0])
    capsys.readouterr()
    code = cli.main(["predict", "--record", str(tmp_path / "r0.hea"), "--run", str(run),
                     "--out", str(tmp_path / "p.csv")])
    _assert_one_package_error(capsys, code)
    assert code in (2, 3, 4) and not (tmp_path / "p.csv").exists()
    return code


def test_valid_configuration_files_pass_the_loaders(tmp_path, capsys):
    valid_ini = "\n".join(VALID_INI).encode()
    assert _train_on_config(tmp_path, capsys, valid_ini) == 4
    assert _predict_on_run_config(tmp_path, capsys, valid_ini) == 3


@FUZZ
@given(text=_line_edits(VALID_INI))
def test_ini_file_fails_only_with_package_errors(tmp_path, capsys, text):
    _train_on_config(tmp_path, capsys, text.encode())


@FUZZ
@given(items=st.lists(st.tuples(st.sampled_from(["model.d_model", "train.folds", "train.learning_rate",
                                                 "features.feature_lead", "preprocess.fir_taps", "nope.key",
                                                 "model", "model.", ".d_model", "train.precision"]),
                                st.one_of(LINES, st.sampled_from(["16", "%", "%(x)s", " 3 ", "0.5"]))),
                      max_size=3))
def test_overrides_fail_only_with_package_errors(tmp_path, capsys, items):
    _train_on_config(tmp_path, capsys, "\n".join(VALID_INI).encode(), [f"{target}={value}" for target, value in items])


@FUZZ
@given(text=_line_edits(VALID_INI))
def test_run_config_fails_only_with_package_errors(tmp_path, capsys, text):
    _predict_on_run_config(tmp_path, capsys, text.encode())


@FUZZ
@given(run_config=st.booleans(), at=st.integers(0, 1000), raw=st.binary(min_size=1, max_size=8))
def test_configuration_files_fail_only_with_package_errors_on_raw_bytes(tmp_path, capsys, run_config, at, raw):
    blob = "\n".join(VALID_INI).encode()
    at %= len(blob) + 1
    (_predict_on_run_config if run_config else _train_on_config)(tmp_path, capsys, blob[:at] + raw + blob[at:])


# -- signal file sizes ------------------------------------------------------------------------------------------

SIZE_INI = "\n".join(VALID_INI).replace("max_steps = 12", "max_steps = 1") + "\n"


@pytest.fixture(scope="module")
def sized_run(tmp_path_factory):
    """A 12-lead corpus and a one-step two-lead run trained on it."""
    root = tmp_path_factory.mktemp("sizes")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--records", "4", "--seed", "4"]) == 0
    (root / "run.ini").write_text(SIZE_INI)
    assert cli.main(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                     "--out", str(root / "manifest.csv")]) == 0
    assert cli.main(["train", "--manifest", str(root / "manifest.csv"), "--fold", "-1", "--weights",
                     str(data / "weights.csv"), "--out", str(root / "run"), "--config", str(root / "run.ini")]) == 0
    return root


def _sized_blob(blob: bytes, num_leads: int, size: str) -> bytes:
    expected = len(blob)
    length = {"empty": 0, "one": 1, "odd": expected + 3, "minus_one": expected - 1, "plus_one": expected + 1,
              "minus_row": expected - 2 * num_leads, "plus_row": expected + 2 * num_leads, "double": 2 * expected}[size]
    return (blob * 2)[:length]


@pytest.mark.parametrize("size", ["empty", "one", "odd", "minus_one", "plus_one", "minus_row", "plus_row", "double"])
def test_signal_file_of_the_wrong_size_is_a_truncation_error(sized_run, tmp_path, capsys, size):
    data = tmp_path / "data"
    shutil.copytree(sized_run / "data", data)
    header, signal = data / "synth00001.hea", data / "synth00001.dat"
    signal.write_bytes(_sized_blob(signal.read_bytes(), 12, size))
    for leads in (None, ["I", "II"], ["V6"]):
        with pytest.raises(errors.TruncationError):
            record_io.parse_record(header, leads=leads)
    with pytest.raises(errors.TruncationError):
        record_io.build_manifest(data, record_io.load_class_map(data / "class_map.csv"))
    commands = [["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                 "--out", str(tmp_path / "manifest.csv")],
                ["predict", "--record", str(header), "--run", str(sized_run / "run"), "--out", str(tmp_path / "p.csv")]]
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("ERROR TruncationError: ") and err.count("\n") == 1, err
    assert not (tmp_path / "manifest.csv").exists() and not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "NaN", "0", "-500"])
def test_header_rate_that_is_not_finite_and_positive_is_a_malformed_record(sized_run, tmp_path, capsys, rate):
    data = tmp_path / "data"
    shutil.copytree(sized_run / "data", data)
    header = data / "synth00001.hea"
    lines = header.read_text().splitlines(keepends=True)
    record_id, leads, _, samples = lines[0].split()
    header.write_text(f"{record_id} {leads} {rate} {samples}\n" + "".join(lines[1:]))
    for leads in (None, ["I", "II"]):
        with pytest.raises(RecordFormatError, match="sampling rate"):
            record_io.parse_record(header, leads=leads)
    with pytest.raises(RecordFormatError, match="sampling rate"):
        record_io.build_manifest(data, record_io.load_class_map(data / "class_map.csv"))
    commands = [["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                 "--out", str(tmp_path / "manifest.csv")],
                ["predict", "--record", str(header), "--run", str(sized_run / "run"), "--out", str(tmp_path / "p.csv")]]
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("ERROR RecordFormatError: ") and err.count("\n") == 1, err
        assert "synth00001.hea" in err, err
    assert not (tmp_path / "manifest.csv").exists() and not (tmp_path / "p.csv").exists()


def test_samples_that_overflow_the_wide_features_are_a_malformed_record(sized_run, tmp_path, capsys):
    # Gain 1e-300 decodes the int16 samples to finite values near 1e303, whose squares overflow.
    data = tmp_path / "data"
    shutil.copytree(sized_run / "data", data)
    header = data / "synth00001.hea"
    lines = header.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines[1:13], start=1):
        name, fmt, _, baseline, lead = line.split()
        lines[i] = f"{name} {fmt} 1e-300 {baseline} {lead}\n"
    header.write_text("".join(lines))
    (tmp_path / "run.ini").write_text(SIZE_INI)
    manifest = tmp_path / "manifest.csv"
    assert cli.main(["manifest", "--data", str(data), "--class-map", str(data / "class_map.csv"),
                     "--out", str(manifest)]) == 0  # the samples are finite: nothing to decode here
    commands = [["train", "--manifest", str(manifest), "--fold", "-1", "--weights", str(data / "weights.csv"),
                 "--out", str(tmp_path / "run"), "--config", str(tmp_path / "run.ini")],
                ["predict", "--record", str(header), "--run", str(sized_run / "run"), "--out", str(tmp_path / "p.csv")]]
    for argv in commands:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning would end the command another way
            assert cli.main(argv) == 5, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("ERROR RecordFormatError: synth00001: ") and err.count("\n") == 1, err
        assert "overflow" in err, err
    assert not (tmp_path / "p.csv").exists()
