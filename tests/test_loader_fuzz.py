"""Fuzz the manifest, fold and reward-matrix CSV loaders: whatever the text,
a loader returns a usable object or raises an `EcgFormerError` subclass. Raw
bytes, which need not be UTF-8, go to every text-file loader the same way."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgformer import metrics, record_io, stratify, train
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
