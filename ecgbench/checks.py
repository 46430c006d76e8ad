"""Output checks that recompute what ecgformer reports, independently of it.

Nothing here imports ecgformer: labels come from the record headers and the
class map, the challenge metric is a brute-force per-record sum, AUROC is a
pairwise Mann-Whitney count and the checkpoint size follows from the
closed-form parameter count of the architecture.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

THRESHOLD_GRID = {round(0.02 * k, 2) for k in range(1, 50)}  # 0.02 .. 0.98
REL_TOL = 1e-12
# The program sums in another order; where a value is a difference of such
# sums near 0 (a challenge metric near the always-normal score), rounding is
# absolute, not relative to the value.
ABS_TOL = 1e-14


class CheckError(Exception):
    pass


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def read_class_map(path) -> tuple[dict[str, str], list[str]]:
    """code -> class code, and class codes in class-index order."""
    code_to_class, index_to_class = {}, {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            code_to_class[row[0]] = row[2]
            index_to_class[int(row[1])] = row[2]
    return code_to_class, [index_to_class[i] for i in sorted(index_to_class)]


def read_weights(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0][1:], np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def labels_from_headers(data_dir, class_map_path) -> tuple[list[str], list[str], np.ndarray]:
    """Record ids (sorted), class codes and the 0/1 label matrix from each header's '# Dx:' line."""
    code_to_class, classes = read_class_map(class_map_path)
    ids, rows = [], []
    for header in sorted(Path(data_dir).glob("*.hea")):
        lines = header.read_text().splitlines()
        dx = next(line.split(":", 1)[1] for line in lines if line.startswith("# Dx:"))
        mapped = {code_to_class[c.strip()] for c in dx.split(",") if c.strip() in code_to_class}
        ids.append(lines[0].split()[0])
        rows.append([int(c in mapped) for c in classes])
    return ids, classes, np.array(rows, dtype=np.int64)


def check_manifest(manifest_path, ids: list[str], classes: list[str], labels: np.ndarray):
    with open(manifest_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    entries = [r for r in rows if not r[0].startswith("#")]
    class_row = next(r for r in rows if r[0] == "#classes")
    if class_row[1].split(";") != classes:
        raise CheckError(f"manifest classes {class_row[1]} != class map {classes}")
    if [r[0] for r in entries] != ids:
        raise CheckError("manifest record ids differ from the headers on disk")
    for r, label_row in zip(entries, labels):
        got = set(filter(None, r[4].split(";")))
        want = {c for c, v in zip(classes, label_row) if v}
        if got != want:
            raise CheckError(f"manifest labels of {r[0]}: {sorted(got)} != {sorted(want)} from its header")


def read_folds(path) -> dict[str, int]:
    with open(path, newline="") as fh:
        return {row[0]: int(row[1]) for row in list(csv.reader(fh))[1:]}


def read_thresholds(path, classes: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        mapping = {row[0]: float(row[1]) for row in list(csv.reader(fh))[1:]}
    if sorted(mapping) != sorted(classes):
        raise CheckError(f"{path}: classes {sorted(mapping)} != {sorted(classes)}")
    return np.array([mapping[c] for c in classes])


def read_prediction(path, record_id: str, classes: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["record_id"] + classes:
        raise CheckError(f"{path}: header {rows[0]}")
    if len(rows) != 2 or rows[1][0] != record_id:
        raise CheckError(f"{path}: expected exactly one row for {record_id}")
    probs = np.array([float(v) for v in rows[1][1:]])
    if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)):
        raise CheckError(f"{path}: probabilities outside [0, 1]")
    return probs


def read_report(path, classes: list[str]) -> dict[str, dict[str, float | None]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expected = ["fold", "challenge_metric", "auroc_macro"] + [f"auroc_{c}" for c in classes]
    if rows[0] != expected:
        raise CheckError(f"{path}: header {rows[0]}")
    return {row[0]: {k: (float(v) if v else None) for k, v in zip(rows[0][1:], row[1:])} for row in rows[1:]}


def challenge_metric(labels: np.ndarray, predictions: np.ndarray, w: np.ndarray, normal: int) -> float:
    """Brute force: each record adds w[i, j] / n_r for every true i and predicted j."""

    def raw(preds) -> float:
        total = 0.0
        for truth, pred in zip(labels, preds):
            t = [i for i, v in enumerate(truth) if v]
            p = [j for j, v in enumerate(pred) if v]
            n_r = max(len(set(t) | set(p)), 1)
            total += sum(w[i, j] for i in t for j in p) / n_r
        return total

    normal_only = np.zeros_like(labels)
    normal_only[:, normal] = 1
    correct, inactive = raw(labels), raw(normal_only)
    if correct == inactive:
        raise CheckError("challenge metric undefined on this fold")
    return (raw(predictions) - inactive) / (correct - inactive)


def mann_whitney_auroc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    pos, neg = scores[labels == 1], scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = np.count_nonzero(pos[:, None] > neg[None, :]) + 0.5 * np.count_nonzero(pos[:, None] == neg[None, :])
    return wins / (len(pos) * len(neg))


def check_fold(report_row: dict, probs: np.ndarray, labels: np.ndarray, thresholds: np.ndarray,
               classes: list[str], w: np.ndarray, normal: int, where: str):
    """Report row vs recomputation from predict probabilities and thresholds.csv."""
    off_grid = [t for t in thresholds if float(t) not in THRESHOLD_GRID]
    if off_grid:
        raise CheckError(f"{where}: thresholds {off_grid} are off the 0.02..0.98 grid")
    fitted = challenge_metric(labels, (probs >= thresholds).astype(np.int64), w, normal)
    at_half = challenge_metric(labels, (probs >= 0.5).astype(np.int64), w, normal)
    if fitted < at_half and not _close(fitted, at_half):
        raise CheckError(f"{where}: fitted thresholds score {fitted!r} < {at_half!r} at 0.5")
    if not _close(fitted, report_row["challenge_metric"]):
        raise CheckError(f"{where}: challenge_metric {report_row['challenge_metric']!r} != recomputed {fitted!r}")
    for k, c in enumerate(classes):
        want = mann_whitney_auroc(probs[:, k], labels[:, k])
        got = report_row[f"auroc_{c}"]
        if (want is None) != (got is None) or (want is not None and not _close(want, got)):
            raise CheckError(f"{where}: auroc_{c} {got!r} != Mann-Whitney {want!r}")


def check_report_mean(report: dict, folds: list[str]):
    mean = float(np.mean([report[f]["challenge_metric"] for f in folds]))
    if not _close(mean, report["mean"]["challenge_metric"]):
        raise CheckError(f"report mean row {report['mean']['challenge_metric']!r} != mean of folds {mean!r}")


def parameter_count(num_leads: int, num_classes: int, d_patch: int, d_model: int, num_layers: int,
                    d_ff: int, d_deep: int, d_wide: int, window_samples: int) -> int:
    """Closed-form parameter count of the patch transformer described in the README."""
    d = d_model
    per_layer = 4 * (d * d + d) + (d * d_ff + d_ff) + (d_ff * d + d) + 2 * 2 * d
    tokens = window_samples // d_patch
    return (num_leads * d_patch * d + d  # patch projection
            + d  # class token
            + (tokens + 1) * d  # positional table
            + num_layers * per_layer
            + 2 * d  # final norm
            + d * d_deep + d_deep  # head layer 1
            + (d_deep + d_wide) * num_classes + num_classes)  # head layer 2


def check_checkpoint_size(path, expected_params: int):
    """File size == WFT1 header bytes + 4 bytes per parameter, and the tensors hold expected_params values."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"WFT1":
        raise CheckError(f"{path}: not a WFT1 file")
    (count,) = struct.unpack_from("<I", blob, 4)
    pos, header, values = 8, 8, 0
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        ndim = blob[pos + 2 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 3 + name_len)
        size = int(np.prod(dims)) if dims else 1
        header += 3 + name_len + 4 * ndim
        values += size
        pos += 3 + name_len + 4 * ndim + 4 * size
    if values != expected_params:
        raise CheckError(f"{path}: {values} parameters, closed form gives {expected_params}")
    if len(blob) != header + 4 * expected_params:
        raise CheckError(f"{path}: {len(blob)} bytes != {header} header + 4 x {expected_params}")
