"""Weighted multi-label challenge score and per-class AUROC.

The challenge score credits partially-correct label sets through a reward
matrix: each recording contributes 1/n_r to every (true class, predicted
class) cell, where n_r is the size of the union of its true and predicted
label sets (floored at 1). The raw weighted sum is normalized so that a
perfect classifier scores 1.0 and a classifier that always outputs only the
normal class scores 0.0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentRangeError, RecordFormatError, ShapeError, UndefinedScoreError
from .record_io import read_csv


@dataclass
class WeightMatrix:
    """Class-by-class reward matrix with a designated normal class."""

    w: np.ndarray
    class_codes: list[str]
    normal_class_index: int

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        c = len(self.class_codes)
        if self.w.shape != (c, c):
            raise ShapeError(f"weight matrix shape {self.w.shape} does not match {c} class codes")
        if not np.allclose(np.diag(self.w), 1.0, atol=0.0):
            raise RecordFormatError("weight matrix diagonal entries must all equal 1.0")
        if not (0 <= self.normal_class_index < c):
            raise ArgumentRangeError(f"normal_class_index {self.normal_class_index} out of range for {c} classes")


def load_weight_matrix(path, normal_class: str) -> WeightMatrix:
    """Read a reward matrix CSV strictly: a header row of class codes, then one row per code,
    in header order, holding the code and one finite weight per column."""
    rows = read_csv(path)
    if not rows:
        raise RecordFormatError(f"{path}: empty weight matrix file")
    codes = [c.strip() for c in rows[0][1:]]
    if len(set(codes)) != len(codes):
        raise RecordFormatError(f"{path}: header repeats a class code: {codes}")
    if len(rows) - 1 != len(codes):
        raise RecordFormatError(f"{path}: {len(rows) - 1} rows for {len(codes)} class codes")
    mat = np.zeros((len(codes), len(codes)))
    for i, (code, row) in enumerate(zip(codes, rows[1:])):
        label = row[0].strip() if row else ""
        if label != code:
            raise RecordFormatError(f"{path}: row label {label!r} does not match column order (expected {code!r})")
        if len(row) != len(codes) + 1:
            raise RecordFormatError(f"{path}: row for class {code!r} has {len(row) - 1} weights, expected {len(codes)}")
        try:
            mat[i] = [float(v) for v in row[1:]]
        except ValueError:
            raise RecordFormatError(f"{path}: row for class {code!r} holds a weight that is not a number") from None
        if not np.isfinite(mat[i]).all():
            raise RecordFormatError(f"{path}: row for class {code!r} holds a non-finite weight")
    if normal_class not in codes:
        raise ArgumentRangeError(f"normal class {normal_class!r} not among weight matrix codes")
    return WeightMatrix(mat, codes, codes.index(normal_class))


def save_weight_matrix(path, weights: WeightMatrix):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([""] + weights.class_codes)
        for code, row in zip(weights.class_codes, weights.w):
            out.writerow([code] + [repr(float(v)) for v in row])


def synthetic_weight_matrix(class_codes: list[str], normal_class: str) -> WeightMatrix:
    """Identity plus geometrically decaying off-diagonals.

    A stand-in reward matrix for offline tests; scores computed with it are
    not comparable to any official leaderboard.
    """
    c = len(class_codes)
    idx = np.arange(c)
    w = 0.5 ** np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    return WeightMatrix(w, class_codes, class_codes.index(normal_class))


# Terms (records x classes^2) per cumulative-sum block in confusion_weighted: 16 MB of float64.
CONFUSION_CHUNK_CELLS = 2**21


def _check_binary(name: str, m: np.ndarray):
    if not np.isin(m, (0, 1)).all():
        raise ShapeError(f"{name} must be a binary matrix")


def confusion_weighted(labels: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Generalized confusion matrix A with per-record 1/n_r credit.

    n_r = |true positive set union predicted positive set|, floored at 1.
    A[i, j] accumulates 1/n_r for every true class i and predicted class j.
    Each cell is summed over the records in record order (a cumulative sum
    over the record axis), so A is bitwise the record-by-record loop's.
    """
    labels = np.asarray(labels) != 0
    predictions = np.asarray(predictions) != 0
    if labels.shape != predictions.shape:
        raise ShapeError(f"labels {labels.shape} vs predictions {predictions.shape}")
    num_records, num_classes = labels.shape
    n_r = np.maximum((labels | predictions).sum(axis=1), 1)
    credit = predictions / n_r[:, None]
    a = np.zeros((num_classes, num_classes))
    chunk = max(1, CONFUSION_CHUNK_CELLS // max(num_classes * num_classes, 1))
    for start in range(0, num_records, chunk):
        terms = labels[start : start + chunk, :, None] * credit[start : start + chunk, None, :]
        a = np.cumsum(np.concatenate([a[None], terms]), axis=0)[-1]
    return a


def challenge_scorer(labels: np.ndarray, weights: WeightMatrix):
    """The challenge metric on `labels` as a function of binary predictions, and whether it rises with the raw
    weighted sum.

    The normalization, the weighted sums of a perfect and of an always-normal
    predictor, is computed once here; a dataset on which they are equal
    raises UndefinedScoreError. Each call of the returned function is one
    `confusion_weighted`."""
    correct = float(np.sum(weights.w * confusion_weighted(labels, labels)))
    normal_only = np.zeros_like(labels)
    normal_only[:, weights.normal_class_index] = 1
    inactive = float(np.sum(weights.w * confusion_weighted(labels, normal_only)))
    if correct == inactive:
        raise UndefinedScoreError(
            "perfect and always-normal predictors score identically on this dataset; metric undefined"
        )

    def score(predictions: np.ndarray) -> float:
        observed = float(np.sum(weights.w * confusion_weighted(labels, predictions)))
        return (observed - inactive) / (correct - inactive)

    return score, correct > inactive


def challenge_metric(labels: np.ndarray, predictions: np.ndarray, weights: WeightMatrix) -> float:
    """Normalized weighted score: 1.0 for perfect, 0.0 for always-normal."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    _check_binary("labels", labels)
    _check_binary("predictions", predictions)
    num_records, num_classes = labels.shape
    if weights.w.shape[0] != num_classes:
        raise ShapeError(f"weight matrix is {weights.w.shape[0]}x{weights.w.shape[0]} but data has {num_classes} classes")
    score, _ = challenge_scorer(labels, weights)
    return score(predictions)


def auroc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Probability a random positive outscores a random negative, ties half-credited.

    Returns None when labels contain a single class (undefined).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_binary("labels", labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    p = int(labels.sum())
    n = len(labels) - p
    if p == 0 or n == 0:
        return None
    # Average ranks give the Mann-Whitney U statistic exactly, ties included:
    # a group of equal scores at sorted positions i..j (0-based) ranks (i + j) / 2 + 1.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    ranks = (0.5 * (2 * ends - counts - 1) + 1.0)[group]
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - p * (p + 1) / 2.0
    return u / (p * n)


def macro_auroc(per_class: list[float | None]) -> float | None:
    """Mean over classes where the AUROC is defined."""
    defined = [v for v in per_class if v is not None]
    if not defined:
        return None
    return float(np.mean(defined))


def per_class_auroc(scores: np.ndarray, labels: np.ndarray) -> list[float | None]:
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    return [auroc(scores[:, k], labels[:, k]) for k in range(scores.shape[1])]
