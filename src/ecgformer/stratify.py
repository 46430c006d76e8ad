"""Iterative multi-label stratified k-fold assignment.

Labels are processed rarest-first: for the label with the fewest remaining
positive examples, each of its unassigned examples goes to the fold with the
greatest remaining demand for that label; ties fall back to the fold with the
greatest remaining total capacity, then to a seeded random draw. Records with
no positive labels are dealt round-robin by remaining capacity at the end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentRangeError, RecordFormatError, ShapeError
from .record_io import read_csv


@dataclass
class FoldAssignment:
    fold_of: np.ndarray  # fold index per record
    k: int

    def __post_init__(self):
        self.fold_of = np.asarray(self.fold_of, dtype=np.int64)
        if self.fold_of.size and (self.fold_of.min() < 0 or self.fold_of.max() >= self.k):
            raise ShapeError("fold indices out of range")

    def records_in_fold(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def records_not_in_fold(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def stratified_folds(label_matrix, k: int = 10, seed: int = 0) -> FoldAssignment:
    """Assign each record to one of k folds, balancing every label's positives."""
    labels = np.asarray(label_matrix)
    if labels.ndim != 2:
        raise ShapeError(f"label matrix must be 2-d, got shape {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ShapeError("label matrix entries must be 0 or 1")
    num_records, num_labels = labels.shape
    if k < 2:
        raise ArgumentRangeError(f"k must be >= 2, got {k}")
    if k > num_records:
        raise ArgumentRangeError(f"k = {k} exceeds the {num_records} records available")
    if seed < 0:
        raise ArgumentRangeError(f"seed must be a non-negative integer, got {seed}")

    rng = np.random.default_rng(seed)
    fold_of = np.full(num_records, -1, dtype=np.int64)
    # Uniform fold proportions: each fold wants 1/k of every label's positives
    # and 1/k of all records.
    demand = np.tile(labels.sum(axis=0) / k, (k, 1)).astype(np.float64)
    capacity = np.full(k, num_records / k, dtype=np.float64)
    remaining_per_label = labels.sum(axis=0).astype(np.int64)
    unassigned = labels.sum(axis=1) > 0

    def pick_fold(scores: np.ndarray) -> int:
        best = np.flatnonzero(scores == scores.max())
        if best.size > 1:
            caps = capacity[best]
            best = best[caps == caps.max()]
        if best.size > 1:
            return int(rng.choice(best))
        return int(best[0])

    while remaining_per_label.max(initial=0) > 0:
        active = np.flatnonzero(remaining_per_label > 0)
        label = int(active[np.argmin(remaining_per_label[active])])
        for rec in np.flatnonzero(unassigned & (labels[:, label] == 1)):
            fold = pick_fold(demand[:, label])
            fold_of[rec] = fold
            unassigned[rec] = False
            capacity[fold] -= 1.0
            positive = np.flatnonzero(labels[rec])
            demand[fold, positive] -= 1.0
            remaining_per_label[positive] -= 1
    # Zero-label records: round-robin by remaining capacity.
    for rec in np.flatnonzero(fold_of < 0):
        fold = pick_fold(capacity)
        fold_of[rec] = fold
        capacity[fold] -= 1.0
    return FoldAssignment(fold_of, k)


def save_folds(path, record_ids: list[str], assignment: FoldAssignment):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["record_id", "fold"])
        for record_id, fold in zip(record_ids, assignment.fold_of):
            out.writerow([record_id, int(fold)])


def load_folds(path, record_ids: list[str]) -> FoldAssignment:
    """Read a fold CSV strictly and align it to the manifest's record order.

    Each row is `record_id,fold`, one per record; a fold is an integer from 0
    to below the file's record count (k folds need at least k records).
    """
    mapping: dict[str, int] = {}
    rows = list(enumerate(read_csv(path), start=1))[1:]
    for lineno, row in rows:
        record_id = row[0] if row else ""
        where = f"{path}: line {lineno}: record {record_id!r}"
        if len(row) != 2:
            raise RecordFormatError(f"{where} has {len(row)} fields, expected 2 (record_id,fold)")
        if record_id in mapping:
            raise RecordFormatError(f"{where} appears twice")
        if not (row[1].isascii() and row[1].isdecimal() and int(row[1]) < len(rows)):
            raise RecordFormatError(f"{where} has fold {row[1]!r}, expected an integer in [0, {len(rows)})")
        mapping[record_id] = int(row[1])
    missing = [r for r in record_ids if r not in mapping]
    if missing:
        raise ArgumentRangeError(f"fold file lacks assignments for records {missing[:5]}")
    fold_of = np.array([mapping[r] for r in record_ids], dtype=np.int64)
    return FoldAssignment(fold_of, int(fold_of.max()) + 1)
