"""Deterministic synthetic ECG-like corpus for offline runs.

Records are Gaussian-bump beat trains whose rate, amplitude, bump width and
noise are conditioned on the assigned labels, so small models can actually
learn the labels and the peak detector has something to find. The generator
also emits the class map (including one alias code that the map collapses)
and a clearly non-official reward matrix.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ArgumentRangeError
from .metrics import save_weight_matrix, synthetic_weight_matrix
from .record_io import STANDARD_12_LEADS, EcgRecord, write_record

CLASS_CODES = ["SR", "TACH", "BRAD", "LOWV", "WIDE"]
NORMAL_CLASS = "SR"
ALIAS_CODES = {"TCHY": "TACH"}  # collapsed by the class map
UNMAPPED_CODE = "XTRA"

RATE_RANGES_BPM = {"SR": (60.0, 85.0), "TACH": (125.0, 170.0), "BRAD": (35.0, 48.0)}


def write_class_map(path):
    rows = [f"{code},{i},{code}" for i, code in enumerate(CLASS_CODES)]
    for alias, target in ALIAS_CODES.items():
        rows.append(f"{alias},{CLASS_CODES.index(target)},{target}")
    Path(path).write_text("code,class_index,class_code\n" + "\n".join(rows) + "\n")


def _beat_train(rng, fs, num_samples, rate_bpm, amplitude, qrs_width_s):
    t = np.arange(num_samples, dtype=np.float64)
    x = np.zeros(num_samples)
    period = fs * 60.0 / rate_bpm
    qrs_sigma = qrs_width_s * fs
    beat = rng.uniform(0.2, 0.8) * period
    while beat < num_samples:
        # R wave plus smaller, broader companion waves before and after.
        x += amplitude * np.exp(-0.5 * ((t - beat) / qrs_sigma) ** 2)
        x += 0.18 * amplitude * np.exp(-0.5 * ((t - beat + 0.16 * fs) / (3.0 * qrs_sigma)) ** 2)
        x += 0.28 * amplitude * np.exp(-0.5 * ((t - beat - 0.22 * fs) / (4.0 * qrs_sigma)) ** 2)
        beat += period * rng.uniform(0.96, 1.04)
    return x


def make_record(index: int, seed: int, num_leads: int = 12) -> EcgRecord:
    """One deterministic labeled record; same (index, seed) -> same record."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    rhythm = str(rng.choice(["SR", "TACH", "BRAD"], p=[0.5, 0.25, 0.25]))
    labels = {rhythm}
    low_voltage = rng.random() < 0.3
    wide_qrs = rng.random() < 0.3
    if low_voltage:
        labels.add("LOWV")
    if wide_qrs:
        labels.add("WIDE")

    fs = float(rng.choice([257.0, 500.0, 1000.0]))
    duration_s = float(rng.uniform(8.0, 18.0))
    num_samples = int(duration_s * fs)
    rate = rng.uniform(*RATE_RANGES_BPM[rhythm])
    amplitude = rng.uniform(0.12, 0.2) if low_voltage else rng.uniform(0.8, 1.5)
    qrs_width = rng.uniform(0.028, 0.036) if wide_qrs else rng.uniform(0.009, 0.014)

    base = _beat_train(rng, fs, num_samples, rate, amplitude, qrs_width)
    noise = rng.uniform(0.01, 0.03) * max(amplitude, 0.2)
    signal = np.empty((num_leads, num_samples))
    for lead in range(num_leads):
        scale = 1.0 if lead == 1 else rng.uniform(0.5, 1.2) * rng.choice([1.0, 1.0, -1.0])
        signal[lead] = scale * base + noise * rng.normal(size=num_samples)

    dx = set(labels)
    if "TACH" in dx and rng.random() < 0.5:
        dx.remove("TACH")
        dx.add("TCHY")
    if rng.random() < 0.1:
        dx.add(UNMAPPED_CODE)
    return EcgRecord(
        record_id=f"synth{index:05d}",
        sampling_rate_hz=fs,
        signal=signal,
        lead_names=STANDARD_12_LEADS[:num_leads],
        age_years=None if rng.random() < 0.1 else float(int(rng.integers(18, 92))),
        sex=str(rng.choice(["male", "female", "unknown"], p=[0.45, 0.45, 0.1])),
        dx_codes=dx,
    )


def generate_corpus(out_dir, num_records: int, seed: int, num_leads: int = 12) -> list[Path]:
    """Write records plus class_map.csv and weights.csv into out_dir."""
    if num_records < 1:
        raise ArgumentRangeError("num_records must be >= 1")
    if seed < 0:
        raise ArgumentRangeError(f"seed must be a non-negative integer, got {seed}")
    if not 1 <= num_leads <= len(STANDARD_12_LEADS):
        raise ArgumentRangeError(f"num_leads must be in 1..{len(STANDARD_12_LEADS)}, got {num_leads}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(num_records):
        record = make_record(i, seed, num_leads)
        header, _, _ = write_record(record, out)
        paths.append(header)
    write_class_map(out / "class_map.csv")
    save_weight_matrix(out / "weights.csv", synthetic_weight_matrix(CLASS_CODES, NORMAL_CLASS))
    return paths
