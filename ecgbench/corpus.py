"""Seeded synthetic ECG corpus written in the ecgformer record format.

The benchmark makes its own inputs, so a change to the program's own
generator cannot change what the benchmark measures. Each record is a beat
train (one template per beat, placed by an impulse train) scaled per lead
plus Gaussian noise, written as a text header and an int16 interleaved
signal file. Label sets are drawn from a fixed, balanced cycle and then
shuffled by the seed, so every class has the same number of positives for
every seed and stratified folds always see each class.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LEADS = ["I", "II", "III", "aVR", "aVL", "aVF", "V1", "V2", "V3", "V4", "V5", "V6"]
CLASSES = ["NORM", "TACHY", "BRADY", "LOWQRS", "WIDEQRS"]
NORMAL_CLASS = "NORM"
ALIASES = {"STACH": "TACHY"}  # a second code the class map collapses onto TACHY
UNMAPPED = "OTHER"  # a code outside the class map
GAIN = 1000.0  # ADC units per mV

# Rhythm and morphology pattern: 12 label sets, repeated and shuffled.
_RHYTHMS = ["NORM", "NORM", "TACHY", "BRADY"] * 3
_LOW = [i % 3 == 0 for i in range(12)]
_WIDE = [i % 4 == 1 for i in range(12)]
_RATE_BPM = {"NORM": (60.0, 85.0), "TACHY": (120.0, 165.0), "BRADY": (36.0, 50.0)}


def label_sets(num_records: int, seed: int) -> list[set[str]]:
    """Class-code sets per record index (before alias/unmapped codes)."""
    base = []
    for i in range(num_records):
        j = i % 12
        labels = {_RHYTHMS[j]}
        if _LOW[j]:
            labels.add("LOWQRS")
        if _WIDE[j]:
            labels.add("WIDEQRS")
        base.append(labels)
    order = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(num_records)
    return [base[int(k)] for k in order]


def _beat_template(fs: float, qrs_s: float, amplitude: float) -> np.ndarray:
    half = int(0.4 * fs)
    t = np.arange(-half, half + 1, dtype=np.float64) / fs
    r = np.exp(-0.5 * (t / qrs_s) ** 2)
    p = 0.15 * np.exp(-0.5 * ((t + 0.17) / (3.0 * qrs_s)) ** 2)
    tw = 0.3 * np.exp(-0.5 * ((t - 0.25) / 0.04) ** 2)
    return amplitude * (r + p + tw)


def make_signal(rng: np.random.Generator, labels: set[str], fs: float, num_samples: int) -> np.ndarray:
    rhythm = next(c for c in ("TACHY", "BRADY", "NORM") if c in labels)
    rate = rng.uniform(*_RATE_BPM[rhythm])
    amplitude = rng.uniform(0.1, 0.2) if "LOWQRS" in labels else rng.uniform(0.8, 1.6)
    qrs_s = rng.uniform(0.026, 0.034) if "WIDEQRS" in labels else rng.uniform(0.008, 0.013)
    period = fs * 60.0 / rate
    beats = []
    position = rng.uniform(0.1, 0.9) * period
    while position < num_samples:
        beats.append(int(position))
        position += period * rng.uniform(0.95, 1.05)
    impulses = np.zeros(num_samples)
    impulses[beats] = 1.0
    template = _beat_template(fs, qrs_s, amplitude)
    half = len(template) // 2
    base = np.convolve(impulses, template, mode="full")[half : half + num_samples]
    scales = rng.uniform(0.5, 1.2, size=len(LEADS)) * rng.choice([1.0, 1.0, -1.0], size=len(LEADS))
    scales[1] = 1.0  # lead II carries the reference beat train
    noise = rng.uniform(0.01, 0.03) * max(amplitude, 0.2)
    return scales[:, None] * base[None, :] + noise * rng.normal(size=(len(LEADS), num_samples))


def write_record(out_dir: Path, record_id: str, fs: float, signal: np.ndarray, age, sex: str, dx: list[str]) -> Path:
    adc = np.clip(np.rint(signal * GAIN), -32768, 32767).astype("<i2")
    header = [f"{record_id} {len(LEADS)} {fs:g} {signal.shape[1]}"]
    header += [f"{record_id}.dat 16 {GAIN:g} 0 {lead}" for lead in LEADS]
    header += [f"# Age: {age}", f"# Sex: {sex}", f"# Dx: {','.join(dx)}"]
    path = out_dir / f"{record_id}.hea"
    path.write_text("\n".join(header) + "\n")
    (out_dir / f"{record_id}.dat").write_bytes(adc.T.tobytes(order="C"))
    return path


def write_class_map(path: Path):
    rows = ["code,class_index,class_code"] + [f"{c},{i},{c}" for i, c in enumerate(CLASSES)]
    rows += [f"{alias},{CLASSES.index(target)},{target}" for alias, target in ALIASES.items()]
    path.write_text("\n".join(rows) + "\n")


def reward_matrix() -> np.ndarray:
    """Unit diagonal; partial credit falls off with distance in the class list."""
    idx = np.arange(len(CLASSES))
    return 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))


def write_weights(path: Path):
    w = reward_matrix()
    rows = ["," + ",".join(CLASSES)]
    rows += [c + "," + ",".join(repr(float(v)) for v in row) for c, row in zip(CLASSES, w)]
    path.write_text("\n".join(rows) + "\n")


def generate(out_dir, num_records: int, seed: int, rates_hz, duration_s) -> list[str]:
    """Write num_records records plus class_map.csv and weights.csv.

    Record j of a fixed layout gets sampling rate rates_hz[j % len(rates_hz)]
    and the j-th of num_records lengths spaced evenly over duration_s; the
    seed shuffles which record id gets which layout slot. The total number of
    samples (the preprocessing work) is therefore the same for every seed.
    Returns the record ids in layout order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    durations = np.linspace(duration_s[0], duration_s[1], num_records)
    slot_of = np.random.default_rng(np.random.SeedSequence([seed, 3])).permutation(num_records)
    by_slot = [""] * num_records
    for i, labels in enumerate(label_sets(num_records, seed)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
        slot = int(slot_of[i])
        fs = float(rates_hz[slot % len(rates_hz)])
        num_samples = int(durations[slot] * fs)
        signal = make_signal(rng, labels, fs, num_samples)
        dx = sorted(labels)
        if "TACHY" in labels and rng.random() < 0.5:
            dx = sorted((labels - {"TACHY"}) | {"STACH"})
        if rng.random() < 0.1:
            dx.append(UNMAPPED)
        age = "NaN" if rng.random() < 0.1 else str(int(rng.integers(18, 92)))
        sex = str(rng.choice(["Male", "Female", "Unknown"], p=[0.45, 0.45, 0.1]))
        record_id = f"rec{i:05d}"
        write_record(out, record_id, fs, signal, age, sex, dx)
        by_slot[slot] = record_id
    write_class_map(out / "class_map.csv")
    write_weights(out / "weights.csv")
    return by_slot
