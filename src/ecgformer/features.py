"""Per-record static (wide) features: demographics plus R-peak statistics.

The detector follows the classic energy-envelope recipe: bandpass the lead
to the QRS band, differentiate, square, integrate over a 150 ms window, then
walk the envelope peaks with an adaptive signal/noise threshold and a 200 ms
refractory period. All filter stages are zero-phase aligned so detected
indices line up with the raw waveform.

The feature lead's moments are population moments of `centered = x - mean`,
with the powers as products: `squared = centered * centered` gives m2,
`squared * centered` m3 and `squared * squared` m4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import ArgumentRangeError, RecordFormatError, ShapeError
from .record_io import EcgRecord

D_WIDE = 22

FEATURE_NAMES = [
    "age_scaled",
    "sex_male",
    "rr_mean_s",
    "rr_median_s",
    "rr_std_s",
    "rr_min_s",
    "rr_max_s",
    "rr_range_s",
    "heart_rate_scaled",
    "rmssd_s",
    "pnn50",
    "peaks_per_second",
    "r_amp_mean",
    "r_amp_std",
    "r_amp_min",
    "r_amp_max",
    "signal_mean",
    "signal_std",
    "signal_skewness",
    "signal_kurtosis",
    "signal_min",
    "signal_max",
]

REFRACTORY_S = 0.2
INTEGRATION_WINDOW_S = 0.150
QRS_BAND_HZ = (5.0, 15.0)
DETECTOR_TAPS = 201


@dataclass
class FeatureConfig:
    impute_age_years: float = 60.0
    age_scale: float = 100.0
    heart_rate_scale: float = 300.0
    feature_lead: str = "II"


@dataclass
class RPeakTrain:
    peak_indices: np.ndarray  # strictly ascending sample indices
    sampling_rate_hz: float

    def __post_init__(self):
        self.peak_indices = np.asarray(self.peak_indices, dtype=np.int64)
        diffs = np.diff(self.peak_indices)
        if diffs.size and np.any(diffs <= 0):
            raise ShapeError("peak indices must be strictly ascending")
        if diffs.size and np.min(diffs) / self.sampling_rate_hz < REFRACTORY_S:
            raise ShapeError(f"consecutive peaks closer than the {REFRACTORY_S}s refractory period")

    def rr_intervals_s(self) -> np.ndarray:
        return np.diff(self.peak_indices) / self.sampling_rate_hz


@dataclass
class WideFeatures:
    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (D_WIDE,):
            raise ShapeError(f"wide feature vector must have length {D_WIDE}, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ShapeError("wide features must all be finite")


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices strictly greater than both neighbours."""
    if x.size < 3:
        return np.empty(0, dtype=np.int64)
    inner = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    return np.flatnonzero(inner) + 1


@functools.lru_cache(maxsize=32)
def _qrs_bandpass(fs_hz: float, num_taps: int) -> np.ndarray:
    """The detector's QRS bandpass at this rate and tap count (read-only), without building a config per record."""
    return dsp.design_bandpass(dsp.PreprocessConfig(target_rate_hz=fs_hz, band_low_hz=QRS_BAND_HZ[0],
                                                    band_high_hz=QRS_BAND_HZ[1], fir_taps=num_taps))


def detect_r_peaks(lead_signal, fs_hz: float) -> RPeakTrain:
    """Locate R peaks in one lead; requires at least one second of signal."""
    x = np.asarray(lead_signal, dtype=np.float64).ravel()
    if fs_hz <= 0:
        raise ArgumentRangeError(f"sampling rate must be positive, got {fs_hz}")
    if x.size < fs_hz:
        raise ArgumentRangeError(f"need at least 1 s of signal ({int(fs_hz)} samples), got {x.size}")

    taps = _qrs_bandpass(fs_hz, min(DETECTOR_TAPS, 2 * (x.size // 2) - 1))
    bandpassed = dsp.filter_signal(x, taps)[0]
    derivative = np.diff(bandpassed, prepend=bandpassed[0])
    squared = derivative * derivative
    win = max(int(round(INTEGRATION_WINDOW_S * fs_hz)), 1)
    envelope = np.convolve(squared, np.full(win, 1.0 / win), mode="same")

    candidates = _local_maxima(envelope)
    refractory = int(round(REFRACTORY_S * fs_hz))
    half_search = int(round(0.1 * fs_hz))

    # Adaptive threshold in the style of running signal/noise peak estimates.
    signal_level = float(np.max(envelope[: int(2 * fs_hz)])) * 0.5 if envelope.size else 0.0
    noise_level = float(np.mean(envelope[: int(2 * fs_hz)])) * 0.5 if envelope.size else 0.0
    accepted: list[int] = []
    last_peak = -refractory - 1
    # The walk runs on Python floats and ints: the same double arithmetic as
    # NumPy scalars, without their per-operation overhead.
    for idx, value in zip(candidates.tolist(), envelope[candidates].tolist()):
        threshold = noise_level + 0.25 * (signal_level - noise_level)
        if value <= 0:
            continue
        if idx - last_peak <= refractory:
            continue
        if value > threshold:
            # Snap to the strongest raw deflection near the envelope peak.
            lo = max(idx - half_search, 0)
            hi = min(idx + half_search + 1, x.size)
            refined = lo + int(np.argmax(np.abs(x[lo:hi])))
            if accepted and refined - accepted[-1] <= refractory:
                continue
            accepted.append(refined)
            last_peak = idx
            signal_level = 0.125 * value + 0.875 * signal_level
        else:
            noise_level = 0.125 * value + 0.875 * noise_level
    return RPeakTrain(np.asarray(accepted, dtype=np.int64), fs_hz)


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, std, skewness and excess kurtosis; all but the mean are 0 when m2 < 1e-24."""
    mean = float(x.mean())
    centered = x - mean
    squared = centered * centered
    m2 = float(squared.mean())
    if m2 < 1e-24:
        return mean, 0.0, 0.0, 0.0
    m3 = float((squared * centered).mean())
    m4 = float((squared * squared).mean())
    return mean, m2**0.5, m3 / m2**1.5, m4 / m2**2 - 3.0


def compute_wide_features(record: EcgRecord, peaks: RPeakTrain, config: FeatureConfig | None = None) -> WideFeatures:
    """The fixed 22-feature vector; degenerate inputs are imputed, never NaN.

    Samples that are finite but so large that a feature overflows (a square
    of a sample near 1e300) make the record malformed: RecordFormatError
    naming the record."""
    config = config or FeatureConfig()
    lead = _feature_lead(record, config)
    fs = record.sampling_rate_hz
    values = np.zeros(D_WIDE)

    age = config.impute_age_years if record.age_years is None else record.age_years
    values[0] = age / config.age_scale
    values[1] = 1.0 if record.sex == "male" else 0.0

    idx = peaks.peak_indices
    if idx.size >= 2:
        rr = peaks.rr_intervals_s()
        values[2] = rr.mean()
        values[3] = float(np.median(rr))
        values[4] = rr.std()
        values[5] = rr.min()
        values[6] = rr.max()
        values[7] = rr.max() - rr.min()
        values[8] = (60.0 / rr.mean()) / config.heart_rate_scale
        drr = np.diff(rr)
        values[9] = float(np.sqrt((drr**2).mean())) if drr.size else 0.0
        values[10] = float((np.abs(drr) > 0.05).mean()) if drr.size else 0.0
        values[11] = idx.size / (record.num_samples / fs)
        amps = lead[idx]
        values[12] = amps.mean()
        values[13] = amps.std()
        values[14] = amps.min()
        values[15] = amps.max()

    mean, std, skew, kurt = _moments(lead)
    values[16] = mean
    values[17] = std
    values[18] = skew
    values[19] = kurt
    values[20] = lead.min()
    values[21] = lead.max()
    if not np.isfinite(values).all():
        raise RecordFormatError(f"{record.record_id}: its samples overflow the wide features "
                                f"({', '.join(n for n, v in zip(FEATURE_NAMES, values) if not np.isfinite(v))})")
    return WideFeatures(values, list(FEATURE_NAMES))


def feature_lead_name(lead_names: list[str], config: FeatureConfig) -> str:
    """The lead the features read: `config.feature_lead`, or the first lead when the record has none by that name."""
    return config.feature_lead if config.feature_lead in lead_names else lead_names[0]


def _feature_lead(record: EcgRecord, config: FeatureConfig) -> np.ndarray:
    return record.signal[record.lead_names.index(feature_lead_name(record.lead_names, config))]


def record_features(record: EcgRecord, config: FeatureConfig | None = None) -> WideFeatures:
    """Detect peaks on the feature lead and build the wide vector. A record
    shorter than 1 s, or sampled at no more than twice the QRS band's upper
    edge (30 Hz), where that band cannot be designed, gets no peaks, so its
    peak features are imputed. An overflow on the way is no warning: it ends
    as the RecordFormatError of `compute_wide_features`."""
    config = config or FeatureConfig()
    lead = _feature_lead(record, config)
    fs = record.sampling_rate_hz
    with np.errstate(over="ignore", invalid="ignore"):
        if record.num_samples >= fs and fs > 2 * QRS_BAND_HZ[1]:
            peaks = detect_r_peaks(lead, fs)
        else:
            peaks = RPeakTrain(np.empty(0, dtype=np.int64), fs)
        return compute_wide_features(record, peaks, config)
