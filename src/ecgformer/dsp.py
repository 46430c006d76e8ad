"""Signal preprocessing chain: resample, FIR bandpass, normalize, window.

The chain runs in a fixed order so the output contract holds for any input:
resample to the target rate, bandpass with a linear-phase windowed-sinc FIR,
scale each lead into [-1, 1] by its own max magnitude, then cut (or zero-pad)
a fixed-width window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentRangeError, ConfigError, ShapeError

DEGENERATE_LEAD_EPS = 1e-8


@dataclass
class PreprocessConfig:
    target_rate_hz: float = 500.0
    band_low_hz: float = 3.0
    band_high_hz: float = 45.0
    window_samples: int = 7680
    fir_taps: int = 513
    normalize_scope: str = "recording"  # or "window"

    def __post_init__(self):
        if not (0.0 < self.band_low_hz < self.band_high_hz < self.target_rate_hz / 2.0):
            raise ConfigError(
                f"band edges ({self.band_low_hz}, {self.band_high_hz}) Hz must satisfy "
                f"0 < low < high < Nyquist ({self.target_rate_hz / 2.0} Hz)"
            )
        if self.fir_taps % 2 != 1 or self.fir_taps < 3:
            raise ConfigError(f"fir_taps must be an odd integer >= 3, got {self.fir_taps}")
        if self.window_samples < 1:
            raise ConfigError("window_samples must be positive")
        if self.normalize_scope not in ("recording", "window"):
            raise ConfigError(f"normalize_scope must be 'recording' or 'window', got {self.normalize_scope!r}")


@dataclass
class ProcessedWindow:
    """Fixed-shape model input: [num_leads x window_samples] in [-1, 1].

    pad_start is the first zero-padded sample index (== window_samples when
    nothing was padded); source_offset is where the window starts in the
    filtered recording.
    """

    signal: np.ndarray
    pad_start: int
    source_offset: int

    @property
    def num_leads(self) -> int:
        return self.signal.shape[0]

    @property
    def window_samples(self) -> int:
        return self.signal.shape[1]


def _as_lead_matrix(signal) -> np.ndarray:
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim == 1:
        sig = sig[None, :]
    if sig.ndim != 2:
        raise ShapeError(f"expected a [leads x samples] matrix, got shape {sig.shape}")
    return sig


def resample(signal, from_hz: float, to_hz: float) -> np.ndarray:
    """Linear interpolation onto the continuous-time grid of the new rate.

    Output length is round(num_samples * to_hz / from_hz). Equal rates return
    the input values untouched. All leads are interpolated at once with
    `np.interp`'s arithmetic, so each lead gets the bytes `np.interp` gives it.
    """
    if from_hz <= 0 or to_hz <= 0:
        raise ArgumentRangeError(f"sampling rates must be positive, got {from_hz} -> {to_hz}")
    sig = _as_lead_matrix(signal)
    n = sig.shape[1]
    if n == 0:
        raise ShapeError("cannot resample an empty signal")
    if from_hz == to_hz:
        return sig.copy()
    m = int(round(n * to_hz / from_hz))
    # Position of output sample j on the input index grid: j * from/to.
    positions = np.arange(m, dtype=np.float64) * (from_hz / to_hz)
    left = np.minimum(np.floor(positions), n - 1)
    fraction = positions - left
    j = left.astype(np.intp)
    # Strictly between two samples: slope times the distance past the left
    # sample, plus the left sample, as np.interp computes it. On a sample, or
    # past the last one, the sample itself.
    between = (fraction > 0) & (positions < n - 1)
    out = below = np.take(sig, j, axis=1)
    if between.any():  # not on integer decimation, where every output lands on a sample
        out = np.take(sig, np.minimum(j + 1, n - 1), axis=1)
        out -= below
        out *= fraction
        out += below
        np.copyto(out, below, where=~between)
    # Rounding up can push the last output position a fraction of a sample
    # past the input grid; extend the final segment linearly there.
    overhang = positions > n - 1
    if overhang.any() and n >= 2:
        last_slope = sig[:, n - 1 : n] - sig[:, n - 2 : n - 1]
        out[:, overhang] = sig[:, n - 1 : n] + (positions[overhang] - (n - 1)) * last_slope
    return out


def _hamming_lowpass(cutoff_hz: float, fs_hz: float, num_taps: int) -> np.ndarray:
    """Windowed-sinc low-pass with unit DC gain and bitwise-symmetric taps."""
    m = num_taps - 1
    n = np.arange(num_taps, dtype=np.float64) - m / 2.0  # integer-valued, symmetric
    fc = cutoff_hz / fs_hz
    h = 2.0 * fc * np.sinc(2.0 * fc * n)
    # Hamming window written on centered indices so w[k] == w[m-k] exactly.
    w = 0.54 + 0.46 * np.cos(2.0 * np.pi * n / m)
    h = h * w
    return h / h.sum()


def design_bandpass(config: PreprocessConfig) -> np.ndarray:
    """Difference of two Hamming-windowed sinc low-passes (high minus low).

    Linear phase by construction: taps are exactly symmetric about the center.
    DC gain is zero because each low-pass is normalized to unit DC gain first.
    Designed once per (rate, band, tap count) and shared read-only.
    """
    return _bandpass(config.target_rate_hz, config.band_low_hz, config.band_high_hz, config.fir_taps)


@functools.lru_cache(maxsize=32)
def _bandpass(fs_hz: float, low_hz: float, high_hz: float, num_taps: int) -> np.ndarray:
    taps = _hamming_lowpass(high_hz, fs_hz, num_taps) - _hamming_lowpass(low_hz, fs_hz, num_taps)
    taps.flags.writeable = False
    return taps


@functools.lru_cache(maxsize=1024)
def fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c that is at least n (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            # odd = 3**b * 5**c times the smallest power of two reaching n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


@functools.lru_cache(maxsize=64)
def _tap_spectrum(taps: bytes, size: int) -> np.ndarray:
    """`np.fft.rfft` of the float64 taps held in `taps`, zero-padded to size; read-only, as it is shared."""
    spectrum = np.fft.rfft(np.frombuffer(taps, dtype=np.float64), size)
    spectrum.flags.writeable = False
    return spectrum


def filter_signal(signal, taps: np.ndarray) -> np.ndarray:
    """Per-lead convolution, zero-extended at the edges, group-delay compensated.

    Output sample j lines up with input sample j (the (taps-1)/2 delay of the
    symmetric kernel is removed); output length equals input length.

    The convolution is one real-FFT product over all leads, zero-padded to
    `fft_length(n + taps - 1)` so no wrap-around reaches the output. The taps'
    spectrum is computed once per (taps, FFT length) and shared read-only by
    every later call, from any thread. It differs from the direct sum
    (`np.convolve`) by rounding only: every lead stays within 1e-13 of the
    lead's largest direct-form magnitude. A lead's bytes do not depend on the
    other leads or on the input's memory layout.
    """
    sig = _as_lead_matrix(signal)
    n = sig.shape[1]
    if n < 1:
        raise ShapeError("signal must have at least one sample")
    taps = np.asarray(taps, dtype=np.float64)
    size = fft_length(n + len(taps) - 1)
    spectrum = np.fft.rfft(sig, size, axis=1)
    spectrum *= _tap_spectrum(taps.tobytes(), size)
    delay = (len(taps) - 1) // 2
    return np.fft.irfft(spectrum, size, axis=1)[:, delay : delay + n].copy()


def normalize(signal) -> np.ndarray:
    """Scale each lead by its own max magnitude into [-1, 1].

    Leads whose max magnitude is below 1e-8 come back as all zeros.
    """
    sig = _as_lead_matrix(signal)
    if not sig.shape[1]:
        return np.zeros_like(sig)
    peak = np.abs(sig).max(axis=1, keepdims=True)
    live = peak >= DEGENERATE_LEAD_EPS
    # Dead leads divide by 1 and are then zeroed: a masked divide is several times slower.
    out = sig / np.where(live, peak, 1.0)
    out[~live[:, 0]] = 0.0
    return out


def extract_window(signal, config: PreprocessConfig, offset_policy: str = "start",
                   seed: int | np.random.Generator | None = None) -> ProcessedWindow:
    """Cut a window_samples-wide window, zero-padding the tail of short signals.

    offset_policy: "start", "center", or "random" (requires seed; offset drawn
    uniformly over the valid range). `seed` is a non-negative int, which seeds
    a new generator, or a `np.random.Generator`, which is drawn from as it
    stands; `np.random.default_rng(s)` gives the window of the int s. A signal
    shorter than the window draws nothing.
    """
    sig = _as_lead_matrix(signal)
    num_leads, n = sig.shape
    if n < 1:
        raise ShapeError("signal must have at least one sample")
    w = config.window_samples
    out = np.zeros((num_leads, w), dtype=np.float64)
    if n >= w:
        if offset_policy == "start":
            offset = 0
        elif offset_policy == "center":
            offset = (n - w) // 2
        elif offset_policy == "random":
            if seed is None:
                raise ArgumentRangeError("offset_policy 'random' requires a seed")
            offset = int(np.random.default_rng(seed).integers(0, n - w + 1))
        else:
            raise ArgumentRangeError(f"unknown offset policy {offset_policy!r}")
        out[:] = sig[:, offset : offset + w]
        pad_start = w
    else:
        offset = 0
        out[:, :n] = sig
        pad_start = n
    return ProcessedWindow(signal=out, pad_start=pad_start, source_offset=offset)


def _normalize_at(signal: np.ndarray, config: PreprocessConfig, scope: str) -> np.ndarray:
    """Normalize when the chain has reached the configured normalize_scope."""
    return normalize(signal) if config.normalize_scope == scope else signal


def process_recording(signal, from_hz: float, config: PreprocessConfig) -> np.ndarray:
    """Recording half of the chain: resample -> bandpass -> normalize (scope "recording")."""
    sig = filter_signal(resample(signal, from_hz, config.target_rate_hz), design_bandpass(config))
    return _normalize_at(sig, config, "recording")


def cut_window(recording, config: PreprocessConfig, offset_policy: str = "start",
               seed: int | np.random.Generator | None = None) -> ProcessedWindow:
    """Window half of the chain: cut the window -> normalize (scope "window").

    `seed` is an int or a `np.random.Generator` drawn from as it stands, as
    in `extract_window`.
    """
    window = extract_window(recording, config, offset_policy, seed)
    return ProcessedWindow(_normalize_at(window.signal, config, "window"), window.pad_start, window.source_offset)


def preprocess(signal, from_hz: float, config: PreprocessConfig, offset_policy: str = "start", seed: int | None = None) -> ProcessedWindow:
    """Full chain: resample -> bandpass -> normalize -> window.

    With normalize_scope == "window" the normalization runs on the extracted
    window instead of the whole filtered recording. `predict` and `attention`
    run it; training and `evaluate` keep each recording and run the halves.
    """
    return cut_window(process_recording(signal, from_hz, config), config, offset_policy, seed)
