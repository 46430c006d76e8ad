import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from ecgformer import dsp, features
from ecgformer.errors import ArgumentRangeError, ConfigError, ShapeError

from oracles import dtft_magnitude, full_convolution_filter, per_lead_interp_resample, per_lead_normalize

# The FFT filter may differ from the direct sum by rounding only: at most this
# fraction of a lead's largest direct-form magnitude.
FFT_BOUND = 1e-13


def assert_within_bound_of_the_direct_form(x, taps):
    got = dsp.filter_signal(x, taps)
    want = full_convolution_filter(x, taps)
    assert got.shape == want.shape
    for lead, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= FFT_BOUND * np.max(np.abs(w)), (x.shape, len(taps), lead)


def detector_taps(n):
    """The R-peak detector's bandpass, shortened to 2 * (n // 2) - 1 taps below 201 samples."""
    return dsp.design_bandpass(dsp.PreprocessConfig(target_rate_hz=100.0, band_low_hz=5.0, band_high_hz=15.0,
                                                    fir_taps=min(201, 2 * (n // 2) - 1)))


class TestResample:
    def test_length_arithmetic(self):
        x = np.zeros((1, 5000))
        assert dsp.resample(x, 1000, 500).shape == (1, 2500)

    def test_identity_rates_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 777))
        out = dsp.resample(x, 250, 250)
        np.testing.assert_array_equal(out, x)

    def test_analytic_sinusoid_oracle(self):
        # 5 Hz sinusoid sampled at 257 Hz, resampled to 500 Hz, compared to
        # the analytic waveform evaluated at the new sample times.
        f, from_hz, to_hz, dur = 5.0, 257.0, 500.0, 4.0
        n = int(dur * from_hz)
        t_in = np.arange(n) / from_hz
        x = np.sin(2 * np.pi * f * t_in)
        out = dsp.resample(x, from_hz, to_hz)[0]
        t_out = np.arange(out.size) / to_hz
        want = np.sin(2 * np.pi * f * t_out)
        assert np.max(np.abs(out - want)) < 0.01

    def test_empty_signal_rejected(self):
        with pytest.raises(ShapeError):
            dsp.resample(np.zeros((2, 0)), 500, 250)

    def test_bad_rates_rejected(self):
        with pytest.raises(ArgumentRangeError):
            dsp.resample(np.zeros((1, 10)), 0, 500)

    @pytest.mark.parametrize("n, from_hz, to_hz", [
        (1, 250.0, 500.0), (1, 500.0, 250.0), (2, 3.0, 5.0), (2, 500.0, 257.0), (3, 257.0, 500.0),
        (777, 257.0, 500.0), (5000, 1000.0, 500.0), (3001, 1000.0, 257.0), (1234, 360.0, 500.0),
    ])
    def test_same_bytes_as_per_lead_interp(self, n, from_hz, to_hz):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n))
        x[1, ::7] = -0.0
        assert dsp.resample(x, from_hz, to_hz).tobytes() == per_lead_interp_resample(x, from_hz, to_hz).tobytes()

    def test_overhang_extends_the_last_segment(self):
        # Two samples at 3 Hz become round(2 * 5 / 3) = 3 at 5 Hz: positions 0, 0.6 and 1.2, the last past the end.
        x = np.array([[1.0, 2.0], [0.5, -0.25]])
        out = dsp.resample(x, 3.0, 5.0)
        assert out.tobytes() == per_lead_interp_resample(x, 3.0, 5.0).tobytes()
        np.testing.assert_allclose(out[:, 2], [2.2, -0.4], rtol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        from_hz=st.sampled_from([128.0, 257.0, 360.0, 500.0, 1000.0]),
        to_hz=st.sampled_from([100.0, 257.0, 500.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_same_bytes_as_per_lead_interp_on_random_signals(self, n, from_hz, to_hz, seed):
        x = np.random.default_rng(seed).normal(size=(2, n))
        assert dsp.resample(x, from_hz, to_hz).tobytes() == per_lead_interp_resample(x, from_hz, to_hz).tobytes()


class TestBandpassDesign:
    def test_taps_exactly_symmetric(self):
        taps = dsp.design_bandpass(dsp.PreprocessConfig())
        np.testing.assert_array_equal(taps, taps[::-1])

    def test_dc_gain_near_zero(self):
        taps = dsp.design_bandpass(dsp.PreprocessConfig())
        assert abs(dtft_magnitude(taps, [0.0], 500.0)[0]) < 0.01
        assert abs(taps.sum()) < 0.01

    def test_frequency_response_oracle(self):
        taps = dsp.design_bandpass(dsp.PreprocessConfig(fir_taps=513))
        mags = dtft_magnitude(taps, [10.0, 20.0, 30.0, 40.0, 100.0], 500.0)
        band = 10 ** (1.0 / 20.0)  # +-1 dB
        for m in mags[:4]:
            assert 1.0 / band < m < band
        assert mags[4] < 0.01

    def test_response_matches_scipy_freqz(self):
        # Independent evaluation path for the same transfer function.
        taps = dsp.design_bandpass(dsp.PreprocessConfig())
        freqs = np.array([0.0, 5.0, 20.0, 44.0, 60.0, 120.0])
        w, h = sps.freqz(taps, worN=freqs * 2 * np.pi / 500.0)
        np.testing.assert_allclose(np.abs(h), dtft_magnitude(taps, freqs, 500.0), atol=1e-10)

    def test_nyquist_violation_rejected(self):
        with pytest.raises(ConfigError):
            dsp.PreprocessConfig(band_high_hz=260.0)
        with pytest.raises(ConfigError):
            dsp.PreprocessConfig(band_low_hz=-1.0)
        with pytest.raises(ConfigError):
            dsp.PreprocessConfig(fir_taps=512)


class TestFilterSignal:
    def setup_method(self):
        self.cfg = dsp.PreprocessConfig()
        self.taps = dsp.design_bandpass(self.cfg)
        self.trans = (self.cfg.fir_taps - 1) // 2

    def test_zero_in_zero_out(self):
        out = dsp.filter_signal(np.zeros((2, 4000)), self.taps)
        np.testing.assert_array_equal(out, np.zeros((2, 4000)))

    def test_dc_rejected_in_steady_state(self):
        # The DTFT-at-zero oracle describes steady state; the first and last
        # (taps-1)/2 samples are edge transients of the zero-extension.
        x = np.ones((1, 6000))
        out = dsp.filter_signal(x, self.taps)[0]
        assert np.max(np.abs(out[self.trans : -self.trans])) < 0.01

    def test_edge_behavior_is_zero_extension(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=2000)
        out = dsp.filter_signal(x, self.taps)[0]
        padded = np.concatenate([np.zeros(self.trans), x, np.zeros(self.trans)])
        want = np.convolve(padded, self.taps, mode="valid")
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_passband_sinusoid_amplitude(self):
        fs, f = 500.0, 20.0
        t = np.arange(10000) / fs
        x = np.sin(2 * np.pi * f * t)
        out = dsp.filter_signal(x, self.taps)[0]
        steady = out[self.trans : -self.trans]
        ratio = np.max(np.abs(steady)) / 1.0
        assert 0.89 < ratio < 1.12

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3000))
        y = rng.normal(size=(1, 3000))
        a, b = 2.5, -1.25
        lhs = dsp.filter_signal(a * x + b * y, self.taps)
        rhs = a * dsp.filter_signal(x, self.taps) + b * dsp.filter_signal(y, self.taps)
        scale = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_output_length_preserved(self):
        out = dsp.filter_signal(np.ones((3, 123)), self.taps)
        assert out.shape == (3, 123)

    @pytest.mark.parametrize("num_taps", [513, 201])
    def test_within_the_bound_of_the_full_convolution(self, num_taps):
        taps = dsp.design_bandpass(dsp.PreprocessConfig(fir_taps=num_taps))
        rng = np.random.default_rng(num_taps)
        for n in [*range(1, num_taps + 3), 5000, 12345]:
            assert_within_bound_of_the_direct_form(rng.normal(size=(2, n)), taps)

    def test_within_the_bound_at_the_shortened_detector_taps(self):
        rng = np.random.default_rng(3)
        for n in range(4, 204):
            assert_within_bound_of_the_direct_form(rng.normal(size=(1, n)), detector_taps(n))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=700),
        kernel=st.sampled_from(["513", "201", "detector"]),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_within_the_bound_on_random_signals(self, n, kernel, scale, seed):
        if kernel == "detector":
            n = max(n, 4)  # the detector needs at least three taps
            taps = detector_taps(n)
        else:
            taps = dsp.design_bandpass(dsp.PreprocessConfig(fir_taps=int(kernel)))
        x = np.random.default_rng(seed).normal(size=(3, n)) * scale
        x[1] = 0.0  # a silent lead's bound is 0: it must come out exactly silent
        assert_within_bound_of_the_direct_form(x, taps)

    @pytest.mark.parametrize("n", [1, 100, 512, 513, 514, 4000, 5000, 6001])
    def test_a_leads_bytes_depend_only_on_the_lead(self, n):
        # Training filters a record's leads together; these bytes must not
        # depend on which other leads came along or on the memory layout.
        x = np.random.default_rng(n).normal(size=(12, n))
        whole = dsp.filter_signal(x, self.taps)
        for lead in range(12):
            assert whole[lead].tobytes() == dsp.filter_signal(x[lead], self.taps).tobytes(), lead
        misaligned = np.empty(x.nbytes + 1, dtype=np.uint8)[1:].view(np.float64).reshape(x.shape)
        misaligned[:] = x
        assert not misaligned.flags.aligned
        assert dsp.filter_signal(misaligned, self.taps).tobytes() == whole.tobytes()
        assert dsp.filter_signal(np.asfortranarray(x), self.taps).tobytes() == whole.tobytes()

    def test_fft_length_is_the_smallest_5_smooth_length_at_least_n(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        lengths = [k for k in range(1, 5121) if smooth(k)]  # 5120 = 2**10 * 5 is the first one past 5000
        for n in range(1, 5001):
            assert dsp.fft_length(n) == next(k for k in lengths if k >= n), n


class TestNormalize:
    def test_known_lead(self):
        out = dsp.normalize(np.array([[0.5, -2.0, 1.0]]))
        np.testing.assert_allclose(out[0], [0.25, -1.0, 0.5])

    def test_zero_lead_stays_zero(self):
        out = dsp.normalize(np.zeros((1, 8)))
        np.testing.assert_array_equal(out, np.zeros((1, 8)))

    def test_max_abs_is_exactly_zero_or_one(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.normal(scale=rng.uniform(1e-6, 1e3), size=(2, 50))
            out = dsp.normalize(x)
            for lead in out:
                assert np.max(np.abs(lead)) in (0.0, 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 300)) * 37.0
        once = dsp.normalize(x)
        twice = dsp.normalize(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 500, 4097])
    def test_same_bytes_as_per_lead_normalize(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.normal(size=(6, n)) * rng.uniform(1e-3, 1e3, size=(6, 1))
            x[1] = 0.0  # silent
            x[2] *= 1e-9 / max(np.max(np.abs(x[2])) if n else 1.0, 1e-300)  # below 1e-8, not zero
            x[3, rng.random(n) < 0.3] = -0.0
            x[4] = -0.0
            x[5, : n // 2] = -x[5, : n // 2]
            assert dsp.normalize(x).tobytes() == per_lead_normalize(x).tobytes(), n

    @settings(max_examples=60, deadline=None)
    @given(leads=st.integers(1, 5), n=st.integers(0, 300), scale=st.floats(1e-12, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_per_lead_normalize_on_random_signals(self, leads, n, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(leads, n)) * scale * rng.uniform(0.0, 1.0, size=(leads, 1))
        x[rng.random(x.shape) < 0.1] = -0.0
        assert dsp.normalize(x).tobytes() == per_lead_normalize(x).tobytes()


class TestSharedCaches:
    """The tap spectrum and the detector's bandpass are computed once and shared: they must be read-only, and a
    cached result must be the bytes a fresh computation gives."""

    def test_cached_arrays_are_read_only(self):
        taps = dsp.design_bandpass(dsp.PreprocessConfig())
        dsp.filter_signal(np.ones((2, 1000)), taps)
        spectrum = dsp._tap_spectrum(taps.tobytes(), dsp.fft_length(1000 + len(taps) - 1))
        qrs = features._qrs_bandpass(500.0, features.DETECTOR_TAPS)
        for shared in (spectrum, qrs):
            with pytest.raises(ValueError):
                shared[0] = 1.0
            with pytest.raises(ValueError):
                shared *= 2.0

    @pytest.mark.parametrize("fs, low, high, num_taps", [(500.0, 3.0, 45.0, 513), (500, 3, 45, 513),
                                                         (257.0, 0.5, 100.0, 129), (100.0, 5.0, 15.0, 3)])
    def test_designed_taps_are_read_only_and_the_bytes_of_a_fresh_design(self, fs, low, high, num_taps):
        dsp._bandpass.cache_clear()
        values = dict(target_rate_hz=fs, band_low_hz=low, band_high_hz=high, fir_taps=num_taps)
        fresh = dsp._hamming_lowpass(high, fs, num_taps) - dsp._hamming_lowpass(low, fs, num_taps)
        for _ in range(2):  # designed, then from the cache
            taps = dsp.design_bandpass(dsp.PreprocessConfig(**values))
            assert taps.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                taps[0] = 1.0
        assert dsp._bandpass.cache_info().hits == 1 and dsp._bandpass.cache_info().maxsize is not None
        # Each of the four values the design reads is part of the key.
        for change in (dict(target_rate_hz=2 * fs), dict(band_low_hz=low / 2), dict(band_high_hz=high / 2),
                       dict(fir_taps=num_taps + 2)):
            assert dsp.design_bandpass(dsp.PreprocessConfig(**{**values, **change})).tobytes() != taps.tobytes()

    def test_detector_taps_are_the_designed_bandpass(self):
        for fs, num_taps in [(257.0, 201), (500.0, 201), (1000.0, 201), (100.0, 99)]:
            want = dsp.design_bandpass(dsp.PreprocessConfig(target_rate_hz=fs, band_low_hz=features.QRS_BAND_HZ[0],
                                                            band_high_hz=features.QRS_BAND_HZ[1], fir_taps=num_taps))
            assert features._qrs_bandpass(fs, num_taps).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 300, 5000])
    def test_fresh_taps_give_the_bytes_of_an_empty_cache(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n))
        taps = dsp.design_bandpass(dsp.PreprocessConfig())
        dsp._tap_spectrum.cache_clear()
        dsp.fft_length.cache_clear()
        cold = dsp.filter_signal(x, taps)
        for fresh in (taps.copy(), list(taps), taps[::-1].copy()[::-1], np.asfortranarray(taps)):
            assert dsp.filter_signal(x, fresh).tobytes() == cold.tobytes()
        assert dsp._tap_spectrum.cache_info().hits >= 4

    def test_other_taps_of_the_same_length_are_not_confused(self):
        x = np.random.default_rng(5).normal(size=(1, 2000))
        a = dsp.design_bandpass(dsp.PreprocessConfig())
        b = dsp.design_bandpass(dsp.PreprocessConfig(band_low_hz=1.0))
        dsp.filter_signal(x, a)
        dsp._tap_spectrum.cache_clear()
        want = dsp.filter_signal(x, b)
        dsp.filter_signal(x, a)
        assert dsp.filter_signal(x, b).tobytes() == want.tobytes()

    def test_threads_filling_the_caches_at_once_get_the_serial_bytes(self):
        # More threads than cores, switching as often as the interpreter allows, all starting from empty caches.
        rng = np.random.default_rng(9)
        signals = [rng.normal(size=(2, n)) for n in (300, 1000, 1001, 2500, 5000)]
        tap_sets = [dsp.design_bandpass(dsp.PreprocessConfig(fir_taps=t)) for t in (101, 513)]
        jobs = [("filter", s, t) for s in signals for t in tap_sets]
        jobs += [("peaks", s[0], fs) for s in signals for fs in (257.0, 500.0) if s.shape[1] >= fs]
        jobs *= 3

        def run(job):
            kind, x, arg = job
            out = dsp.filter_signal(x, arg) if kind == "filter" else features.detect_r_peaks(x, arg).peak_indices
            return out.tobytes()

        want = [run(job) for job in jobs]
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cached in (dsp._tap_spectrum, dsp.fft_length, features._qrs_bandpass):
                cached.cache_clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, job) for job in jobs]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert got == want

    def test_caches_are_bounded(self):
        for cached in (dsp._tap_spectrum, dsp.fft_length, features._qrs_bandpass):
            assert cached.cache_info().maxsize is not None


class TestExtractWindow:
    def setup_method(self):
        self.cfg = dsp.PreprocessConfig()

    def test_long_signal_start_policy(self):
        x = np.arange(10000, dtype=float)[None, :]
        w = dsp.extract_window(x, self.cfg, "start")
        assert w.pad_start == 7680
        np.testing.assert_array_equal(w.signal[0], x[0, :7680])

    def test_short_signal_zero_padded(self):
        x = np.arange(5000, dtype=float)[None, :] / 5000.0
        w = dsp.extract_window(x, self.cfg, "start")
        assert w.pad_start == 5000
        np.testing.assert_array_equal(w.signal[0, :5000], x[0])
        np.testing.assert_array_equal(w.signal[0, 5000:], np.zeros(2680))

    def test_center_policy(self):
        x = np.arange(7682, dtype=float)[None, :]
        w = dsp.extract_window(x, self.cfg, "center")
        assert w.source_offset == 1

    def test_random_policy_deterministic_and_in_range(self):
        x = np.random.default_rng(0).normal(size=(1, 9000))
        for seed in range(1000):
            w1 = dsp.extract_window(x, self.cfg, "random", seed=seed)
            w2 = dsp.extract_window(x, self.cfg, "random", seed=seed)
            assert w1.source_offset == w2.source_offset
            assert 0 <= w1.source_offset <= 9000 - 7680

    def test_random_policy_takes_an_int_or_a_generator(self):
        x = np.random.default_rng(0).normal(size=(2, 9000))
        for seed in (0, 7, 2**32 - 1, 2**64 + 1):
            by_int = dsp.extract_window(x, self.cfg, "random", seed=seed)
            by_generator = dsp.extract_window(x, self.cfg, "random", seed=np.random.default_rng(seed))
            assert by_int.source_offset == by_generator.source_offset
            np.testing.assert_array_equal(by_int.signal, by_generator.signal)
            cut = dsp.cut_window(x, self.cfg, "random", seed=np.random.default_rng(seed))
            assert cut.source_offset == dsp.cut_window(x, self.cfg, "random", seed=seed).source_offset

    def test_random_policy_draws_from_a_generator_as_it_stands(self):
        x = np.zeros((1, 9000))
        shared, fresh = np.random.default_rng(3), np.random.default_rng(3)
        offsets = [dsp.extract_window(x, self.cfg, "random", seed=shared).source_offset for _ in range(3)]
        assert offsets == [int(fresh.integers(0, 9000 - 7680 + 1)) for _ in range(3)]

    def test_identity_on_window_length_signal(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 7680))
        w = dsp.extract_window(x, self.cfg, "start")
        np.testing.assert_array_equal(w.signal, x)


class TestPipeline:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=64, max_value=12000),
        rate=st.sampled_from([128.0, 257.0, 500.0, 977.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pipeline_contract(self, n, rate, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, n)) * rng.uniform(0.1, 10.0)
        cfg = dsp.PreprocessConfig()
        w = dsp.preprocess(x, rate, cfg, "random", seed=seed)
        assert w.signal.shape == (2, 7680)
        assert np.max(np.abs(w.signal)) <= 1.0
        np.testing.assert_array_equal(w.signal[:, w.pad_start :], 0.0)

    def test_window_scope_normalization(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 9000))
        cfg = dsp.PreprocessConfig(normalize_scope="window")
        w = dsp.preprocess(x, 500.0, cfg, "start")
        for lead in w.signal:
            assert np.max(np.abs(lead)) == 1.0

    def test_select_then_window_commutes(self):
        # Windowing acts per lead, so restricting leads before or after
        # extraction gives the same rows.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 9000))
        cfg = dsp.PreprocessConfig()
        sub = [0, 2]
        w_then_select = dsp.extract_window(x, cfg, "random", seed=11).signal[sub]
        select_then_w = dsp.extract_window(x[sub], cfg, "random", seed=11).signal
        np.testing.assert_array_equal(w_then_select, select_then_w)

    @pytest.mark.parametrize("scope", ["recording", "window"])
    def test_halves_compose_to_the_whole_chain(self, scope):
        # Training caches the recording half and cuts windows from it; predict
        # runs the whole chain. Both must give the same window bytes.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 9000))
        cfg = dsp.PreprocessConfig(normalize_scope=scope)
        recording = dsp.process_recording(x, 977.0, cfg)
        for policy, seed in [("start", None), ("random", 5)]:
            whole = dsp.preprocess(x, 977.0, cfg, policy, seed)
            halves = dsp.cut_window(recording, cfg, policy, seed)
            assert whole.signal.tobytes() == halves.signal.tobytes()
            assert (whole.pad_start, whole.source_offset) == (halves.pad_start, halves.source_offset)
