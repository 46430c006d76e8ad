from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from ecgformer import dsp, features
from ecgformer.errors import ArgumentRangeError
from ecgformer.record_io import EcgRecord, parse_record

from oracles import full_convolution_filter, pow_form_wide_features, straight_line_stats

BENCH = Path(__file__).resolve().parent.parent / "ecgbench"


def impulse_train(fs=500.0, duration_s=15.0, period_s=1.0, amplitude=1.0, first_at_s=0.5):
    n = int(duration_s * fs)
    x = np.zeros(n)
    positions = np.arange(first_at_s * fs, n, period_s * fs).astype(int)
    x[positions] = amplitude
    return x, positions


def synthetic_ecg(rng, fs=500.0, duration_s=12.0, rate_hz=1.2, amplitude=1.0, noise=0.02):
    """Gaussian-bump beat train with mild timing jitter plus white noise."""
    n = int(duration_s * fs)
    t = np.arange(n)
    x = np.zeros(n)
    width = 0.012 * fs
    beat = rng.uniform(0.3, 0.7) * fs
    while beat < n - 1:
        x += amplitude * np.exp(-0.5 * ((t - beat) / width) ** 2)
        beat += fs / rate_hz * rng.uniform(0.95, 1.05)
    return x + noise * rng.normal(size=n)


class TestDetector:
    def test_impulse_train_oracle(self):
        x, truth = impulse_train()
        peaks = features.detect_r_peaks(x, 500.0)
        assert 14 <= peaks.peak_indices.size <= 15
        tol = 0.025 * 500.0
        for p in peaks.peak_indices:
            assert np.min(np.abs(truth - p)) <= tol

    def test_all_zero_signal_no_peaks(self):
        peaks = features.detect_r_peaks(np.zeros(2000), 500.0)
        assert peaks.peak_indices.size == 0

    def test_too_short_signal_rejected(self):
        with pytest.raises(ArgumentRangeError):
            features.detect_r_peaks(np.zeros(300), 500.0)

    def test_scale_invariance_100_random_ecgs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = synthetic_ecg(rng, duration_s=8.0, rate_hz=rng.uniform(0.8, 2.5))
            a = features.detect_r_peaks(x, 500.0).peak_indices
            b = features.detect_r_peaks(2.0 * x, 500.0).peak_indices
            np.testing.assert_array_equal(a, b)

    def test_refractory_spacing(self):
        rng = np.random.default_rng(1)
        x = synthetic_ecg(rng, duration_s=10.0, rate_hz=2.8)
        peaks = features.detect_r_peaks(x, 500.0)
        if peaks.peak_indices.size >= 2:
            assert np.min(np.diff(peaks.peak_indices)) > 0.2 * 500.0

    def test_detects_realistic_beat_count(self):
        rng = np.random.default_rng(2)
        x = synthetic_ecg(rng, duration_s=10.0, rate_hz=1.0)
        peaks = features.detect_r_peaks(x, 500.0)
        assert 8 <= peaks.peak_indices.size <= 11


def make_record(signal, fs=500.0, age=50.0, sex="female", lead_names=None):
    signal = np.atleast_2d(signal)
    names = lead_names or (["II"] if signal.shape[0] == 1 else ["I", "II"][: signal.shape[0]])
    return EcgRecord("t0", fs, signal, names, age_years=age, sex=sex, dx_codes=set())


class TestWideFeatures:
    def test_constant_rr(self):
        fs = 500.0
        idx = np.arange(10) * int(0.8 * fs) + 100
        signal = np.zeros(6000)
        signal[idx] = 1.0
        rec = make_record(signal, fs)
        peaks = features.RPeakTrain(idx, fs)
        wf = features.compute_wide_features(rec, peaks)
        assert wf.values[2] == pytest.approx(0.8)
        assert wf.values[3] == pytest.approx(0.8)
        assert wf.values[4] == pytest.approx(0.0, abs=1e-12)
        assert wf.values[8] == pytest.approx((60.0 / 0.8) / 300.0)  # 75 bpm / 300

    def test_imputation_rules(self):
        rec = make_record(np.random.default_rng(0).normal(size=1200), age=None, sex="unknown")
        wf = features.record_features(rec)
        assert wf.values[0] == pytest.approx(0.60)
        assert wf.values[1] == 0.0
        rec_male = make_record(np.zeros(1200), age=35.0, sex="male")
        wf2 = features.record_features(rec_male)
        assert wf2.values[0] == pytest.approx(0.35)
        assert wf2.values[1] == 1.0

    def test_matches_independent_statistics(self):
        rng = np.random.default_rng(3)
        x = synthetic_ecg(rng, duration_s=14.0, rate_hz=1.3)
        rec = make_record(x, age=61.0, sex="male")
        peaks = features.detect_r_peaks(x, 500.0)
        wf = features.compute_wide_features(rec, peaks)

        idx = peaks.peak_indices
        rr = np.diff(idx) / 500.0
        drr = np.diff(rr)
        amps = x[idx]
        mean, std, skew, kurt, mn, mx = straight_line_stats(x)
        expected = [
            61.0 / 100.0,
            1.0,
            sum(rr) / len(rr),
            float(np.sort(rr)[len(rr) // 2]) if len(rr) % 2 else float(np.sort(rr)[len(rr) // 2 - 1 : len(rr) // 2 + 1].mean()),
            straight_line_stats(rr)[1],
            min(rr),
            max(rr),
            max(rr) - min(rr),
            (60.0 / (sum(rr) / len(rr))) / 300.0,
            float(np.sqrt(sum(d * d for d in drr) / len(drr))),
            sum(1.0 for d in drr if abs(d) > 0.05) / len(drr),
            len(idx) / (len(x) / 500.0),
            sum(amps) / len(amps),
            straight_line_stats(amps)[1],
            min(amps),
            max(amps),
            mean,
            std,
            skew,
            kurt,
            mn,
            mx,
        ]
        np.testing.assert_allclose(wf.values, expected, atol=1e-9)
        # Cross-check the moment statistics against scipy as well.
        assert wf.values[18] == pytest.approx(sstats.skew(x, bias=True), abs=1e-9)
        assert wf.values[19] == pytest.approx(sstats.kurtosis(x, bias=True, fisher=True), abs=1e-9)

    def test_fewer_than_two_peaks_zeroes_block(self):
        rec = make_record(np.zeros(1200))
        wf = features.record_features(rec)
        np.testing.assert_array_equal(wf.values[2:16], 0.0)
        assert np.isfinite(wf.values).all()
        assert len(wf.values) == 22

    @pytest.mark.parametrize("fs, detected", [(25.0, False), (30.0, False), (31.0, True), (60.0, True)])
    def test_the_detector_runs_only_above_twice_the_qrs_band(self, fs, detected, monkeypatch):
        # At 30 Hz or less the 5-15 Hz QRS band cannot be designed: the record's peak features are imputed, as a
        # record shorter than 1 s has them.
        calls = []
        detect = features.detect_r_peaks
        monkeypatch.setattr(features, "detect_r_peaks", lambda *args: calls.append(args) or detect(*args))
        x, _ = impulse_train(fs=fs, duration_s=12.0)
        wf = features.record_features(make_record(x, fs))
        assert len(calls) == detected and np.isfinite(wf.values).all()
        if not detected:
            np.testing.assert_array_equal(wf.values[2:16], 0.0)

    def test_one_second_all_zero_record(self):
        rec = make_record(np.zeros(500))
        wf = features.record_features(rec)
        assert wf.values.shape == (22,)
        assert np.isfinite(wf.values).all()

    def test_rr_ordering_and_pnn50_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = synthetic_ecg(rng, duration_s=10.0, rate_hz=rng.uniform(0.8, 2.0))
            wf = features.record_features(make_record(x))
            assert 0.0 <= wf.values[10] <= 1.0
            if wf.values[2] > 0:
                assert wf.values[5] <= wf.values[3] <= wf.values[6]

    def test_timing_features_invariant_to_amplitude_scaling(self):
        rng = np.random.default_rng(5)
        x = synthetic_ecg(rng, duration_s=10.0)
        a = features.record_features(make_record(x)).values
        b = features.record_features(make_record(3.0 * x)).values
        np.testing.assert_allclose(a[2:9], b[2:9], atol=1e-12)
        assert a[9] == pytest.approx(b[9], abs=1e-12)

    def test_feature_lead_fallback(self):
        rng = np.random.default_rng(6)
        x = synthetic_ecg(rng, duration_s=5.0)
        rec = EcgRecord("f1", 500.0, np.stack([x, np.zeros_like(x)]), ["V3", "V4"], age_years=20.0)
        wf = features.record_features(rec)  # lead II absent, falls back to row 0
        assert wf.values[11] > 0

    def test_names_fixed(self):
        rec = make_record(np.zeros(600))
        wf = features.record_features(rec)
        assert wf.names == features.FEATURE_NAMES
        assert len(set(wf.names)) == 22


def _moment_leads():
    """(name, lead, fs, moments_defined): ECG-like leads at both benchmark rates, a constant
    lead, and skewed leads whose m2 sits just above and just below the 1e-24 cutoff."""
    rng = np.random.default_rng(31)
    leads = [(f"ecg{i}", synthetic_ecg(rng, fs=fs, duration_s=10.0, rate_hz=rng.uniform(0.8, 2.2)), fs, True)
             for i, fs in enumerate([500.0, 1000.0, 500.0, 1000.0, 257.0])]
    leads.append(("constant", np.full(1200, 0.37), 500.0, False))
    tail = rng.exponential(size=1500)
    leads.append(("m2_above_cutoff", 2e-12 * tail, 500.0, True))  # m2 ~ 4e-24
    leads.append(("m2_below_cutoff", 0.5e-12 * tail, 500.0, False))  # m2 ~ 2.5e-25
    return leads


MOMENT_LEADS = _moment_leads()
MOMENT_IDS = [name for name, *_ in MOMENT_LEADS]


class TestMomentProducts:
    """`_moments` forms its powers as products; only skewness and kurtosis may move."""

    @pytest.mark.parametrize("name, lead, fs, defined", MOMENT_LEADS, ids=MOMENT_IDS)
    def test_other_columns_equal_pow_form_bitwise(self, name, lead, fs, defined):
        for age, sex in ((61.0, "male"), (None, "female")):
            rec = make_record(lead, fs, age=age, sex=sex)
            peaks = features.detect_r_peaks(lead, fs)
            got = features.compute_wide_features(rec, peaks).values
            want = pow_form_wide_features(lead, fs, rec.num_samples, age, sex, peaks.peak_indices)
            keep = [c for c in range(features.D_WIDE) if c not in (18, 19)]
            assert got[keep].tobytes() == want[keep].tobytes()
            # The two moved columns differ from the pow form by rounding only.
            np.testing.assert_allclose(got[18:20], want[18:20], rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("name, lead, fs, defined", MOMENT_LEADS, ids=MOMENT_IDS)
    def test_skewness_and_kurtosis_match_references(self, name, lead, fs, defined):
        got = features.compute_wide_features(make_record(lead, fs), features.detect_r_peaks(lead, fs)).values
        _, _, skew, kurt, _, _ = straight_line_stats(lead)
        if not defined:
            assert got[17:20].tolist() == [0.0, 0.0, 0.0] and (skew, kurt) == (0.0, 0.0)
            return
        assert abs(skew) > 0.1 and abs(kurt) > 0.1  # so that a relative bound means something
        assert got[18] == pytest.approx(skew, rel=1e-12, abs=0.0)
        assert got[19] == pytest.approx(kurt, rel=1e-12, abs=0.0)
        assert got[18] == pytest.approx(sstats.skew(lead, bias=True), rel=1e-12, abs=0.0)
        assert got[19] == pytest.approx(sstats.kurtosis(lead, bias=True, fisher=True), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("workload", ["toy-cv", "paper-12lead", "score-cohort"])
def test_r_peaks_equal_the_direct_form_detectors_on_the_benchmark_corpora(workload, tmp_path, monkeypatch):
    # The detector's bandpass runs by FFT; on every lead of every record of the
    # benchmark's corpora it must find the peaks the direct-form sum finds.
    monkeypatch.syspath_prepend(str(BENCH))
    import corpus
    import run

    spec = run.WORKLOADS[workload]
    ids = corpus.generate(tmp_path, spec["records"], 1, spec["rates_hz"], spec["duration_s"])
    records = [parse_record(tmp_path / f"{record_id}.hea") for record_id in ids]
    fft = [[features.detect_r_peaks(lead, r.sampling_rate_hz).peak_indices for lead in r.signal] for r in records]
    monkeypatch.setattr(dsp, "filter_signal", lambda signal, taps: full_convolution_filter(np.atleast_2d(signal), taps))
    for record, peaks in zip(records, fft):
        for name, lead, found in zip(record.lead_names, record.signal, peaks):
            want = features.detect_r_peaks(lead, record.sampling_rate_hz).peak_indices
            assert found.tobytes() == want.tobytes(), (record.record_id, name)
