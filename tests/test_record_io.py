import math

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgformer import dsp, record_io, train
from ecgformer.features import FeatureConfig
from ecgformer.errors import (
    ArgumentRangeError,
    EmptyDatasetError,
    RecordFormatError,
    TruncationError,
)


def random_record(rng, record_id="rec0", num_leads=None, num_samples=None):
    num_leads = num_leads or int(rng.integers(1, 13))
    num_samples = num_samples or int(rng.integers(10, 4000))
    leads = record_io.STANDARD_12_LEADS[:num_leads]
    return record_io.EcgRecord(
        record_id=record_id,
        sampling_rate_hz=float(rng.choice([257.0, 500.0, 1000.0])),
        signal=rng.normal(scale=1.5, size=(num_leads, num_samples)),
        lead_names=leads,
        age_years=None if rng.random() < 0.3 else float(int(rng.integers(1, 95))),
        sex=str(rng.choice(["male", "female", "unknown"])),
        dx_codes={str(c) for c in rng.choice(["A1", "B2", "C3", "D4"], size=rng.integers(0, 3), replace=False)},
    )


class TestParseWrite:
    def test_physical_unit_conversion(self, tmp_path):
        # Stored ADC 500 at gain 1000, baseline 0 reads back as 0.5 mV.
        header = tmp_path / "r1.hea"
        header.write_text("r1 2 500 5\nr1.dat 16 1000 0 I\nr1.dat 16 1000 0 II\n# Age: 40\n# Sex: Male\n# Dx: A1\n")
        adc = np.full((5, 2), 500, dtype="<i2")
        (tmp_path / "r1.dat").write_bytes(adc.tobytes())
        rec = record_io.parse_record(header)
        assert rec.signal.shape == (2, 5)
        np.testing.assert_array_equal(rec.signal, 0.5)
        assert rec.age_years == 40.0
        assert rec.sex == "male"
        assert rec.dx_codes == {"A1"}

    def test_age_nan_maps_to_absent(self, tmp_path):
        header = tmp_path / "r2.hea"
        header.write_text("r2 1 500 3\nr2.dat 16 1000 0 I\n# Age: NaN\n# Sex: Unknown\n# Dx: \n")
        (tmp_path / "r2.dat").write_bytes(np.zeros(3, dtype="<i2").tobytes())
        rec = record_io.parse_record(header)
        assert rec.age_years is None
        assert rec.sex == "unknown"
        assert rec.dx_codes == set()

    def test_zero_signal_writes_zero_adc(self, tmp_path):
        rec = record_io.EcgRecord("z", 500.0, np.zeros((1, 10)), ["I"])
        _, sig_path, saturated = record_io.write_record(rec, tmp_path, gain=1000.0)
        assert saturated == 0
        assert np.frombuffer(sig_path.read_bytes(), dtype="<i2").sum() == 0

    def test_header_declares_all_leads(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = random_record(rng, num_leads=12, num_samples=50)
        header_path, _, _ = record_io.write_record(rec, tmp_path)
        lines = header_path.read_text().splitlines()
        assert len([l for l in lines if l.endswith(tuple(record_io.STANDARD_12_LEADS))]) >= 12
        assert lines[0].split()[1] == "12"

    def test_saturation_counted(self, tmp_path):
        rec = record_io.EcgRecord("sat", 500.0, np.array([[100.0, 0.0, -100.0]]), ["I"])
        _, _, saturated = record_io.write_record(rec, tmp_path, gain=1000.0)
        assert saturated == 2

    def test_round_trip_100_random_records(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(100):
            rec = random_record(rng, record_id=f"rt{i:03d}")
            gain = float(rng.choice([200.0, 1000.0, 2000.0]))
            record_io.write_record(rec, tmp_path, gain=gain)
            back = record_io.parse_record(tmp_path / f"rt{i:03d}.hea")
            assert back.record_id == rec.record_id
            assert back.sampling_rate_hz == rec.sampling_rate_hz
            assert back.lead_names == rec.lead_names
            assert back.age_years == rec.age_years
            assert back.sex == rec.sex
            assert back.dx_codes == rec.dx_codes
            assert np.max(np.abs(back.signal - rec.signal)) <= 0.5 / gain

    def test_parse_error_names_line_number(self, tmp_path):
        header = tmp_path / "bad.hea"
        header.write_text("bad 2 500 5\nbad.dat 16 1000 0 I\nbad.dat sixteen 1000 0 II\n")
        with pytest.raises(RecordFormatError, match="line 3"):
            record_io.parse_record(header)

    def test_signal_length_mismatch(self, tmp_path):
        header = tmp_path / "tr.hea"
        header.write_text("tr 2 500 10\ntr.dat 16 1000 0 I\ntr.dat 16 1000 0 II\n")
        (tmp_path / "tr.dat").write_bytes(np.zeros(7, dtype="<i2").tobytes())
        with pytest.raises(TruncationError):
            record_io.parse_record(header)

    def test_zero_gain_rejected(self, tmp_path):
        header = tmp_path / "g0.hea"
        header.write_text("g0 1 500 5\ng0.dat 16 0 0 I\n")
        with pytest.raises(RecordFormatError, match="gain"):
            record_io.parse_record(header)


class TestSelectLeads:
    """`parse_record(..., leads=...)`, the package's one lead selection."""

    @pytest.fixture(autouse=True)
    def written(self, tmp_path):
        rng = np.random.default_rng(1)
        self.rec = random_record(rng, num_leads=12, num_samples=100)
        self.header, _, _ = record_io.write_record(self.rec, tmp_path)
        self.full = record_io.parse_record(self.header)

    def test_two_lead_subset(self):
        sub = record_io.parse_record(self.header, leads=record_io.lead_subset("two").leads)
        assert sub.lead_names == ["I", "II"]
        np.testing.assert_array_equal(sub.signal[0], self.full.signal[0])
        np.testing.assert_array_equal(sub.signal[1], self.full.signal[1])
        assert sub.signal.flags.c_contiguous

    def test_identity_subset(self):
        sub = record_io.parse_record(self.header, leads=list(self.rec.lead_names))
        np.testing.assert_array_equal(sub.signal, self.full.signal)

    def test_four_lead_rows_match_source(self):
        subset = record_io.lead_subset("four")
        sub = record_io.parse_record(self.header, leads=subset.leads)
        for i, lead in enumerate(subset.leads):
            src_row = self.rec.lead_names.index(lead)
            np.testing.assert_array_equal(sub.signal[i], self.full.signal[src_row])

    def test_missing_lead_named_in_error(self, tmp_path):
        two_lead = record_io.parse_record(self.header, leads=record_io.lead_subset("two").leads)
        header, _, _ = record_io.write_record(two_lead, tmp_path / "two")
        with pytest.raises(ArgumentRangeError, match="V2"):
            record_io.parse_record(header, leads=record_io.lead_subset("three").leads)

    def test_idempotent(self, tmp_path):
        subset = record_io.lead_subset("six")
        once = record_io.parse_record(self.header, leads=subset.leads)
        header, _, _ = record_io.write_record(once, tmp_path / "six")
        twice = record_io.parse_record(header, leads=subset.leads)
        np.testing.assert_array_equal(once.signal, twice.signal)
        assert once.lead_names == twice.lead_names

    def test_metadata_preserved(self):
        sub = record_io.parse_record(self.header, leads=record_io.lead_subset("two").leads)
        assert sub.age_years == self.rec.age_years
        assert sub.sex == self.rec.sex
        assert sub.dx_codes == self.rec.dx_codes

    def test_leads_may_be_chosen_from_the_file_names(self):
        sub = record_io.parse_record(self.header, leads=lambda names: names[::-1])
        assert sub.lead_names == self.rec.lead_names[::-1]
        np.testing.assert_array_equal(sub.signal, self.full.signal[::-1])


def write_class_map(path, rows):
    path.write_text("code,class_index,class_code\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")


class TestManifest:
    def test_per_class_counts(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A"), ("B", 1, "B")])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(2)
        r1 = random_record(rng, "r1", num_leads=2, num_samples=30)
        r1.dx_codes = {"A"}
        r2 = random_record(rng, "r2", num_leads=2, num_samples=30)
        r2.dx_codes = {"A", "B"}
        record_io.write_record(r1, tmp_path)
        record_io.write_record(r2, tmp_path)
        manifest = record_io.build_manifest(tmp_path, cm)
        labels = manifest.label_matrix()
        assert labels.sum(axis=0).tolist() == [2, 1]
        assert manifest.record_ids() == ["r1", "r2"]

    def test_equivalence_map_collapses(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A"), ("C", 0, "A"), ("B", 1, "B")])
        cm = record_io.load_class_map(cm_path)
        mapped, unmapped = cm.map_codes({"C"})
        assert mapped == {"A"} and unmapped == set()

    def test_unmapped_codes_kept(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A")])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(3)
        rec = random_record(rng, "u1", num_leads=1, num_samples=20)
        rec.dx_codes = {"A", "ZZZ"}
        record_io.write_record(rec, tmp_path)
        manifest = record_io.build_manifest(tmp_path, cm)
        assert ("u1", "ZZZ") in manifest.unmapped

    def test_synthetic_corpus_counts_match_generator(self, tmp_path):
        codes = ["A", "B", "C"]
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [(c, i, c) for i, c in enumerate(codes)])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(4)
        true_counts = {c: 0 for c in codes}
        for i in range(50):
            rec = random_record(rng, f"s{i:02d}", num_leads=1, num_samples=25)
            chosen = {str(c) for c in rng.choice(codes, size=rng.integers(1, 3), replace=False)}
            rec.dx_codes = chosen
            for c in chosen:
                true_counts[c] += 1
            record_io.write_record(rec, tmp_path)
        manifest = record_io.build_manifest(tmp_path, cm)
        counts = manifest.label_matrix().sum(axis=0)
        assert [true_counts[c] for c in codes] == counts.tolist()

    def test_empty_dir_raises(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A")])
        with pytest.raises(EmptyDatasetError):
            record_io.build_manifest(tmp_path, record_io.load_class_map(cm_path))

    def test_duplicate_record_id_raises(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A")])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(5)
        rec = random_record(rng, "dup", num_leads=1, num_samples=20)
        record_io.write_record(rec, tmp_path)
        # Same record id under a second header file.
        header_text = (tmp_path / "dup.hea").read_text()
        (tmp_path / "dup2.hea").write_text(header_text.replace("dup.dat", "dup2.dat"))
        (tmp_path / "dup2.dat").write_bytes((tmp_path / "dup.dat").read_bytes())
        with pytest.raises(RecordFormatError, match="duplicate"):
            record_io.build_manifest(tmp_path, cm)

    def test_unlabeled_policy(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A")])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(6)
        r1 = random_record(rng, "l1", num_leads=1, num_samples=20)
        r1.dx_codes = {"A"}
        r2 = random_record(rng, "l2", num_leads=1, num_samples=20)
        r2.dx_codes = set()
        record_io.write_record(r1, tmp_path)
        record_io.write_record(r2, tmp_path)
        inc = record_io.build_manifest(tmp_path, cm, unlabeled_policy="include")
        exc = record_io.build_manifest(tmp_path, cm, unlabeled_policy="exclude")
        assert inc.record_ids() == ["l1", "l2"]
        assert exc.record_ids() == ["l1"]
        assert inc.label_matrix()[1].sum() == 0

    def test_manifest_file_round_trip(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A"), ("B", 1, "B")])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(8)
        for i in range(3):
            rec = random_record(rng, f"m{i}", num_leads=2, num_samples=40)
            rec.dx_codes = {"A"} if i else {"A", "B", "XX"}
            record_io.write_record(rec, tmp_path)
        manifest = record_io.build_manifest(tmp_path, cm)
        mpath = tmp_path / "manifest.csv"
        record_io.save_manifest(mpath, manifest)
        back = record_io.load_manifest(mpath)
        assert back.class_list == manifest.class_list
        assert back.record_ids() == manifest.record_ids()
        assert back.unmapped == manifest.unmapped
        np.testing.assert_array_equal(back.label_matrix(), manifest.label_matrix())

    def test_label_matrix_binary_shape(self, tmp_path):
        cm_path = tmp_path / "map.csv"
        write_class_map(cm_path, [("A", 0, "A"), ("B", 1, "B")])
        cm = record_io.load_class_map(cm_path)
        rng = np.random.default_rng(9)
        for i in range(4):
            rec = random_record(rng, f"b{i}", num_leads=1, num_samples=15)
            record_io.write_record(rec, tmp_path)
        manifest = record_io.build_manifest(tmp_path, cm)
        labels = manifest.label_matrix()
        assert labels.shape == (len(manifest.entries), 2)
        assert set(np.unique(labels)) <= {0, 1}


# -- the lead-selecting reader against the whole-record reference --------------------------------------------

GAINS = [1000.0, 200.0, -500.0, 0.37, 1e-3, -1e-3, 1e-300, 5e-324, -1e-310, math.inf, math.nan]
BASELINES = [0.0, 12.5, -3.0, 1e308, -1e308, math.nan, math.inf, -math.inf]
SUBSETS = [record_io.lead_subset(name) for name in sorted(record_io.LEAD_SUBSETS)] + [
    record_io.LeadSubset("custom", leads) for leads in
    (["II"], ["V1", "V1"], ["XX"], ["I", "XX"], ["V6", "I", "V3"], ["II", "I", "II"], ["aVF", "V2", "aVR", "V5"])]
PREPROCESS = dsp.PreprocessConfig()


@st.composite
def stored_records(draw):
    """A record's header text and signal bytes: any of the standard leads in any order (II often absent, a name
    now and then repeated), per-lead gains and baselines that may decode to huge or non-finite values, and int16
    samples across the whole range."""
    names = draw(st.lists(st.sampled_from(record_io.STANDARD_12_LEADS), min_size=1, max_size=12, unique=True))
    if draw(st.integers(0, 19)) == 0:
        names.append(names[0])
    rate = draw(st.sampled_from([20.0, 50.0, 100.0, 257.0]))
    num_samples = draw(st.integers(1, 600))
    gains = [draw(st.sampled_from(GAINS[:4]) if draw(st.booleans()) else st.sampled_from(GAINS)) for _ in names]
    baselines = [draw(st.sampled_from(BASELINES[:3]) if draw(st.booleans()) else st.sampled_from(BASELINES))
                 for _ in names]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0, 50, 2000, 32768]))
    adc = np.clip(rng.normal(scale=scale, size=(num_samples, len(names))), -32768, 32767).astype("<i2")
    lines = [f"rec {len(names)} {rate!r} {num_samples}"]
    lines += [f"rec.dat 16 {g!r} {b!r} {name}" for name, g, b in zip(names, gains, baselines)]
    lines += [f"# Age: {draw(st.sampled_from(['NaN', '61']))}", "# Sex: Female", "# Dx: A1,B2"]
    return "\n".join(lines) + "\n", adc.tobytes()


def _outcome(call):
    """What a call returns, or the class and exit code of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), getattr(exc, "exit_code", None)


def _reference_prepared_record(header, subset, feature_config, d_wide):
    """The reference record and wide row, the record's subset through the recording half of the chain."""
    record, wide = oracles.reference_prepare_record(header, subset, feature_config, d_wide)
    return train.PreparedRecord(dsp.process_recording(record.signal, record.sampling_rate_hz, PREPROCESS), wide)


def _same_record(new, old):
    assert new.signal.tobytes() == old.signal.tobytes() and new.signal.shape == old.signal.shape
    assert (new.record_id, new.sampling_rate_hz, new.lead_names) == (old.record_id, old.sampling_rate_hz, old.lead_names)
    assert (new.age_years, new.sex, new.dx_codes) == (old.age_years, old.sex, old.dx_codes)


class TestReaderAgainstReference:
    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stored=stored_records(), subset=st.sampled_from(SUBSETS), feature_lead=st.sampled_from(["II", "V3", "XX"]),
           d_wide=st.sampled_from([4, 22]))
    def test_matches_whole_record_decode_and_selection(self, tmp_path, stored, subset, feature_lead, d_wide):
        header = tmp_path / "rec.hea"
        header.write_text(stored[0])
        (tmp_path / "rec.dat").write_bytes(stored[1])
        config = FeatureConfig(feature_lead=feature_lead)
        cases = [
            (lambda: record_io.parse_record(header), lambda: oracles.reference_parse_record(header)),
            (lambda: record_io.parse_record(header, leads=subset.leads),
             lambda: oracles.select_leads(oracles.reference_parse_record(header), subset)),
            (lambda: train.read_record(header, subset, config, d_wide),
             lambda: oracles.reference_prepare_record(header, subset, config, d_wide)),
            (lambda: train.prepare_record(header, subset, PREPROCESS, config, d_wide),
             lambda: _reference_prepared_record(header, subset, config, d_wide)),
        ]
        for new_call, old_call in cases:
            new, old = _outcome(new_call), _outcome(old_call)
            if isinstance(old, tuple) and isinstance(old[0], type):
                assert new == old
            elif isinstance(old, tuple):
                _same_record(new[0], old[0])
                assert new[1].tobytes() == old[1].tobytes()
            elif isinstance(old, train.PreparedRecord):
                assert new.processed.tobytes() == old.processed.tobytes() and new.processed.shape == old.processed.shape
                assert new.wide.tobytes() == old.wide.tobytes()
            else:
                _same_record(new, old)

    def test_an_undecoded_lead_that_overflows_is_still_rejected(self, tmp_path):
        header = tmp_path / "ovf.hea"
        header.write_text("ovf 3 500 600\novf.dat 16 1000 0 I\novf.dat 16 1000 0 II\novf.dat 16 1e-310 0 V1\n")
        adc = np.zeros((600, 3), dtype="<i2")
        adc[300, 2] = 7  # 7 / 1e-310 overflows; every other sample of V1 decodes to 0
        (tmp_path / "ovf.dat").write_bytes(adc.tobytes())
        for leads in (None, ["I", "II"]):
            with pytest.raises(RecordFormatError, match="non-finite"):
                record_io.parse_record(header, leads=leads)
        with pytest.raises(RecordFormatError, match="non-finite"):
            train.read_record(header, record_io.lead_subset("two"), FeatureConfig(), 4)
