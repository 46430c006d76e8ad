import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgformer import metrics
from ecgformer.errors import UndefinedScoreError

from oracles import brute_auroc, brute_challenge_metric, brute_confusion_weighted


def random_weights(rng, c):
    w = rng.uniform(0.0, 1.0, size=(c, c))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 1.0)
    return w


def random_instance(rng, max_records=5, max_classes=4):
    r = int(rng.integers(1, max_records + 1))
    c = int(rng.integers(2, max_classes + 1))
    labels = rng.integers(0, 2, size=(r, c))
    preds = rng.integers(0, 2, size=(r, c))
    normal = int(rng.integers(0, c))
    # Make sure the normalization is not degenerate.
    labels[0, (normal + 1) % c] = 1
    labels[0, normal] = 0
    return labels, preds, random_weights(rng, c), normal


class TestChallengeMetric:
    def test_perfect_prediction_scores_one(self):
        rng = np.random.default_rng(0)
        labels, _, w, normal = random_instance(rng)
        wm = metrics.WeightMatrix(w, [f"c{i}" for i in range(w.shape[0])], normal)
        assert metrics.challenge_metric(labels, labels, wm) == 1.0

    def test_always_normal_scores_zero(self):
        rng = np.random.default_rng(1)
        labels, _, w, normal = random_instance(rng)
        preds = np.zeros_like(labels)
        preds[:, normal] = 1
        wm = metrics.WeightMatrix(w, [f"c{i}" for i in range(w.shape[0])], normal)
        assert metrics.challenge_metric(labels, preds, wm) == 0.0

    def test_hand_enumerated_three_records(self):
        # 3 records, 3 classes, weights chosen so every cell is distinct.
        w = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
        labels = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        preds = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        # Record 0: union {0,1} n=2; true {0} pred {0,1}: (w00 + w01)/2 = 0.7
        # Record 1: union {0,1} n=2; true {0,1} pred {1}: (w01 + w11)/2 = 0.7
        # Record 2: union {2} n=1; w22 = 1.0
        observed = 0.7 + 0.7 + 1.0
        # correct: r0 n=1 w00=1; r1 n=2 (w00+w01+w10+w11)/2=1.4; r2 n=1 w22=1
        correct = 1.0 + 1.4 + 1.0
        # always-normal (class 0): r0 n=1 w00=1; r1 n=2 (w00+w10)/2=0.7; r2 n=2 (w20)/2=0.1
        inactive = 1.0 + 0.7 + 0.1
        expected = (observed - inactive) / (correct - inactive)
        wm = metrics.WeightMatrix(w, ["a", "b", "c"], 0)
        assert metrics.challenge_metric(labels, preds, wm) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_200_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            labels, preds, w, normal = random_instance(rng)
            wm = metrics.WeightMatrix(w, [f"c{i}" for i in range(w.shape[0])], normal)
            try:
                got = metrics.challenge_metric(labels, preds, wm)
            except UndefinedScoreError:
                # Oracle would divide by zero on the same instance.
                continue
            want = brute_challenge_metric(labels, preds, w, normal)
            assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_dataset_raises(self):
        labels = np.array([[0, 1]])  # only label is the normal class
        wm = metrics.WeightMatrix(np.eye(2), ["a", "n"], 1)
        with pytest.raises(UndefinedScoreError):
            metrics.challenge_metric(labels, labels, wm)

    def test_record_permutation_invariance(self):
        rng = np.random.default_rng(7)
        labels, preds, w, normal = random_instance(rng, max_records=8, max_classes=4)
        wm = metrics.WeightMatrix(w, [f"c{i}" for i in range(w.shape[0])], normal)
        perm = rng.permutation(labels.shape[0])
        a = metrics.challenge_metric(labels, preds, wm)
        b = metrics.challenge_metric(labels[perm], preds[perm], wm)
        assert a == pytest.approx(b, abs=1e-12)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(8)
        labels, preds, w, normal = random_instance(rng, max_records=6, max_classes=5)
        c = w.shape[0]
        wm = metrics.WeightMatrix(w, [f"c{i}" for i in range(c)], normal)
        perm = rng.permutation(c)
        w2 = w[np.ix_(perm, perm)]
        wm2 = metrics.WeightMatrix(w2, [f"c{i}" for i in perm], int(np.argwhere(perm == normal)[0, 0]))
        a = metrics.challenge_metric(labels, preds, wm)
        b = metrics.challenge_metric(labels[:, perm], preds[:, perm], wm2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_confusion_normalizer_union_of_one_and_two(self):
        # Single record, true class i == predicted class j: n_r = 1.
        a = metrics.confusion_weighted(np.array([[1, 0]]), np.array([[1, 0]]))
        assert a[0, 0] == 1.0
        # Single record, true i != predicted j: n_r = 2, half credit.
        a = metrics.confusion_weighted(np.array([[1, 0]]), np.array([[0, 1]]))
        assert a[0, 1] == 0.5
        assert a.sum() == 0.5
        # No predictions at all contributes nothing (n_r floor guards, no NaN).
        a = metrics.confusion_weighted(np.array([[0, 0]]), np.array([[0, 0]]))
        assert a.sum() == 0.0


def binary_rows(num_classes):
    """0/1 rows, with the empty and the all-ones row drawn often."""
    return st.one_of(
        st.just([0] * num_classes),
        st.just([1] * num_classes),
        st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes),
    )


@st.composite
def label_prediction_pairs(draw):
    c = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=30))
    labels = np.array(draw(st.lists(binary_rows(c), min_size=n, max_size=n)), dtype=np.int64)
    preds = np.array(draw(st.lists(binary_rows(c), min_size=n, max_size=n)), dtype=np.int64)
    return labels, preds


class TestConfusionWeighted:
    @settings(max_examples=300, deadline=None)
    @given(pair=label_prediction_pairs())
    def test_matches_record_loop(self, pair):
        labels, preds = pair
        got = metrics.confusion_weighted(labels, preds)
        want = brute_confusion_weighted(labels, preds)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        # Cells are summed in record order, so the match is also bitwise.
        assert got.tobytes() == want.tobytes()

    def test_blocks_keep_record_order(self, monkeypatch):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 2, size=(97, 6))
        preds = rng.integers(0, 2, size=(97, 6))
        want = brute_confusion_weighted(labels, preds)
        monkeypatch.setattr(metrics, "CONFUSION_CHUNK_CELLS", 5 * 36)  # blocks of 5 records
        assert metrics.confusion_weighted(labels, preds).tobytes() == want.tobytes()

    def test_no_records(self):
        a = metrics.confusion_weighted(np.zeros((0, 3), dtype=int), np.zeros((0, 3), dtype=int))
        assert a.shape == (3, 3) and not a.any()


class TestAuroc:
    def test_worked_example(self):
        got = metrics.auroc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        assert got == 0.75

    def test_perfect_separation(self):
        assert metrics.auroc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0])) == 1.0

    def test_constant_scores_all_ties(self):
        assert metrics.auroc(np.full(10, 0.3), np.array([0, 1] * 5)) == 0.5

    def test_single_class_undefined(self):
        assert metrics.auroc(np.array([0.1, 0.2]), np.array([1, 1])) is None
        assert metrics.macro_auroc([None, None]) is None
        assert metrics.macro_auroc([None, 0.5, 1.0]) == 0.75

    def test_equals_brute_force_on_1000_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            # Quantized scores so ties actually occur.
            scores = rng.integers(0, 5, size=n) / 4.0
            labels = rng.integers(0, 2, size=n)
            want = brute_auroc(scores, labels)
            got = metrics.auroc(scores, labels)
            if want is None:
                assert got is None
            else:
                assert got == want  # exact, both are sums of halves

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        a = metrics.auroc(scores, labels)
        b = metrics.auroc(np.exp(3.0 * scores) + 7.0, labels)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=2, max_value=40),
        scale=st.floats(min_value=0.1, max_value=50.0),
        shift=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_monotone_invariance_property(self, seed, n, scale, shift):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 7, size=n) / 6.0  # quantized so ties occur
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1
        a = metrics.auroc(scores, labels)
        b = metrics.auroc(scale * scores + shift, labels)
        assert a == b


class TestWeightMatrixIO:
    def test_round_trip(self, tmp_path):
        wm = metrics.synthetic_weight_matrix(["SR", "TACH", "BRAD"], "SR")
        path = tmp_path / "weights.csv"
        metrics.save_weight_matrix(path, wm)
        back = metrics.load_weight_matrix(path, "SR")
        assert back.class_codes == wm.class_codes
        assert back.normal_class_index == 0
        np.testing.assert_array_equal(back.w, wm.w)

    def test_synthetic_matrix_shape(self):
        wm = metrics.synthetic_weight_matrix(["a", "b", "c", "d"], "b")
        assert np.all(np.diag(wm.w) == 1.0)
        assert wm.w[0, 3] == 0.5 ** 3
        assert wm.normal_class_index == 1
