import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgformer import stratify
from ecgformer.errors import ArgumentRangeError, ShapeError

from oracles import fold_label_deviation


def random_multilabel(rng, n=1000, labels=10):
    # Skewed label frequencies so rare labels exist.
    freqs = np.linspace(0.02, 0.4, labels)
    return (rng.random((n, labels)) < freqs).astype(np.int64)


class TestStratifiedFolds:
    def test_partition_property(self):
        rng = np.random.default_rng(0)
        labels = random_multilabel(rng, n=200, labels=6)
        fa = stratify.stratified_folds(labels, k=5, seed=1)
        assert fa.fold_of.shape == (200,)
        assert set(np.unique(fa.fold_of)) == set(range(5))
        for fold in range(5):
            inside = set(fa.records_in_fold(fold))
            outside = set(fa.records_not_in_fold(fold))
            assert inside | outside == set(range(200))
            assert not inside & outside

    def test_single_label_reduces_to_classic_stratification(self):
        rng = np.random.default_rng(2)
        classes = rng.integers(0, 3, size=90)
        onehot = np.eye(3, dtype=np.int64)[classes]
        fa = stratify.stratified_folds(onehot, k=5, seed=3)
        for c in range(3):
            per_fold = [int(onehot[fa.records_in_fold(f), c].sum()) for f in range(5)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_k_records_with_distinct_labels(self):
        onehot = np.eye(4, dtype=np.int64)
        fa = stratify.stratified_folds(onehot, k=4, seed=0)
        assert sorted(fa.fold_of.tolist()) == [0, 1, 2, 3]

    def test_beats_random_shuffles(self):
        rng = np.random.default_rng(4)
        labels = random_multilabel(rng, n=1000, labels=10)
        fa = stratify.stratified_folds(labels, k=10, seed=5)
        ours = fold_label_deviation(labels, fa)
        shuffle_devs = []
        base = np.repeat(np.arange(10), 100)
        for s in range(100):
            shuffled = np.random.default_rng(s).permutation(base)
            shuffle_devs.append(fold_label_deviation(labels, stratify.FoldAssignment(shuffled, 10)))
        assert ours < np.mean(shuffle_devs)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        labels = random_multilabel(rng, n=150, labels=5)
        a = stratify.stratified_folds(labels, k=10, seed=7)
        b = stratify.stratified_folds(labels, k=10, seed=7)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)
        c = stratify.stratified_folds(labels, k=10, seed=8)
        assert not np.array_equal(a.fold_of, c.fold_of)

    def test_input_permutation_keeps_balance(self):
        rng = np.random.default_rng(8)
        labels = random_multilabel(rng, n=300, labels=6)
        fa = stratify.stratified_folds(labels, k=5, seed=9)
        dev = fold_label_deviation(labels, fa)
        perm = rng.permutation(300)
        fa_p = stratify.stratified_folds(labels[perm], k=5, seed=9)
        dev_p = fold_label_deviation(labels[perm], fa_p)
        # Same deviation bound: both must beat random shuffles comfortably;
        # allow the permuted run a modest slack rather than exact equality.
        base = np.repeat(np.arange(5), 60)
        rand = np.mean(
            [
                fold_label_deviation(labels, stratify.FoldAssignment(np.random.default_rng(s).permutation(base), 5))
                for s in range(50)
            ]
        )
        assert dev < rand and dev_p < rand

    def test_zero_label_records_distributed(self):
        labels = np.zeros((20, 3), dtype=np.int64)
        labels[:4, 0] = 1
        fa = stratify.stratified_folds(labels, k=4, seed=10)
        counts = np.bincount(fa.fold_of, minlength=4)
        assert counts.tolist() == [5, 5, 5, 5]

    def test_no_empty_fold_when_enough_records(self):
        rng = np.random.default_rng(11)
        labels = random_multilabel(rng, n=25, labels=4)
        fa = stratify.stratified_folds(labels, k=5, seed=12)
        assert np.bincount(fa.fold_of, minlength=5).min() >= 1

    def test_k_larger_than_records_rejected(self):
        with pytest.raises(ArgumentRangeError):
            stratify.stratified_folds(np.eye(3, dtype=np.int64), k=4)

    def test_non_binary_rejected(self):
        with pytest.raises(ShapeError):
            stratify.stratified_folds(np.full((5, 2), 2), k=2)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=6, max_value=80),
        labels=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=2, max_value=6),
    )
    def test_partition_property_random_inputs(self, seed, n, labels, k):
        if k > n:
            return
        rng = np.random.default_rng(seed)
        matrix = (rng.random((n, labels)) < rng.uniform(0.05, 0.6)).astype(np.int64)
        fa = stratify.stratified_folds(matrix, k=k, seed=seed)
        # Disjoint cover with every record placed exactly once.
        assert fa.fold_of.shape == (n,)
        assert ((fa.fold_of >= 0) & (fa.fold_of < k)).all()
        assert np.bincount(fa.fold_of, minlength=k).sum() == n
        if n >= k:
            assert np.bincount(fa.fold_of, minlength=k).min() >= 1


class TestFoldFile:
    def test_round_trip(self, tmp_path):
        ids = [f"r{i}" for i in range(12)]
        fa = stratify.FoldAssignment(np.arange(12) % 3, 3)
        path = tmp_path / "folds.csv"
        stratify.save_folds(path, ids, fa)
        back = stratify.load_folds(path, ids)
        np.testing.assert_array_equal(back.fold_of, fa.fold_of)
        assert back.k == 3

    def test_missing_record_rejected(self, tmp_path):
        path = tmp_path / "folds.csv"
        stratify.save_folds(path, ["a"], stratify.FoldAssignment(np.array([0, ]), 2))
        with pytest.raises(ArgumentRangeError):
            stratify.load_folds(path, ["a", "b"])
