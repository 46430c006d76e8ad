import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgformer import seeding
from ecgformer.errors import ArgumentRangeError

# Word boundaries of NumPy's int-to-uint32 split, beside arbitrary parts of up to three words.
PARTS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1]), st.integers(0, 2**96))
ROWS = st.lists(st.lists(PARTS, min_size=1, max_size=8), min_size=1, max_size=6)


def numpy_state(row):
    return np.random.PCG64(np.random.SeedSequence(row)).state


class TestAgainstNumPy:
    @settings(max_examples=200, deadline=None)
    @given(ROWS)
    def test_pcg64_states(self, rows):
        assert seeding.pcg64_states(rows) == [numpy_state(row) for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(ROWS)
    def test_stable_seeds(self, rows):
        expected = [int(np.random.SeedSequence(row).generate_state(1)[0]) for row in rows]
        assert seeding.stable_seeds(rows).tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20))
    def test_int_seed_states(self, seeds):
        expected = [np.random.default_rng(s).bit_generator.state for s in seeds]
        assert seeding.int_seed_states(np.array(seeds, dtype=np.uint32)) == expected

    def test_one_call_mixes_rows_of_every_word_count(self):
        # 1 to 12 words: short rows pad the pool, long ones run the pool-overflow mixing, all in one pass.
        rows = [[7], [0, 0], [2**32 - 1, 5, 9], [1, 2, 3, 4], [2**64 + 1, 3, 4], [2**32, 2**32, 2**32],
                [2**64 + 1, 17, 3, 2], [5, 6, 7, 8, 9, 10, 11, 12], [2**64 + 1] * 4]
        word_counts = {len(seeding.seed_words(row)) for row in rows}
        assert word_counts == {1, 2, 3, 4, 5, 6, 8, 12}
        assert seeding.pcg64_states(rows) == [numpy_state(row) for row in rows]

    def test_seed_words_least_significant_first(self):
        assert seeding.seed_words([0, 2**32 - 1, 2**32, 2**64 + 1]) == [0, 2**32 - 1, 0, 1, 1, 0, 1]


class TestReseed:
    @pytest.mark.parametrize("row", [[3], [1201, 17, 40, 7], [2**64 + 1, 13, 0, 63]])
    def test_reseeded_generator_draws_a_fresh_generators_stream(self, row):
        kept = np.random.default_rng(0)
        kept.integers(0, 7)  # leaves half a 64-bit draw buffered, which the reseed must drop
        kept.random(3)
        [state] = seeding.pcg64_states([row])
        fresh = np.random.default_rng(np.random.SeedSequence(row))
        assert seeding.reseed(kept, state) is kept
        np.testing.assert_array_equal(kept.random(5), fresh.random(5))
        assert [int(kept.integers(0, m)) for m in (1, 7, 1809, 2**40)] == [
            int(fresh.integers(0, m)) for m in (1, 7, 1809, 2**40)]

    def test_reseeded_window_generator_draws_the_int_seeds_offset(self):
        [state] = seeding.int_seed_states(np.array([123456789], dtype=np.uint32))
        kept = seeding.reseed(np.random.default_rng(5), state)
        assert int(kept.integers(0, 809)) == int(np.random.default_rng(123456789).integers(0, 809))


class TestNegativeParts:
    @pytest.mark.parametrize("rows", [[[-1]], [[1, 2], [3, -4]]])
    def test_rejected_as_argument_range(self, rows):
        with pytest.raises(ArgumentRangeError, match="non-negative"):
            seeding.pcg64_states(rows)
        with pytest.raises(ArgumentRangeError, match="non-negative"):
            seeding.stable_seeds(rows)
