"""`uqd.streams` against numpy's own ``SeedSequence`` and ``Philox``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqd.errors import ValidationError
from uqd.streams import BLOCK, WINDOW, Streams, philox_blocks, philox_keys, spawned_seeds
from uqd.trajectory import trajectory_seed

# entropy of one, two and three words, and the word boundaries
WIDE = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**80]),
    st.integers(0, 2**80),
)
ONE_WORD = st.integers(0, 2**32 - 1)


def numpy_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestSeedHash:
    @settings(max_examples=100, deadline=None)
    @given(master=WIDE, indices=st.lists(ONE_WORD, min_size=1, max_size=20))
    def test_spawned_seeds_match_numpy(self, master, indices):
        expected = [
            np.random.SeedSequence(master, spawn_key=(i,)).generate_state(1, np.uint64)[0]
            for i in indices
        ]
        assert spawned_seeds(master, indices).tolist() == expected

    def test_wide_indices_mix_with_narrow_ones(self):
        indices = [0, 2**32 - 1, 2**32, 2**40, 3, 2**70]
        for master in (0, 9, 2**64 - 1, 2**130 + 7):
            expected = [
                np.random.SeedSequence(master, spawn_key=(i,)).generate_state(1, np.uint64)[0]
                for i in indices
            ]
            assert spawned_seeds(master, indices).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.one_of(ONE_WORD, WIDE), min_size=1, max_size=20))
    def test_philox_keys_match_numpy(self, seeds):
        for seed, key in zip(seeds, philox_keys(seeds)):
            state = np.random.Philox(np.random.SeedSequence(seed)).state["state"]
            assert key.tolist() == state["key"].tolist()
            assert not state["counter"].any()

    def test_trajectory_seed_is_numpys(self):
        for master, index in ((0, 0), (7, 3), (2**64 - 1, 2**32 - 1), (2**80, 12)):
            seq = np.random.SeedSequence(master, spawn_key=(index,))
            assert trajectory_seed(master, index) == int(seq.generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: philox_keys([3, -1]), "seed must be a non-negative integer, got -1"),
            (lambda: spawned_seeds(-2, [0]), "seed must be a non-negative integer, got -2"),
            (lambda: spawned_seeds(0, [1, -3]),
             "trajectory index must be a non-negative integer, got -3"),
        ],
        ids=["seed", "master", "index"],
    )
    def test_negative_integers_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: philox_keys([3, 1.5]), "seed must be a non-negative integer, got 1.5"),
            (lambda: spawned_seeds(np.float64(4.0), [0]), "seed must be a non-negative integer, got 4.0"),
            (lambda: spawned_seeds(0, np.array([0.0, 1.0])),
             "trajectory index must be a non-negative integer, got 0.0"),
            (lambda: philox_keys(["7"]), "seed must be a non-negative integer, got 7"),
        ],
        ids=["seed", "master", "index", "string"],
    )
    def test_non_integers_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()


class TestPhilox:
    @settings(max_examples=50, deadline=None)
    @given(seeds=st.lists(WIDE, min_size=1, max_size=5), blocks=st.integers(1, 12))
    def test_blocks_are_numpys_raw_words(self, seeds, blocks):
        schedule = Streams(seeds).schedule[:, :, :, None]
        counters = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (len(seeds), 1))
        words = philox_blocks(schedule, counters).transpose(1, 2, 0).reshape(len(seeds), -1)
        for seed, row in zip(seeds, words):
            raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(4 * blocks)
            assert row.tolist() == raw.tolist()


class TestStreams:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_uniforms_match_numpy(self, data):
        # rows drawn in arbitrary subsets and counts, several windows deep
        seeds = data.draw(st.lists(st.one_of(ONE_WORD, WIDE), min_size=1, max_size=6))
        requests = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, len(seeds) - 1), min_size=1, unique=True),
                    st.integers(1, BLOCK),
                ),
                min_size=1,
                max_size=40,
            )
        )
        bank = Streams(seeds)
        drawn = [[] for _ in seeds]
        for rows, count in requests:
            out = bank.take(np.array(rows), count)
            assert out.shape == (len(rows), count)
            for row, values in zip(rows, out.tolist()):
                drawn[row] += values
        for seed, values in zip(seeds, drawn):
            assert values == numpy_generator(seed).random(len(values)).tolist()

    @staticmethod
    def record_refills(monkeypatch) -> list:
        refilled = []
        original = Streams._refill

        def recording(self, rows):
            refilled.append(sorted(rows.tolist()))
            original(self, rows)

        monkeypatch.setattr(Streams, "_refill", recording)
        return refilled

    def test_every_position_of_deep_streams(self, monkeypatch):
        refilled = self.record_refills(monkeypatch)
        seeds = [0, 5, 2**32, 2**64 - 1]
        bank = Streams(seeds)
        rows = np.arange(len(seeds))
        depth = 1 + 2 * 5 * WINDOW  # one, then pairs: the simulator's order
        out = np.concatenate([bank.take(rows)] + [bank.take(rows, 2) for _ in range(depth // 2)], 1)
        for seed, row in zip(seeds, out):
            assert np.array_equal(row, numpy_generator(seed).random(depth))
        assert len(refilled) <= 1 + depth // (WINDOW - BLOCK)

    def test_refill_reaches_only_rows_near_their_window_end(self, monkeypatch):
        refilled = self.record_refills(monkeypatch)
        bank = Streams([1, 2, 3])
        bank.take(np.arange(3))
        for _ in range(WINDOW - 1):
            bank.take(np.array([0]))
        # row 0 is spent; row 1 is one in; row 2 is not requested
        bank.take(np.array([0, 1]))
        assert refilled == [[0, 1, 2], [0]]

    def test_rows_are_independent(self):
        alone = Streams([4]).take(np.array([0]), 3)
        beside = Streams([9, 4])
        beside.take(np.array([0]), 2)
        assert np.array_equal(beside.take(np.array([1]), 3), alone)
