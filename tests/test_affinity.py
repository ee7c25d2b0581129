import itertools
import json
import math

import numpy as np
import pytest

from affinity_miner.affinity import (
    SMOOTHING_RANGE,
    build_pair_sequences,
    estimate_chains,
    score_sequences,
    stationary_distribution,
)
from affinity_miner.errors import DimensionMismatch, InvalidSpec, NonErgodic
from affinity_miner.ingest import Sentiment, load_interactions

from conftest import flat, random_ergodic_chain, sequence_dict, well_separated_chain
from oracles import sample_chain_sequence

NEG, NEU, POS = Sentiment.NEG, Sentiment.NEU, Sentiment.POS


def ev(source, target, ts, s=POS):
    return json.dumps({"source": source, "target": target, "timestamp": ts, "sentiment": s.name})


def table(*lines):
    return load_interactions(lines)


def estimate_chain(states, alpha=1.0):
    return estimate_chains(*flat([states]), alpha)[0]


def one_sequence_chain(states, alpha=1.0):
    """Reference: count one sequence's transitions in a loop, then smooth."""
    counts = np.zeros((3, 3))
    for a, b in zip(states, states[1:]):
        counts[int(a), int(b)] += 1.0
    return (counts + alpha) / (counts.sum(axis=1, keepdims=True) + 3 * alpha)


def affinity_score(states, alpha=1.0, kappa=5.0):
    return score_sequences(*flat([states]), alpha, kappa)[0]


class TestBuildPairSequences:
    def test_direction_preserved(self):
        events = [ev("u", "v", 1), ev("u", "v", 2), ev("u", "v", 3),
                  ev("v", "u", 4), ev("v", "u", 5)]
        seqs = sequence_dict(build_pair_sequences(table(*events)))
        assert len(seqs[("u", "v")]) == 3
        assert len(seqs[("v", "u")]) == 2

    def test_empty(self):
        pairs = build_pair_sequences(table())
        assert pairs.users == ()
        assert all(len(a) == 0 for a in (pairs.source, pairs.target, pairs.length, pairs.states))

    def test_lengths_sum_to_event_count(self, rng):
        events = []
        users = [f"u{i}" for i in range(6)]
        for t in range(200):
            a, b = rng.choice(6, size=2, replace=False)
            events.append(ev(users[a], users[b], t, Sentiment(int(rng.integers(3)))))
        pairs = build_pair_sequences(table(*events))
        assert int(pairs.length.sum()) == len(pairs.states) == len(events)

    def test_order_follows_sorted_input(self):
        events = [ev("u", "v", 3, NEU), ev("u", "v", 1, POS), ev("u", "v", 2, NEG)]
        pairs = build_pair_sequences(table(*events))
        assert sequence_dict(pairs)[("u", "v")] == (POS, NEG, NEU)
        assert pairs.states.dtype == np.int8

    def test_pairs_in_id_order(self):
        events = [ev("b", "a", 4), ev("a", "b", 2), ev("c", "a", 3), ev("b", "a", 1)]
        pairs = build_pair_sequences(table(*events))
        assert pairs.users == ("b", "a", "c")
        assert list(sequence_dict(pairs)) == [("a", "b"), ("b", "a"), ("c", "a")]
        assert pairs.length.tolist() == [1, 2, 1]

    def test_trailing_nul_ids_stay_apart(self):
        # NumPy "U" arrays compare "a" and "a\x00" equal; Python does not
        events = [ev("a\x00", "b", 1, NEG), ev("a", "b", 2, POS), ev("a\x00", "b", 3, NEU)]
        seqs = sequence_dict(build_pair_sequences(table(*events)))
        assert seqs == {("a", "b"): (POS,), ("a\x00", "b"): (NEG, NEU)}
        assert list(seqs) == [("a", "b"), ("a\x00", "b")]

    def test_arrays_read_only(self):
        pairs = build_pair_sequences(table(ev("a", "b", 1), ev("b", "a", 2)))
        for a in (pairs.source, pairs.target, pairs.length, pairs.states):
            with pytest.raises(ValueError):
                a[0] = 0


class TestEstimateChain:
    def test_empty_sequence_uniform(self):
        tm = estimate_chain([])
        assert np.allclose(tm, 1.0 / 3)

    def test_all_pos_hand_count(self):
        tm = estimate_chain([POS, POS, POS], alpha=1.0)
        assert np.allclose(tm[int(POS)], [1 / 5, 1 / 5, 3 / 5])
        assert np.allclose(tm[int(NEG)], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(tm[int(NEU)], [1 / 3, 1 / 3, 1 / 3])

    def test_alternating_hand_count(self):
        tm = estimate_chain([POS, NEG, POS, NEG, POS], alpha=1.0)
        assert np.allclose(tm[int(POS)], [3 / 5, 1 / 5, 1 / 5])
        assert np.allclose(tm[int(NEG)], [1 / 5, 1 / 5, 3 / 5])

    def test_rows_sum_to_one(self, rng):
        sequences = [
            [Sentiment(int(s)) for s in rng.integers(0, 3, size=rng.integers(0, 30))]
            for _ in range(50)
        ]
        tm = estimate_chains(*flat(sequences), alpha=float(rng.uniform(0.1, 3.0)))
        assert tm.shape == (50, 3, 3)
        assert np.max(np.abs(tm.sum(axis=2) - 1.0)) < 1e-12

    def test_strictly_positive(self, rng):
        tm = estimate_chain([POS] * 10, alpha=0.5)
        assert (tm > 0).all()

    def test_non_positive_smoothing(self):
        with pytest.raises(InvalidSpec, match="^smoothing must be > 0, got 0.0$"):
            estimate_chain([POS], alpha=0.0)

    def test_consistency_on_sampled_sequences(self, rng):
        for seed in range(3):
            P = well_separated_chain(rng)
            seq = sample_chain_sequence(P, 10_000, seed=seed)
            est = estimate_chain(seq, alpha=1.0)
            assert np.max(np.abs(est - P)) < 0.02

    @pytest.mark.parametrize("alpha", [1e-6, 0.5, 1.0, 3.7, 1e6])
    def test_batch_is_the_one_sequence_loop_bitwise(self, rng, alpha):
        # empty, one-state and long sequences side by side: a transition
        # from one sequence's last state to the next one's first would
        # change a count
        sequences = [(), (POS,), (NEG,), (POS, POS), (), (NEU, NEG, POS), (POS,)]
        sequences += [
            tuple(Sentiment(int(s)) for s in rng.integers(0, 3, size=rng.integers(0, 12)))
            for _ in range(300)
        ]
        batch = estimate_chains(*flat(sequences), alpha)
        for k, states in enumerate(sequences):
            assert np.array_equal(batch[k], one_sequence_chain(states, alpha))

    def test_no_transition_spans_two_sequences(self):
        tm = estimate_chains(*flat([(POS, POS), (NEG, NEG), (NEU,)]), alpha=1.0)
        assert np.array_equal(tm[0][int(POS)], [1 / 4, 1 / 4, 2 / 4])
        assert np.array_equal(tm[0][[int(NEG), int(NEU)]], np.full((2, 3), 1 / 3))
        assert np.array_equal(tm[1][int(NEG)], [2 / 4, 1 / 4, 1 / 4])
        assert np.array_equal(tm[2], np.full((3, 3), 1 / 3))

    def test_lengths_must_cover_the_states(self, defaults):
        with pytest.raises(DimensionMismatch):
            estimate_chains(np.array([2, 1]), np.zeros(4, dtype=np.int8), defaults.alpha)


class TestStationaryDistribution:
    def test_uniform_matrix(self):
        pi = stationary_distribution(np.full((3, 3), 1.0 / 3))
        assert np.allclose(pi, 1.0 / 3, atol=1e-12)

    def test_doubly_stochastic(self, rng):
        # random doubly stochastic via Sinkhorn scaling
        M = rng.random((3, 3)) + 0.1
        for _ in range(500):
            M /= M.sum(axis=1, keepdims=True)
            M /= M.sum(axis=0, keepdims=True)
        M /= M.sum(axis=1, keepdims=True)
        pi = stationary_distribution(M)
        assert np.allclose(pi, 1 / 3, atol=1e-8)

    def test_three_state_hand_solve(self):
        # birth-death chain: detailed balance gives pi = (1/4, 1/2, 1/4),
        # and every tree weight is exact in binary
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        assert np.array_equal(stationary_distribution(P), [0.25, 0.5, 0.25])

    def test_residual_tolerance(self, rng):
        for _ in range(20):
            P = random_ergodic_chain(rng)
            pi = stationary_distribution(P)
            assert np.max(np.abs(pi @ P - pi)) < 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_batch_is_row_by_row(self, rng):
        chains = np.stack([random_ergodic_chain(rng) for _ in range(40)]).reshape(4, 10, 3, 3)
        batch = stationary_distribution(chains)
        assert batch.shape == (4, 10, 3)
        for index in np.ndindex(4, 10):
            assert np.array_equal(batch[index], stationary_distribution(chains[index]))

    def test_single_closed_class_with_transient_state(self):
        P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert np.allclose(stationary_distribution(P), [0.5, 0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("P", [np.eye(3), [[1, 0, 0], [0, 1, 0], [0.2, 0.3, 0.5]]])
    def test_two_closed_classes(self, P):
        with pytest.raises(NonErgodic):
            stationary_distribution(np.array(P, dtype=float))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 2), (3,), (5, 2, 3)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            stationary_distribution(np.full(shape, 0.5))


class TestAffinityScore:
    def test_empty_is_zero(self, defaults):
        assert affinity_score(()) == 0.0
        scores = score_sequences(*flat([]), defaults.alpha, defaults.kappa)
        assert scores.dtype == np.float64 and scores.shape == (0,)

    def test_all_pos_hand_value(self):
        assert affinity_score((POS, POS, POS)) == pytest.approx(15 / 88, rel=1e-12)

    def test_monotone_in_length(self):
        # same estimated chain, growing evidence
        values = [affinity_score((POS,) * n) for n in (3, 6, 12, 24)]
        # chains differ slightly, so recompute with a fixed chain factor instead
        pos_mass = stationary_distribution(estimate_chain((POS,) * 5))[int(POS)]
        fixed = [pos_mass * n / (n + 5.0) for n in (3, 6, 12, 24)]
        assert all(a < b for a, b in zip(fixed, fixed[1:]))
        assert all(0.0 <= v < 1.0 for v in values)

    def test_bounds_random(self, rng, defaults):
        sequences = [
            tuple(Sentiment(int(s)) for s in rng.integers(0, 3, size=rng.integers(0, 40)))
            for k in range(100)
        ]
        scores = score_sequences(*flat(sequences), defaults.alpha, defaults.kappa)
        assert ((0.0 <= scores) & (scores < 1.0)).all()

    def test_order_sensitivity(self):
        a = affinity_score((POS, POS, NEG, NEG))
        b = affinity_score((POS, NEG, POS, NEG))
        assert a != b

    def test_relabeling_invariance(self, defaults):
        states = (POS, NEG, NEU, POS)
        scores = score_sequences(*flat([states, (NEG,), states]), defaults.alpha, defaults.kappa)
        assert scores[0] == scores[2]

    def test_smoothing_error_propagates(self):
        with pytest.raises(InvalidSpec, match=r"^alpha must be in \[1e-6, 1e6\], got 0.0$"):
            affinity_score((POS,), alpha=0.0)

    def test_kappa_validated(self):
        with pytest.raises(InvalidSpec, match=r"^kappa must be in \[1e-6, 1e6\], got 0.0$"):
            affinity_score((POS,), kappa=0.0)

    @pytest.mark.parametrize(
        "alpha, kappa",
        [(1e-20, 1e-20), (1e-7, 5.0), (1.0, 1e-7), (2e6, 5.0), (1.0, 2e6), (math.nan, 5.0)],
    )
    def test_smoothing_outside_range_refused(self, alpha, kappa):
        # unchecked, alpha = kappa = 1e-20 scores three POS states exactly 1.0
        with pytest.raises(InvalidSpec, match=r" must be in \[1e-6, 1e6\], got "):
            score_sequences(np.array([3]), np.array([2, 2, 2], dtype=np.int8), alpha, kappa)

    @pytest.mark.parametrize("alpha, kappa", list(itertools.product(SMOOTHING_RANGE, repeat=2)))
    def test_smoothing_range_is_closed(self, alpha, kappa):
        scores = score_sequences(*flat([(POS,) * 3, (NEG, POS), ()]), alpha, kappa)
        assert ((scores >= 0) & (scores < 1)).all()

    def test_score_sequences_deterministic(self, defaults):
        seqs = [(POS, NEG), (POS,), (), (NEU, POS, POS)]
        s1 = score_sequences(*flat(seqs), defaults.alpha, defaults.kappa)
        s2 = score_sequences(*flat(seqs[::-1]), defaults.alpha, defaults.kappa)
        assert np.array_equal(s1, s2[::-1])
        assert s1.tolist() == [affinity_score(states) for states in seqs]
