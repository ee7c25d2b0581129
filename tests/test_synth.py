import numpy as np
import pytest

from affinity_miner import (
    estimate_chain,
    k_destinations,
    labels_from_clustering,
    nmi,
    planted_partition,
    sample_chain_sequence,
)
from affinity_miner.errors import InvalidSpec
from affinity_miner.ingest import Sentiment
from affinity_miner.synth import PlantedSpec, generate_dataset

from conftest import random_ergodic_chain


class TestPlantedSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            PlantedSpec(n=10, k=11, p_in=0.5, p_out=0.1)
        with pytest.raises(InvalidSpec):
            PlantedSpec(n=10, k=2, p_in=0.1, p_out=0.5)
        with pytest.raises(InvalidSpec):
            PlantedSpec(n=10, k=2, p_in=1.5, p_out=0.1)
        with pytest.raises(InvalidSpec):
            PlantedSpec(n=10, k=2, p_in=0.5, p_out=0.1, w_in=(0.0, 1.0))


class TestPlantedPartition:
    def test_disconnected_complete_blocks(self):
        spec = PlantedSpec(n=12, k=3, p_in=1.0, p_out=0.0, seed=0)
        g, truth = planted_partition(spec)
        assert len(g.nodes) == 12
        for (u, v) in g.edges:
            assert truth[u] == truth[v]
        by_block = {}
        for u, b in truth.items():
            by_block.setdefault(b, set()).add(u)
        for members in by_block.values():
            for u in members:
                for v in members:
                    if u != v:
                        assert (u, v) in g.edges

    def test_block_sizes_differ_by_at_most_one(self):
        spec = PlantedSpec(n=13, k=4, p_in=1.0, p_out=0.0, seed=0)
        _, truth = planted_partition(spec)
        sizes = sorted(np.bincount(list(truth.values())))
        assert sizes == [3, 3, 3, 4]

    def test_same_seed_identical(self):
        spec = PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.05, seed=9)
        g1, t1 = planted_partition(spec)
        g2, t2 = planted_partition(spec)
        assert g1 == g2 and t1 == t2

    def test_different_seed_differs(self):
        a = planted_partition(PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.05, seed=1))[0]
        b = planted_partition(PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.05, seed=2))[0]
        assert a.edges != b.edges

    def test_null_model_unrecoverable(self):
        scores = []
        for seed in range(5):
            spec = PlantedSpec(n=60, k=3, p_in=0.15, p_out=0.15, seed=seed)
            g, truth = planted_partition(spec)
            order = g.sorted_nodes()
            tvec = np.array([truth[u] for u in order])
            labels = labels_from_clustering(k_destinations(g, 3))
            scores.append(nmi(labels, tvec))
        assert np.mean(scores) < 0.12

    def test_expected_in_block_degree(self):
        p_in, block = 0.3, 10
        degrees = []
        for seed in range(50):
            spec = PlantedSpec(n=2 * block, k=2, p_in=p_in, p_out=0.0, seed=seed)
            g, truth = planted_partition(spec)
            out_deg = {u: 0 for u in truth}
            for (u, v) in g.edges:
                out_deg[u] += 1
            degrees.extend(out_deg.values())
        expected = p_in * (block - 1)
        assert abs(np.mean(degrees) - expected) < 0.15

    def test_weights_within_ranges(self):
        spec = PlantedSpec(
            n=20, k=2, p_in=0.5, p_out=0.2, w_in=(0.8, 1.0), w_out=(0.1, 0.2), seed=4
        )
        g, truth = planted_partition(spec)
        for (u, v), w in g.edges.items():
            lo, hi = ((0.8, 1.0) if truth[u] == truth[v] else (0.1, 0.2))
            assert lo <= w <= hi

    def test_types_cycle_within_block(self):
        spec = PlantedSpec(n=40, k=2, p_in=1.0, p_out=0.0, seed=0)
        g, truth = planted_partition(spec)
        by_block = {}
        for u in sorted(truth):
            by_block.setdefault(truth[u], []).append(u)
        from affinity_miner import ALL_TYPES

        for members in by_block.values():
            for i, u in enumerate(members):
                assert g.nodes[u] is ALL_TYPES[i % 16]


class TestSampleChainSequence:
    def test_absorbing_pos_row(self):
        P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        seq = sample_chain_sequence(P, 50, seed=0)
        assert all(s is Sentiment.POS for s in seq)

    def test_length_zero(self):
        P = np.full((3, 3), 1 / 3)
        assert sample_chain_sequence(P, 0, seed=0) == ()

    def test_empirical_frequencies_match(self, rng):
        P = random_ergodic_chain(rng)
        seq = sample_chain_sequence(P, 100_000, seed=7)
        est = estimate_chain(seq, alpha=1.0)
        assert np.max(np.abs(est.entries - P)) < 0.02

    def test_seeded_determinism(self, rng):
        P = random_ergodic_chain(rng)
        s1 = sample_chain_sequence(P, 500, seed=3)
        s2 = sample_chain_sequence(P, 500, seed=3)
        assert s1 == s2


class TestGenerateDataset:
    def test_files_written_and_deterministic(self, tmp_path):
        paths1 = generate_dataset(tmp_path / "a", seed=5, users_per_type=3)
        paths2 = generate_dataset(tmp_path / "b", seed=5, users_per_type=3)
        for key in ("interactions", "profiles", "embeddings", "lexicon"):
            assert paths1[key].read_bytes() == paths2[key].read_bytes()

    def test_loads_through_ingest(self, tmp_path):
        from affinity_miner import load_interactions, load_profiles

        paths = generate_dataset(tmp_path, seed=1, users_per_type=2)
        with paths["interactions"].open() as fh:
            events = load_interactions(fh)
        with paths["profiles"].open() as fh:
            profiles = load_profiles(fh)
        assert events and profiles
        assert any(p.bot_score >= 2.5 for p in profiles)
        assert {p.mbti for p in profiles} == set(__import__("affinity_miner").ALL_TYPES)
