import hashlib

import numpy as np
import pytest

from affinity_miner import (
    estimate_chains,
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
            order = g.order
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
        est = estimate_chains([seq], alpha=1.0)[0]
        assert np.max(np.abs(est - P)) < 0.02

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
        assert len(events) and profiles
        assert set(events.users) <= {p.user_id for p in profiles}
        assert set(events.documents) <= set(events.users)
        assert any(p.bot_score >= 2.5 for p in profiles)
        assert {p.mbti for p in profiles} == set(__import__("affinity_miner").ALL_TYPES)

    def test_no_users_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec, match="users_per_type"):
            generate_dataset(tmp_path, users_per_type=0)

    def test_one_block_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec, match="blocks"):
            generate_dataset(tmp_path, blocks=1)

    def test_no_blocks_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec, match="blocks"):
            generate_dataset(tmp_path, blocks=0)


_LEXICON_SHA = "3076140c28345e26b3ed562e097451c9cdfef088da5a6498aa5d22cc1a0c809b"


@pytest.mark.parametrize(
    "kwargs, digests",
    [
        (
            dict(seed=7, users_per_type=12),
            dict(
                interactions="807d354bfb766f177e3c164c2ffeefda42f0cdbc5948db4d4d34b68f9440bf33",
                profiles="4c4ce9c5e5c3320adbd342a8fe30e664857471cf05de4435a18e088dcda23969",
                embeddings="ddcf57a0e24dcff3c8974fafd4f0638ce59ec69098438908d5d1dd7501c32b95",
            ),
        ),
        (
            dict(seed=5, users_per_type=2),
            dict(
                interactions="6e57d138eef0ecbc02f834d9d4cee0fccae9188849bcd90aa0c74b3fa1c81b7e",
                profiles="5fcb1741ddf7135b2978f5a01acdbab1e5dc8fabef5cc4e6b2a00ea424b54e28",
                embeddings="83ac2794d903f1b63f788adf0ec73941de5f81be471d6a84884789656e2f3b86",
            ),
        ),
        (
            dict(seed=3, users_per_type=1, bots=20),
            dict(
                interactions="3fde65c0a3434f4e24a790d45cd994fc18195016e2fa8891550f592bb4fc2997",
                profiles="8e62526aa9283f878fd97063ce3b3dea74362d9ad980dfbd792cc286674a7231",
                embeddings="36748da9e0b2397f5689f26c2a1536426a51384a46e46643c13a5993741c14f4",
            ),
        ),
        # one user per block plus a bot in four of them: zero or one mate
        (
            dict(seed=11, users_per_type=1, blocks=16),
            dict(
                interactions="cdd43371d7dc601b28993472304e1d7f65bb284f91a4a30dd02cdc846f0a1d13",
                profiles="4f5277fa1b6422d850ad69b5df832b3daa2225d8b2b38640e64750ab16c3f34d",
                embeddings="95a980f40042c1830e6eea628adbbf7c7b1852f366e56bec98b462c7e1cce073",
            ),
        ),
    ],
    ids=["seed7-12", "seed5-2", "seed3-1-bots20", "seed11-1-blocks16"],
)
def test_generated_files_are_pinned(tmp_path, kwargs, digests):
    """Generated inputs are byte-for-byte those every golden was recorded on."""
    paths = generate_dataset(tmp_path, **kwargs)
    expected = dict(digests, lexicon=_LEXICON_SHA)
    actual = {k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in expected}
    assert actual == expected
