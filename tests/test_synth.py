import hashlib
import json
from functools import partial

import numpy as np
import pytest

from affinity_miner import cli, synth
from affinity_miner.affinity import estimate_chains
from affinity_miner.cluster import k_destinations
from affinity_miner.errors import InvalidSpec
from affinity_miner.ingest import ALL_TYPES, Sentiment
from affinity_miner.synth import generate_dataset

from conftest import dict_graph, flat, random_ergodic_chain
from oracles import (
    PlantedSpec,
    _block_of,
    labels_from_clustering,
    nmi,
    planted_partition,
    sample_chain_sequence,
)


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
        assert (g1.nodes, g1.edges, t1) == (g2.nodes, g2.edges, t2)

    def test_different_seed_differs(self):
        a = planted_partition(PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.05, seed=1))[0]
        b = planted_partition(PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.05, seed=2))[0]
        assert a.edges != b.edges

    def test_null_model_unrecoverable(self, defaults):
        scores = []
        for seed in range(5):
            spec = PlantedSpec(n=60, k=3, p_in=0.15, p_out=0.15, seed=seed)
            g, truth = planted_partition(spec)
            order = g.order
            tvec = np.array([truth[u] for u in order])
            labels = labels_from_clustering(k_destinations(g, 3, defaults.tau))
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
        for members in by_block.values():
            for i, u in enumerate(members):
                assert g.nodes[u] is ALL_TYPES[i % 16]


def dict_loop_planted_partition(spec):
    """planted_partition's draws, kept one edge at a time in id -> type and
    (source, target) -> weight dicts and built by conftest.dict_graph."""
    width = len(str(spec.n - 1))
    ids = [f"u{i:0{width}d}" for i in range(spec.n)]
    blocks = _block_of(spec)
    streams = np.random.SeedSequence(spec.seed).spawn(spec.n)
    edges = {}
    for i in range(spec.n):
        rng = np.random.default_rng(streams[i])
        same = blocks == blocks[i]
        p = np.where(same, spec.p_in, spec.p_out)
        lo = np.where(same, spec.w_in[0], spec.w_out[0])
        hi = np.where(same, spec.w_in[1], spec.w_out[1])
        hit = rng.random(spec.n) < p
        weight = lo + (hi - lo) * rng.random(spec.n)
        for j in range(spec.n):
            if hit[j] and j != i:
                edges[(ids[i], ids[j])] = float(weight[j])
    first = {}
    for i in range(spec.n):
        first.setdefault(int(blocks[i]), i)
    label = {ids[i]: ALL_TYPES[(i - first[int(blocks[i])]) % 16] for i in range(spec.n)}
    nodes = {u: label[u] for pair in edges for u in pair}
    return dict_graph(nodes, edges), {ids[i]: int(blocks[i]) for i in range(spec.n)}


@pytest.mark.parametrize(
    "spec",
    [
        PlantedSpec(n=1, k=1, p_in=1.0, p_out=1.0),
        PlantedSpec(n=9, k=3, p_in=0.0, p_out=0.0, seed=2),
        PlantedSpec(n=12, k=3, p_in=1.0, p_out=0.0),
        PlantedSpec(n=10, k=10, p_in=0.5, p_out=0.5, seed=5),
        PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.05, seed=9),
        PlantedSpec(n=20, k=2, p_in=0.5, p_out=0.2, w_in=(0.8, 1.0), w_out=(0.1, 0.2), seed=4),
        PlantedSpec(n=101, k=4, p_in=0.02, p_out=0.0, seed=1),
        PlantedSpec(n=300, k=8, p_in=0.1, p_out=0.01, seed=11),
    ],
    ids=lambda spec: f"n{spec.n}-k{spec.k}-p{spec.p_in}-{spec.p_out}-s{spec.seed}",
)
def test_planted_partition_matches_the_dict_built_graph_bitwise(spec):
    g, truth = planted_partition(spec)
    want, want_truth = dict_loop_planted_partition(spec)
    assert g.order == want.order and truth == want_truth
    for got, expected in zip((g.node_types, *g.edge_arrays), (want.node_types, *want.edge_arrays)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


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
        est = estimate_chains(*flat([seq]), alpha=1.0)[0]
        assert np.max(np.abs(est - P)) < 0.02

    def test_seeded_determinism(self, rng):
        P = random_ergodic_chain(rng)
        s1 = sample_chain_sequence(P, 500, seed=3)
        s2 = sample_chain_sequence(P, 500, seed=3)
        assert s1 == s2

    @pytest.mark.parametrize(
        "P, message",
        [
            (np.full((2, 2), 0.5), "must be 3 x 3"),
            (np.full((3, 4), 0.25), "must be 3 x 3"),
            (np.array([[1.2, -0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "finite and >= 0"),
            (np.array([[np.nan, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "finite and >= 0"),
            (np.array([[np.inf, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "finite and >= 0"),
            (np.array([[0.5, 0.5, 1e-11], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "rows must sum to 1"),
            (np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]), "rows must sum to 1"),
        ],
    )
    def test_not_a_chain_rejected(self, P, message):
        with pytest.raises(InvalidSpec, match=message):
            sample_chain_sequence(P, 10, seed=0)


class TestGenerateDataset:
    def test_files_written_and_deterministic(self, tmp_path):
        paths1 = generate_dataset(tmp_path / "a", seed=5, users_per_type=3)
        paths2 = generate_dataset(tmp_path / "b", seed=5, users_per_type=3)
        for key in ("interactions", "profiles", "embeddings", "lexicon"):
            assert paths1[key].read_bytes() == paths2[key].read_bytes()

    def test_loads_through_ingest(self, tmp_path):
        from affinity_miner.ingest import load_interactions, load_profiles

        paths = generate_dataset(tmp_path, seed=1, users_per_type=2)
        with paths["interactions"].open() as fh:
            events = load_interactions(fh)
        with paths["profiles"].open() as fh:
            profiles = load_profiles(fh)
        assert len(events) and profiles
        assert set(events.users) <= {p.user_id for p in profiles}
        assert set(events.documents) <= set(events.users)
        assert any(p.bot_score >= 2.5 for p in profiles)
        assert {p.mbti for p in profiles} == set(ALL_TYPES)

    def test_no_users_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec, match="users_per_type"):
            generate_dataset(tmp_path, seed=0, users_per_type=0)

    def test_lines_are_sorted_key_json(self, tmp_path):
        paths = generate_dataset(tmp_path, seed=5, users_per_type=3)
        lines = paths["interactions"].read_text(encoding="utf-8").splitlines()
        assert len(lines) > 100
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)
        stamps = sorted(json.loads(line)["timestamp"] for line in lines)
        assert stamps == list(range(1_600_000_000, 1_600_000_000 + len(lines)))

    def test_chains_solved_once_and_no_json_encoder(self, tmp_path, monkeypatch):
        calls = {"stationary_distribution": 0, "dumps": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            synth, "stationary_distribution",
            counted("stationary_distribution", synth.stationary_distribution),
        )
        monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
        generate_dataset(tmp_path, seed=2, users_per_type=4)
        assert calls == {"stationary_distribution": 2, "dumps": 0}


_LEXICON_SHA = "3076140c28345e26b3ed562e097451c9cdfef088da5a6498aa5d22cc1a0c809b"
# the seed-7 demo, at the synth subcommand's default of 12 users per type
_DEMO_SHA = dict(
    interactions="807d354bfb766f177e3c164c2ffeefda42f0cdbc5948db4d4d34b68f9440bf33",
    profiles="4c4ce9c5e5c3320adbd342a8fe30e664857471cf05de4435a18e088dcda23969",
    embeddings="ddcf57a0e24dcff3c8974fafd4f0638ce59ec69098438908d5d1dd7501c32b95",
)


def _synth_subcommand(*args):
    """A writer that runs `affinity-miner synth --out DIR *args`, so argparse
    sets every option `args` leaves out; returns the files by stem."""

    def write(out):
        assert cli.main(["synth", "--out", str(out), *args]) == 0
        return {path.stem: path for path in out.iterdir()}

    return write


@pytest.mark.parametrize(
    "write, digests",
    [
        (partial(generate_dataset, seed=7, users_per_type=12), _DEMO_SHA),
        (
            partial(generate_dataset, seed=5, users_per_type=2),
            dict(
                interactions="6e57d138eef0ecbc02f834d9d4cee0fccae9188849bcd90aa0c74b3fa1c81b7e",
                profiles="5fcb1741ddf7135b2978f5a01acdbab1e5dc8fabef5cc4e6b2a00ea424b54e28",
                embeddings="83ac2794d903f1b63f788adf0ec73941de5f81be471d6a84884789656e2f3b86",
            ),
        ),
        # the smallest blocks: four users each, plus a bot in every block
        (
            partial(generate_dataset, seed=3, users_per_type=1),
            dict(
                interactions="072b01767fe8708f5f33c11ce5569241429039d425a7b592abc06912567de9bc",
                profiles="cb7b682604a87ea0e96c40addf731c381179e8f224f2b888bb727c1a8fc83c29",
                embeddings="4235c75ecfe3a29606ef21b339e555ad54e1109ba80631356189ea3f78945b09",
            ),
        ),
        # the kdest-lr-768 benchmark inputs at seed 1
        (
            partial(generate_dataset, seed=1, users_per_type=48),
            dict(
                interactions="7f987c79d724cfe395c8d61545f013a49a3115f11a25c476ca4e3c47f7fe017c",
                profiles="faec12a970b1e5fea048e93c5d4993dee7da78433b88fd9a1c88c93f0df6cebe",
                embeddings="cad9f1651a005849f71454a0117e9451fdaf928dcb8010eab622ff42a6f07985",
            ),
        ),
        # the seed-7 demo again, with --users-per-type left to argparse
        (_synth_subcommand("--seed", "7"), _DEMO_SHA),
    ],
    ids=["seed7-12", "seed5-2", "seed3-1", "seed1-48", "synth-seed7"],
)
def test_generated_files_are_pinned(tmp_path, write, digests):
    """Generated inputs are byte-for-byte those every golden was recorded on."""
    paths = write(tmp_path)
    expected = dict(digests, lexicon=_LEXICON_SHA)
    actual = {k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in expected}
    assert actual == expected
