import tracemalloc

import numpy as np
import pytest

from affinity_miner.cluster import Clustering
from affinity_miner.errors import UnknownNode
from affinity_miner.influence import cluster_link_counts, influential_types
from affinity_miner.ingest import parse_mbti
from affinity_miner.synth import PlantedSpec, planted_partition

from conftest import counts_by_id, dict_graph, index_clusters, make_graph, neighbor_sets


def clustering_of(groups, nodes):
    order = tuple(sorted(nodes))
    return Clustering(
        clusters=index_clusters(groups, order),
        method="k-destinations",
        params={},
        nodes=order,
        iterations=1,
        converged=True,
    )


class TestClusterLinkCounts:
    def test_star_graph(self):
        edge_list = [("hub", f"leaf{i}", 0.5) for i in range(5)]
        g = make_graph(edge_list)
        c = clustering_of([set(g.nodes)], g.nodes)
        counts = counts_by_id(g, c)
        assert counts[(0, "hub")] == 5
        for i in range(5):
            assert counts[(0, f"leaf{i}")] == 1

    def test_reciprocal_edges_count_once(self):
        g = make_graph([("u", "v", 0.5), ("v", "u", 0.9)])
        c = clustering_of([{"u", "v"}], g.nodes)
        counts = counts_by_id(g, c)
        assert counts[(0, "u")] == 1
        assert counts[(0, "v")] == 1

    def test_overlapping_clusters_independent_counts(self):
        g = make_graph([("a", "b", 0.5), ("b", "c", 0.5)])
        c = clustering_of([{"a", "b"}, {"b", "c"}], g.nodes)
        counts = counts_by_id(g, c)
        assert counts[(0, "b")] == 1
        assert counts[(1, "b")] == 1

    def test_unknown_node(self):
        g = make_graph([("a", "b", 0.5)])
        c = clustering_of([{"a", "b", "ghost"}], list(g.nodes) + ["ghost"])
        with pytest.raises(UnknownNode):
            cluster_link_counts(g, c)

    def test_sum_equals_twice_link_pairs(self, rng):
        for seed in range(10):
            spec = PlantedSpec(n=24, k=2, p_in=0.5, p_out=0.2, seed=seed)
            g, _ = planted_partition(spec)
            nodes = list(g.nodes)
            half = set(nodes[: len(nodes) // 2])
            groups = [half, set(nodes) - half]
            c = clustering_of(groups, nodes)
            counts = cluster_link_counts(g, c)
            neigh = neighbor_sets(g)
            for members, member_counts in zip(groups, counts):
                links = sum(
                    1
                    for u in members
                    for v in neigh[u]
                    if v in members and u < v
                )
                assert int(member_counts.sum()) == 2 * links


    def test_matches_per_node_loop_on_overlapping_clusterings(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = PlantedSpec(n=40, k=3, p_in=0.3, p_out=0.05, seed=seed)
            g, _ = planted_partition(spec)
            nodes = list(g.nodes)
            # each node joins each of four clusters with probability 0.4
            groups = [
                {u for u in nodes if rng.random() < 0.4} or {nodes[0]} for _ in range(4)
            ]
            c = clustering_of(groups, nodes)
            neigh = neighbor_sets(g)
            expected = {}
            for ci, members in enumerate(c.clusters):
                ids = {c.nodes[i] for i in members.tolist()}
                for u in ids:
                    expected[(ci, u)] = sum(1 for v in neigh[u] if v in ids and v != u)
            assert counts_by_id(g, c) == expected

    def test_memory_does_not_grow_with_cluster_size_squared(self):
        """One cluster of 2048 nodes with about 12 links each: a per-member
        cluster indicator row would store 2048^2 entries, about 48 MiB."""
        spec = PlantedSpec(
            n=2048, k=16, p_in=0.03, p_out=0.001, w_in=(0.8, 1.0), w_out=(0.1, 0.5), seed=0
        )
        g, _ = planted_partition(spec)
        c = clustering_of([set(g.nodes)], g.nodes)
        c.memberships
        tracemalloc.start()
        try:
            counts = cluster_link_counts(g, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        src, dst, _ = g.edge_arrays
        links = {frozenset(e) for e in zip(src.tolist(), dst.tolist()) if e[0] != e[1]}
        assert int(counts[0].sum()) == 2 * len(links)
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestInfluentialTypes:
    def test_top_type_reported(self):
        edge_list = [("hub", f"leaf{i}", 0.5) for i in range(3)]
        g = make_graph(edge_list, types={"hub": "ESTJ"})
        c = clustering_of([set(g.nodes)], g.nodes)
        report = influential_types(g, c)
        assert report[0].top_node == "hub"
        assert report[0].top_type is parse_mbti("ESTJ")
        assert report[0].link_count == 3

    def test_tie_breaks_to_smaller_id(self):
        g = make_graph([("a", "b", 0.5)])
        c = clustering_of([{"a", "b"}], g.nodes)
        report = influential_types(g, c)
        assert report[0].top_node == "a"

    def test_singleton_cluster(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ENTP"})
        c = clustering_of([{"a"}, {"b"}], g.nodes)
        report = influential_types(g, c)
        assert report[0].link_count == 0
        assert report[0].top_type is parse_mbti("ENTP")

    def test_per_type_totals(self):
        g = make_graph(
            [("a", "b", 0.5), ("a", "c", 0.5)],
            types={"a": "ENTP", "b": "INFJ", "c": "INFJ"},
        )
        c = clustering_of([set(g.nodes)], g.nodes)
        totals = influential_types(g, c)[0].per_type_link_totals
        assert totals[parse_mbti("ENTP")] == 2
        assert totals[parse_mbti("INFJ")] == 2


def random_graph_and_clustering(seed):
    spec = PlantedSpec(n=30, k=3, p_in=0.4, p_out=0.1, seed=seed)
    g, truth = planted_partition(spec)
    groups: dict[int, set] = {}
    for u in g.nodes:
        groups.setdefault(truth[u], set()).add(u)
    c = clustering_of(list(groups.values()), g.nodes)
    return g, c


class TestInvariances:
    @pytest.mark.parametrize("scale", [0.001, 7.3])
    def test_weight_rescaling(self, scale):
        for seed in range(20):
            g, c = random_graph_and_clustering(seed)
            scaled = dict_graph(
                nodes=g.nodes,
                edges={e: w * scale for e, w in g.edges.items()},
            )
            assert influential_types(g, c) == influential_types(scaled, c)

    def test_order_preserving_relabeling(self):
        for seed in range(20):
            g, c = random_graph_and_clustering(seed)
            rename = {u: f"x_{u}" for u in g.nodes}  # preserves lexicographic order
            g2 = dict_graph(
                nodes={rename[u]: t for u, t in g.nodes.items()},
                edges={(rename[u], rename[v]): w for (u, v), w in g.edges.items()},
            )
            c2 = Clustering(
                clusters=c.clusters,
                method=c.method,
                params={},
                nodes=tuple(rename[u] for u in c.nodes),
                iterations=1,
                converged=True,
            )
            assert c2.nodes == g2.order
            r1 = influential_types(g, c)
            r2 = influential_types(g2, c2)
            for a, b in zip(r1, r2):
                assert rename[a.top_node] == b.top_node
                assert a.top_type == b.top_type
                assert a.link_count == b.link_count
                assert a.per_type_link_totals == b.per_type_link_totals
