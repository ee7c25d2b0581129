import pytest

from affinity_miner import (
    MbtiType,
    Sentiment,
    UserProfile,
    build_affinity_graph,
    export_graph,
    parse_graph_tsv,
    parse_mbti,
    score_sequences,
    type_pair_percentages,
)
from affinity_miner.errors import EmptyGraph, MalformedRecord
from affinity_miner.graph import EDGE_TSV_HEADER, all_type_pairs

from conftest import make_graph


def profile(uid, code="INFJ"):
    return UserProfile(uid, parse_mbti(code), 0.1)


class TestBuildAffinityGraph:
    def test_below_threshold_excluded(self):
        g = build_affinity_graph({("a", "b"): 9e-6}, [profile("a"), profile("b")])
        assert g.edges == {}

    def test_exact_threshold_included(self):
        g = build_affinity_graph({("a", "b"): 1e-5}, [profile("a"), profile("b")])
        assert g.edges == {("a", "b"): 1e-5}

    def test_missing_profile_drops_edge(self):
        g = build_affinity_graph(
            {("a", "b"): 0.5, ("a", "c"): 0.5},
            [profile("a"), profile("b")],
        )
        assert ("a", "c") not in g.edges
        assert "c" not in g.nodes

    def test_isolated_nodes_dropped(self):
        g = build_affinity_graph(
            {("a", "b"): 0.5},
            [profile("a"), profile("b"), profile("z")],
        )
        assert set(g.nodes) == {"a", "b"}

    def test_accepts_score_sequences_output(self):
        scores = score_sequences({("a", "b"): (Sentiment.POS,) * 3})
        g = build_affinity_graph(scores, [profile("a"), profile("b")])
        assert g.edges[("a", "b")] == scores[("a", "b")]

    def test_min_weight_respects_threshold(self, rng):
        for _ in range(20):
            scores = {
                (f"u{i}", f"u{j}"): float(rng.random() * 1e-4)
                for i in range(8)
                for j in range(8)
                if i != j
            }
            profiles = [profile(f"u{i}") for i in range(8)]
            g = build_affinity_graph(scores, profiles)
            if g.edges:
                assert min(g.edges.values()) >= g.threshold

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            build_affinity_graph({}, [], threshold=0.0)


class TestTypePairPercentages:
    def test_single_pair_is_100(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ESFJ", "b": "ISFP"})
        table = type_pair_percentages(g)
        key = (parse_mbti("ESFJ"), parse_mbti("ISFP"))
        assert table.entries[key] == 100.0

    def test_two_pairs_split(self):
        g = make_graph(
            [("a", "b", 0.5), ("c", "d", 0.5)],
            types={"a": "ESFJ", "b": "ISFP", "c": "INTJ", "d": "INTP"},
        )
        table = type_pair_percentages(g)
        values = sorted(v for v in table.entries.values() if v > 0)
        assert values == [50.0, 50.0]
        assert sum(1 for v in table.entries.values() if v == 0) == 134

    def test_exactly_136_entries(self):
        g = make_graph([("a", "b", 0.5)])
        assert len(type_pair_percentages(g).entries) == 136
        assert len(all_type_pairs()) == 136

    def test_percentages_sum_to_100(self, rng):
        codes = [str(t) for t in MbtiType]
        edge_list = []
        types = {}
        for i in range(40):
            u, v = f"u{i}", f"u{(i * 7 + 3) % 40}"
            if u == v:
                continue
            types[u] = codes[int(rng.integers(16))]
            types[v] = types.get(v, codes[int(rng.integers(16))])
            edge_list.append((u, v, float(rng.random() + 0.01)))
        g = make_graph(edge_list, types=types)
        total = sum(type_pair_percentages(g).entries.values())
        assert abs(total - 100.0) < 1e-9

    def test_relabeling_invariance(self):
        types = {"a": "ESFJ", "b": "ISFP", "c": "ESFJ"}
        g1 = make_graph([("a", "b", 0.5), ("c", "b", 0.2)], types=types)
        renamed = {"a": "x", "b": "y", "c": "z"}
        g2 = make_graph(
            [("x", "y", 0.5), ("z", "y", 0.2)],
            types={renamed[k]: v for k, v in types.items()},
        )
        assert type_pair_percentages(g1).entries == type_pair_percentages(g2).entries

    def test_empty_graph_raises(self):
        from affinity_miner.graph import AffinityGraph

        with pytest.raises(EmptyGraph):
            type_pair_percentages(AffinityGraph(nodes={}, edges={}))


class TestExportImport:
    def test_one_edge_tsv(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ESFJ", "b": "ISFP"})
        lines = export_graph(g, "edge-tsv").splitlines()
        assert len(lines) == 2
        assert lines[0] == "source\ttarget\tweight\tsource_type\ttarget_type"
        assert lines[1] == "a\tb\t0.5\tESFJ\tISFP"

    def test_empty_graph_header_only(self):
        from affinity_miner.graph import AffinityGraph

        g = AffinityGraph(nodes={}, edges={})
        lines = export_graph(g, "edge-tsv").splitlines()
        assert lines == ["source\ttarget\tweight\tsource_type\ttarget_type"]

    def test_round_trip_exact(self, rng):
        for _ in range(20):
            edge_list = []
            types = {}
            codes = [str(t) for t in MbtiType]
            for i in range(12):
                u, v = f"n{int(rng.integers(8))}", f"n{int(rng.integers(8))}"
                if u == v:
                    continue
                types.setdefault(u, codes[int(rng.integers(16))])
                types.setdefault(v, codes[int(rng.integers(16))])
                edge_list.append((u, v, float(rng.random())))
            if not edge_list:
                continue
            g = make_graph(edge_list, types=types)
            back = parse_graph_tsv(export_graph(g, "edge-tsv"), threshold=g.threshold)
            assert back == g

    def test_dot_output(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ESFJ", "b": "ISFP"})
        text = export_graph(g, "dot")
        assert text.startswith("digraph affinity {")
        assert '"a" [label="ESFJ"];' in text
        assert '"a" -> "b" [weight=0.5];' in text

    @pytest.mark.parametrize(
        "bad_row",
        ["a\tb\t0.5\tESFJ", "a\tb\theavy\tESFJ\tISFP", "a\tb\t0.5\tESFJ\tXXXX"],
    )
    def test_bad_row_names_its_physical_line(self, bad_row):
        text = f"{EDGE_TSV_HEADER}\n\na\tc\t0.5\tESFJ\tISFP\n\n{bad_row}\n"
        with pytest.raises(MalformedRecord, match="^line 5: ") as info:
            parse_graph_tsv(text)
        assert info.value.line == 5

    def test_unknown_format(self):
        g = make_graph([("a", "b", 0.5)])
        with pytest.raises(ValueError):
            export_graph(g, "xml")
