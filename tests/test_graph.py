import json
import re

import numpy as np
import pytest

from affinity_miner import (
    MbtiType,
    UserProfile,
    build_affinity_graph,
    build_pair_sequences,
    export_graph,
    load_interactions,
    parse_mbti,
    score_sequences,
    type_pair_percentages,
)
from affinity_miner.errors import InsufficientData
from affinity_miner.graph import EDGE_TSV_HEADER, TYPE_PAIRS

from conftest import dict_graph, make_graph, scored_pairs


THRESHOLD = 1e-5


def profile(uid, code="INFJ"):
    return UserProfile(uid, parse_mbti(code), 0.1)


def profiles_of(*uids):
    return [profile(uid) for uid in uids]


class TestBuildAffinityGraph:
    def test_below_threshold_excluded(self):
        pairs, scores = scored_pairs({("a", "b"): 9e-6})
        g = build_affinity_graph(pairs, scores, profiles_of("a", "b"), THRESHOLD)
        assert g.edges == {}

    def test_exact_threshold_included(self):
        pairs, scores = scored_pairs({("a", "b"): 1e-5})
        g = build_affinity_graph(pairs, scores, profiles_of("a", "b"), THRESHOLD)
        assert g.edges == {("a", "b"): 1e-5}

    def test_missing_profile_drops_edge(self):
        g = build_affinity_graph(
            *scored_pairs({("a", "b"): 0.5, ("a", "c"): 0.5}),
            [profile("a"), profile("b")],
            THRESHOLD,
        )
        assert ("a", "c") not in g.edges
        assert "c" not in g.nodes

    def test_isolated_nodes_dropped(self):
        g = build_affinity_graph(
            *scored_pairs({("a", "b"): 0.5}),
            [profile("a"), profile("b"), profile("z")],
            THRESHOLD,
        )
        assert set(g.nodes) == {"a", "b"}

    def test_accepts_score_sequences_output(self):
        line = {"source": "a", "target": "b", "timestamp": 1, "sentiment": "POS"}
        pairs = build_pair_sequences(load_interactions([json.dumps(line)] * 3))
        scores = score_sequences(pairs.length, pairs.states)
        g = build_affinity_graph(pairs, scores, [profile("a"), profile("b")], THRESHOLD)
        assert g.edges == {("a", "b"): scores[0]}

    def test_min_weight_respects_threshold(self, rng):
        for _ in range(20):
            scores = {
                (f"u{i}", f"u{j}"): float(rng.random() * 1e-4)
                for i in range(8)
                for j in range(8)
                if i != j
            }
            profiles = [profile(f"u{i}") for i in range(8)]
            g = build_affinity_graph(*scored_pairs(scores), profiles, THRESHOLD)
            if g.edges:
                assert min(g.edges.values()) >= THRESHOLD

    def test_arrays_in_id_order_and_read_only(self):
        g = build_affinity_graph(
            *scored_pairs({("c", "a"): 0.5, ("a", "c"): 0.25, ("b", "a"): 0.75}),
            [profile("a", "ESTJ"), profile("b"), profile("c", "ENFP")],
            THRESHOLD,
        )
        assert g.order == ("a", "b", "c")
        assert [str(t) for t in g.nodes.values()] == ["ESTJ", "INFJ", "ENFP"]
        assert [a.tolist() for a in g.edge_arrays] == [[0, 1, 2], [2, 0, 0], [0.25, 0.75, 0.5]]
        for a in (g.node_types, *g.edge_arrays):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            build_affinity_graph(*scored_pairs({}), [], 0.0)


class TestTypePairPercentages:
    def test_single_pair_is_100(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ESFJ", "b": "ISFP"})
        table = type_pair_percentages(g)
        key = (parse_mbti("ESFJ"), parse_mbti("ISFP"))
        assert table[key] == 100.0

    def test_two_pairs_split(self):
        g = make_graph(
            [("a", "b", 0.5), ("c", "d", 0.5)],
            types={"a": "ESFJ", "b": "ISFP", "c": "INTJ", "d": "INTP"},
        )
        table = type_pair_percentages(g)
        values = sorted(v for v in table.values() if v > 0)
        assert values == [50.0, 50.0]
        assert sum(1 for v in table.values() if v == 0) == 134

    def test_exactly_136_entries(self):
        g = make_graph([("a", "b", 0.5)])
        assert len(type_pair_percentages(g)) == 136
        assert len(TYPE_PAIRS) == 136

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
        total = sum(type_pair_percentages(g).values())
        assert abs(total - 100.0) < 1e-9

    def test_relabeling_invariance(self):
        types = {"a": "ESFJ", "b": "ISFP", "c": "ESFJ"}
        g1 = make_graph([("a", "b", 0.5), ("c", "b", 0.2)], types=types)
        renamed = {"a": "x", "b": "y", "c": "z"}
        g2 = make_graph(
            [("x", "y", 0.5), ("z", "y", 0.2)],
            types={renamed[k]: v for k, v in types.items()},
        )
        assert type_pair_percentages(g1) == type_pair_percentages(g2)

    def test_empty_graph_raises(self):
        with pytest.raises(InsufficientData, match="^type-pair percentages need at least one edge$"):
            type_pair_percentages(dict_graph(nodes={}, edges={}))


def graph_from_edge_tsv(text):
    """The graph an edge-tsv export describes: ids and types from its rows,
    each weight float() of its 17-digit text; a node keeps one type."""
    header, *rows = (line.split("\t") for line in text.splitlines())
    assert header == EDGE_TSV_HEADER.split("\t")
    typed = {node for u, v, _, tu, tv in rows for node in ((u, tu), (v, tv))}
    nodes = {u: parse_mbti(t) for u, t in typed}
    assert len(nodes) == len(typed)
    return dict_graph(nodes, {(u, v): float(w) for u, v, w, _, _ in rows})


class TestExportImport:
    def test_one_edge_tsv(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ESFJ", "b": "ISFP"})
        lines = export_graph(g, "edge-tsv").splitlines()
        assert len(lines) == 2
        assert lines[0] == "source\ttarget\tweight\tsource_type\ttarget_type"
        assert lines[1] == "a\tb\t0.5\tESFJ\tISFP"

    def test_empty_graph_header_only(self):
        g = dict_graph(nodes={}, edges={})
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
            back = graph_from_edge_tsv(export_graph(g, "edge-tsv"))
            assert back.order == g.order
            arrays = zip((back.node_types, *back.edge_arrays), (g.node_types, *g.edge_arrays))
            for got, want in arrays:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_dot_output(self):
        g = make_graph([("a", "b", 0.5)], types={"a": "ESFJ", "b": "ISFP"})
        text = export_graph(g, "dot")
        assert text.startswith("digraph affinity {")
        assert '"a" [label="ESFJ"];' in text
        assert '"a" -> "b" [weight=0.5];' in text

    def test_dot_escapes_quotes_and_backslashes_in_ids(self):
        ids = ['al"ice\\', "b\\ob", '"', "\\", 'x\\"y', "plain"]
        g = make_graph([(u, v, 0.5) for u in ids for v in ids if u != v])
        text = export_graph(g, "dot")
        dot_string = re.compile(r'"(?:[^"\\]|\\.)*"')
        quoted = dot_string.findall(text)
        # every line is exactly its quoted strings plus the DOT syntax around them
        for line in text.splitlines()[1:-1]:
            rest = dot_string.sub("Q", line)
            assert rest in ("  Q [label=Q];", "  Q -> Q [weight=0.5];")
        unescaped = {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted}
        assert unescaped == set(ids) | {"INFJ"}
        assert '"al\\"ice\\\\" -> "b\\\\ob" [weight=0.5];' in text

    def test_unknown_format(self):
        g = make_graph([("a", "b", 0.5)])
        with pytest.raises(ValueError):
            export_graph(g, "xml")
