"""Property tests for invariants the library does not check at run time.

Examples are derandomized and bounded, so every run checks the same cases.
"""

import json
import re

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affinity_miner.affinity import (
    SMOOTHING_RANGE,
    build_pair_sequences,
    score_sequences,
    stationary_distribution,
)
from affinity_miner.cli import parse_config_file
from affinity_miner.cluster import (
    DEFAULT_TELEPORT,
    Clustering,
    random_walk_matrix,
    serialize_clustering,
)
from affinity_miner.errors import (
    AffinityMinerError,
    ConfigError,
    InsufficientData,
    InvalidSpec,
    MalformedRecord,
    NonErgodic,
)
from affinity_miner.graph import (
    TYPE_PAIRS,
    build_affinity_graph,
    export_graph,
    type_pair_percentages,
)
from affinity_miner.influence import cluster_link_counts, influential_types
from affinity_miner.ingest import (
    ALL_TYPES,
    MbtiType,
    Sentiment,
    UserProfile,
    load_interactions,
    load_profiles,
    open_input,
)
from affinity_miner.lexfeat import (
    _TOKEN_RE,
    count_matrix,
    extract_features,
    load_lexicon,
    tokenize,
)
from affinity_miner.semsim import load_embeddings

from conftest import counts_by_id, flat, id_sets, neighbor_sets, scored_pairs
from oracles import sample_chain_sequence

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

state_tuples = st.lists(st.sampled_from(list(Sentiment)), max_size=200).map(tuple)
# The half-open bound holds for moderate smoothing only (see SMOOTHING_RANGE),
# which score_sequences and config validation both enforce.
smoothing = st.floats(*SMOOTHING_RANGE)


@PROPERTY
@given(state_tuples, smoothing, smoothing)
def test_affinity_score_in_half_open_unit_interval(states, alpha, kappa):
    assert 0.0 <= score_sequences(*flat([states]), alpha, kappa)[0] < 1.0


def mp_affinity_score(states, alpha, kappa):
    """Reference: the smoothed chain's stationary POS mass times n / (n + kappa),
    by one linear solve at the caller's mpmath precision."""
    alpha, kappa = mpmath.mpf(alpha), mpmath.mpf(kappa)
    counts = mpmath.zeros(3, 3)
    for a, b in zip(states, states[1:]):
        counts[int(a), int(b)] += 1
    # pi^T (P - I) = 0 with its last equation replaced by sum(pi) = 1
    A = mpmath.zeros(3, 3)
    for i in range(3):
        row_total = sum(counts[i, j] for j in range(3)) + 3 * alpha
        for j in range(3):
            A[j, i] = (counts[i, j] + alpha) / row_total - (1 if i == j else 0)
    for i in range(3):
        A[2, i] = 1
    pi = mpmath.lu_solve(A, mpmath.matrix([0, 0, 1]))
    n = len(states)
    return pi[int(Sentiment.POS)] * n / (n + kappa)


@PROPERTY
@given(st.lists(state_tuples, max_size=4), smoothing, smoothing)
@example([], 1.0, 5.0)
@example([(), ()], 1e-6, 1e-6)
@example([(Sentiment.POS,) * 3, (Sentiment.NEG, Sentiment.POS) * 100], 1e-6, 1e6)
# no POS state: the POS mass is of order alpha, and a linear solve's
# absolute rounding error swamps it
@example([(Sentiment.NEG, Sentiment.NEU) * 50], 1e-6, 1.0)
def test_score_sequences_matches_mpmath_oracle(sequences, alpha, kappa):
    scores = score_sequences(*flat(sequences), alpha, kappa)
    assert scores.dtype == np.float64 and len(scores) == len(sequences)
    for score, states in zip(scores.tolist(), sequences):
        if not states:
            assert score == 0.0
            continue
        with mpmath.workdps(50):
            expected = mp_affinity_score(states, alpha, kappa)
            assert abs(score - expected) <= mpmath.mpf(2e-15) * expected


@st.composite
def positive_chains(draw):
    weights = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=9, max_size=9))
    P = np.array(weights).reshape(3, 3)
    return P / P.sum(axis=1, keepdims=True)


@PROPERTY
@given(positive_chains())
def test_stationary_distribution_of_positive_chain(P):
    pi = stationary_distribution(P)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pi @ P - pi)) < 1e-12


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
event_records = st.fixed_dictionaries(
    {},
    optional={
        "source": st.sampled_from(["a", "b"]) | json_values,
        "target": st.sampled_from(["a", "b"]) | json_values,
        "timestamp": json_values,
        "sentiment": st.sampled_from(["NEG", "NEU", "POS"]) | json_values,
        "text": json_values,
    },
).map(lambda record: json.dumps(record).encode())
# raw bytes (not always UTF-8), tab- and space-separated fields, JSON records
lines = st.one_of(
    st.binary(max_size=40),
    st.lists(st.text(max_size=10), max_size=4).map(lambda f: "\t".join(f).encode()),
    st.lists(st.text(max_size=10), max_size=4).map(lambda f: " ".join(f).encode()),
    event_records,
)
input_files = st.lists(lines, max_size=12).map(lambda ls: b"\n".join(ls))


def _through_file(load):
    def run(path):
        with open_input(path) as fh:
            return load(fh)

    return run


LOADERS = {
    "load_interactions": _through_file(load_interactions),
    "load_profiles": _through_file(load_profiles),
    "load_lexicon": _through_file(load_lexicon),
    "load_embeddings": _through_file(load_embeddings),
    "parse_config_file": parse_config_file,
}


# the line a message names: "line N: ..." for one bad line, or
# "<what>: R of T lines malformed (first: line N: ...)" for too many
NAMED_LINE = re.compile(r"line (\d+): |\w+: \d+ of \d+ lines malformed \(first: line (\d+): ")


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input.txt"


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(PROPERTY, max_examples=100)
@given(data=input_files)
@example(data=b'{"source": "a", "target": "b", "timestamp": 1, "sentiment": []}')
@example(data=b"[" * 100_000)
@example(data=b"user_id\tmbti\tbot_score\ncaf\xe9\tINFJ\t1.0")
@example(data=b" \t\n\x0c\n\xc2\xa0\n")
def test_loaders_raise_only_domain_errors(input_path, loader, data):
    input_path.write_bytes(data)
    try:
        LOADERS[loader](input_path)
    except (MalformedRecord, ConfigError) as exc:
        # every line an error names is a physical line of the file
        with open_input(input_path) as fh:
            lines = fh.readlines()
        named = NAMED_LINE.match(str(exc))
        if named is None:
            # only a file of blank lines (spaces and tabs) has no line to name
            assert not any(line.strip(" \t\r\n") for line in lines)
        else:
            assert 1 <= int(named[1] or named[2]) <= len(lines)
    except AffinityMinerError:
        pass


# Mostly accepted records, with tied and extreme timestamps and absent, None
# and "" texts, shuffled with a few blank lines and lines the loader rejects
# (self-mentions, timestamps outside int64, bad JSON), so that both loads
# and over-10% failures occur.
def _event(source, target, timestamps):
    return st.fixed_dictionaries(
        {
            "source": st.just(source),
            "target": st.just(target),
            "timestamp": timestamps,
            "sentiment": st.sampled_from(["NEG", "NEU", "POS"]),
        },
        optional={"text": st.none() | st.just("") | st.text(alphabet="xy ", max_size=3)},
    )


# First-seen order differs from id order: "b" sorts after "a", "a\x00"
# (which a NumPy "U" array compares equal to "a") sorts right after "a",
# and the non-ASCII id sorts last.
EVENT_IDS = ["b", "a", "a\x00", "c", "\u00e9t\u00e9"]
EVENT_PAIRS = [("b", "a"), ("a", "b"), ("a", "c"), ("c", "b"), ("a\x00", "a"),
               ("a", "a\x00"), ("a\x00", "b"), ("\u00e9t\u00e9", "a"), ("b", "\u00e9t\u00e9")]
accepted_events = st.sampled_from(EVENT_PAIRS).flatmap(
    lambda pair: _event(*pair, st.integers(0, 3) | st.sampled_from([-(2**63), 2**63 - 1]))
)
rejected_lines = (
    _event("a", "a", st.integers(0, 3))
    | _event("a", "b", st.sampled_from([-(2**63) - 1, 2**63]))
    | st.sampled_from(["not json", "{}", "\x0c", "", " \t"])
)
interaction_items = st.tuples(
    st.lists(accepted_events, max_size=30), st.lists(rejected_lines, max_size=3)
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


def per_event_oracle(items):
    """The per-event path the columns replace: the accepted records in one
    list sorted stably by timestamp, grouped per pair and joined per source
    one event at a time. Also says whether over 10% of the lines are bad."""
    lines = [item for item in items if not isinstance(item, str) or item.strip(" \t")]
    records = [
        item for item in lines
        if isinstance(item, dict)
        and item["source"] != item["target"]
        and -(2**63) <= item["timestamp"] < 2**63
    ]
    too_many_bad = bool(lines) and (len(lines) - len(records)) / len(lines) > 0.10
    records.sort(key=lambda record: record["timestamp"])
    sequences, parts = {}, {}
    for record in records:
        pair = (record["source"], record["target"])
        sequences.setdefault(pair, []).append(Sentiment[record["sentiment"]])
        if record.get("text"):
            parts.setdefault(record["source"], []).append(record["text"])
    sequences = {pair: tuple(states) for pair, states in sequences.items()}
    return records, too_many_bad, sequences, {u: " ".join(p) for u, p in parts.items()}


def write_items(path, items):
    path.write_text(
        "\n".join(json.dumps(item) if isinstance(item, dict) else item for item in items)
    )
    return path


def pair_ids(pairs):
    users = pairs.users
    return [(users[u], users[v]) for u, v in zip(pairs.source.tolist(), pairs.target.tolist())]


@PROPERTY
@given(interaction_items)
@example([
    {"source": "a", "target": "b", "timestamp": 2, "sentiment": "POS", "text": "late"},
    {"source": "b", "target": "a", "timestamp": 1, "sentiment": "NEG", "text": ""},
    {"source": "a", "target": "b", "timestamp": 1, "sentiment": "NEU", "text": "early"},
    {"source": "a", "target": "c", "timestamp": 1, "sentiment": "NEG", "text": None},
])
@example([
    {"source": "\u00e9t\u00e9", "target": "b", "timestamp": 0, "sentiment": "NEG"},
    {"source": "b", "target": "a\x00", "timestamp": 1, "sentiment": "POS"},
    {"source": "b", "target": "a", "timestamp": 1, "sentiment": "NEU"},
    {"source": "b", "target": "a\x00", "timestamp": 0, "sentiment": "NEU"},
])
def test_event_table_matches_per_event_oracle(input_path, items):
    records, too_many_bad, sequences, documents = per_event_oracle(items)
    with open_input(write_items(input_path, items)) as fh:
        if too_many_bad:
            with pytest.raises(MalformedRecord):
                load_interactions(fh)
            return
        events = load_interactions(fh)
    assert len(events) == len(records)
    assert len(set(events.users)) == len(events.users)
    assert set(events.users) == {r[key] for r in records for key in ("source", "target")}
    assert [events.users[c] for c in events.source.tolist()] == [r["source"] for r in records]
    assert [events.users[c] for c in events.target.tolist()] == [r["target"] for r in records]
    assert events.timestamp.tolist() == [r["timestamp"] for r in records]
    assert events.sentiment.tolist() == [Sentiment[r["sentiment"]] for r in records]
    assert events.documents == documents
    # the pairs in id order, each with its states in row order
    pairs, want = build_pair_sequences(events), sorted(sequences.items())
    assert pairs.users is events.users
    assert pair_ids(pairs) == [pair for pair, _ in want]
    assert pairs.length.tolist() == [len(states) for _, states in want]
    assert pairs.states.dtype == np.int8
    assert pairs.states.tolist() == [int(x) for _, states in want for x in states]


def tuple_dict_scores(sequences, alpha, kappa):
    """The tuple-dict scorer the arrays replace: pairs in sorted order, each
    tuple's transitions counted in a loop."""
    scores = {}
    for pair in sorted(sequences):
        states = sequences[pair]
        counts = np.zeros((3, 3))
        for a, b in zip(states, states[1:]):
            counts[int(a), int(b)] += 1.0
        P = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + 3 * alpha)
        n = float(len(states))
        scores[pair] = float(stationary_distribution(P)[int(Sentiment.POS)] * (n / (n + kappa)))
    return scores


def dict_loop_graph(scores, labels, threshold):
    """The per-pair dict loop build_affinity_graph replaces: (nodes, edges)."""
    edges = {}
    for (u, v), w in scores.items():
        if w >= threshold and u in labels and v in labels:
            edges[(u, v)] = w
    return {u: labels[u] for edge in edges for u in edge}, edges


def counting_loop_type_pairs(nodes, edges):
    """The per-edge counting loop type_pair_percentages replaces."""
    counts = {pair: 0 for pair in TYPE_PAIRS}
    for u, v in edges:
        p, q = nodes[u], nodes[v]
        counts[(q, p) if q < p else (p, q)] += 1
    return {pair: 100.0 * c / len(edges) for pair, c in counts.items()}


@PROPERTY
@given(
    interaction_items,
    st.just(1.0) | smoothing,
    st.just(5.0) | smoothing,
    st.lists(st.sampled_from(ALL_TYPES), min_size=len(EVENT_IDS), max_size=len(EVENT_IDS)),
    st.sets(st.sampled_from(EVENT_IDS), max_size=2),
    st.integers(min_value=0, max_value=40),
)
@example(
    [{"source": u, "target": v, "timestamp": t // 2, "sentiment": "POS"}
     for t, (u, v) in enumerate(EVENT_PAIRS * 3)],
    1.0, 5.0, list(ALL_TYPES[:len(EVENT_IDS)]), {"c"}, 0,
)
def test_scores_graph_and_type_pairs_match_dict_oracles(
    input_path, items, alpha, kappa, types, unprofiled, pick
):
    _, too_many_bad, sequences, _ = per_event_oracle(items)
    if too_many_bad:
        return
    with open_input(write_items(input_path, items)) as fh:
        pairs = build_pair_sequences(load_interactions(fh))
    scores = score_sequences(pairs.length, pairs.states, alpha, kappa)
    want = tuple_dict_scores(sequences, alpha, kappa)
    assert pair_ids(pairs) == list(want)
    assert scores.dtype == np.float64 and scores.tolist() == list(want.values())

    # the threshold is exactly one of the scores, the default, or above
    # every score (an empty graph)
    labels = {u: t for u, t in zip(EVENT_IDS, types) if u not in unprofiled}
    profiles = [UserProfile(u, t, 0.0) for u, t in labels.items()]
    thresholds = sorted(w for w in want.values() if w > 0) + [1e-5, 1.0]
    threshold = thresholds[pick % len(thresholds)]
    g = build_affinity_graph(pairs, scores, profiles, threshold)
    nodes, edges = dict_loop_graph(want, labels, threshold)
    assert list(g.nodes.items()) == sorted(nodes.items())
    assert list(g.edges.items()) == sorted(edges.items())
    if not edges:
        with pytest.raises(InsufficientData, match="^type-pair percentages need at least one edge$"):
            type_pair_percentages(g)
        return
    got = type_pair_percentages(g)
    assert list(got.items()) == list(counting_loop_type_pairs(nodes, edges).items())


# a small alphabet, so literals, prefixes and tokens overlap often
words = st.text(alphabet="abc", min_size=1, max_size=4)


def dict_count_oracle(token_lists, vocabulary):
    """CSR (data, indices, indptr) of per-document token counts, counted
    one occurrence at a time into a dict."""
    data, indices, indptr = [], [], [0]
    for tokens in token_lists:
        counts = {}
        for token in tokens:
            if token in vocabulary:
                j = vocabulary[token]
                counts[j] = counts.get(j, 0) + 1
        for j, c in sorted(counts.items()):
            indices.append(j)
            data.append(float(c))
        indptr.append(len(indices))
    return data, indices, indptr


@st.composite
def counted_corpora(draw):
    token_lists = draw(st.lists(st.lists(words, max_size=12), max_size=8))
    seen = sorted({t for tokens in token_lists for t in tokens})
    if draw(st.booleans()):
        # every token in the vocabulary, plus some never seen
        vocab = sorted(set(seen) | draw(st.sets(words, max_size=4)))
    else:
        # out-of-vocabulary tokens are skipped
        vocab = sorted(draw(st.sets(words, max_size=10)))
    return token_lists, {t: j for j, t in enumerate(vocab)}


@PROPERTY
@given(counted_corpora())
@example(([], {}))
@example(([[], ["a", "a"], []], {"a": 0}))
@example(([["a", "b"]], {}))
def test_count_matrix_matches_dict_count_oracle(corpus):
    token_lists, vocabulary = corpus
    m = count_matrix(token_lists, vocabulary)
    data, indices, indptr = dict_count_oracle(token_lists, vocabulary)
    assert m.shape == (len(token_lists), len(vocabulary))
    assert m.data.dtype == np.float64
    assert m.data.tolist() == data
    assert m.indices.tolist() == indices
    assert m.indptr.tolist() == indptr


# ASCII text (half the examples) is mostly punctuation, controls and
# whitespace around short alphanumeric runs, with `_`, `'`, `-` and the
# controls str.split() treats as whitespace drawn often; mixed text adds any
# code point and ones whose lowercase or class is easy to get wrong: KELVIN
# SIGN lowercases to ASCII k, I WITH DOT ABOVE to two code points, and
# superscript two, Arabic-Indic three and full-width A are alphanumeric
ascii_separators = st.sampled_from(
    [chr(c) for c in range(128) if not chr(c).isalnum()]
) | st.sampled_from("_'-\x0b\x1c\x1d\x1e\x1f")
ascii_text = st.text(alphabet=ascii_separators | st.sampled_from("aZ09"), max_size=40)
mixed_text = st.text(
    alphabet=ascii_separators
    | st.sampled_from("aZ09\u212a\u0130\u00b2\u0663\uff21\u00e9\u2019\u2014\U0001f600")
    | st.characters(),
    max_size=40,
)


@PROPERTY
@given(ascii_text | mixed_text)
@example("don't_stop\x0bnow\x1f")
@example("\u212a\u0130x\u00b2")
@example("")
def test_tokenize_matches_regex_oracle(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


def per_occurrence_features(text, lines):
    """Category proportions matching every token occurrence against every
    pattern of every category, with the patterns read from the lexicon's
    category<TAB>pattern lines."""
    tokens = tokenize(text)
    patterns = {}
    for line in lines:
        name, pattern = line.split("\t")
        patterns.setdefault(name, []).append(pattern)
    values = {name: 0.0 for name in sorted(patterns)}
    if not tokens:
        return values
    for token in tokens:
        for name in sorted(patterns):
            if any(
                token.startswith(p[:-1]) if p.endswith("*") else token == p
                for p in patterns[name]
            ):
                values[name] += 1.0
    n = float(len(tokens))
    return {name: count / n for name, count in values.items()}


lexicon_lines = st.lists(
    st.tuples(st.sampled_from(["posemo", "negemo", "anx"]), words, st.booleans()).map(
        lambda r: f"{r[0]}\t{r[1]}{'*' if r[2] else ''}"
    ),
    max_size=10,
)
pronouns = ["i", "me", "mine", "my", "myself", "our", "ours", "ourselves", "us", "we"]
document_words = words | words.map(str.upper) | st.sampled_from(pronouns)
documents = st.lists(
    st.tuples(document_words, st.sampled_from([" ", ", ", "! ", "\n", "_"])),
    max_size=30,
).map(lambda parts: "".join(w + sep for w, sep in parts))


@PROPERTY
@given(lexicon_lines, documents)
@example(["posemo\ta*", "posemo\tab", "negemo\tab*", "negemo\ta"], "a ab abc I me")
@example(["posemo\ta"], "")
@example([], "we ab")
def test_extract_features_matches_per_occurrence_loop(lines, text):
    lex = load_lexicon(lines)
    got = extract_features(text, lex)
    assert list(got.items()) == list(per_occurrence_features(text, lines).items())


@PROPERTY
@given(st.lists(st.sampled_from(list(MbtiType)), max_size=40))
def test_type_order_is_code_order(types):
    assert ALL_TYPES == tuple(sorted(MbtiType))
    assert [t.value for t in ALL_TYPES] == sorted(t.value for t in MbtiType)
    assert sorted(types) == sorted(types, key=lambda t: t.value)


# -- the affinity graph's node order and edge arrays ---------------------------

node_ids = st.text(alphabet="abcd", min_size=1, max_size=2)


@st.composite
def edge_lists(draw):
    """(u, v, weight) triples over a small id alphabet, self-edges included."""
    edges = draw(
        st.dictionaries(
            st.tuples(node_ids, node_ids),
            st.floats(min_value=1e-3, max_value=10.0),
            min_size=1,
            max_size=24,
        )
    )
    return [(u, v, w) for (u, v), w in edges.items()]


def graph_of(edge_list, shuffle=None):
    """build_affinity_graph of `edge_list` as scored pairs, every node
    profiled; `shuffle` reorders the user codes and the profiles."""
    users = sorted({x for u, v, _ in edge_list for x in (u, v)})
    profiles = [UserProfile(u, ALL_TYPES[ord(u[-1]) % 16], 0.0) for u in users]
    if shuffle is not None:
        shuffle(users)
        shuffle(profiles)
    pairs, scores = scored_pairs({(u, v): w for u, v, w in edge_list}, users)
    return build_affinity_graph(pairs, scores, profiles, 1e-5)


def dict_loop_edge_arrays(edge_list):
    """Index by position among the sorted ids, one edge at a time."""
    index = {u: i for i, u in enumerate(sorted({x for u, v, _ in edge_list for x in (u, v)}))}
    edges = sorted(((u, v), w) for u, v, w in edge_list)
    src = np.array([index[u] for (u, _), _ in edges], dtype=np.intp)
    dst = np.array([index[v] for (_, v), _ in edges], dtype=np.intp)
    w = np.array([w for _, w in edges], dtype=float)
    return src, dst, w


def dict_loop_walk_matrix(edge_list, tau):
    """Dense weights filled by a per-edge dict loop, then the same mixing."""
    order = sorted({x for u, v, _ in edge_list for x in (u, v)})
    index = {u: i for i, u in enumerate(order)}
    n = len(order)
    W = np.zeros((n, n))
    for u, v, w in edge_list:
        W[index[u], index[v]] = w
    out = W.sum(axis=1)
    dangling = out == 0.0
    W[dangling] = 1.0 / n
    out[dangling] = 1.0
    return (1.0 - tau) * (W / out[:, None]) + tau / n


@PROPERTY
@given(edge_lists(), st.randoms(use_true_random=False))
def test_graph_stores_sorted_order_whatever_the_insertion_order(edge_list, rnd):
    g = graph_of(edge_list)
    h = graph_of(edge_list, shuffle=rnd.shuffle)
    assert list(h.nodes) == sorted(h.nodes) and list(h.edges) == sorted(h.edges)
    assert h.order == g.order == tuple(sorted(g.nodes))
    for got, want in zip((h.node_types, *h.edge_arrays), (g.node_types, *g.edge_arrays)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for fmt in ("edge-tsv", "dot"):
        assert export_graph(h, fmt) == export_graph(g, fmt)


@PROPERTY
@given(edge_lists(), st.randoms(use_true_random=False))
def test_edge_arrays_and_walk_matrix_match_dict_loops(edge_list, rnd):
    g = graph_of(edge_list, shuffle=rnd.shuffle)
    for got, want in zip(g.edge_arrays, dict_loop_edge_arrays(edge_list)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for tau in (DEFAULT_TELEPORT, 0.3):
        assert np.array_equal(random_walk_matrix(g, tau), dict_loop_walk_matrix(edge_list, tau))


@st.composite
def clustered_graphs(draw):
    """A graph of `edge_lists()` and 1-4 random clusters over its nodes,
    which may overlap and need not cover every node."""
    g = graph_of(draw(edge_lists()))
    n = len(g.order)
    groups = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1).map(sorted), min_size=1, max_size=4
        )
    )
    c = Clustering(
        clusters=tuple(np.array(members, dtype=np.intp) for members in groups),
        method="mcl", params={}, nodes=g.order, iterations=1, converged=True,
    )
    return g, c


def dict_of_sets_link_counts(g, groups):
    """Per (cluster, id): distinct within-cluster neighbors, self excluded."""
    neigh = neighbor_sets(g)
    counts = {}
    for ci, members in enumerate(groups):
        for u in sorted(members):
            counts[(ci, u)] = len(neigh[u] & members) - (u in neigh[u])
    return counts


def top_node_loop_report(g, groups, counts):
    """Per cluster: first strictly larger count in id order wins; per-type
    totals over the types present, in code order."""
    records = []
    for ci, members in enumerate(groups):
        ordered = sorted(members)
        best = ordered[0]
        for u in ordered[1:]:
            if counts[(ci, u)] > counts[(ci, best)]:
                best = u
        totals = {}
        for u in ordered:
            totals[g.nodes[u]] = totals.get(g.nodes[u], 0) + counts[(ci, u)]
        records.append(
            (ci, best, g.nodes[best], counts[(ci, best)], sorted(totals.items()))
        )
    return records


@PROPERTY
@given(clustered_graphs())
def test_influence_and_serialization_match_id_set_oracles(clustered):
    g, c = clustered
    groups = id_sets(c)
    want = dict_of_sets_link_counts(g, groups)
    assert len(cluster_link_counts(g, c)) == len(c.clusters)
    assert counts_by_id(g, c) == want
    report = influential_types(g, c)
    assert [
        (r.cluster_index, r.top_node, r.top_type, r.link_count,
         list(r.per_type_link_totals.items()))
        for r in report
    ] == top_node_loop_report(g, groups, want)
    assert all(
        type(r.link_count) is int and all(type(n) is int for n in r.per_type_link_totals.values())
        for r in report
    )
    rows = sorted((u, ci) for ci, members in enumerate(groups) for u in members)
    text = serialize_clustering(c)
    assert text.endswith("node_id\tcluster_index\n" + "".join(f"{u}\t{ci}\n" for u, ci in rows))


def searchsorted_chain_sequence(P, length, seed):
    """Reference: the per-state searchsorted sampler generate_dataset's
    inputs were first recorded with."""
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(np.concatenate([P, stationary_distribution(P)[None]]), axis=1)
    state, states = len(P), []
    for u in rng.random(length).tolist():
        state = min(int(cumulative[state].searchsorted(u, side="right")), len(P) - 1)
        states.append(Sentiment(state))
    return tuple(states)


# rows with zeros, ties and tiny masses; chains with two closed classes
# have no stationary distribution and are skipped. Rows scaled to sum to 1/2
# are not a chain and are rejected.
chain_rows = st.lists(
    st.sampled_from([0.0, 1e-300, 0.1, 0.2, 1 / 3, 0.7]) | st.floats(0.0, 1.0), min_size=3, max_size=3
).filter(lambda row: sum(row) > 0)


@PROPERTY
@given(
    st.lists(chain_rows, min_size=3, max_size=3),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 0.5]),
)
@example([[0.1, 0.2, 0.7], [0.05, 0.15, 0.8], [0.02, 0.08, 0.9]], 13, 0, 1.0)
@example([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], 50, 2**32 - 1, 1.0)
def test_chain_sampler_matches_searchsorted_oracle(rows, length, seed, scale):
    P = scale * np.array(rows) / np.sum(rows, axis=1, keepdims=True)
    if scale != 1.0:
        with pytest.raises(InvalidSpec, match="rows must sum to 1"):
            sample_chain_sequence(P, length, seed)
        return
    try:
        expected = searchsorted_chain_sequence(P, length, seed)
    except NonErgodic:
        return
    assert sample_chain_sequence(P, length, seed) == expected
