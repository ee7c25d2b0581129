"""Property tests for invariants the library does not check at run time.

Examples are derandomized and bounded, so every run checks the same cases.
"""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affinity_miner import Sentiment, score_sequences, stationary_distribution
from affinity_miner.cli import parse_config_file
from affinity_miner.cluster import (
    DEFAULT_TELEPORT,
    Clustering,
    k_destinations,
    mcl,
    random_walk_matrix,
    serialize_clustering,
)
from affinity_miner.errors import (
    AffinityMinerError,
    ConfigError,
    DimensionMismatch,
    MalformedPattern,
    MalformedRecord,
)
from affinity_miner.graph import AffinityGraph, EDGE_TSV_HEADER, export_graph, parse_graph_tsv
from affinity_miner.influence import cluster_link_counts, influential_types
from affinity_miner.ingest import (
    ALL_TYPES,
    MbtiType,
    load_interactions,
    load_profiles,
    open_input,
)
from affinity_miner.lexfeat import (
    FIRST_PERSON_KEY,
    FIRST_PERSON_PRONOUNS,
    _TOKEN_RE,
    count_matrix,
    extract_features,
    load_lexicon,
    tokenize,
)
from affinity_miner.semsim import load_embeddings

from conftest import counts_by_id, id_sets, neighbor_sets

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

state_tuples = st.lists(st.sampled_from(list(Sentiment)), max_size=200).map(tuple)
# The half-open bound holds for moderate smoothing only: with alpha and kappa
# near the smallest floats the score rounds to exactly 1.0 or dips just below
# 0, and alpha near 1e308 overflows the chain estimate. Config validation
# rejects alpha and kappa outside this range.
smoothing = st.floats(min_value=1e-6, max_value=1e6)


@PROPERTY
@given(state_tuples, smoothing, smoothing)
def test_affinity_score_in_half_open_unit_interval(states, alpha, kappa):
    assert 0.0 <= score_sequences({("a", "b"): states}, alpha, kappa)[("a", "b")] < 1.0


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
    pairs = {(f"u{k}", "v"): states for k, states in enumerate(sequences)}
    scores = score_sequences(pairs, alpha, kappa)
    assert list(scores) == sorted(pairs)
    for pair, states in pairs.items():
        if not states:
            assert scores[pair] == 0.0
            continue
        with mpmath.workdps(50):
            expected = mp_affinity_score(states, alpha, kappa)
            assert abs(scores[pair] - expected) <= mpmath.mpf(2e-15) * expected


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
    "parse_graph_tsv": _through_file(lambda fh: parse_graph_tsv(fh.read())),
}


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input.txt"


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(PROPERTY, max_examples=100)
@given(data=input_files)
@example(data=b'{"source": "a", "target": "b", "timestamp": 1, "sentiment": []}')
@example(data=b"[" * 100_000)
@example(data=b"user_id\tmbti\tbot_score\ncaf\xe9\tINFJ\t1.0")
@example(data=EDGE_TSV_HEADER.encode() + b"\n\na\tb\tx\tINFJ\tENTP\n")
@example(data=b"\r\n\r" + EDGE_TSV_HEADER.encode() + b"\n\n\na\tb\n")
def test_loaders_raise_only_domain_errors(input_path, loader, data):
    input_path.write_bytes(data)
    try:
        LOADERS[loader](input_path)
    except (MalformedRecord, MalformedPattern, DimensionMismatch, ConfigError) as exc:
        # every line an error names is a physical line of the file
        with open_input(input_path) as fh:
            lines = fh.readlines()
        if exc.line is None:
            assert not any(line.strip() for line in lines)
        named = [exc.line] + [n for n, _ in getattr(exc, "line_errors", [])]
        assert all(1 <= n <= len(lines) for n in named if n is not None)
    except AffinityMinerError:
        pass


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


def per_occurrence_features(text, lex):
    """Category proportions matching every token occurrence against every
    category, with the patterns compiled from lex.categories."""
    tokens = tokenize(text)
    compiled = {
        name: (
            frozenset(p for p in patterns if not p.endswith("*")),
            tuple(sorted(p[:-1] for p in patterns if p.endswith("*"))),
        )
        for name, patterns in lex.categories.items()
    }
    values = {name: 0.0 for name in compiled}
    values[FIRST_PERSON_KEY] = 0.0
    if not tokens:
        return values
    for token in tokens:
        for name, (literals, prefixes) in compiled.items():
            if token in literals or any(token.startswith(p) for p in prefixes):
                values[name] += 1.0
        if token in FIRST_PERSON_PRONOUNS:
            values[FIRST_PERSON_KEY] += 1.0
    n = float(len(tokens))
    return {name: count / n for name, count in values.items()}


lexicon_lines = st.lists(
    st.tuples(st.sampled_from(["posemo", "negemo", "anx"]), words, st.booleans()).map(
        lambda r: f"{r[0]}\t{r[1]}{'*' if r[2] else ''}"
    ),
    max_size=10,
)
document_words = words | words.map(str.upper) | st.sampled_from(sorted(FIRST_PERSON_PRONOUNS))
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
    assert list(got.items()) == list(per_occurrence_features(text, lex).items())


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
    """The graph of `edge_list`; `shuffle` reorders both dicts' insertion."""
    edge_list = list(edge_list)
    ids = sorted({x for u, v, _ in edge_list for x in (u, v)})
    if shuffle is not None:
        shuffle(edge_list)
        shuffle(ids)
    return AffinityGraph(
        nodes={u: ALL_TYPES[ord(u[-1]) % 16] for u in ids},
        edges={(u, v): w for u, v, w in edge_list},
    )


def dict_loop_edge_arrays(g):
    """Index by position among the sorted ids, one edge at a time."""
    index = {u: i for i, u in enumerate(sorted(g.nodes))}
    edges = sorted(g.edges.items())
    src = np.array([index[u] for (u, _), _ in edges], dtype=np.intp)
    dst = np.array([index[v] for (_, v), _ in edges], dtype=np.intp)
    w = np.array([w for _, w in edges], dtype=float)
    return src, dst, w


def dict_loop_walk_matrix(g, tau):
    """Dense weights filled by a per-edge dict loop, then the same mixing."""
    order = sorted(g.nodes)
    index = {u: i for i, u in enumerate(order)}
    n = len(order)
    W = np.zeros((n, n))
    for (u, v), w in g.edges.items():
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
    for got, want in zip(h.edge_arrays, g.edge_arrays):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for fmt in ("edge-tsv", "dot"):
        assert export_graph(h, fmt) == export_graph(g, fmt)


@PROPERTY
@given(edge_lists(), st.randoms(use_true_random=False))
def test_edge_arrays_and_walk_matrix_match_dict_loops(edge_list, rnd):
    g = graph_of(edge_list, shuffle=rnd.shuffle)
    for got, want in zip(g.edge_arrays, dict_loop_edge_arrays(g)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for tau in (DEFAULT_TELEPORT, 0.3):
        assert np.array_equal(random_walk_matrix(g, tau), dict_loop_walk_matrix(g, tau))


@settings(PROPERTY, max_examples=60)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_clusterings_ignore_insertion_order(edge_list, rnd):
    g = graph_of(edge_list)
    h = graph_of(edge_list, shuffle=rnd.shuffle)
    a, b = mcl(g), mcl(h)
    assert (index_lists(a), a.nodes, a.iterations, a.converged) == (
        index_lists(b), b.nodes, b.iterations, b.converged
    )
    assert np.array_equal(a.attraction.toarray(), b.attraction.toarray())
    for k in range(1, min(3, len(g.nodes)) + 1):
        a, b = k_destinations(g, k), k_destinations(h, k)
        assert (index_lists(a), a.objective_trace, a.iterations) == (
            index_lists(b), b.objective_trace, b.iterations
        )


def index_lists(c):
    return [members.tolist() for members in c.clusters]


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
        for r in report.per_cluster
    ] == top_node_loop_report(g, groups, want)
    assert all(
        type(r.link_count) is int and all(type(n) is int for n in r.per_type_link_totals.values())
        for r in report.per_cluster
    )
    rows = sorted((u, ci) for ci, members in enumerate(groups) for u in members)
    text = serialize_clustering(c)
    assert text.endswith("node_id\tcluster_index\n" + "".join(f"{u}\t{ci}\n" for u, ci in rows))
