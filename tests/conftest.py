import numpy as np
import pytest

from affinity_miner.affinity import PairSequences
from affinity_miner.cli import PipelineConfig
from affinity_miner.graph import AffinityGraph
from affinity_miner.influence import cluster_link_counts
from affinity_miner.ingest import ALL_TYPES, Sentiment, parse_mbti


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def defaults():
    """The default config: the tuning values a library call takes, which
    no library function gives a default of its own."""
    return PipelineConfig()


def dict_graph(nodes, edges):
    """The graph of id -> type and (source, target) -> weight maps in any
    order, built one entry at a time; nodes need not have an edge."""
    order = tuple(sorted(nodes))
    index = {u: i for i, u in enumerate(order)}
    pairs = sorted(edges)
    src, dst = (np.array([index[p[k]] for p in pairs], dtype=np.intp) for k in (0, 1))
    w = np.array([edges[p] for p in pairs], dtype=float)
    types = np.array([ALL_TYPES.index(nodes[u]) for u in order], dtype=np.int8)
    return AffinityGraph(order, types, (src, dst, w))


def make_graph(edge_list, types=None):
    """Graph from (u, v, w) triples; default label INFJ for every node."""
    types = types or {}
    return dict_graph(
        nodes={x: parse_mbti(types.get(x, "INFJ")) for u, v, _ in edge_list for x in (u, v)},
        edges={(u, v): w for u, v, w in edge_list},
    )


def flat(sequences):
    """(lengths, concatenated int8 states) of state sequences, the layout
    estimate_chains and score_sequences read."""
    lengths = np.array([len(states) for states in sequences], dtype=np.intp)
    return lengths, np.array([int(x) for states in sequences for x in states], dtype=np.int8)


def sequence_dict(pairs):
    """PairSequences as a (source id, target id) -> Sentiment tuple dict, in pair order."""
    bounds = np.r_[0, np.cumsum(pairs.length)].tolist()
    states = [Sentiment(s) for s in pairs.states.tolist()]
    ends = zip(pairs.source.tolist(), pairs.target.tolist())
    return {
        (pairs.users[u], pairs.users[v]): tuple(states[bounds[k] : bounds[k + 1]])
        for k, (u, v) in enumerate(ends)
    }


def scored_pairs(scores, users=None):
    """(PairSequences, score array) for a (source, target) -> score dict:
    pairs in id order, one NEU state each, user codes in the order of
    `users` (default: reverse id order)."""
    users = tuple(users or sorted({u for pair in scores for u in pair}, reverse=True))
    code = {u: i for i, u in enumerate(users)}
    pairs = sorted(scores)
    m = len(pairs)
    return (
        PairSequences(
            users,
            np.array([code[u] for u, _ in pairs], dtype=np.int32),
            np.array([code[v] for _, v in pairs], dtype=np.int32),
            np.ones(m, dtype=np.intp),
            np.full(m, int(Sentiment.NEU), dtype=np.int8),
        ),
        np.array([scores[pair] for pair in pairs], dtype=float),
    )


def index_clusters(groups, order):
    """Groups of node ids as ascending node-index arrays over `order`."""
    index = {u: i for i, u in enumerate(order)}
    return tuple(np.array(sorted(index[u] for u in group), dtype=np.intp) for group in groups)


def id_sets(c):
    """A clustering's clusters as sets of node ids, in cluster order."""
    return [{c.nodes[i] for i in members} for members in c.clusters]


def counts_by_id(g, c):
    """cluster_link_counts keyed by (cluster index, node id)."""
    return {
        (ci, c.nodes[i]): n
        for ci, (members, counts) in enumerate(zip(c.clusters, cluster_link_counts(g, c)))
        for i, n in zip(members.tolist(), counts.tolist())
    }


def neighbor_sets(g):
    """Adjacency with direction collapsed, one id set per node; a self-edge
    puts a node in its own set."""
    neigh = {u: set() for u in g.nodes}
    for u, v in g.edges:
        neigh[u].add(v)
        neigh[v].add(u)
    return neigh


def two_block_graph(block_size=10, in_w=1.0, cross_w=0.01):
    """Fully connected blocks with weak full cross-linking; deterministic."""
    edge_list = []
    n = 2 * block_size
    names = [f"b{i:02d}" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same = (i < block_size) == (j < block_size)
            edge_list.append((names[i], names[j], in_w if same else cross_w))
    return make_graph(edge_list)


def random_positive_graph(rng, n):
    """Graph on n nodes holding every edge, self-loops included, at weights
    in [0.05, 1.05): its walk is a strictly positive chain at any teleport."""
    names = [f"s{i:02d}" for i in range(n)]
    W = rng.random((n, n)) + 0.05
    return make_graph([(names[i], names[j], float(W[i, j])) for i in range(n) for j in range(n)])


def random_ergodic_chain(rng, k=3):
    """Strictly positive row-stochastic matrix."""
    P = rng.random((k, k)) + 0.05
    return P / P.sum(axis=1, keepdims=True)


def well_separated_chain(rng, k=3):
    """Random mixing-perturbed permutation chain.

    Doubly stochastic (uniform stationary mass, so every row is visited
    equally often) with entries bounded away from 1/2, keeping binomial
    estimation noise at sequence length 1e4 well below 0.02.
    """
    perm = rng.permutation(k)
    R = np.zeros((k, k))
    R[np.arange(k), perm] = 1.0
    eps = float(rng.uniform(0.06, 0.12))
    return (1 - eps) * R + eps / k
