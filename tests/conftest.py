import numpy as np
import pytest

from affinity_miner import AffinityGraph, parse_mbti


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_graph(edge_list, types=None, threshold=1e-5):
    """Graph from (u, v, w) triples; default label INFJ for every node."""
    types = types or {}
    return AffinityGraph(
        nodes={x: parse_mbti(types.get(x, "INFJ")) for u, v, _ in edge_list for x in (u, v)},
        edges={(u, v): w for u, v, w in edge_list},
        threshold=threshold,
    )


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
