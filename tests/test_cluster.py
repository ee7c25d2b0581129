import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from affinity_miner import (
    Clustering,
    clustering_error,
    hitting_times,
    k_destinations,
    labels_from_clustering,
    mcl,
    nmi,
    parse_mbti,
    random_walk_matrix,
)
from affinity_miner import cluster as cluster_module
from affinity_miner.cluster import (
    MCL_BLOCK_COLUMNS,
    MCL_MAX_ITER,
    MCL_TOL,
    _column_sums,
    _mcl_seed_matrix,
    _normalize_columns,
    mcl_flow,
)
from affinity_miner.errors import EmptyGraph, KOutOfRange, LengthMismatch
from affinity_miner.graph import AffinityGraph
from affinity_miner.synth import PlantedSpec, planted_partition

from conftest import id_sets, make_graph, random_ergodic_chain, two_block_graph


# -- independent oracles ------------------------------------------------------

def direct_hitting_times(P: np.ndarray) -> np.ndarray:
    """Per-target linear solve: h_j = 0, h_i = 1 + sum_m P(i,m) h_m."""
    n = P.shape[0]
    H = np.zeros((n, n))
    for j in range(n):
        A = np.eye(n) - P
        A[j, :] = 0.0
        A[j, j] = 1.0
        b = np.ones(n)
        b[j] = 0.0
        H[:, j] = np.linalg.solve(A, b)
    return H


def naive_nmi(x, y) -> float:
    """Definition-level mutual information over joint counts."""
    n = len(x)
    from collections import Counter

    cx, cy, cxy = Counter(x), Counter(y), Counter(zip(x, y))
    hx = -sum(c / n * np.log(c / n) for c in cx.values())
    hy = -sum(c / n * np.log(c / n) for c in cy.values())
    if hx == 0.0 and hy == 0.0:
        return 1.0
    if hx == 0.0 or hy == 0.0:
        return 0.0
    mi = sum(
        c / n * np.log(n * c / (cx[a] * cy[b])) for (a, b), c in cxy.items()
    )
    return mi / np.sqrt(hx * hy)


def brute_force_error(pred, truth) -> float:
    """Enumerate label permutations, keep the best match count."""
    n = len(pred)
    labels = sorted(set(pred) | set(truth))
    best = 0
    for perm in itertools.permutations(labels):
        mapping = dict(zip(labels, perm))
        best = max(best, sum(1 for p, t in zip(pred, truth) if mapping[p] == t))
    return 1.0 - best / n


def dense_seed_matrix(g, order) -> np.ndarray:
    """Column-stochastic flow matrix with self-loops of max(1, max incident)."""
    index = {u: i for i, u in enumerate(order)}
    W = np.zeros((len(order), len(order)))
    for (u, v), w in g.edges.items():
        W[index[u], index[v]] = w
    incident_max = np.maximum(W.max(axis=0), W.max(axis=1))
    M = W.T.copy()
    np.fill_diagonal(M, np.maximum(incident_max, 1.0))
    return M / M.sum(axis=0)


def dense_mcl_flow(M, e=2, r=2.0, prune=1e-6):
    """Expansion by dense matrix power, inflation, prune, renormalize."""
    while True:
        M = np.linalg.matrix_power(M, e)
        M = M**r
        M[M < prune] = 0.0
        sums = M.sum(axis=0)
        dead = sums == 0.0
        if dead.any():
            M[:, dead] = 1.0 / M.shape[0]
            sums = M.sum(axis=0)
        M = M / sums
        yield M


def single_product_mcl_flow(M, e=2, r=2.0, prune=1e-6):
    """The sparse flow with each step's whole unpruned M^e formed at once,
    then inflated and pruned: the bitwise oracle for the blocked flow."""
    n = M.shape[0]
    while True:
        M_e = M @ M
        for _ in range(e - 2):
            M_e = M_e @ M
        M = M_e
        M.data **= r
        M.data[M.data < prune] = 0.0
        M.eliminate_zeros()
        M.sort_indices()
        sums = _column_sums(M)
        dead = np.flatnonzero(sums == 0.0)
        if dead.size:
            M = M + sp.csc_array(
                (
                    np.full(n * dead.size, 1.0 / n),
                    (np.tile(np.arange(n), dead.size), np.repeat(dead, n)),
                ),
                shape=(n, n),
            )
            sums = _column_sums(M)
        yield _normalize_columns(M, sums)


def dense_mcl(g, e=2, r=2.0, prune=1e-6, max_iter=MCL_MAX_ITER):
    """Dense n x n MCL: (clusters as ascending index tuples, iterations,
    converged, dense attraction); stops at the cap or on a period-2 flow."""
    order = g.order
    M = dense_seed_matrix(g, order)
    previous = None
    converged, iterations = False, 0
    for M_next in dense_mcl_flow(M, e, r, prune):
        iterations += 1
        if np.max(np.abs(M_next - M)) < MCL_TOL:
            M, converged = M_next, True
            break
        periodic = previous is not None and np.array_equal(M_next, previous)
        previous, M = M, M_next
        if iterations >= max_iter or periodic:
            break
    attractors = [i for i in range(len(order)) if M[i, i] > 0.0]
    if not attractors:
        return (tuple(range(len(order))),), iterations, converged, np.ones((1, len(order)))
    by_members: dict[frozenset, list[int]] = {}
    for a in attractors:
        members = frozenset(np.flatnonzero(M[a] > 0.0).tolist())
        by_members.setdefault(members, []).append(a)
    ordered = sorted(by_members.items(), key=lambda kv: min(kv[0]))
    clusters = tuple(tuple(sorted(members)) for members, _ in ordered)
    attraction = np.vstack([M[rows].sum(axis=0) for _, rows in ordered])
    return clusters, iterations, converged, attraction


# -- random walk matrix -------------------------------------------------------

class TestRandomWalkMatrix:
    def test_rows_sum_to_one(self, rng):
        g = two_block_graph(5)
        P = random_walk_matrix(g)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_two_node_single_edge(self):
        g = make_graph([("a", "b", 1.0)])
        P = random_walk_matrix(g, tau=0.01)
        assert np.allclose(P[0], [0.005, 0.995])
        # dangling target row becomes uniform before mixing
        assert np.allclose(P[1], [0.5, 0.5])

    def test_entries_at_least_teleport_share(self):
        g = two_block_graph(4)
        P = random_walk_matrix(g, tau=0.05)
        assert P.min() >= 0.05 / len(g.nodes) - 1e-15

    def test_empty_graph(self):
        from affinity_miner.graph import AffinityGraph

        with pytest.raises(EmptyGraph):
            random_walk_matrix(AffinityGraph(nodes={}, edges={}))

    def test_bad_tau(self):
        g = make_graph([("a", "b", 1.0)])
        with pytest.raises(ValueError):
            random_walk_matrix(g, tau=1.0)


# -- hitting times -------------------------------------------------------------

class TestHittingTimes:
    def test_diagonal_zero(self, rng):
        P = random_ergodic_chain(rng, 6)
        H = hitting_times(P)
        assert np.all(np.diag(H) == 0.0)

    def test_two_state_geometric(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        H = hitting_times(P)
        assert H[0, 1] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete_graph_uniform_walk(self, n):
        P = (np.ones((n, n)) - np.eye(n)) / (n - 1)
        H = hitting_times(P)
        off = H[~np.eye(n, dtype=bool)]
        assert np.allclose(off, n - 1, atol=1e-8)

    def test_matches_direct_solve(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 21))
            P = random_ergodic_chain(rng, n)
            H = hitting_times(P)
            assert np.max(np.abs(H - direct_hitting_times(P))) < 1e-8

    def test_off_diagonal_positive(self, rng):
        P = random_ergodic_chain(rng, 7)
        H = hitting_times(P)
        assert (H[~np.eye(7, dtype=bool)] > 0).all()


# -- MCL ------------------------------------------------------------------------

class TestMcl:
    def test_two_disjoint_triangles(self):
        edge_list = []
        for base in (0, 3):
            for i, j in [(0, 1), (1, 2), (2, 0)]:
                edge_list.append((f"n{base+i}", f"n{base+j}", 1.0))
                edge_list.append((f"n{base+j}", f"n{base+i}", 1.0))
        g = make_graph(edge_list)
        c = mcl(g)
        got = sorted(tuple(sorted(cl)) for cl in id_sets(c))
        assert got == [("n0", "n1", "n2"), ("n3", "n4", "n5")]
        # oracle: connected components
        assert len(got) == 2

    def test_complete_graph_single_cluster(self):
        edge_list = [
            (f"n{i}", f"n{j}", 1.0) for i in range(5) for j in range(5) if i != j
        ]
        g = make_graph(edge_list)
        c = mcl(g)
        assert len(c.clusters) == 1
        assert c.clusters[0].tolist() == list(range(5))

    def test_single_node(self):
        from affinity_miner.graph import AffinityGraph
        from affinity_miner import parse_mbti

        g = AffinityGraph(nodes={"solo": parse_mbti("INFJ")}, edges={})
        c = mcl(g)
        assert id_sets(c) == [{"solo"}]

    def test_deterministic(self):
        g = two_block_graph(6)
        c1, c2 = mcl(g), mcl(g)
        assert [x.tolist() for x in c1.clusters] == [x.tolist() for x in c2.clusters]
        assert c1.iterations == c2.iterations

    def test_dead_columns_restart_uniform(self):
        # every clique column falls below prune=0.5 after one step; the
        # isolated node's column keeps all its mass on its own loop
        g = make_graph(
            [(f"n{i}", f"n{j}", 1.0) for i in range(4) for j in range(4) if i != j]
        )
        g = AffinityGraph(nodes={**g.nodes, "z": g.nodes["n0"]}, edges=g.edges)
        M = next(mcl_flow(_mcl_seed_matrix(g), prune=0.5))
        dense = M.toarray()
        assert np.array_equal(dense[:, :4], np.full((5, 4), 1 / 5))
        assert np.array_equal(dense[:, 4], [0.0, 0.0, 0.0, 0.0, 1.0])
        assert np.allclose(dense.sum(axis=0), 1.0, atol=1e-15)

    def test_column_sums_stay_one(self):
        g = two_block_graph(6, in_w=0.8, cross_w=0.05)
        M = _mcl_seed_matrix(g)
        for step, M_next in zip(range(30), mcl_flow(M)):
            assert np.max(np.abs(M_next.sum(axis=0) - 1.0)) < 1e-9

    def test_block_recovery(self):
        g = two_block_graph(8, in_w=1.0, cross_w=0.01)
        c = mcl(g)
        assert len(c.clusters) == 2
        sizes = sorted(len(x) for x in c.clusters)
        assert sizes == [8, 8]

    def test_parameter_validation(self):
        g = two_block_graph(3)
        with pytest.raises(ValueError):
            mcl(g, e=1)
        with pytest.raises(ValueError):
            mcl(g, r=1.0)

    def test_iteration_cap_returns_partial_result(self, caplog):
        g = two_block_graph(6, in_w=1.0, cross_w=0.1)
        c = mcl(g, max_iter=1)
        assert not c.converged
        assert c.iterations == 1
        assert c.clusters
        assert "mcl stopped unconverged at the 1-iteration cap" in caplog.text

    def test_flow_without_attractor_falls_back_to_one_cluster(self, caplog):
        # at prune=0.1 each column of a directed 3-cycle keeps only its
        # successor: the flow permutes, never converges, and has no diagonal
        g = make_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        c = mcl(g, prune=0.1, max_iter=3)
        assert not c.converged
        assert [x.tolist() for x in c.clusters] == [[0, 1, 2]]
        assert "mcl stopped unconverged at the 3-iteration cap" in caplog.text
        assert (
            "mcl flow has no attractor after 3 iterations; "
            "returning one cluster of all 3 nodes" in caplog.text
        )

    def test_period_two_flow_stops_without_running_to_the_cap(self, caplog):
        # the same 3-cycle: iterate 3 equals iterate 1, so the flow stops there
        g = make_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        c = mcl(g, prune=0.1)
        assert not c.converged
        assert c.iterations == 3
        assert [x.tolist() for x in c.clusters] == [[0, 1, 2]]
        assert (
            "mcl flow repeats with period 2 after 3 iterations; "
            "stopping unconverged" in caplog.text
        )
        assert "cap" not in caplog.text
        assert "mcl flow has no attractor after 3 iterations" in caplog.text

    def test_prune_above_all_entries_survives(self):
        g = make_graph(
            [(f"n{i}", f"n{j}", 1.0) for i in range(4) for j in range(4) if i != j]
        )
        c = mcl(g, prune=0.5)
        assert c.clusters


# -- sparse MCL against the dense oracle ---------------------------------------

def _planted(seed):
    spec = PlantedSpec(
        n=200, k=4, p_in=0.2, p_out=0.01,
        w_in=(0.8, 1.0), w_out=(0.01, 0.05), seed=seed,
    )
    return planted_partition(spec)[0]


def _assert_matches_dense(g, **params):
    M, D = _mcl_seed_matrix(g), dense_seed_matrix(g, g.order)
    assert np.max(np.abs(M.toarray() - D)) <= 1e-15
    flow = {k: v for k, v in params.items() if k in ("e", "r", "prune")}
    for _, M_next, D_next in zip(range(3), mcl_flow(M, **flow), dense_mcl_flow(D, **flow)):
        assert np.max(np.abs(M_next.toarray() - D_next)) <= 1e-12
    c = mcl(g, **params)
    clusters, iterations, converged, attraction = dense_mcl(g, **params)
    assert [tuple(x.tolist()) for x in c.clusters] == list(clusters)
    assert c.iterations == iterations
    assert c.converged == converged
    assert isinstance(c.attraction, sp.csr_array)
    assert c.attraction.shape == attraction.shape
    assert np.max(np.abs(c.attraction.toarray() - attraction)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_mcl_matches_dense_oracle_planted(seed):
    _assert_matches_dense(_planted(seed))


@pytest.mark.parametrize(
    "block_size, in_w, cross_w, params",
    [
        (6, 1.0, 0.01, {}),
        (8, 1.0, 0.01, {}),
        (6, 0.8, 0.05, {}),
        (6, 1.0, 0.1, {"max_iter": 1}),
        (5, 0.9, 0.1, {"e": 3}),
        (5, 1.0, 0.2, {"r": 1.5}),
        (4, 1.0, 0.01, {"prune": 0.5}),  # every column dies each step
    ],
)
def test_mcl_matches_dense_oracle_two_blocks(block_size, in_w, cross_w, params):
    _assert_matches_dense(two_block_graph(block_size, in_w, cross_w), **params)


@pytest.mark.parametrize("seed", range(5))
def test_mcl_matches_dense_oracle_directed_heavy_weights(seed):
    # weights above 1 make the loop weight max(1, max incident) bite, in
    # and out edges differ, and a self-edge is replaced by the loop
    rng = np.random.default_rng(seed)
    edge_list = [
        (f"n{i:02d}", f"n{j:02d}", float(rng.uniform(0.1, 4.0)))
        for i in range(30) for j in range(30)
        if i != j and rng.random() < 0.15
    ]
    edge_list.append(("n00", "n00", 5.0))
    _assert_matches_dense(make_graph(edge_list))


def test_mcl_matches_dense_oracle_period_two():
    _assert_matches_dense(
        make_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]), prune=0.1
    )


def test_mcl_10k_nodes_without_dense_matrix():
    """100 blocks of 100: ~6 in-block edges and 1 cross edge per node.

    A single dense 10k x 10k float64 matrix is 800 MB, so the peak bounds
    the whole run to sparse storage.
    """
    rng = np.random.default_rng(0)
    blocks, size = 100, 100
    n = blocks * size
    names = [f"u{i:05d}" for i in range(n)]
    edges = {}
    for i in range(n):
        base = i // size * size
        for j in rng.choice(size - 1, size=6, replace=False):
            j = base + (j + 1 + i - base) % size
            edges[(names[i], names[j])] = float(rng.uniform(0.8, 1.0))
        j = int(rng.integers(n))
        if j // size != i // size:
            edges[(names[i], names[j])] = float(rng.uniform(0.01, 0.05))
    label = parse_mbti("INFJ")
    g = AffinityGraph(nodes={u: label for u in names}, edges=dict(sorted(edges.items())))
    tracemalloc.start()
    try:
        c = mcl(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.converged
    assert len(c.clusters) == blocks
    # names ascend with i, so node index i is names[i]
    assert [x.tolist() for x in c.clusters] == [
        list(range(b * size, (b + 1) * size)) for b in range(blocks)
    ]
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_mcl_many_clusters_keeps_attraction_sparse():
    """2000 reciprocal pairs: 4000 nodes and 2000 clusters.

    A dense 2000 x 4000 attraction matrix alone is 64 MB; the sparse one
    holds two entries per cluster, so the whole run stays small.
    """
    pairs = 2000
    names = [f"p{i:05d}" for i in range(2 * pairs)]
    edges = {}
    for p in range(pairs):
        a, b = names[2 * p], names[2 * p + 1]
        edges[(a, b)] = edges[(b, a)] = 1.0
    label = parse_mbti("INFJ")
    g = AffinityGraph(nodes={u: label for u in names}, edges=edges)
    tracemalloc.start()
    try:
        c = mcl(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert c.converged
    assert [x.tolist() for x in c.clusters] == [[2 * p, 2 * p + 1] for p in range(pairs)]
    assert c.attraction.shape == (pairs, 2 * pairs)
    assert c.attraction.nnz == 2 * pairs


# -- column-blocked expansion against the single product -----------------------

def _assert_flows_bitwise_equal(g, **flow):
    """Blocked and single-product flows agree in every array, dtype and bit
    at every iteration until the oracle converges; returns the iterates."""
    M = _mcl_seed_matrix(g)
    previous, iterates = M, []
    blocked, single = mcl_flow(M, **flow), single_product_mcl_flow(M.copy(), **flow)
    for step, A, B in zip(range(1, MCL_MAX_ITER + 1), blocked, single):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype, f"{name} dtype at iteration {step}"
            assert a.tobytes() == b.tobytes(), f"{name} at iteration {step}"
        iterates.append(A)
        if abs(B - previous).max() < MCL_TOL:
            break
        previous = B
    return iterates


def _planted_flow_graph(n):
    spec = PlantedSpec(
        n=n, k=max(n // 128, 2), p_in=0.03, p_out=0.001,
        w_in=(0.8, 1.0), w_out=(0.1, 0.5), seed=0,
    )
    return planted_partition(spec)[0]


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("n, blocks", [(1100, 3), (300, 1)])
def test_blocked_flow_is_the_single_product_flow(e, n, blocks):
    g = _planted_flow_graph(n)
    # the last block is partial
    assert len(g.order) == n and n % MCL_BLOCK_COLUMNS
    assert len(cluster_module._column_ranges(n)) == blocks
    assert len(_assert_flows_bitwise_equal(g, e=e)) > 3


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("r", [2.0, 1.5])
def test_blocked_flow_is_the_single_product_flow_narrow_blocks(monkeypatch, e, r):
    monkeypatch.setattr(cluster_module, "MCL_BLOCK_COLUMNS", 64)
    g = _planted(3)
    assert len(g.order) > 2 * 64 and len(g.order) % 64
    assert len(_assert_flows_bitwise_equal(g, e=e, r=r)) > 3


@pytest.mark.parametrize("e", [2, 3])
def test_blocked_flow_restarts_dead_columns_like_the_single_product(monkeypatch, e):
    # 5 nodes in blocks of 2, 2 and 1; at prune=0.5 the clique columns die
    monkeypatch.setattr(cluster_module, "MCL_BLOCK_COLUMNS", 2)
    g = make_graph(
        [(f"n{i}", f"n{j}", 1.0) for i in range(4) for j in range(4) if i != j]
    )
    g = AffinityGraph(nodes={**g.nodes, "z": g.nodes["n0"]}, edges=g.edges)
    iterates = _assert_flows_bitwise_equal(g, e=e, prune=0.5)
    restarted = iterates[0].toarray()[:, :4]
    assert np.array_equal(restarted, np.full((5, 4), 1 / 5))


def test_mcl_blocked_expansion_bounds_peak_memory():
    """A planted 2048-node graph with about 6 edges per node, as on the
    benchmark's MCL workload. Its unpruned square M @ M reaches 3.0M
    nonzeros (36 MB of values and indices) and set a 52 MiB peak when it
    was formed whole.
    """
    g = _planted_flow_graph(2048)
    tracemalloc.start()
    try:
        c = mcl(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.converged
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# -- k-destinations --------------------------------------------------------------

class TestKDestinations:
    def test_k1_single_cluster(self):
        g = two_block_graph(4)
        c = k_destinations(g, 1)
        assert len(c.clusters) == 1
        assert c.clusters[0].tolist() == list(range(len(g.nodes)))

    def test_kn_singletons(self):
        g = two_block_graph(3)
        c = k_destinations(g, len(g.nodes))
        assert sorted(len(x) for x in c.clusters) == [1] * len(g.nodes)

    def test_two_blocks_recovered(self):
        g = two_block_graph(10, in_w=1.0, cross_w=0.01)
        c = k_destinations(g, 2)
        truth = np.array([0] * 10 + [1] * 10)
        labels = labels_from_clustering(c)
        assert nmi(labels, truth) == 1.0
        assert clustering_error(labels, truth) == 0.0

    def test_disjoint_and_total(self):
        g = two_block_graph(6, in_w=1.0, cross_w=0.05)
        c = k_destinations(g, 3)
        all_members = [i for cl in c.clusters for i in cl.tolist()]
        assert sorted(all_members) == list(range(len(g.nodes)))
        assert len(all_members) == len(set(all_members))

    def test_objective_non_increasing(self):
        g = two_block_graph(8, in_w=1.0, cross_w=0.2)
        c = k_destinations(g, 4)
        trace = c.objective_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_iteration_cap_warns(self, caplog):
        # the first pass only assigns; convergence needs a second pass
        c = k_destinations(two_block_graph(6), 2, max_iter=1)
        assert not c.converged
        assert "k-destinations stopped unconverged at the 1-iteration cap" in caplog.text
        caplog.clear()
        assert k_destinations(two_block_graph(6), 2).converged
        assert not caplog.text

    def test_k_out_of_range(self):
        g = two_block_graph(2)
        with pytest.raises(KOutOfRange):
            k_destinations(g, 0)
        with pytest.raises(KOutOfRange):
            k_destinations(g, len(g.nodes) + 1)

    def test_deterministic(self):
        g = two_block_graph(5, in_w=0.9, cross_w=0.1)
        c1 = k_destinations(g, 2)
        c2 = k_destinations(g, 2)
        assert [x.tolist() for x in c1.clusters] == [x.tolist() for x in c2.clusters]
        assert c1.destinations == c2.destinations

    def test_single_directed_edge(self):
        # teleportation keeps hitting times finite on weakly connected input
        g = make_graph([("a", "b", 1.0)])
        c = k_destinations(g, 2)
        assert sorted(sorted(x) for x in id_sets(c)) == [["a"], ["b"]]

    def test_disconnected_components_recovered(self):
        edge_list = []
        for base in (0, 10):
            for i in range(5):
                for j in range(5):
                    if i != j:
                        edge_list.append((f"m{base + i}", f"m{base + j}", 1.0))
        g = make_graph(edge_list)
        c = k_destinations(g, 2)
        assert sorted(len(x) for x in c.clusters) == [5, 5]
        # each cluster must be exactly one component
        components = [
            {f"m{base + i}" for i in range(5)} for base in (0, 10)
        ]
        assert {frozenset(x) for x in id_sets(c)} == {frozenset(x) for x in components}


# -- metrics ----------------------------------------------------------------------

class TestNmi:
    def test_identical_is_exactly_one(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_independent_is_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_relabeled_is_exactly_one(self):
        assert nmi([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_symmetric(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 15))
            x = rng.integers(0, 4, size=n)
            y = rng.integers(0, 4, size=n)
            assert abs(nmi(x, y) - nmi(y, x)) < 1e-12

    def test_one_constant_labeling(self):
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0

    def test_matches_naive_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 6))
            x = [int(v) for v in rng.integers(0, k, size=n)]
            y = [int(v) for v in rng.integers(0, k, size=n)]
            assert nmi(x, y) == pytest.approx(naive_nmi(x, y), abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            nmi([0, 1], [0, 1, 2])

    def test_range(self, rng):
        for _ in range(50):
            x = rng.integers(0, 3, size=10)
            y = rng.integers(0, 3, size=10)
            assert 0.0 <= nmi(x, y) <= 1.0


class TestClusteringError:
    def test_exact_match(self):
        assert clustering_error([0, 1, 2], [0, 1, 2]) == 0.0

    def test_any_permutation_is_zero(self, rng):
        for _ in range(20):
            truth = rng.integers(0, 4, size=12)
            perm = rng.permutation(4)
            pred = perm[truth]
            assert clustering_error(pred, truth) == 0.0

    def test_quarter_error(self):
        assert clustering_error([0, 0, 0, 1], [0, 0, 1, 1]) == 0.25

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 6))
            pred = [int(v) for v in rng.integers(0, k, size=n)]
            truth = [int(v) for v in rng.integers(0, k, size=n)]
            assert clustering_error(pred, truth) == brute_force_error(pred, truth)

    def test_different_label_set_sizes(self):
        assert clustering_error([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            clustering_error([0], [0, 1])


class TestLabelsFromClustering:
    def base(self, clusters, attraction=None, nodes=("a", "b", "c")):
        return Clustering(
            clusters=tuple(np.array(c, dtype=np.intp) for c in clusters),
            method="k-destinations" if attraction is None else "mcl",
            params={},
            nodes=tuple(nodes),
            iterations=1,
            converged=True,
            attraction=None if attraction is None else sp.csr_array(attraction),
        )

    def test_disjoint_direct_mapping(self):
        c = self.base([[0], [1, 2]])
        assert list(labels_from_clustering(c)) == [0, 1, 1]

    def test_overlap_argmax_attraction(self):
        attraction = np.array([[0.3, 1.0, 0.7], [0.7, 0.0, 0.3]])
        c = self.base([[0, 1, 2], [0, 2]], attraction=attraction)
        assert list(labels_from_clustering(c)) == [1, 0, 0]

    def test_equal_attraction_smaller_index(self):
        attraction = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        c = self.base([[0, 1, 2], [0, 1, 2]], attraction=attraction)
        assert list(labels_from_clustering(c)) == [0, 0, 0]

    def test_matches_dense_argmax_on_mcl(self):
        c = mcl(two_block_graph(6, in_w=1.0, cross_w=0.1), max_iter=2)
        dense = c.attraction.toarray()
        assert np.array_equal(labels_from_clustering(c), np.argmax(dense, axis=0))


class TestClusteringValidation:
    def make(self, clusters):
        return Clustering(
            clusters=tuple(np.array(c, dtype=np.intp) for c in clusters),
            method="k-destinations", params={}, nodes=("a", "b", "c"),
            iterations=1, converged=True,
        )

    def test_valid(self):
        assert len(self.make([[0, 2], [1]]).clusters) == 2

    @pytest.mark.parametrize(
        "clusters", [[[]], [[0, 3]], [[-1, 0]], [[1, 0]], [[0, 0]]],
        ids=["empty", "past-end", "negative", "descending", "repeated"],
    )
    def test_rejected(self, clusters):
        with pytest.raises(ValueError):
            self.make(clusters)
