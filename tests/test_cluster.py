import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from affinity_miner import cluster as cluster_module
from affinity_miner.cluster import (
    MCL_BLOCK_COLUMNS,
    MCL_MAX_ITER,
    MCL_TOL,
    Clustering,
    _column_sums,
    _mcl_seed_matrix,
    _normalize_columns,
    hitting_times,
    k_destinations,
    mcl,
    mcl_flow,
    random_walk_matrix,
)
from affinity_miner.errors import DimensionMismatch, InsufficientData, InvalidSpec, NonErgodic
from affinity_miner.ingest import parse_mbti

from conftest import dict_graph, id_sets, make_graph, random_positive_graph, two_block_graph
from oracles import (
    PlantedSpec,
    brute_force_error,
    clustering_error,
    labels_from_clustering,
    naive_nmi,
    nmi,
    planted_partition,
)


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


def dense_mcl_flow(M, e, r, prune):
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


def single_product_mcl_flow(M, e, r, prune):
    """The sparse flow with each step's whole unpruned M^e formed at once,
    then inflated and pruned: the bitwise oracle for the blocked flow. The
    dead-column restart is built in the flow's index dtype, as the blocked
    flow builds it."""
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
            index = M.indices.dtype
            M = M + sp.csc_array(
                (
                    np.full(n * dead.size, 1.0 / n),
                    (
                        np.tile(np.arange(n, dtype=index), dead.size),
                        np.repeat(dead.astype(index), n),
                    ),
                ),
                shape=(n, n),
            )
            sums = _column_sums(M)
        yield _normalize_columns(M, sums)


def dense_mcl(g, e, r, prune, max_iter):
    """Dense n x n MCL: (clusters as ascending index tuples, iterations,
    converged); stops at the cap or on a period-2 flow."""
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
        return (tuple(range(len(order))),), iterations, converged
    # one cluster per distinct member set, first seen first among equal minima
    member_sets = dict.fromkeys(
        frozenset(np.flatnonzero(M[a] > 0.0).tolist()) for a in attractors
    )
    clusters = tuple(tuple(sorted(members)) for members in sorted(member_sets, key=min))
    return clusters, iterations, converged


# -- random walk matrix -------------------------------------------------------

class TestRandomWalkMatrix:
    def test_rows_sum_to_one(self, rng, defaults):
        g = two_block_graph(5)
        P = random_walk_matrix(g, defaults.tau)
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

    def test_empty_graph(self, defaults):
        with pytest.raises(InsufficientData, match="^walk matrix needs at least one node$"):
            random_walk_matrix(dict_graph(nodes={}, edges={}), defaults.tau)

    def test_bad_tau(self):
        g = make_graph([("a", "b", 1.0)])
        with pytest.raises(InvalidSpec, match=r"^teleport must be in \(0, 1\), got 1.0$"):
            random_walk_matrix(g, tau=1.0)


# -- hitting times -------------------------------------------------------------

class TestHittingTimes:
    def test_diagonal_zero(self, rng, defaults):
        H = hitting_times(random_positive_graph(rng, 6), defaults.tau)
        assert np.all(np.diag(H) == 0.0)

    def test_two_state_geometric(self):
        # equal weights on every edge and loop: the walk is uniform at any tau
        g = make_graph([(u, v, 1.0) for u in "ab" for v in "ab"])
        H = hitting_times(g, 0.3)
        assert H[0, 1] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete_graph_uniform_walk(self, n):
        tau = 0.01
        g = make_graph([(f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(n) if i != j])
        H = hitting_times(g, tau)
        # every step reaches a given other node with the same probability p
        p = (1 - tau) / (n - 1) + tau / n
        off = H[~np.eye(n, dtype=bool)]
        assert np.allclose(off, 1 / p, atol=1e-8)

    def test_matches_direct_solve(self, rng, defaults):
        for _ in range(30):
            n = int(rng.integers(2, 21))
            g = random_positive_graph(rng, n)
            H = hitting_times(g, defaults.tau)
            P = random_walk_matrix(g, defaults.tau)
            assert np.max(np.abs(H - direct_hitting_times(P))) < 1e-8

    def test_matches_direct_solve_with_dangling_nodes(self):
        g = make_graph([("a", "b", 1.0), ("b", "b", 2.0), ("c", "a", 0.5), ("b", "d", 0.3)])
        for tau in (0.5, 0.01, 1e-6):
            H = hitting_times(g, tau)
            assert np.max(np.abs(H - direct_hitting_times(random_walk_matrix(g, tau)))) < 1e-6

    @pytest.mark.parametrize("block", [2, 3])
    def test_matches_direct_solve_across_block_edges(self, monkeypatch, rng, defaults, block):
        # at the default block every graph above fits in one pivot block
        monkeypatch.setattr(cluster_module, "INVERSE_BLOCK", block)
        self.test_matches_direct_solve(rng, defaults)
        self.test_matches_direct_solve_with_dangling_nodes()

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_block_inverse_matches_numpy_inverse(self, rng, n, defaults):
        # one, one full, and one full plus a partial pivot block at the default
        g = random_positive_graph(rng, n)
        A = np.eye(n) - random_walk_matrix(g, defaults.tau) + 1.0 / n
        expected = np.linalg.inv(A)
        cluster_module._invert_in_place(A)
        assert np.max(np.abs(A - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_off_diagonal_positive(self, rng, defaults):
        H = hitting_times(random_positive_graph(rng, 7), defaults.tau)
        assert (H[~np.eye(7, dtype=bool)] > 0).all()

    @pytest.mark.parametrize(
        "edges, taus, message",
        [
            ([("a", "a", 1.0), ("b", "b", 1.0)], [1e-300, 1e-18], "zero pivot"),
            (
                [
                    ("a", "a", 0.3), ("a", "b", 0.7), ("b", "a", 0.6), ("b", "b", 0.4),
                    ("c", "c", 0.9), ("c", "d", 0.1), ("d", "c", 0.2), ("d", "d", 0.8),
                ],
                [1e-300, 1e-18, 1e-12],
                "no stationary distribution",
            ),
            (
                [
                    ("a", "a", 1.0), ("b", "b", 1.0),
                    ("c", "a", 0.3), ("c", "b", 0.3), ("c", "c", 0.4),
                ],
                [1e-300, 1e-18],
                "zero pivot",
            ),
        ],
        ids=["identity", "two-closed-blocks", "two-absorbing-states"],
    )
    def test_chain_with_two_closed_classes_refused(self, edges, taus, message):
        # at a vanishing tau the walk keeps the graph's closed classes; the
        # factor may or may not meet an exact zero pivot, and the residual
        # check catches the ones that do not
        g = make_graph(edges)
        for tau in taus:
            with pytest.raises(NonErgodic, match=message):
                hitting_times(g, tau)

    def test_empty_graph_and_bad_tau_refused(self, defaults):
        with pytest.raises(InsufficientData, match="^walk matrix needs at least one node$"):
            hitting_times(dict_graph(nodes={}, edges={}), defaults.tau)
        with pytest.raises(InvalidSpec, match="teleport"):
            hitting_times(make_graph([("a", "b", 1.0)]), 0.0)

    def test_sparse_residual_matches_dense(self, rng):
        # "c" and "e" dangle, "b" and "d" carry self-loops
        g = make_graph(
            [("a", "b", 1.0), ("b", "b", 2.0), ("b", "c", 0.5), ("d", "d", 0.7),
             ("d", "a", 0.2), ("a", "e", 0.4)]
        )
        for tau in (0.9, 0.01, 1e-12):
            P = random_walk_matrix(g, tau)
            for pi in (rng.random(5), rng.random(5) / 5, np.linalg.eig(P.T)[1][:, 0].real):
                dense = np.max(np.abs(pi @ P - pi))
                sparse = cluster_module._stationary_residual(g, tau, pi)
                assert sparse == pytest.approx(dense, rel=1e-12, abs=1e-14)


# -- MCL ------------------------------------------------------------------------

class TestMcl:
    def test_two_disjoint_triangles(self, defaults):
        edge_list = []
        for base in (0, 3):
            for i, j in [(0, 1), (1, 2), (2, 0)]:
                edge_list.append((f"n{base+i}", f"n{base+j}", 1.0))
                edge_list.append((f"n{base+j}", f"n{base+i}", 1.0))
        g = make_graph(edge_list)
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        got = sorted(tuple(sorted(cl)) for cl in id_sets(c))
        assert got == [("n0", "n1", "n2"), ("n3", "n4", "n5")]
        # oracle: connected components
        assert len(got) == 2

    def test_complete_graph_single_cluster(self, defaults):
        edge_list = [
            (f"n{i}", f"n{j}", 1.0) for i in range(5) for j in range(5) if i != j
        ]
        g = make_graph(edge_list)
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        assert len(c.clusters) == 1
        assert c.clusters[0].tolist() == list(range(5))

    def test_single_node(self, defaults):
        from affinity_miner.ingest import parse_mbti

        g = dict_graph(nodes={"solo": parse_mbti("INFJ")}, edges={})
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        assert id_sets(c) == [{"solo"}]

    def test_deterministic(self, defaults):
        g = two_block_graph(6)
        c1, c2 = (mcl(g, defaults.expansion, defaults.inflation, defaults.prune) for _ in range(2))
        assert [x.tolist() for x in c1.clusters] == [x.tolist() for x in c2.clusters]
        assert c1.iterations == c2.iterations

    def test_dead_columns_restart_uniform(self, defaults):
        # every clique column falls below prune=0.5 after one step; the
        # isolated node's column keeps all its mass on its own loop
        M = _mcl_seed_matrix(_clique_and_isolated_node())
        M, _ = next(mcl_flow(M, e=defaults.expansion, r=defaults.inflation, prune=0.5))
        dense = M.toarray()
        assert np.array_equal(dense[:, :4], np.full((5, 4), 1 / 5))
        assert np.array_equal(dense[:, 4], [0.0, 0.0, 0.0, 0.0, 1.0])
        assert np.allclose(dense.sum(axis=0), 1.0, atol=1e-15)

    def test_column_sums_stay_one(self, defaults):
        g = two_block_graph(6, in_w=0.8, cross_w=0.05)
        M = _mcl_seed_matrix(g)
        flows = mcl_flow(M, defaults.expansion, defaults.inflation, defaults.prune)
        for step, (M_next, _) in zip(range(30), flows):
            assert np.max(np.abs(M_next.sum(axis=0) - 1.0)) < 1e-9

    def test_block_recovery(self, defaults):
        g = two_block_graph(8, in_w=1.0, cross_w=0.01)
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        assert len(c.clusters) == 2
        sizes = sorted(len(x) for x in c.clusters)
        assert sizes == [8, 8]

    def test_parameter_validation(self, defaults):
        g = two_block_graph(3)
        with pytest.raises(InvalidSpec, match="^expansion power must be >= 2, got 1$"):
            mcl(g, e=1, r=defaults.inflation, prune=defaults.prune)
        with pytest.raises(InvalidSpec, match="^inflation power must be > 1, got 1.0$"):
            mcl(g, e=defaults.expansion, r=1.0, prune=defaults.prune)

    def test_iteration_cap_returns_partial_result(self, caplog, monkeypatch, defaults):
        g = two_block_graph(6, in_w=1.0, cross_w=0.1)
        monkeypatch.setattr(cluster_module, "MCL_MAX_ITER", 1)
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        assert not c.converged
        assert c.iterations == 1
        assert c.clusters
        assert "mcl stopped unconverged at the 1-iteration cap" in caplog.text

    def test_flow_without_attractor_falls_back_to_one_cluster(self, caplog, monkeypatch, defaults):
        # at prune=0.1 each column of a directed 3-cycle keeps only its
        # successor: the flow permutes, never converges, and has no diagonal
        g = make_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        monkeypatch.setattr(cluster_module, "MCL_MAX_ITER", 3)
        c = mcl(g, e=defaults.expansion, r=defaults.inflation, prune=0.1)
        assert not c.converged
        assert [x.tolist() for x in c.clusters] == [[0, 1, 2]]
        assert "mcl stopped unconverged at the 3-iteration cap" in caplog.text
        assert (
            "mcl flow has no attractor after 3 iterations; "
            "returning one cluster of all 3 nodes" in caplog.text
        )

    def test_period_two_flow_stops_without_running_to_the_cap(self, caplog, defaults):
        # the same 3-cycle: iterate 3 equals iterate 1, so the flow stops there
        g = make_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        c = mcl(g, e=defaults.expansion, r=defaults.inflation, prune=0.1)
        assert not c.converged
        assert c.iterations == 3
        assert [x.tolist() for x in c.clusters] == [[0, 1, 2]]
        assert (
            "mcl flow repeats with period 2 after 3 iterations; "
            "stopping unconverged" in caplog.text
        )
        assert "cap" not in caplog.text
        assert "mcl flow has no attractor after 3 iterations" in caplog.text

    def test_prune_above_all_entries_survives(self, defaults):
        g = make_graph(
            [(f"n{i}", f"n{j}", 1.0) for i in range(4) for j in range(4) if i != j]
        )
        c = mcl(g, e=defaults.expansion, r=defaults.inflation, prune=0.5)
        assert c.clusters


# -- sparse MCL against the dense oracle ---------------------------------------

def _planted(seed):
    spec = PlantedSpec(
        n=200, k=4, p_in=0.2, p_out=0.01,
        w_in=(0.8, 1.0), w_out=(0.01, 0.05), seed=seed,
    )
    return planted_partition(spec)[0]


def flow_params(defaults, **overrides):
    """The (e, r, prune) keywords of mcl and mcl_flow at the config's
    values, any of them overridden."""
    return {"e": defaults.expansion, "r": defaults.inflation, "prune": defaults.prune, **overrides}


def _assert_matches_dense(g, defaults, max_iter=MCL_MAX_ITER, **overrides):
    M, D = _mcl_seed_matrix(g), dense_seed_matrix(g, g.order)
    assert np.max(np.abs(M.toarray() - D)) <= 1e-15
    flow = flow_params(defaults, **overrides)
    for _, (M_next, _), D_next in zip(
        range(3), mcl_flow(M, **flow), dense_mcl_flow(D, **flow)
    ):
        assert np.max(np.abs(M_next.toarray() - D_next)) <= 1e-12
    c = mcl(g, **flow)
    clusters, iterations, converged = dense_mcl(g, **flow, max_iter=max_iter)
    assert [tuple(x.tolist()) for x in c.clusters] == list(clusters)
    assert c.iterations == iterations
    assert c.converged == converged


@pytest.mark.parametrize("seed", range(10))
def test_mcl_matches_dense_oracle_planted(seed, defaults):
    _assert_matches_dense(_planted(seed), defaults)


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
def test_mcl_matches_dense_oracle_two_blocks(
    monkeypatch, defaults, block_size, in_w, cross_w, params
):
    if "max_iter" in params:
        monkeypatch.setattr(cluster_module, "MCL_MAX_ITER", params["max_iter"])
    _assert_matches_dense(two_block_graph(block_size, in_w, cross_w), defaults, **params)


@pytest.mark.parametrize("seed", range(5))
def test_mcl_matches_dense_oracle_directed_heavy_weights(seed, defaults):
    # weights above 1 make the loop weight max(1, max incident) bite, in
    # and out edges differ, and a self-edge is replaced by the loop
    rng = np.random.default_rng(seed)
    edge_list = [
        (f"n{i:02d}", f"n{j:02d}", float(rng.uniform(0.1, 4.0)))
        for i in range(30) for j in range(30)
        if i != j and rng.random() < 0.15
    ]
    edge_list.append(("n00", "n00", 5.0))
    _assert_matches_dense(make_graph(edge_list), defaults)


def test_mcl_matches_dense_oracle_period_two(defaults):
    _assert_matches_dense(
        make_graph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]), defaults, prune=0.1
    )


def test_mcl_10k_nodes_without_dense_matrix(defaults):
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
    g = dict_graph(nodes={u: label for u in names}, edges=dict(sorted(edges.items())))
    tracemalloc.start()
    try:
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
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


def test_mcl_many_clusters_stays_small(defaults):
    """2000 reciprocal pairs: 4000 nodes and 2000 clusters.

    Any dense cluster x node or node x node array alone is 64 MB or more;
    the flow and the clusters hold a few entries per node, so the whole
    run stays small.
    """
    pairs = 2000
    names = [f"p{i:05d}" for i in range(2 * pairs)]
    edges = {}
    for p in range(pairs):
        a, b = names[2 * p], names[2 * p + 1]
        edges[(a, b)] = edges[(b, a)] = 1.0
    label = parse_mbti("INFJ")
    g = dict_graph(nodes={u: label for u in names}, edges=edges)
    tracemalloc.start()
    try:
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert c.converged
    assert [x.tolist() for x in c.clusters] == [[2 * p, 2 * p + 1] for p in range(pairs)]


# -- column-blocked expansion against the single product -----------------------

def _assert_flows_bitwise_equal(g, defaults, **overrides):
    """Blocked and single-product flows at flow_params(defaults, **overrides)
    agree in every array, dtype and bit at every iteration until the oracle
    converges, and so does the change the blocked flow yields with its
    whole-matrix max |B - previous|; returns the iterates."""
    flow = flow_params(defaults, **overrides)
    M = _mcl_seed_matrix(g)
    previous, iterates = M, []
    blocked, single = mcl_flow(M, **flow), single_product_mcl_flow(M.copy(), **flow)
    for step, (A, change), B in zip(range(1, MCL_MAX_ITER + 1), blocked, single):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype, f"{name} dtype at iteration {step}"
            assert a.tobytes() == b.tobytes(), f"{name} at iteration {step}"
        expected = abs(B - previous).max()
        assert np.float64(change).tobytes() == np.float64(expected).tobytes(), (
            f"change at iteration {step}"
        )
        iterates.append(A)
        if expected < MCL_TOL:
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
@pytest.mark.parametrize("n, blocks", [(1100, 9), (120, 1)])
def test_blocked_flow_is_the_single_product_flow(defaults, e, n, blocks):
    g = _planted_flow_graph(n)
    columns = len(g.order)
    # the last block is partial
    assert columns % MCL_BLOCK_COLUMNS
    assert math.ceil(columns / MCL_BLOCK_COLUMNS) == blocks
    assert len(_assert_flows_bitwise_equal(g, defaults, e=e)) > 3


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("r", [2.0, 1.5])
def test_blocked_flow_is_the_single_product_flow_narrow_blocks(monkeypatch, defaults, e, r):
    monkeypatch.setattr(cluster_module, "MCL_BLOCK_COLUMNS", 64)
    g = _planted(3)
    assert len(g.order) > 2 * 64 and len(g.order) % 64
    assert len(_assert_flows_bitwise_equal(g, defaults, e=e, r=r)) > 3


def _clique_and_isolated_node():
    """A 4-clique and an isolated node: at prune=0.5 every clique column
    dies at every step and restarts uniform."""
    g = make_graph(
        [(f"n{i}", f"n{j}", 1.0) for i in range(4) for j in range(4) if i != j]
    )
    return dict_graph(nodes={**g.nodes, "z": g.nodes["n0"]}, edges=g.edges)


@pytest.mark.parametrize("e", [2, 3])
def test_blocked_flow_restarts_dead_columns_like_the_single_product(monkeypatch, defaults, e):
    # 5 nodes in blocks of 2, 2 and 1; at prune=0.5 the clique columns die
    monkeypatch.setattr(cluster_module, "MCL_BLOCK_COLUMNS", 2)
    iterates = _assert_flows_bitwise_equal(_clique_and_isolated_node(), defaults, e=e, prune=0.5)
    restarted = iterates[0].toarray()[:, :4]
    assert np.array_equal(restarted, np.full((5, 4), 1 / 5))


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("case", ["planted", "dead-columns"])
def test_every_flow_has_int32_indices(monkeypatch, defaults, e, case):
    if case == "planted":
        g, flow = _planted(3), flow_params(defaults, e=e)
    else:
        # blocks of 2, 2 and 1 columns, each clique column restarted
        monkeypatch.setattr(cluster_module, "MCL_BLOCK_COLUMNS", 2)
        g, flow = _clique_and_isolated_node(), flow_params(defaults, e=e, prune=0.5)
    M = _mcl_seed_matrix(g)
    assert M.indptr.dtype == M.indices.dtype == np.int32
    for step, (M, _) in zip(range(1, 11), mcl_flow(M, **flow)):
        assert M.indptr.dtype == np.int32, f"indptr at iteration {step}"
        assert M.indices.dtype == np.int32, f"indices at iteration {step}"
        if case == "dead-columns":
            assert np.array_equal(M.toarray()[:, :4], np.full((5, 4), 1 / 5))


def test_index_dtype_widens_above_int32_range():
    limit = np.iinfo(np.int32).max
    assert cluster_module._index_dtype(2048, limit) == np.int32
    assert cluster_module._index_dtype(2048, limit + 1) == np.int64
    assert cluster_module._index_dtype(limit + 1, 0) == np.int64


@pytest.mark.parametrize("e", [2, 3])
def test_int64_flow_has_the_int32_flow_bits(monkeypatch, defaults, e):
    # the path a flow past 2^31 - 1 entries takes, forced on a small graph
    g, flow = _planted(3), flow_params(defaults, e=e)
    narrow = [M for _, (M, _) in zip(range(6), mcl_flow(_mcl_seed_matrix(g), **flow))]
    monkeypatch.setattr(cluster_module, "_index_dtype", lambda n, nnz: np.int64)
    wide = [M for _, (M, _) in zip(range(6), mcl_flow(_mcl_seed_matrix(g), **flow))]
    for step, (A, B) in enumerate(zip(narrow, wide), 1):
        assert B.indptr.dtype == B.indices.dtype == np.int64, f"iteration {step}"
        assert np.array_equal(A.indptr, B.indptr), f"indptr at iteration {step}"
        assert np.array_equal(A.indices, B.indices), f"indices at iteration {step}"
        assert A.data.tobytes() == B.data.tobytes(), f"data at iteration {step}"


def test_mcl_blocked_expansion_bounds_peak_memory(defaults):
    """A planted 2048-node graph with about 6 edges per node, as on the
    benchmark's MCL workload. Its unpruned square M @ M reaches 3.0M
    nonzeros (36 MB of values and indices) and set a 52 MiB peak when it
    was formed whole. With 128-column blocks, int32 indices and digests of
    the older flows, mcl peaks at 6.6 MiB.
    """
    g = _planted_flow_graph(2048)
    tracemalloc.start()
    try:
        c = mcl(g, defaults.expansion, defaults.inflation, defaults.prune)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.converged
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# -- k-destinations --------------------------------------------------------------

class TestKDestinations:
    def test_k1_single_cluster(self, defaults):
        g = two_block_graph(4)
        c = k_destinations(g, 1, defaults.tau)
        assert len(c.clusters) == 1
        assert c.clusters[0].tolist() == list(range(len(g.nodes)))

    def test_kn_singletons(self, defaults):
        g = two_block_graph(3)
        c = k_destinations(g, len(g.nodes), defaults.tau)
        assert sorted(len(x) for x in c.clusters) == [1] * len(g.nodes)

    def test_two_blocks_recovered(self, defaults):
        g = two_block_graph(10, in_w=1.0, cross_w=0.01)
        c = k_destinations(g, 2, defaults.tau)
        truth = np.array([0] * 10 + [1] * 10)
        labels = labels_from_clustering(c)
        assert nmi(labels, truth) == 1.0
        assert clustering_error(labels, truth) == 0.0

    def test_disjoint_and_total(self, defaults):
        g = two_block_graph(6, in_w=1.0, cross_w=0.05)
        c = k_destinations(g, 3, defaults.tau)
        all_members = [i for cl in c.clusters for i in cl.tolist()]
        assert sorted(all_members) == list(range(len(g.nodes)))
        assert len(all_members) == len(set(all_members))

    def test_objective_non_increasing(self, defaults):
        g = two_block_graph(8, in_w=1.0, cross_w=0.2)
        c = k_destinations(g, 4, defaults.tau)
        trace = c.objective_trace
        assert all(a >= b - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_iteration_cap_warns(self, caplog, monkeypatch, defaults):
        # the first pass only assigns; convergence needs a second pass
        with monkeypatch.context() as patch:
            patch.setattr(cluster_module, "KDEST_MAX_ITER", 1)
            c = k_destinations(two_block_graph(6), 2, defaults.tau)
        assert not c.converged
        assert "k-destinations stopped unconverged at the 1-iteration cap" in caplog.text
        caplog.clear()
        assert k_destinations(two_block_graph(6), 2, defaults.tau).converged
        assert not caplog.text

    def test_k_out_of_range(self, defaults):
        g = two_block_graph(2)
        n = len(g.nodes)
        with pytest.raises(InvalidSpec, match=f"^k must be in 1..{n}, got 0$"):
            k_destinations(g, 0, defaults.tau)
        with pytest.raises(InvalidSpec, match=f"^k must be in 1..{n}, got {n + 1}$"):
            k_destinations(g, n + 1, defaults.tau)

    def test_deterministic(self, defaults):
        g = two_block_graph(5, in_w=0.9, cross_w=0.1)
        c1 = k_destinations(g, 2, defaults.tau)
        c2 = k_destinations(g, 2, defaults.tau)
        assert [x.tolist() for x in c1.clusters] == [x.tolist() for x in c2.clusters]
        assert c1.objective_trace == c2.objective_trace

    def test_single_directed_edge(self, defaults):
        # teleportation keeps hitting times finite on weakly connected input
        g = make_graph([("a", "b", 1.0)])
        c = k_destinations(g, 2, defaults.tau)
        assert sorted(sorted(x) for x in id_sets(c)) == [["a"], ["b"]]

    def test_disconnected_components_recovered(self, defaults):
        edge_list = []
        for base in (0, 10):
            for i in range(5):
                for j in range(5):
                    if i != j:
                        edge_list.append((f"m{base + i}", f"m{base + j}", 1.0))
        g = make_graph(edge_list)
        c = k_destinations(g, 2, defaults.tau)
        assert sorted(len(x) for x in c.clusters) == [5, 5]
        # each cluster must be exactly one component
        components = [
            {f"m{base + i}" for i in range(5)} for base in (0, 10)
        ]
        assert {frozenset(x) for x in id_sets(c)} == {frozenset(x) for x in components}


def unblocked_k_destinations(g, k, tau, max_iter):
    """k-destinations with whole-matrix sums: the n x n minimum in the
    greedy start and the |C| x |C| block of H in re-centering."""
    n = len(g.order)
    H = hitting_times(g, tau)
    _, dst, w = g.edge_arrays
    destinations = [int(np.argmax(np.bincount(dst, weights=w, minlength=n)))]
    while len(destinations) < k:
        current = H[:, destinations].min(axis=1)
        totals = np.minimum(H, current[:, None]).sum(axis=0)
        totals[destinations] = np.inf
        destinations.append(int(np.argmin(totals)))
    destinations = sorted(destinations)
    assignment = np.full(n, -1, dtype=int)
    trace, iterations, converged = [], 0, False
    for _ in range(max_iter):
        iterations += 1
        cost = H[:, destinations]
        new_assignment = np.argmin(cost, axis=1)
        trace.append(float(cost[np.arange(n), new_assignment].sum()))
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        new_destinations = []
        for c in range(k):
            members = np.flatnonzero(assignment == c)
            totals = H[np.ix_(members, members)].sum(axis=0)
            new_destinations.append(int(members[np.argmin(totals)]))
        destinations = sorted(new_destinations)
    clusters = [np.flatnonzero(assignment == c).tolist() for c in range(k)]
    return clusters, iterations, converged, tuple(trace)


@pytest.mark.parametrize("rows, width", [(1, 3), (2, 2), (5, 2), (17, 4), (130, 9), (401, 30)])
def test_row_block_sums_are_the_whole_sum(rng, rows, width):
    A = rng.random((rows, width)) * 10.0 ** rng.integers(-8, 9, size=(rows, width))
    assert np.array_equal(cluster_module._sum_rows(rows, lambda a, b: A[a:b]), A.sum(axis=0))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, k", [(60, 3), (250, 5)])
def test_k_destinations_matches_unblocked_oracle(monkeypatch, seed, n, k, defaults):
    spec = PlantedSpec(
        n=n, k=k, p_in=0.2, p_out=0.02, w_in=(0.5, 1.0), w_out=(0.01, 0.3), seed=seed
    )
    g = planted_partition(spec)[0]
    max_iter = 3 if seed == 3 else 100
    monkeypatch.setattr(cluster_module, "KDEST_MAX_ITER", max_iter)
    for clusters_asked in (1, 2, k, k + 4):
        c = k_destinations(g, clusters_asked, defaults.tau)
        clusters, iterations, converged, trace = unblocked_k_destinations(
            g, clusters_asked, defaults.tau, max_iter
        )
        assert [x.tolist() for x in c.clusters] == clusters
        assert (c.iterations, c.converged) == (iterations, converged)
        # bitwise: the blocked sums add the same rows in the same order
        assert c.objective_trace == trace


def test_k_destinations_holds_one_dense_array(defaults):
    """At 768 nodes, the benchmark's k-destinations size, the path holds
    the walk matrix, overwritten by H, and nothing else of size n^2:
    a second n x n array (P beside a working copy, or the n x n minimum
    of the greedy start) would peak near 2 * 8n^2.
    """
    n = 768
    spec = PlantedSpec(
        n=n, k=8, p_in=0.1, p_out=0.002, w_in=(0.8, 1.0), w_out=(0.1, 0.5), seed=0
    )
    g, truth = planted_partition(spec)
    assert len(g.order) == n
    tracemalloc.start()
    try:
        c = k_destinations(g, 8, defaults.tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.converged
    assert nmi(labels_from_clustering(c), [truth[u] for u in g.order]) > 0.95
    assert peak < 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} * 8n^2 bytes"


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
        with pytest.raises(DimensionMismatch, match="^lengths 2 vs 3$"):
            nmi([0, 1], [0, 1, 2])

    def test_empty_labelings_are_too_little_data(self):
        # the lengths agree, so this is not a dimension mismatch
        with pytest.raises(InsufficientData, match="^need at least one label$"):
            nmi([], [])

    def test_two_dimensional_labels(self):
        with pytest.raises(DimensionMismatch, match=r"^label vector must be 1-d, got shape \(2, 2\)$"):
            nmi([[0, 1], [1, 0]], [0, 1, 0, 1])

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
        with pytest.raises(DimensionMismatch, match="^lengths 1 vs 2$"):
            clustering_error([0], [0, 1])

    def test_empty_labelings_are_too_little_data(self):
        with pytest.raises(InsufficientData, match="^need at least one label$"):
            clustering_error([], [])


@pytest.mark.parametrize(
    "clusterer",
    [
        lambda g, defaults: mcl(g, defaults.expansion, defaults.inflation, defaults.prune),
        lambda g, defaults: k_destinations(g, 1, defaults.tau),
    ],
    ids=["mcl", "kdest"],
)
def test_clusterers_refuse_an_empty_graph(defaults, clusterer):
    with pytest.raises(InsufficientData, match="^clustering needs at least one node$"):
        clusterer(dict_graph(nodes={}, edges={}), defaults)


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
