"""Random-walk graph clustering and clustering-quality metrics.

Two clusterers over the affinity graph: flow simulation by alternating
matrix expansion and entrywise inflation (may yield overlapping clusters),
and an iterative hitting-time clusterer that assigns every node to its
nearest destination node and re-centers destinations until stable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .affinity import stationary_distribution
from .errors import (
    EmptyGraph,
    KOutOfRange,
    LengthMismatch,
    SingularSystem,
)
from .graph import AffinityGraph

log = logging.getLogger(__name__)

DEFAULT_TELEPORT = 0.01
MCL_MAX_ITER = 200
MCL_TOL = 1e-8
# expansion product columns computed, inflated and pruned at a time
MCL_BLOCK_COLUMNS = 512


@dataclass(frozen=True)
class Clustering:
    """Clusters as ascending node-index arrays over `nodes` (the graph's
    g.order), plus the metadata needed to serialize them.

    For the flow clusterer, `attraction` is a sparse CSR c x n matrix whose
    entry (c, i) is the limit-matrix mass of node i on cluster c's attractor
    rows; clusters may overlap only then. The hitting-time clusterer fills
    `destinations` and `objective_trace` instead.
    """

    clusters: tuple[np.ndarray, ...]
    method: str
    params: dict
    nodes: tuple[str, ...]
    iterations: int
    converged: bool
    attraction: sp.csr_array | None = field(default=None)
    destinations: tuple[str, ...] | None = field(default=None)
    objective_trace: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        n = len(self.nodes)
        for members in self.clusters:
            if not len(members):
                raise ValueError("empty cluster")
            if members[0] < 0 or members[-1] >= n or np.any(np.diff(members) <= 0):
                raise ValueError("cluster indices must ascend within range(len(nodes))")

    @cached_property
    def memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """(node index, cluster index) per membership, cluster by cluster."""
        sizes = [len(members) for members in self.clusters]
        return (
            np.concatenate(self.clusters),
            np.repeat(np.arange(len(self.clusters)), sizes),
        )


def random_walk_matrix(g: AffinityGraph, tau: float = DEFAULT_TELEPORT) -> np.ndarray:
    """Row-stochastic walk matrix over g.order: row-normalized out-weights
    mixed with uniform teleportation.

    Rows of nodes without out-edges become uniform before mixing, so the
    result is strictly positive and ergodic for any 0 < tau < 1.
    """
    if not g.nodes:
        raise EmptyGraph("walk matrix needs at least one node")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"teleport must be in (0, 1), got {tau}")
    n = len(g.order)
    src, dst, w = g.edge_arrays
    W = np.zeros((n, n))
    W[src, dst] = w
    out = W.sum(axis=1)
    dangling = out == 0.0
    W[dangling] = 1.0 / n
    out[dangling] = 1.0
    return (1.0 - tau) * (W / out[:, None]) + tau / n


def hitting_times(P: np.ndarray) -> np.ndarray:
    """Expected first-arrival steps between all node pairs: H[i, j] is the
    expected number of walk steps from state i to state j.

    Uses the fundamental matrix Z = inv(I - P + 1 pi^T) of the ergodic
    chain: H[i, j] = (Z[j, j] - Z[i, j]) / pi[j]. One matrix inverse
    replaces n per-target linear solves.
    """
    n = P.shape[0]
    pi = stationary_distribution(P)
    try:
        Z = np.linalg.inv(np.eye(n) - P + np.outer(np.ones(n), pi))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"fundamental matrix inverse failed: {exc}") from None
    H = (np.diag(Z)[None, :] - Z) / pi[None, :]
    np.fill_diagonal(H, 0.0)
    return H


def _column_sums(M: sp.csc_array) -> np.ndarray:
    """Per-column sums, accumulated in stored (row) order."""
    columns = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
    return np.bincount(columns, weights=M.data, minlength=M.shape[1])


def _normalize_columns(M: sp.csc_array, sums: np.ndarray) -> sp.csc_array:
    M.data /= np.repeat(sums, np.diff(M.indptr))
    return M


def _mcl_seed_matrix(g: AffinityGraph) -> sp.csc_array:
    """Column-stochastic flow matrix with self-loops of max(1, max incident).

    Column u holds u's out-weights, M[v, u] = w(u -> v), plus the loop.
    """
    n = len(g.order)
    src, dst, w = g.edge_arrays
    loops = np.ones(n)
    np.maximum.at(loops, src, w)
    np.maximum.at(loops, dst, w)
    # a self-edge in the graph is replaced by the loop weight, not added to it
    off = src != dst
    diag = np.arange(n)
    M = sp.csc_array(
        (
            np.concatenate([w[off], loops]),
            (np.concatenate([dst[off], diag]), np.concatenate([src[off], diag])),
        ),
        shape=(n, n),
    )
    return _normalize_columns(M, _column_sums(M))


def _column_ranges(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each MCL_BLOCK_COLUMNS-wide block of n columns."""
    return [
        (start, min(start + MCL_BLOCK_COLUMNS, n))
        for start in range(0, n, MCL_BLOCK_COLUMNS)
    ]


def _column_block(M: sp.csc_array, start: int, stop: int) -> sp.csc_array:
    """Columns start:stop of M as a CSC array over views of M's arrays."""
    lo, hi = M.indptr[start], M.indptr[stop]
    return sp.csc_array(
        (M.data[lo:hi], M.indices[lo:hi], M.indptr[start:stop + 1] - lo),
        shape=(M.shape[0], stop - start),
    )


def _inflate_prune(M: sp.csc_array, r: float, prune: float) -> sp.csc_array:
    M.data **= r
    M.data[M.data < prune] = 0.0
    M.eliminate_zeros()
    return M


def _expand_inflate_prune(
    left: sp.csc_array, M: sp.csc_array, r: float, prune: float
) -> sp.csc_array:
    """left @ M with the entrywise r-th power applied and entries below
    prune dropped, MCL_BLOCK_COLUMNS columns of the product at a time.

    Column j of the product needs only column j of M, and a sparse product
    sums each entry in the stored order of that column, so every block
    holds the same entries, bit for bit, as the full product would. Only
    one block is ever unpruned. Indices are left unsorted.
    """
    n = M.shape[1]
    blocks = [
        _inflate_prune(left @ _column_block(M, start, stop), r, prune)
        for start, stop in _column_ranges(n)
    ]
    if len(blocks) == 1:
        return blocks[0]
    counts = np.concatenate([np.diff(block.indptr) for block in blocks])
    return sp.csc_array(
        (
            np.concatenate([block.data for block in blocks]),
            np.concatenate([block.indices for block in blocks]),
            np.concatenate([[0], np.cumsum(counts)]),
        ),
        shape=(M.shape[0], n),
    )


def mcl_flow(
    M: sp.csc_array, e: int = 2, r: float = 2.0, prune: float = 1e-6
) -> Iterator[sp.csc_array]:
    """Yield successive matrices of the expansion/inflation iteration.

    Each step: raise the column-stochastic matrix to the e-th power by
    e - 1 sparse products, apply the entrywise r-th power, drop entries
    below prune, renormalize columns. The caller decides when to stop.

    The last product is computed, inflated and pruned one column block at
    a time, so a step holds the pruned flow, M^(e-1) and one block of the
    product, never the whole unpruned M^e.
    """
    n = M.shape[0]
    while True:
        left = M
        for _ in range(e - 2):
            left = left @ M
        M = _expand_inflate_prune(left, M, r, prune)
        # a suspended generator keeps its locals: do not hold M^(e-1) too
        del left
        M.sort_indices()
        sums = _column_sums(M)
        # After expansion a column's largest entry is >= 1/n, so >= n^-r
        # after inflation: a column can vanish once n > prune^(-1/r), which
        # is n > 1000 at the defaults. A vanished column restarts uniform.
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


def _max_abs_difference(A: sp.csc_array, B: sp.csc_array) -> float:
    """max |A - B| over all entries, one column block at a time; the same
    value the whole difference gives, without holding it."""
    return max(
        abs(_column_block(A, start, stop) - _column_block(B, start, stop)).max()
        for start, stop in _column_ranges(A.shape[1])
    )


def _same_matrix(A: sp.csc_array, B: sp.csc_array) -> bool:
    """Bitwise equality of two flow matrices with sorted indices."""
    return (
        np.array_equal(A.indptr, B.indptr)
        and np.array_equal(A.indices, B.indices)
        and np.array_equal(A.data, B.data)
    )


def _clusters_from_limit(
    M: sp.csc_array, iterations: int
) -> tuple[list[np.ndarray], sp.csr_array]:
    """Read clusters off the limit matrix's attractor rows.

    Attractors are nodes with positive diagonal mass; each attractor row
    defines the member set of nodes flowing to it (the flow stores no
    zeros, so these are the row's stored columns). Identical member sets
    (one attractor system) collapse to a single cluster; a node's
    attraction to a cluster is its total mass on that cluster's rows,
    summed for every cluster at once by one cluster x attractor product.
    """
    n = M.shape[0]
    attractors = np.flatnonzero(M.diagonal() > 0.0)
    if not attractors.size:
        # degenerate non-converged flow: fall back to one cluster of all
        log.warning(
            "mcl flow has no attractor after %d iterations; "
            "returning one cluster of all %d nodes", iterations, n,
        )
        return [np.arange(n)], sp.csr_array(np.ones((1, n)))
    rows_of = M.tocsr()
    rows_of.sort_indices()
    by_members: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for a in attractors.tolist():
        members = rows_of.indices[rows_of.indptr[a]:rows_of.indptr[a + 1]]
        by_members.setdefault(members.tobytes(), (members, []))[1].append(a)
    # ordered by smallest member; sorted is stable, so ties keep attractor order
    ordered = sorted(by_members.values(), key=lambda group: group[0][0])
    clusters = [members.astype(np.intp) for members, _ in ordered]
    rows = [a for _, attractor_rows in ordered for a in attractor_rows]
    owner = np.repeat(np.arange(len(ordered)), [len(r) for _, r in ordered])
    S = sp.csr_array((np.ones(len(rows)), (owner, rows)), shape=(len(ordered), n))
    return clusters, S @ rows_of


def mcl(
    g: AffinityGraph,
    e: int = 2,
    r: float = 2.0,
    prune: float = 1e-6,
    max_iter: int = MCL_MAX_ITER,
) -> Clustering:
    """Flow-simulation clustering by expansion and inflation.

    Runs until the matrix moves less than 1e-8 in max norm, max_iter
    passes, or the flow equals the iterate of two steps before (a cycle of
    period 2, which no further step leaves); a non-converged run still
    returns its partial clusters with converged=False. The flow matrix is
    sparse (CSC) throughout and the attraction it leaves is a sparse CSR
    matrix. Each expansion is pruned one column block at a time (see
    mcl_flow), so memory grows with the pruned flow plus one block of the
    product, never with the unpruned square or with n^2.
    """
    if e < 2:
        raise ValueError(f"expansion power must be >= 2, got {e}")
    if r <= 1.0:
        raise ValueError(f"inflation power must be > 1, got {r}")
    if not g.nodes:
        raise EmptyGraph("clustering needs at least one node")
    M = _mcl_seed_matrix(g)
    previous = None  # the iterate before M
    converged = False
    iterations = 0
    for M_next in mcl_flow(M, e, r, prune):
        iterations += 1
        if _max_abs_difference(M_next, M) < MCL_TOL:
            M = M_next
            converged = True
            break
        # a flow that equals the iterate two steps back cycles forever
        periodic = previous is not None and _same_matrix(M_next, previous)
        previous, M = M, M_next
        if iterations >= max_iter:
            log.warning("mcl stopped unconverged at the %d-iteration cap", iterations)
            break
        if periodic:
            log.warning(
                "mcl flow repeats with period 2 after %d iterations; "
                "stopping unconverged", iterations,
            )
            break
    clusters, attraction = _clusters_from_limit(M, iterations)
    return Clustering(
        clusters=tuple(clusters),
        method="mcl",
        params={"e": e, "r": r, "prune": prune},
        nodes=g.order,
        iterations=iterations,
        converged=converged,
        attraction=attraction,
    )


def _init_destinations(g: AffinityGraph, H: np.ndarray, k: int) -> list[int]:
    """Deterministic greedy coverage: max weighted in-degree first, then
    repeatedly the node whose addition most lowers the total assignment
    cost sum_i min_d H(i, d).

    A farthest-point spread was tried first but is unstable here: hitting
    times to low-traffic nodes are uniformly large, so it keeps electing
    peripheral nodes and can leave a dense region without a destination.
    """
    _, dst, w = g.edge_arrays
    # bincount adds in edge order, as a per-edge loop would
    in_weight = np.bincount(dst, weights=w, minlength=len(g.order))
    # argmax's first maximum: ties on weight break toward the smaller node id
    destinations = [int(np.argmax(in_weight))]
    while len(destinations) < k:
        current = H[:, destinations].min(axis=1)
        totals = np.minimum(H, current[:, None]).sum(axis=0)
        totals[destinations] = np.inf
        destinations.append(int(np.argmin(totals)))
    return sorted(destinations)


def k_destinations(
    g: AffinityGraph,
    k: int,
    max_iter: int = 100,
    tau: float = DEFAULT_TELEPORT,
) -> Clustering:
    """Disjoint clustering by minimal hitting time to destination nodes.

    Alternates (a) assigning each node to the destination with the smallest
    hitting time (ties to the lexicographically smallest destination id)
    and (b) re-centering each cluster on the member minimizing the sum of
    hitting times from the cluster to it, until assignments stop changing.
    """
    if not g.nodes:
        raise EmptyGraph("clustering needs at least one node")
    order = g.order
    n = len(order)
    if not 1 <= k <= n:
        raise KOutOfRange(f"k must be in 1..{n}, got {k}")
    H = hitting_times(random_walk_matrix(g, tau))
    destinations = _init_destinations(g, H, k)
    assignment = np.full(n, -1, dtype=int)
    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        # destinations sorted by id, so argmin's first hit is the tie rule
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
            # members ascend, so argmin's first minimum is the smallest id
            new_destinations.append(int(members[np.argmin(totals)]))
        destinations = sorted(new_destinations)
    if not converged:
        log.warning(
            "k-destinations stopped unconverged at the %d-iteration cap", iterations
        )
    return Clustering(
        clusters=tuple(np.flatnonzero(assignment == c) for c in range(k)),
        method="k-destinations",
        params={"k": k, "tau": tau},
        nodes=order,
        iterations=iterations,
        converged=converged,
        destinations=tuple(order[d] for d in destinations),
        objective_trace=tuple(trace),
    )


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    """Entropy in nats; counts are summed in sorted order so identical
    count multisets produce bitwise-identical values."""
    p = np.sort(counts[counts > 0]) / n
    return float(-(p * np.log(p)).sum())


def _as_labels(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise LengthMismatch(f"label vector must be 1-d, got shape {arr.shape}")
    return arr


def nmi(x, y) -> float:
    """Normalized mutual information I(x, y) / sqrt(H(x) H(y)).

    Computed as (H(x) + H(y) - H(x, y)) / sqrt(H(x) H(y)) with natural-log
    entropies from empirical counts, clipped into [0, 1]. If both
    labelings are constant the score is 1; if exactly one is constant the
    score is 0.
    """
    x, y = _as_labels(x), _as_labels(y)
    if len(x) != len(y) or len(x) == 0:
        raise LengthMismatch(f"lengths {len(x)} vs {len(y)}")
    n = len(x)
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    hx = _entropy_from_counts(np.bincount(xi), n)
    hy = _entropy_from_counts(np.bincount(yi), n)
    if hx == 0.0 and hy == 0.0:
        return 1.0
    if hx == 0.0 or hy == 0.0:
        return 0.0
    joint = np.bincount(xi * (yi.max() + 1) + yi)
    hxy = _entropy_from_counts(joint, n)
    mi = max(hx + hy - hxy, 0.0)
    return float(min(mi / np.sqrt(hx * hy), 1.0))


def clustering_error(pred, truth) -> float:
    """Minimal misassignment rate over all cluster-label permutations.

    Solved as an optimal assignment on the confusion matrix; label sets of
    different sizes are padded with empty clusters.
    """
    # imported here: the pipeline never calls this metric, and scipy.optimize
    # is the slowest import of the package
    from scipy.optimize import linear_sum_assignment

    pred, truth = _as_labels(pred), _as_labels(truth)
    if len(pred) != len(truth) or len(pred) == 0:
        raise LengthMismatch(f"lengths {len(pred)} vs {len(truth)}")
    n = len(pred)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    size = max(pi.max(), ti.max()) + 1
    confusion = np.zeros((size, size), dtype=np.int64)
    np.add.at(confusion, (pi, ti), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    matched = int(confusion[rows, cols].sum())
    return 1.0 - matched / n


def labels_from_clustering(c: Clustering) -> np.ndarray:
    """Cluster index per node, aligned with c.nodes.

    With attraction set (overlapping MCL clusters), each node goes to the
    cluster it is most attracted to, ties to the smallest cluster index;
    otherwise the clusters are disjoint and each node takes its own.
    """
    if c.attraction is not None:
        return c.attraction.argmax(axis=0)
    labels = np.zeros(len(c.nodes), dtype=int)
    nodes, owners = c.memberships
    labels[nodes] = owners
    return labels


def serialize_clustering(c: Clustering) -> str:
    """Rows of node_id / cluster_index under a metadata comment header.

    Rows ascend by node index, which is id order, then by cluster index.
    """
    params = " ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
    lines = [
        f"# method={c.method}",
        f"# params: {params}",
        f"# iterations={c.iterations}",
        f"# converged={'true' if c.converged else 'false'}",
        "node_id\tcluster_index",
    ]
    nodes, owners = c.memberships
    rows = np.lexsort((owners, nodes))
    lines.extend(
        f"{c.nodes[i]}\t{ci}" for i, ci in zip(nodes[rows].tolist(), owners[rows].tolist())
    )
    return "\n".join(lines) + "\n"
