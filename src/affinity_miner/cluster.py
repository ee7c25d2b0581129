"""Random-walk graph clustering.

Two clusterers over the affinity graph: flow simulation by alternating
matrix expansion and entrywise inflation (may yield overlapping clusters),
and an iterative hitting-time clusterer that assigns every node to its
nearest destination node and re-centers destinations until stable.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import InsufficientData, InvalidSpec, NonErgodic
from .graph import AffinityGraph

log = logging.getLogger(__name__)

MCL_MAX_ITER = 200
MCL_TOL = 1e-8
KDEST_MAX_ITER = 100
# expansion product columns computed, inflated and pruned at a time: one
# unpruned block of a 2048-node flow's square holds about 2 MiB
MCL_BLOCK_COLUMNS = 128
# diagonal blocks of the fundamental matrix inverted at a time: the
# inverse's temporaries hold INVERSE_BLOCK x n, 768 KiB at 768 nodes
INVERSE_BLOCK = 128
# a stationary distribution's residual max|pi P - pi| must fall below this
STATIONARY_TOL = 1e-12


@dataclass(frozen=True)
class Clustering:
    """Clusters as ascending node-index arrays over `nodes` (the graph's
    g.order), plus the metadata needed to serialize them.

    Only the flow clusterer's clusters may overlap. The hitting-time
    clusterer's are disjoint, and it fills `objective_trace`.
    """

    clusters: tuple[np.ndarray, ...]
    method: str
    params: dict
    nodes: tuple[str, ...]
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] | None = None

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


def random_walk_matrix(g: AffinityGraph, tau: float) -> np.ndarray:
    """Row-stochastic walk matrix over g.order: row-normalized out-weights
    mixed with uniform teleportation.

    Rows of nodes without out-edges become uniform before mixing, so the
    result is strictly positive and ergodic for any 0 < tau < 1.
    """
    if not g.order:
        raise InsufficientData("walk matrix needs at least one node")
    if not 0.0 < tau < 1.0:
        raise InvalidSpec(f"teleport must be in (0, 1), got {tau}")
    n = len(g.order)
    src, dst, w = g.edge_arrays
    W = np.zeros((n, n))
    W[src, dst] = w
    out = W.sum(axis=1)
    dangling = out == 0.0
    W[dangling] = 1.0 / n
    out[dangling] = 1.0
    W /= out[:, None]
    W *= 1.0 - tau
    W += tau / n
    return W


def _stationary_residual(g: AffinityGraph, tau: float, pi: np.ndarray) -> float:
    """max|pi P - pi| for P = random_walk_matrix(g, tau), from the edge list:
    each edge carries pi[src] w / out[src], each dangling row spreads its
    mass uniformly, and teleportation spreads tau / n of every row.
    """
    n = len(g.order)
    src, dst, w = g.edge_arrays
    out = np.bincount(src, weights=w, minlength=n)
    dangling = out == 0.0
    flow = np.bincount(dst, weights=pi[src] * w / out[src], minlength=n)
    flow += pi[dangling].sum() / n
    flow *= 1.0 - tau
    flow += tau / n * pi.sum()
    return float(np.max(np.abs(flow - pi)))


def _invert_in_place(A: np.ndarray) -> None:
    """Overwrite A with its inverse by block Gauss-Jordan sweeps over
    INVERSE_BLOCK-wide diagonal blocks, without pivoting across blocks.

    Sweeping pivot block K replaces A_KK by inv(A_KK), each other row block
    I by A_IJ - A_IK inv(A_KK) A_KJ and A_IK by -A_IK inv(A_KK), and row K
    by inv(A_KK) A_KJ; after every block is swept A holds inv(A). Each
    product is taken one row block at a time, so no temporary exceeds
    INVERSE_BLOCK x n. Raises NonErgodic when np.linalg.inv refuses a pivot
    block as singular.
    """
    n = A.shape[0]
    for start in range(0, n, INVERSE_BLOCK):
        K = slice(start, min(start + INVERSE_BLOCK, n))
        try:
            pivot = np.linalg.inv(A[K, K])
        except np.linalg.LinAlgError:
            raise NonErgodic(
                "fundamental matrix is singular: "
                f"zero pivot in columns {K.start + 1}-{K.stop}"
            ) from None
        for first in range(0, n, INVERSE_BLOCK):
            if first == start:
                continue
            rows = slice(first, min(first + INVERSE_BLOCK, n))
            factor = A[rows, K] @ pivot
            A[rows] -= factor @ A[K]
            np.negative(factor, out=A[rows, K])
        A[K] = pivot @ A[K]
        A[K, K] = pivot


def hitting_times(g: AffinityGraph, tau: float) -> np.ndarray:
    """Expected first-arrival steps between all node pairs of the walk
    random_walk_matrix(g, tau): H[i, j] is the expected number of walk
    steps from node i to node j, over g.order.

    One inverse Z = inv(I - P + 1 1^T / n) gives pi as the column means of
    Z and (I - P) Z = I - 1 pi^T, so H[i, j] = (Z[j, j] - Z[i, j]) / pi[j]
    (Kemeny and Snell, 1960). The walk matrix is the only n x n array: it
    becomes I - P + 1 1^T / n in place, _invert_in_place overwrites it
    with Z, and H is written over Z. The sweeps need no pivoting across
    blocks: for 0 < tau < 1 the walk is irreducible, so on each proper
    leading node set L, I - P_LL is a nonsingular M-matrix (positive
    determinant, inv(I - P_LL) >= 0), and the matrix determinant lemma
    gives det(I - P_LL + 1 1^T / n) = det(I - P_LL)
    (1 + 1^T inv(I - P_LL) 1 / n) > 0; each pivot block is the Schur
    complement of one such leading block in the next (or in the whole
    matrix, nonsingular for an ergodic walk), so it is nonsingular. Raises
    InsufficientData and InvalidSpec as random_walk_matrix does, and
    NonErgodic when a pivot block is singular in floating point or
    max|pi P - pi|, taken from the edge list, is not below STATIONARY_TOL,
    as for two closed classes at a tiny tau.
    """
    A = random_walk_matrix(g, tau)
    n = A.shape[0]
    np.negative(A, out=A)
    A.flat[:: n + 1] += 1.0
    A += 1.0 / n
    _invert_in_place(A)
    Z = A
    pi = Z.mean(axis=0)
    if not _stationary_residual(g, tau, pi) < STATIONARY_TOL:
        raise NonErgodic("no stationary distribution within tolerance")
    # the diagonal is copied first: Z is overwritten as it is read
    np.subtract(np.diag(Z).copy(), Z, out=Z)
    Z /= pi
    np.fill_diagonal(Z, 0.0)
    return Z


def _sum_rows(rows: int, block: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Column sums of an array of `rows` rows made block(start, stop) at a
    time, about sqrt(rows) rows per block.

    ndarray.sum(axis=0) adds the rows of a C-ordered array one at a time,
    first to last; each block is summed below the running totals, so the
    sums carry the bits of the whole array's sum without making it.
    """
    step = max(math.isqrt(rows), 1)
    totals = block(0, step).sum(axis=0)
    for start in range(step, rows, step):
        totals = np.concatenate([totals[None], block(start, start + step)]).sum(axis=0)
    return totals


def _column_sums(M: sp.csc_array) -> np.ndarray:
    """Per-column sums, accumulated in stored (row) order."""
    columns = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
    return np.bincount(columns, weights=M.data, minlength=M.shape[1])


def _normalize_columns(M: sp.csc_array, sums: np.ndarray) -> sp.csc_array:
    M.data /= np.repeat(sums, np.diff(M.indptr))
    return M


def _index_dtype(n: int, nnz: int) -> type:
    """The index dtype of an n x n flow with nnz stored entries: int32
    while both n and nnz fit in it, int64 above, as scipy.sparse picks."""
    return sp.get_index_dtype(maxval=max(n, nnz))


def _mcl_seed_matrix(g: AffinityGraph) -> sp.csc_array:
    """Column-stochastic flow matrix with self-loops of max(1, max incident).

    Column u holds u's out-weights, M[v, u] = w(u -> v), plus the loop.
    Its indptr and indices have the flow's index dtype (_index_dtype).
    """
    n = len(g.order)
    src, dst, w = g.edge_arrays
    loops = np.ones(n)
    np.maximum.at(loops, src, w)
    np.maximum.at(loops, dst, w)
    # a self-edge in the graph is replaced by the loop weight, not added to it
    off = src != dst
    index = _index_dtype(n, np.count_nonzero(off) + n)
    diag = np.arange(n, dtype=index)
    M = sp.csc_array(
        (
            np.concatenate([w[off], loops]),
            (
                np.concatenate([dst[off], diag], dtype=index),
                np.concatenate([src[off], diag], dtype=index),
            ),
        ),
        shape=(n, n),
    )
    return _normalize_columns(M, _column_sums(M))


def mcl_flow(
    M: sp.csc_array, e: int, r: float, prune: float
) -> Iterator[tuple[sp.csc_array, float]]:
    """Yield each flow of the expansion/inflation iteration with its max
    change, max |flow - previous flow|; the caller decides when to stop.

    Each step is one pass over MCL_BLOCK_COLUMNS-wide column slices of the
    previous flow M. A slice of M, taken once, is multiplied by M^(e-1)
    (e - 2 products, once a step), raised entrywise to the r-th power,
    pruned below prune, column normalized, and compared with that slice of
    M. Column j of the product needs only column j of M, a sparse product
    sums each entry in the stored order of that column, and every later
    operation works one column at a time, so the blocks hold the same bits
    the whole-matrix step would. A step holds M, M^(e-1), the finished
    blocks and one unpruned block of the product, never the whole unpruned
    M^e; M is dropped after the last block, before sp.hstack joins the
    blocks into the new flow. The slices, products and join keep the
    seed's index dtype (_index_dtype) while it holds the flow's size.
    """
    n = M.shape[0]
    while True:
        left = M
        for _ in range(e - 2):
            left = left @ M
        blocks, change = [], 0.0
        for start in range(0, n, MCL_BLOCK_COLUMNS):
            old = M[:, start:start + MCL_BLOCK_COLUMNS]
            block = left @ old
            block.data **= r
            block.data[block.data < prune] = 0.0
            block.eliminate_zeros()
            block.sort_indices()
            sums = _column_sums(block)
            # After expansion a column's largest entry is >= 1/n, so >= n^-r
            # after inflation: a column can vanish once n > prune^(-1/r), which
            # is n > 1000 at the defaults. A vanished column restarts uniform.
            dead = np.flatnonzero(sums == 0.0)
            if dead.size:
                index = block.indices.dtype
                rows = np.tile(np.arange(n, dtype=index), dead.size)
                columns = np.repeat(dead.astype(index), n)
                block = block + sp.csc_array(
                    (np.full(rows.size, 1.0 / n), (rows, columns)), shape=block.shape
                )
                sums = _column_sums(block)
            block = _normalize_columns(block, sums)
            # max |block - old|: an entry the difference leaves out is 0
            change = max(change, np.abs((block - old).data).max(initial=0.0))
            blocks.append(block)
        # a suspended generator keeps its locals: drop the old flow before
        # the new one is joined, and hold only the new flow after
        del M, left, old, block
        M = sp.hstack(blocks, format="csc")
        del blocks
        yield M, change


def _flow_digest(M: sp.csc_array) -> bytes:
    """SHA-256 of a flow's indptr, indices and data bytes: equal for two
    flows exactly when they are bitwise equal (the shape is fixed and the
    byte count fixes nnz), without holding either flow."""
    digest = hashlib.sha256()
    for array in (M.indptr, M.indices, M.data):
        digest.update(array)
    return digest.digest()


def _clusters_from_limit(M: sp.csc_array, iterations: int) -> list[np.ndarray]:
    """Read clusters off the limit matrix's attractor rows.

    Attractors are nodes with positive diagonal mass; each attractor row
    defines the member set of nodes flowing to it (the flow stores no
    zeros, so these are the row's stored columns). Identical member sets
    (one attractor system) collapse to a single cluster, and the clusters
    are ordered by their smallest member.
    """
    n = M.shape[0]
    attractors = np.flatnonzero(M.diagonal() > 0.0)
    if not attractors.size:
        # degenerate non-converged flow: fall back to one cluster of all
        log.warning(
            "mcl flow has no attractor after %d iterations; "
            "returning one cluster of all %d nodes", iterations, n,
        )
        return [np.arange(n)]
    rows_of = M.tocsr()
    rows_of.sort_indices()
    by_members: dict[bytes, np.ndarray] = {}
    for a in attractors.tolist():
        members = rows_of.indices[rows_of.indptr[a]:rows_of.indptr[a + 1]]
        by_members.setdefault(members.tobytes(), members)
    # ordered by smallest member; sorted is stable, so ties keep attractor order
    ordered = sorted(by_members.values(), key=lambda members: members[0])
    return [members.astype(np.intp) for members in ordered]


def mcl(
    g: AffinityGraph,
    e: int,
    r: float,
    prune: float,
) -> Clustering:
    """Flow-simulation clustering by expansion and inflation.

    Runs until the matrix moves less than MCL_TOL in max norm, MCL_MAX_ITER
    passes (both read at call time), or the flow equals the iterate of two
    steps before (a cycle of period 2, which no further step leaves); a
    non-converged run still returns its partial clusters with
    converged=False. The flow matrix is sparse (CSC) throughout, and the
    clusters are read off its attractor rows (_clusters_from_limit), which
    may share members. Each step is one pass over MCL_BLOCK_COLUMNS-wide
    column blocks that yields the flow with its max change (see mcl_flow),
    so memory grows with the pruned flow plus one block of the product,
    never with the unpruned square or with n^2.
    The flows before the current one are held only as SHA-256 digests
    (_flow_digest) for the period-2 check, and while the next flow is
    computed only the generator holds a flow.
    """
    if e < 2:
        raise InvalidSpec(f"expansion power must be >= 2, got {e}")
    if r <= 1.0:
        raise InvalidSpec(f"inflation power must be > 1, got {r}")
    if not g.order:
        raise InsufficientData("clustering needs at least one node")
    M = _mcl_seed_matrix(g)
    # digests of the two iterates before the current flow, newest first
    last, before_last = _flow_digest(M), None
    flows = mcl_flow(M, e, r, prune)
    del M
    converged = False
    iterations = 0
    for M, change in flows:
        iterations += 1
        if change < MCL_TOL:
            converged = True
            break
        # a flow that equals the iterate two steps back cycles forever
        digest = _flow_digest(M)
        periodic = digest == before_last
        last, before_last = digest, last
        if iterations >= MCL_MAX_ITER:
            log.warning("mcl stopped unconverged at the %d-iteration cap", iterations)
            break
        if periodic:
            log.warning(
                "mcl flow repeats with period 2 after %d iterations; "
                "stopping unconverged", iterations,
            )
            break
        # only the generator holds a flow while it computes the next
        del M
    return Clustering(
        clusters=tuple(_clusters_from_limit(M, iterations)),
        method="mcl",
        params={"e": e, "r": r, "prune": prune},
        nodes=g.order,
        iterations=iterations,
        converged=converged,
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
        totals = _sum_rows(len(H), lambda a, b: np.minimum(H[a:b], current[a:b, None]))
        totals[destinations] = np.inf
        destinations.append(int(np.argmin(totals)))
    return sorted(destinations)


def k_destinations(
    g: AffinityGraph,
    k: int,
    tau: float,
) -> Clustering:
    """Disjoint clustering by minimal hitting time to destination nodes.

    Alternates (a) assigning each node to the destination with the smallest
    hitting time (ties to the lexicographically smallest destination id)
    and (b) re-centering each cluster on the member minimizing the sum of
    hitting times from the cluster to it, until assignments stop changing
    or KDEST_MAX_ITER passes (read at call time) have run.

    H from hitting_times is the only n x n array. Costs to the destinations
    take n x k, and the greedy start and the re-centering sums run over
    blocks of about sqrt(n) rows (see _sum_rows), so nothing else
    grows with n^2 or with the square of a cluster's size.
    """
    if not g.order:
        raise InsufficientData("clustering needs at least one node")
    order = g.order
    n = len(order)
    if not 1 <= k <= n:
        raise InvalidSpec(f"k must be in 1..{n}, got {k}")
    H = hitting_times(g, tau)
    destinations = _init_destinations(g, H, k)
    assignment = np.full(n, -1, dtype=int)
    trace: list[float] = []
    converged = False
    iterations = 0
    for _ in range(KDEST_MAX_ITER):
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
            totals = _sum_rows(len(members), lambda a, b: H[np.ix_(members[a:b], members)])
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
        objective_trace=tuple(trace),
    )


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
