"""Per-cluster influence detection by link counting.

Links are counted undirected and unweighted: a node's count within a
cluster is its number of distinct cluster-mate neighbors, regardless of
edge direction or weight. The node with the most links represents the
cluster's most influential personality type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cluster import Clustering
from .errors import UnknownNode
from .graph import AffinityGraph
from .ingest import ALL_TYPES, MbtiType


@dataclass(frozen=True)
class ClusterInfluence:
    cluster_index: int
    top_node: str
    top_type: MbtiType
    link_count: int
    per_type_link_totals: dict[MbtiType, int]


def _undirected_links(g: AffinityGraph) -> sp.csr_array:
    """0/1 adjacency over g.order: both directions, reciprocal edges once,
    self-edges dropped."""
    n = len(g.order)
    src, dst, _ = g.edge_arrays
    off = src != dst
    ends = (np.concatenate([src[off], dst[off]]), np.concatenate([dst[off], src[off]]))
    # the CSR conversion sums duplicate entries; setting them to 1 collapses them
    links = sp.coo_array((np.ones(len(ends[0]), dtype=np.int64), ends), shape=(n, n)).tocsr()
    links.data[:] = 1
    return links


def cluster_link_counts(g: AffinityGraph, c: Clustering) -> tuple[np.ndarray, ...]:
    """Distinct within-cluster neighbors per member, one array per cluster,
    aligned with that cluster's node indices.

    Reciprocal edges collapse to one link; a node appearing in several
    overlapping clusters gets an independent count per cluster. One sparse
    product counts every membership's neighbors in every cluster,
    memberships x clusters with at most one entry per link end, and each
    membership keeps the entry of its own cluster, so memory grows with
    the links of the members, not with the square of a cluster's size.
    """
    if c.nodes != g.order:
        raise UnknownNode("clustering nodes are not the graph's nodes")
    nodes, owners = c.memberships
    inside = sp.csr_array(
        (np.ones(len(nodes), dtype=np.int64), (nodes, owners)),
        shape=(len(c.nodes), len(c.clusters)),
    )
    # row m, column ci: the neighbors of membership m's node inside cluster ci
    per_cluster = (_undirected_links(g)[nodes] @ inside).tocoo()
    own = per_cluster.col == owners[per_cluster.row]
    counts = np.zeros(len(nodes), dtype=np.int64)
    counts[per_cluster.row[own]] = per_cluster.data[own]
    # split after every cluster's last member; the piece after the last is empty
    return tuple(np.split(counts, np.cumsum([len(m) for m in c.clusters]))[:-1])


def influential_types(g: AffinityGraph, c: Clustering) -> tuple[ClusterInfluence, ...]:
    """Top-linked node and per-type link totals for every cluster.

    Ties on link count go to the smallest node index, which is the
    lexicographically smallest user id.
    """
    counts = cluster_link_counts(g, c)
    records = []
    for ci, (members, links) in enumerate(zip(c.clusters, counts)):
        best = int(np.argmax(links))
        member_types = g.node_types[members]
        totals = np.bincount(member_types, weights=links, minlength=len(ALL_TYPES))
        records.append(
            ClusterInfluence(
                cluster_index=ci,
                top_node=c.nodes[members[best]],
                top_type=ALL_TYPES[member_types[best]],
                link_count=int(links[best]),
                per_type_link_totals={
                    ALL_TYPES[t]: int(totals[t]) for t in np.unique(member_types)
                },
            )
        )
    return tuple(records)


def render_influence_report(report: tuple[ClusterInfluence, ...]) -> str:
    """One record per cluster, types in code order."""
    lines = []
    for rec in report:
        lines.append(
            f"cluster {rec.cluster_index}: top_node={rec.top_node} "
            f"top_type={rec.top_type} link_count={rec.link_count}"
        )
        totals = " ".join(
            f"{t}={n}" for t, n in rec.per_type_link_totals.items()
        )
        lines.append(f"  type_link_totals: {totals}")
    return "\n".join(lines) + "\n"
