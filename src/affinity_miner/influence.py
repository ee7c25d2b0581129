"""Per-cluster influence detection by link counting.

Links are counted undirected and unweighted: a node's count within a
cluster is its number of distinct cluster-mate neighbors, regardless of
edge direction or weight. The node with the most links represents the
cluster's most influential personality type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import Clustering
from .errors import UnknownNode
from .graph import AffinityGraph
from .ingest import MbtiType


@dataclass(frozen=True)
class ClusterInfluence:
    cluster_index: int
    top_node: str
    top_type: MbtiType
    link_count: int
    per_type_link_totals: dict[MbtiType, int]


@dataclass(frozen=True)
class InfluenceReport:
    per_cluster: tuple[ClusterInfluence, ...]


def cluster_link_counts(
    g: AffinityGraph, c: Clustering
) -> dict[tuple[int, str], int]:
    """Distinct within-cluster neighbors per (cluster, node).

    Reciprocal edges collapse to one link; a node appearing in several
    overlapping clusters gets an independent count per cluster.
    """
    neigh = g.undirected_neighbors()
    counts: dict[tuple[int, str], int] = {}
    for ci, members in enumerate(c.clusters):
        for u in sorted(members):
            if u not in g.nodes:
                raise UnknownNode(f"cluster {ci} node not in graph: {u!r}")
            counts[(ci, u)] = len(neigh[u] & members) - (u in neigh[u])
    return counts


def influential_types(g: AffinityGraph, c: Clustering) -> InfluenceReport:
    """Top-linked node and per-type link totals for every cluster.

    Ties on link count go to the lexicographically smallest user id.
    """
    counts = cluster_link_counts(g, c)
    records = []
    for ci, members in enumerate(c.clusters):
        ordered = sorted(members)
        best = ordered[0]
        for u in ordered[1:]:
            if counts[(ci, u)] > counts[(ci, best)]:
                best = u
        totals: dict[MbtiType, int] = {}
        for u in ordered:
            totals[g.nodes[u]] = totals.get(g.nodes[u], 0) + counts[(ci, u)]
        records.append(
            ClusterInfluence(
                cluster_index=ci,
                top_node=best,
                top_type=g.nodes[best],
                link_count=counts[(ci, best)],
                per_type_link_totals=dict(sorted(totals.items())),
            )
        )
    return InfluenceReport(tuple(records))


def render_influence_report(report: InfluenceReport) -> str:
    """One record per cluster, types in code order."""
    lines = []
    for rec in report.per_cluster:
        lines.append(
            f"cluster {rec.cluster_index}: top_node={rec.top_node} "
            f"top_type={rec.top_type} link_count={rec.link_count}"
        )
        totals = " ".join(
            f"{t}={n}" for t, n in rec.per_type_link_totals.items()
        )
        lines.append(f"  type_link_totals: {totals}")
    return "\n".join(lines) + "\n"
