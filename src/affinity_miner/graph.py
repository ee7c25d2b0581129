"""Personality-labeled weighted directed affinity graph.

Edges below the affinity threshold are discarded, as are edges whose
endpoints lack a profile; nodes with no surviving incident edge are dropped.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyGraph, InvalidType, MalformedRecord
from .ingest import ALL_TYPES, MbtiType, UserProfile, parse_mbti, read_lines

log = logging.getLogger(__name__)

DEFAULT_EDGE_THRESHOLD = 1e-5

EDGE_TSV_HEADER = "source\ttarget\tweight\tsource_type\ttarget_type"


@dataclass(frozen=True)
class AffinityGraph:
    """nodes maps user_id -> type label; edges map (u, v) -> weight.

    Both dicts are stored in sorted key order whatever order they arrive
    in, and node index i is the i-th smallest user id: index order is id
    order everywhere an array is indexed by node.
    """

    nodes: dict[str, MbtiType]
    edges: dict[tuple[str, str], float]
    threshold: float = field(default=DEFAULT_EDGE_THRESHOLD)

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(sorted(self.nodes.items())))
        object.__setattr__(self, "edges", dict(sorted(self.edges.items())))

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Node ids in index order."""
        return tuple(self.nodes)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source index, target index, weight), one entry per edge in edge order."""
        index = {u: i for i, u in enumerate(self.order)}
        m = len(self.edges)
        src = np.fromiter((index[u] for u, _ in self.edges), dtype=np.intp, count=m)
        dst = np.fromiter((index[v] for _, v in self.edges), dtype=np.intp, count=m)
        w = np.fromiter(self.edges.values(), dtype=float, count=m)
        for a in (src, dst, w):
            a.setflags(write=False)
        return src, dst, w

    def undirected_neighbors(self) -> dict[str, set[str]]:
        """Adjacency with direction collapsed; reciprocal edges count once."""
        neigh: dict[str, set[str]] = {u: set() for u in self.nodes}
        for u, v in self.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        return neigh


@dataclass(frozen=True)
class TypePairTable:
    """Percentages over the 136 unordered type pairs (same-type included)."""

    entries: dict[tuple[MbtiType, MbtiType], float]

    def __post_init__(self):
        if len(self.entries) != 136:
            raise ValueError(f"expected 136 entries, got {len(self.entries)}")


def all_type_pairs() -> list[tuple[MbtiType, MbtiType]]:
    """The 136 unordered pairs of the 16 types, in sorted code order."""
    return list(combinations_with_replacement(ALL_TYPES, 2))


def _pair_key(p: MbtiType, q: MbtiType) -> tuple[MbtiType, MbtiType]:
    return (q, p) if q < p else (p, q)


def build_affinity_graph(
    scores: Mapping[tuple[str, str], float],
    profiles: Iterable[UserProfile],
    threshold: float = DEFAULT_EDGE_THRESHOLD,
) -> AffinityGraph:
    """Keep edges with weight >= threshold whose endpoints both have profiles.

    Pairs with a missing profile are dropped and counted in a log
    diagnostic; isolated nodes are dropped.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    labels = {p.user_id: p.mbti for p in profiles}
    edges: dict[tuple[str, str], float] = {}
    missing_profile = 0
    for (u, v), w in scores.items():
        if w < threshold:
            continue
        if u not in labels or v not in labels:
            missing_profile += 1
            continue
        edges[(u, v)] = w
    if missing_profile:
        log.info("dropped %d scored pairs lacking a profile", missing_profile)
    return AffinityGraph(
        nodes={u: labels[u] for edge in edges for u in edge},
        edges=edges,
        threshold=threshold,
    )


def type_pair_percentages(g: AffinityGraph) -> TypePairTable:
    """Share of edges per unordered label pair, as percentages of all edges."""
    if not g.edges:
        raise EmptyGraph("type-pair percentages need at least one edge")
    counts = {pair: 0 for pair in all_type_pairs()}
    for u, v in g.edges:
        counts[_pair_key(g.nodes[u], g.nodes[v])] += 1
    total = len(g.edges)
    return TypePairTable(
        {pair: 100.0 * c / total for pair, c in counts.items()}
    )


def export_graph(g: AffinityGraph, format: str = "edge-tsv") -> str:
    """Serialize the graph; edge-tsv round-trips exactly (17 digit weights)."""
    if format == "edge-tsv":
        lines = [EDGE_TSV_HEADER]
        for (u, v), w in g.edges.items():
            lines.append(f"{u}\t{v}\t{w:.17g}\t{g.nodes[u]}\t{g.nodes[v]}")
        return "\n".join(lines) + "\n"
    if format == "dot":
        lines = ["digraph affinity {"]
        for u, label in g.nodes.items():
            lines.append(f'  "{u}" [label="{label}"];')
        for (u, v), w in g.edges.items():
            lines.append(f'  "{u}" -> "{v}" [weight={w:.17g}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format: {format!r}")


def parse_graph_tsv(text: str, threshold: float = DEFAULT_EDGE_THRESHOLD) -> AffinityGraph:
    """Inverse of export_graph(.., "edge-tsv"); errors name the physical line."""
    lines = read_lines(io.StringIO(text))
    lineno, header = next(lines, (None, None))
    if header != EDGE_TSV_HEADER:
        raise MalformedRecord("missing or bad edge-tsv header", line=lineno)
    nodes: dict[str, MbtiType] = {}
    edges: dict[tuple[str, str], float] = {}
    for lineno, line in lines:
        parts = line.split("\t")
        if len(parts) != 5:
            raise MalformedRecord(
                f"line {lineno}: expected 5 fields, got {len(parts)}", line=lineno
            )
        u, v, weight_text, u_type, v_type = parts
        try:
            edges[(u, v)] = float(weight_text)
            nodes[u] = parse_mbti(u_type)
            nodes[v] = parse_mbti(v_type)
        except (ValueError, InvalidType) as exc:
            raise MalformedRecord(f"line {lineno}: {exc}", line=lineno) from None
    return AffinityGraph(nodes, edges, threshold)
