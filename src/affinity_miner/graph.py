"""Personality-labeled weighted directed affinity graph.

Edges below the affinity threshold are discarded, as are edges whose
endpoints lack a profile; nodes with no surviving incident edge are dropped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .affinity import PairSequences
from .errors import InsufficientData
from .ingest import ALL_TYPES, MbtiType, UserProfile

log = logging.getLogger(__name__)

EDGE_TSV_HEADER = "source\ttarget\tweight\tsource_type\ttarget_type"

# the 136 unordered pairs of the 16 types, same-type included, in sorted code order
TYPE_PAIRS = tuple(combinations_with_replacement(ALL_TYPES, 2))


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """A typed, weighted digraph. Node index i is the i-th smallest user id:
    `order` holds the ids in index order, `node_types` each node's type as an
    int8 index into ALL_TYPES, and `edge_arrays` is (source index, target
    index, weight), one read-only entry per edge in (source id, target id) order."""

    order: tuple[str, ...]
    node_types: np.ndarray
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for a in (self.node_types, *self.edge_arrays):
            a.setflags(write=False)

    @property
    def nodes(self) -> Mapping[str, MbtiType]:
        """Read-only id -> type view, built on each access."""
        return MappingProxyType(dict(zip(self.order, map(ALL_TYPES.__getitem__, self.node_types))))

    @property
    def edges(self) -> Mapping[tuple[str, str], float]:
        """Read-only (source, target) -> weight view, built on each access."""
        src, dst, w = (a.tolist() for a in self.edge_arrays)
        return MappingProxyType({(self.order[s], self.order[d]): x for s, d, x in zip(src, dst, w)})


def build_affinity_graph(
    pairs: PairSequences,
    scores: np.ndarray,
    profiles: Iterable[UserProfile],
    threshold: float,
) -> AffinityGraph:
    """The pairs scoring >= threshold (`scores` aligns with `pairs`) whose
    endpoints both have profiles; pairs lacking one are counted in a log line."""
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    labels = {p.user_id: ALL_TYPES.index(p.mbti) for p in profiles}
    # per user code: its type's index, or -1 without a profile
    user_type = np.array([labels.get(u, -1) for u in pairs.users], dtype=np.int8)
    strong = scores >= threshold
    typed = (user_type[pairs.source] >= 0) & (user_type[pairs.target] >= 0)
    missing_profile = np.count_nonzero(strong & ~typed)
    if missing_profile:
        log.info("dropped %d scored pairs lacking a profile", missing_profile)
    keep = strong & typed
    src, dst = pairs.source[keep], pairs.target[keep]
    codes = sorted(np.unique(np.r_[src, dst]).tolist(), key=pairs.users.__getitem__)
    index = np.zeros(len(pairs.users), dtype=np.intp)
    index[codes] = np.arange(len(codes))
    # the pairs come in id order, and so do the node indices
    order = tuple(pairs.users[c] for c in codes)
    return AffinityGraph(order, user_type[codes], (index[src], index[dst], scores[keep]))


def type_pair_percentages(g: AffinityGraph) -> dict[tuple[MbtiType, MbtiType], float]:
    """Share of edges per unordered label pair, as percentages of all edges,
    for every pair of TYPE_PAIRS, in that order."""
    src, dst, _ = g.edge_arrays
    if not len(src):
        raise InsufficientData("type-pair percentages need at least one edge")
    types, k = g.node_types.astype(np.intp), len(ALL_TYPES)
    ends = types[src], types[dst]
    counts = np.bincount(np.minimum(*ends) * k + np.maximum(*ends), minlength=k * k)
    # the upper triangle in row-major order is TYPE_PAIRS order
    percent = 100.0 * counts.reshape(k, k)[np.triu_indices(k)] / len(src)
    return dict(zip(TYPE_PAIRS, percent.tolist()))


def export_graph(g: AffinityGraph, format: str = "edge-tsv") -> str:
    """Serialize the graph; edge-tsv weights carry 17 significant digits,
    so float() of each gives back the stored weight."""
    src, dst, w = (a.tolist() for a in g.edge_arrays)
    types = [str(ALL_TYPES[t]) for t in g.node_types.tolist()]
    if format == "edge-tsv":
        ids = g.order
        rows = [
            f"{ids[s]}\t{ids[d]}\t{x:.17g}\t{types[s]}\t{types[d]}" for s, d, x in zip(src, dst, w)
        ]
        return "\n".join([EDGE_TSV_HEADER, *rows]) + "\n"
    if format == "dot":
        # node ids are quoted, with backslash and double quote escaped
        q = ['"' + u.replace("\\", "\\\\").replace('"', '\\"') + '"' for u in g.order]
        lines = [f'  {q[i]} [label="{t}"];' for i, t in enumerate(types)]
        lines += [f"  {q[s]} -> {q[d]} [weight={x:.17g}];" for s, d, x in zip(src, dst, w)]
        return "\n".join(["digraph affinity {", *lines, "}"]) + "\n"
    raise ValueError(f"unknown export format: {format!r}")
