"""Markov-chain affinity scoring of per-pair sentiment sequences.

Each directed user pair's time-ordered sentiment states are fitted with a
Laplace-smoothed first-order chain; the affinity score is the chain's
stationary mass on POS, discounted by a saturating evidence factor
n / (n + kappa) so that thin interaction histories score low.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, NonErgodic, NonPositiveSmoothing
from .ingest import EventTable, Sentiment

N_STATES = 3

# pi_j of a 3-state chain is proportional to the weight of the spanning trees
# directed into j. With a, b the other two states they are a->j<-b, a->b->j
# and b->a->j, so the rows hold the flat indices (3 row + column) of P[a, j],
# P[b, j], P[a, b] and P[b, a], one column per root j = 0, 1, 2.
_TREE_EDGES = np.array([[3, 1, 2], [6, 7, 5], [5, 2, 1], [7, 6, 3]])

_STATES = tuple(Sentiment)


def build_pair_sequences(events: EventTable) -> dict[tuple[str, str], tuple[Sentiment, ...]]:
    """Group events into one sentiment state tuple per directed pair.

    Each sequence keeps the table's row order (timestamp, input position),
    and the pairs come in the order of their first row.
    """
    pair = events.source.astype(np.int64) * len(events.users) + events.target
    rows = np.argsort(pair, kind="stable")
    starts = np.flatnonzero(np.diff(pair[rows], prepend=-1))
    # the stable sort puts each pair's first row at the start of its group
    first = rows[starts]
    bounds = np.r_[starts, len(rows)].tolist()
    sources, targets = events.source[first].tolist(), events.target[first].tolist()
    states = list(map(_STATES.__getitem__, events.sentiment[rows].tolist()))
    users = events.users
    return {
        (users[sources[g]], users[targets[g]]): tuple(states[bounds[g] : bounds[g + 1]])
        for g in np.argsort(first).tolist()
    }


def estimate_chains(
    sequences: Sequence[Sequence[Sentiment]], alpha: float = 1.0
) -> np.ndarray:
    """Laplace-smoothed m x 3 x 3 row-stochastic transition matrices over
    (NEG, NEU, POS), one per sequence, from the consecutive states inside
    each sequence; no transition spans two sequences.

    entry(k, i, j) = (count_k(i->j) + alpha) / (count_k(i->.) + 3 alpha).
    With alpha > 0 every entry is strictly positive, so each chain is ergodic.
    """
    if alpha <= 0:
        raise NonPositiveSmoothing(f"smoothing must be > 0, got {alpha}")
    m = len(sequences)
    owner = np.repeat(np.arange(m), np.fromiter(map(len, sequences), np.intp, count=m))
    states = np.fromiter(chain.from_iterable(sequences), np.intp, count=len(owner))
    cell = (owner[1:] * N_STATES + states[:-1]) * N_STATES + states[1:]
    counts = np.bincount(cell[owner[1:] == owner[:-1]], minlength=m * N_STATES**2)
    counts = counts.reshape(m, N_STATES, N_STATES)
    return (counts + alpha) / (counts.sum(axis=2, keepdims=True) + N_STATES * alpha)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distributions of 3-state chains P[..., 3, 3], in closed form
    by the Markov chain tree theorem (Leighton and Rivest, 1986).

    Only elementwise + x / are used, so the bits do not depend on the BLAS
    kernel or SIMD width. Raises DimensionMismatch for any other shape, and
    NonErgodic for a chain with two closed classes (no tree has weight).
    """
    P = np.asarray(P, dtype=float)
    if P.shape[-2:] != (N_STATES, N_STATES):
        raise DimensionMismatch(f"need 3 x 3 chains, got shape {P.shape}")
    edges = P.reshape(*P.shape[:-2], N_STATES * N_STATES)[..., _TREE_EDGES]
    aj, bj, ab, ba = (edges[..., k, :] for k in range(len(_TREE_EDGES)))
    w = aj * bj + ab * bj + ba * aj
    total = w[..., 0] + w[..., 1] + w[..., 2]
    if not np.all(total > 0):
        raise NonErgodic("no unique stationary distribution: two closed classes")
    return w / total[..., None]


def score_sequences(
    sequences: Mapping[tuple[str, str], Sequence[Sentiment]],
    alpha: float = 1.0,
    kappa: float = 5.0,
) -> dict[tuple[str, str], float]:
    """Score every directed pair: its chain's stationary POS mass times the
    evidence factor n / (n + kappa), for n states.

    Empty sequences score exactly 0. Deterministic regardless of map order.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    pairs = sorted(sequences)
    states = [sequences[pair] for pair in pairs]
    n = np.fromiter(map(len, states), dtype=float, count=len(states))
    pos = stationary_distribution(estimate_chains(states, alpha))[:, int(Sentiment.POS)]
    return dict(zip(pairs, (pos * (n / (n + kappa))).tolist()))
