"""Markov-chain affinity scoring of per-pair sentiment sequences.

Each directed user pair's time-ordered sentiment states are fitted with a
Laplace-smoothed first-order chain; the affinity score is the chain's
stationary mass on POS, discounted by a saturating evidence factor
n / (n + kappa) so that thin interaction histories score low.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NonErgodic
from .ingest import EventTable, Sentiment

N_STATES = 3

# alpha and kappa outside this closed range push scores out of [0, 1): near
# the smallest floats a score rounds to exactly 1.0 or dips below 0, and
# alpha near 1e308 overflows the chain estimate
SMOOTHING_RANGE = (1e-6, 1e6)
SMOOTHING_RANGE_TEXT = "[1e-6, 1e6]"

# pi_j of a 3-state chain is proportional to the weight of the spanning trees
# directed into j. With a, b the other two states they are a->j<-b, a->b->j
# and b->a->j, so the rows hold the flat indices (3 row + column) of P[a, j],
# P[b, j], P[a, b] and P[b, a], one column per root j = 0, 1, 2.
_TREE_EDGES = np.array([[3, 1, 2], [6, 7, 5], [5, 2, 1], [7, 6, 3]])


@dataclass(frozen=True, eq=False)
class PairSequences:
    """Every directed pair's sentiment states as read-only arrays, one entry
    per pair in (source id, target id) order: `source` and `target` are int32
    codes into `users`, `length` counts each pair's states, and `states`
    holds them as int8 Sentiment values, pair after pair, in event order."""

    users: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    length: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        for a in (self.source, self.target, self.length, self.states):
            a.setflags(write=False)


def build_pair_sequences(events: EventTable) -> PairSequences:
    """Group the event table's rows by directed pair, keeping row order
    (timestamp, input position) inside each pair."""
    # ids ranked in Python's str order: a NumPy "U" array drops trailing
    # NULs, so "a" and "a\x00" would compare equal there
    users = events.users
    rank = np.empty(len(users), dtype=np.int64)
    rank[sorted(range(len(users)), key=users.__getitem__)] = np.arange(len(users))
    pair = rank[events.source] * len(users) + rank[events.target]
    rows = np.argsort(pair, kind="stable")
    starts = np.flatnonzero(np.diff(pair[rows], prepend=-1))
    # the stable sort puts each pair's first row at the start of its group
    first = rows[starts]
    return PairSequences(
        users, events.source[first], events.target[first],
        np.diff(np.r_[starts, len(rows)]), events.sentiment[rows],
    )


def estimate_chains(length: np.ndarray, states: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Laplace-smoothed m x 3 x 3 row-stochastic transition matrices over
    (NEG, NEU, POS), one per sequence, from the consecutive states inside
    each sequence; `length` holds the m lengths and `states` the sequences
    one after another, so no transition spans two sequences.

    entry(k, i, j) = (count_k(i->j) + alpha) / (count_k(i->.) + 3 alpha).
    With alpha > 0 every entry is strictly positive, so each chain is ergodic.
    """
    if alpha <= 0:
        raise InvalidSpec(f"smoothing must be > 0, got {alpha}")
    m = len(length)
    owner = np.repeat(np.arange(m), length)
    if len(states) != len(owner):
        raise DimensionMismatch(f"{len(states)} states for lengths summing to {len(owner)}")
    cell = (owner[1:] * N_STATES + states[:-1]) * N_STATES + states[1:]
    counts = np.bincount(cell[owner[1:] == owner[:-1]], minlength=m * N_STATES**2)
    counts = counts.reshape(m, N_STATES, N_STATES)
    return (counts + alpha) / (counts.sum(axis=2, keepdims=True) + N_STATES * alpha)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distributions of the 3-state chains in the float array
    P[..., 3, 3], in closed form by the Markov chain tree theorem (Leighton
    and Rivest, 1986).

    Only elementwise + x / are used, so the bits do not depend on the BLAS
    kernel or SIMD width. Raises DimensionMismatch for any other shape, and
    NonErgodic for a chain with two closed classes (no tree has weight).
    """
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
    length: np.ndarray, states: np.ndarray, alpha: float = 1.0, kappa: float = 5.0
) -> np.ndarray:
    """One float64 score per sequence (as laid out for estimate_chains): its
    chain's stationary POS mass times the evidence factor n / (n + kappa),
    for n states. Empty sequences score exactly 0. Raises InvalidSpec for
    alpha or kappa outside SMOOTHING_RANGE.
    """
    lo, hi = SMOOTHING_RANGE
    for name, value in (("alpha", alpha), ("kappa", kappa)):
        if not lo <= value <= hi:
            raise InvalidSpec(f"{name} must be in {SMOOTHING_RANGE_TEXT}, got {value}")
    n = np.asarray(length, dtype=float)
    pos = stationary_distribution(estimate_chains(length, states, alpha))[:, int(Sentiment.POS)]
    return pos * (n / (n + kappa))
