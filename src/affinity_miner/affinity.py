"""Markov-chain affinity scoring of per-pair sentiment sequences.

Each directed user pair's time-ordered sentiment states are fitted with a
Laplace-smoothed first-order chain; the affinity score is the chain's
stationary mass on POS, discounted by a saturating evidence factor
n / (n + kappa) so that thin interaction histories score low.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import NonErgodic, NonPositiveSmoothing
from .ingest import InteractionEvent, Sentiment

N_STATES = 3

# a stationary distribution's residual max|pi P - pi| must fall below this
STATIONARY_TOL = 1e-12


def build_pair_sequences(
    events: Sequence[InteractionEvent],
) -> dict[tuple[str, str], tuple[Sentiment, ...]]:
    """Group events into one sentiment state tuple per directed pair.

    Events are expected in ingest order (timestamp, input position), which
    the sequences preserve.
    """
    grouped: dict[tuple[str, str], list[Sentiment]] = {}
    for event in events:
        grouped.setdefault((event.source, event.target), []).append(event.sentiment)
    return {pair: tuple(states) for pair, states in grouped.items()}


def estimate_chain(states: Sequence[Sentiment], alpha: float = 1.0) -> np.ndarray:
    """Laplace-smoothed 3x3 row-stochastic transition matrix over
    (NEG, NEU, POS), from consecutive state pairs.

    entry(i, j) = (count(i->j) + alpha) / (count(i->.) + 3 alpha). With
    alpha > 0 every entry is strictly positive, so the chain is ergodic.
    """
    if alpha <= 0:
        raise NonPositiveSmoothing(f"smoothing must be > 0, got {alpha}")
    counts = np.zeros((N_STATES, N_STATES))
    for a, b in zip(states, states[1:]):
        counts[int(a), int(b)] += 1.0
    return (counts + alpha) / (counts.sum(axis=1, keepdims=True) + N_STATES * alpha)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Fixed point pi with pi P = pi and sum(pi) = 1, by one linear solve.

    Raises NonErgodic when the system is singular or the solution's
    residual max|pi P - pi| is not below 1e-12. Every chain the pipeline
    builds is strictly positive (alpha > 0, tau > 0), so neither happens.
    """
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NonErgodic(f"no stationary distribution: {exc}") from None
    if not np.max(np.abs(pi @ P - pi)) < STATIONARY_TOL:
        raise NonErgodic("no stationary distribution within tolerance")
    return pi


def affinity_score(
    states: Sequence[Sentiment], alpha: float = 1.0, kappa: float = 5.0
) -> float:
    """Stationary POS mass times the evidence factor n / (n + kappa).

    Empty sequences score exactly 0.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    n = len(states)
    if n == 0:
        return 0.0
    pi = stationary_distribution(estimate_chain(states, alpha))
    return float(pi[int(Sentiment.POS)]) * (n / (n + kappa))


def score_sequences(
    sequences: Mapping[tuple[str, str], Sequence[Sentiment]],
    alpha: float = 1.0,
    kappa: float = 5.0,
) -> dict[tuple[str, str], float]:
    """Score every directed pair; deterministic regardless of map order."""
    return {
        pair: affinity_score(sequences[pair], alpha, kappa)
        for pair in sorted(sequences)
    }
