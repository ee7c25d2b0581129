"""Test oracles: planted truth, scores against it and reference formulas.

No command runs these; the tests use them to feed and to judge the
pipeline.

- `nmi` and `clustering_error` score a labelling against the truth, and
  `naive_nmi` and `brute_force_error` check both from their definitions.
- `labels_from_clustering` turns a Clustering into one label per node.
- `planted_partition` draws a block-structured graph with its blocks;
  each node has its own spawned generator stream.
- `sample_chain_sequence` draws a sentiment sequence from a known chain
  with synth's own sampler, the one generate_dataset uses.
- `lr_loss_grad` is one class's logistic-regression objective, with the
  gradient train_lr takes from classify._lr_gradients.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from affinity_miner import classify, synth
from affinity_miner.cluster import Clustering
from affinity_miner.errors import DimensionMismatch, InsufficientData, InvalidSpec
from affinity_miner.graph import AffinityGraph
from affinity_miner.ingest import ALL_TYPES, Sentiment


# -- clustering scores ----------------------------------------------------------

def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    """Entropy in nats; counts are summed in sorted order so identical
    count multisets produce bitwise-identical values."""
    p = np.sort(counts[counts > 0]) / n
    return float(-(p * np.log(p)).sum())


def _label_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two 1-d label arrays of one length, at least 1."""
    x, y = np.asarray(x), np.asarray(y)
    for arr in (x, y):
        if arr.ndim != 1:
            raise DimensionMismatch(f"label vector must be 1-d, got shape {arr.shape}")
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise InsufficientData("need at least one label")
    return x, y


def nmi(x, y) -> float:
    """Normalized mutual information I(x, y) / sqrt(H(x) H(y)).

    Computed as (H(x) + H(y) - H(x, y)) / sqrt(H(x) H(y)) with natural-log
    entropies from empirical counts, clipped into [0, 1]. If both
    labelings are constant the score is 1; if exactly one is constant the
    score is 0.
    """
    x, y = _label_pair(x, y)
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
    from scipy.optimize import linear_sum_assignment

    pred, truth = _label_pair(pred, truth)
    n = len(pred)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    size = max(pi.max(), ti.max()) + 1
    confusion = np.zeros((size, size), dtype=np.int64)
    np.add.at(confusion, (pi, ti), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    matched = int(confusion[rows, cols].sum())
    return 1.0 - matched / n


def naive_nmi(x, y) -> float:
    """Definition-level mutual information over joint counts."""
    n = len(x)
    cx, cy, cxy = Counter(x), Counter(y), Counter(zip(x, y))
    hx = -sum(c / n * np.log(c / n) for c in cx.values())
    hy = -sum(c / n * np.log(c / n) for c in cy.values())
    if hx == 0.0 and hy == 0.0:
        return 1.0
    if hx == 0.0 or hy == 0.0:
        return 0.0
    mi = sum(
        c / n * np.log(n * c / (cx[a] * cy[b])) for (a, b), c in cxy.items()
    )
    return mi / np.sqrt(hx * hy)


def brute_force_error(pred, truth) -> float:
    """Enumerate label permutations, keep the best match count."""
    n = len(pred)
    labels = sorted(set(pred) | set(truth))
    best = 0
    for perm in itertools.permutations(labels):
        mapping = dict(zip(labels, perm))
        best = max(best, sum(1 for p, t in zip(pred, truth) if mapping[p] == t))
    return 1.0 - best / n


def labels_from_clustering(c: Clustering) -> np.ndarray:
    """Cluster index per node, aligned with c.nodes.

    A node in several (overlapping MCL) clusters takes the smallest of
    their indices, and a node in none takes 0.
    """
    labels = np.zeros(len(c.nodes), dtype=int)
    # the last cluster first, so a smaller index overwrites a larger one
    for index in reversed(range(len(c.clusters))):
        labels[c.clusters[index]] = index
    return labels


# -- planted partitions ---------------------------------------------------------

@dataclass(frozen=True)
class PlantedSpec:
    """Block-structured random digraph parameters."""

    n: int
    k: int
    p_in: float
    p_out: float
    w_in: tuple[float, float] = (0.5, 1.0)
    w_out: tuple[float, float] = (0.5, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or not 1 <= self.k <= self.n:
            raise InvalidSpec(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise InvalidSpec(f"{name} outside [0, 1]: {p}")
        if self.p_in < self.p_out:
            raise InvalidSpec("p_in must be >= p_out")
        for name, (lo, hi) in (("w_in", self.w_in), ("w_out", self.w_out)):
            if not 0.0 < lo <= hi:
                raise InvalidSpec(f"{name} must satisfy 0 < lo <= hi, got {lo}, {hi}")


def _block_of(spec: PlantedSpec) -> np.ndarray:
    """Contiguous blocks whose sizes differ by at most one."""
    base, extra = divmod(spec.n, spec.k)
    sizes = [base + (1 if b < extra else 0) for b in range(spec.k)]
    return np.repeat(np.arange(spec.k), sizes)


def planted_partition(spec: PlantedSpec) -> tuple[AffinityGraph, dict[str, int]]:
    """Directed planted-partition graph plus ground-truth block labels.

    Edge (i, j) appears with probability p_in inside a block and p_out
    across blocks, with weights uniform in the matching range. Node types
    cycle through the 16 codes within each block. The truth mapping covers
    all n nodes even if some end up isolated and outside the graph.
    """
    width = len(str(spec.n - 1)) if spec.n > 1 else 1
    ids = [f"u{i:0{width}d}" for i in range(spec.n)]
    blocks = _block_of(spec)
    type_index = (np.arange(spec.n) - np.searchsorted(blocks, blocks)) % len(ALL_TYPES)

    streams = np.random.SeedSequence(spec.seed).spawn(spec.n)
    hits, weights = [], []
    for i in range(spec.n):
        rng = np.random.default_rng(streams[i])
        same = blocks == blocks[i]
        p = np.where(same, spec.p_in, spec.p_out)
        lo = np.where(same, spec.w_in[0], spec.w_out[0])
        hi = np.where(same, spec.w_in[1], spec.w_out[1])
        hit = rng.random(spec.n) < p
        weight = lo + (hi - lo) * rng.random(spec.n)
        hit[i] = False
        hits.append(hit)
        weights.append(weight[hit])

    # the ids are zero-padded, so index order is id order, and np.nonzero
    # gives the edges in (source, target) order; only nodes with an edge are kept
    src, dst = np.nonzero(np.array(hits))
    kept = np.unique(np.r_[src, dst])
    edge_arrays = (np.searchsorted(kept, src), np.searchsorted(kept, dst), np.concatenate(weights))
    graph = AffinityGraph(
        tuple(ids[i] for i in kept.tolist()), type_index[kept].astype(np.int8), edge_arrays
    )
    truth = {ids[i]: int(blocks[i]) for i in range(spec.n)}
    return graph, truth


# -- chains and classifier objectives ---------------------------------------------

def sample_chain_sequence(P: np.ndarray, length: int, seed: int) -> tuple[Sentiment, ...]:
    """Sample states from a chain, starting from its stationary
    distribution, with the sampler generate_dataset draws its events by."""
    return tuple(map(Sentiment, synth._sample_states(synth._chain_cdf(P), length, seed)))


def lr_loss_grad(
    X, targets: np.ndarray, w: np.ndarray, b: float, ridge: float
) -> tuple[float, np.ndarray, float]:
    """Mean log-loss with L2 penalty (ridge/2)||w||^2; intercept unpenalized.

    Returns (loss, grad_w, grad_b) for binary targets in {0, 1}; the gradient
    is the one train_lr takes at a class's extrapolated point, and the loss
    is the objective its FISTA loop minimizes.
    """
    z = X @ w + b
    # stable log(1 + exp(-s z)) with s = 2t - 1
    margins = (2.0 * targets - 1.0) * z
    loss = float(np.logaddexp(0.0, -margins).mean()) + 0.5 * ridge * float(w @ w)
    grad_W, grad_b = classify._lr_gradients(
        X, X.T, targets[None, :], w[None, :], np.array([b]), ridge
    )
    return loss, grad_W[0], float(grad_b[0])
