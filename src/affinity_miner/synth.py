"""Synthetic data generators used as independent oracles and demo input.

Planted-partition graphs provide ground-truth labels for clustering
recovery tests; sentiment sequences sampled from known chains provide a
recovery oracle for chain estimation. Both draw from per-node spawned
generator streams so parallel generation stays reproducible.

generate_dataset writes a complete, self-consistent input set
(interactions, profiles, embeddings, lexicon and a ready-to-run config)
in the exact formats the ingestion layer consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affinity import stationary_distribution
from .errors import InvalidSpec
from .graph import AffinityGraph
from .ingest import ALL_TYPES, MbtiType, Sentiment


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
    labels: dict[str, MbtiType] = {}
    position_in_block: dict[int, int] = {}
    for i in range(spec.n):
        pos = position_in_block.get(blocks[i], 0)
        labels[ids[i]] = ALL_TYPES[pos % len(ALL_TYPES)]
        position_in_block[blocks[i]] = pos + 1

    streams = np.random.SeedSequence(spec.seed).spawn(spec.n)
    edges: dict[tuple[str, str], float] = {}
    for i in range(spec.n):
        rng = np.random.default_rng(streams[i])
        same = blocks == blocks[i]
        p = np.where(same, spec.p_in, spec.p_out)
        lo = np.where(same, spec.w_in[0], spec.w_out[0])
        hi = np.where(same, spec.w_in[1], spec.w_out[1])
        hit = rng.random(spec.n) < p
        weight = lo + (hi - lo) * rng.random(spec.n)
        hit[i] = False
        for j in np.flatnonzero(hit):
            edges[(ids[i], ids[j])] = float(weight[j])

    graph = AffinityGraph(
        nodes={u: labels[u] for e in edges for u in e},
        edges=edges,
        threshold=min(spec.w_in[0], spec.w_out[0]),
    )
    truth = {ids[i]: int(blocks[i]) for i in range(spec.n)}
    return graph, truth


def sample_chain_sequence(P: np.ndarray, length: int, seed: int) -> tuple[Sentiment, ...]:
    """Sample states from a chain, starting from its stationary distribution."""
    if length == 0:
        return ()
    rng = np.random.default_rng(seed)
    pi = stationary_distribution(P)
    cumulative = np.cumsum(P, axis=1)
    uniforms = rng.random(length)
    state = int(np.searchsorted(np.cumsum(pi), uniforms[0], side="right"))
    state = min(state, P.shape[0] - 1)
    states = [state]
    for t in range(1, length):
        state = int(np.searchsorted(cumulative[state], uniforms[t], side="right"))
        state = min(state, P.shape[0] - 1)
        states.append(state)
    return tuple(Sentiment(s) for s in states)


# dataset generation ---------------------------------------------------------

POSITIVE_WORDS = ["happy", "happiness", "joy", "great", "love", "wonderful"]
NEGATIVE_WORDS = ["sad", "awful", "terrible", "hate", "angry", "gloomy"]
PRONOUNS = ["i", "we", "my", "us"]
SHARED_WORDS = [f"common{i}" for i in range(12)]

LEXICON_LINES = [
    "posemo\thapp*",
    "posemo\tjoy",
    "posemo\tgreat",
    "posemo\tlove",
    "posemo\twonderful",
    "negemo\tsad",
    "negemo\tawful",
    "negemo\tterrib*",
    "negemo\thate",
    "negemo\tangry",
    "negemo\tgloom*",
]

FRIENDLY_CHAIN = np.array(
    [[0.10, 0.20, 0.70], [0.05, 0.15, 0.80], [0.02, 0.08, 0.90]]
)
DISTANT_CHAIN = np.array(
    [[0.40, 0.40, 0.20], [0.30, 0.50, 0.20], [0.30, 0.45, 0.25]]
)


def _type_words(t: MbtiType) -> list[str]:
    return [f"{t.value.lower()}word{i}" for i in range(5)]


# P(positive word), P(negative word) per sentiment state
_EMOTION_RATES = {
    Sentiment.POS: (0.85, 0.10),
    Sentiment.NEU: (0.30, 0.20),
    Sentiment.NEG: (0.10, 0.85),
}


def _event_text(
    rng: np.random.Generator,
    t: MbtiType,
    sentiment: Sentiment,
    emotionality: tuple[float, float] = (1.0, 1.0),
) -> str:
    words = list(rng.choice(_type_words(t), size=3))
    words.append(str(rng.choice(SHARED_WORDS)))
    words.append(str(rng.choice(PRONOUNS)))
    p_pos, p_neg = _EMOTION_RATES[sentiment]
    if rng.random() < min(p_pos * emotionality[0], 0.95):
        words.append(str(rng.choice(POSITIVE_WORDS)))
    if rng.random() < min(p_neg * emotionality[1], 0.95):
        words.append(str(rng.choice(NEGATIVE_WORDS)))
    order = rng.permutation(len(words))
    return " ".join(words[i] for i in order)


def generate_dataset(
    out_dir: str | Path,
    seed: int = 0,
    users_per_type: int = 12,
    blocks: int = 4,
    bots: int = 4,
) -> dict[str, Path]:
    """Write a synthetic but fully pipeline-compatible input set.

    The 16 types are split into `blocks` groups; users mention others in
    their own group often and with friendlier sentiment, so the affinity
    graph carries recoverable block structure. A few extra high-bot-score
    profiles (with events) exercise the bot filter downstream.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    users: list[tuple[str, MbtiType, float]] = []
    user_block: dict[str, int] = {}
    per_block: dict[int, list[str]] = {b: [] for b in range(blocks)}
    # per-user emotional expressiveness spreads the category proportions so
    # the downstream regressions have something to fit; a deterministic
    # within-type grid guarantees the spread for every type (pure sampling
    # can clump and let the elastic-net soft threshold zero everything)
    emotionality: dict[str, tuple[float, float]] = {}

    def bias(j: int, m: int) -> float:
        return 0.1 + 2.6 * j / max(m - 1, 1)

    uid = 0
    for ti, t in enumerate(ALL_TYPES):
        block = ti % blocks
        for j in range(users_per_type):
            name = f"user{uid:04d}"
            users.append((name, t, round(float(rng.uniform(0.0, 2.2)), 3)))
            user_block[name] = block
            per_block[block].append(name)
            emotionality[name] = (
                bias(j, users_per_type),
                bias((j * 3 + 1) % users_per_type, users_per_type),
            )
            uid += 1
    for b in range(bots):
        name = f"bot{b:02d}"
        users.append((name, ALL_TYPES[b % len(ALL_TYPES)], round(float(rng.uniform(2.5, 5.0)), 3)))
        user_block[name] = b % blocks
        per_block[b % blocks].append(name)
        emotionality[name] = (1.0, 1.0)

    events: list[dict] = []
    timestamp = 1_600_000_000
    for name, t, _ in users:
        block = user_block[name]
        mates = [u for u in per_block[block] if u != name]
        partner_count = min(len(mates), 4)
        partners = [str(p) for p in rng.choice(mates, size=partner_count, replace=False)]
        others = [u for u, _, _ in users if user_block[u] != block]
        partners += [str(p) for p in rng.choice(others, size=2, replace=False)]
        for partner in partners:
            friendly = user_block[partner] == block
            chain = FRIENDLY_CHAIN if friendly else DISTANT_CHAIN
            length = int(rng.integers(8, 14)) if friendly else int(rng.integers(1, 4))
            seq = sample_chain_sequence(chain, length, int(rng.integers(0, 2**32)))
            for s in seq:
                events.append(
                    {
                        "source": name,
                        "target": partner,
                        "timestamp": timestamp,
                        "sentiment": s.name,
                        "text": _event_text(rng, t, s, emotionality[name]),
                    }
                )
                timestamp += 1

    shuffle = rng.permutation(len(events))
    interactions_path = out / "interactions.jsonl"
    with interactions_path.open("w", encoding="utf-8") as fh:
        for i in shuffle:
            fh.write(json.dumps(events[i], sort_keys=True) + "\n")

    profiles_path = out / "profiles.tsv"
    with profiles_path.open("w", encoding="utf-8") as fh:
        fh.write("user_id\tmbti\tbot_score\n")
        for name, t, score in users:
            fh.write(f"{name}\t{t}\t{score}\n")

    vocabulary = sorted(
        set(
            POSITIVE_WORDS
            + NEGATIVE_WORDS
            + PRONOUNS
            + SHARED_WORDS
            + [w for t in ALL_TYPES for w in _type_words(t)]
        )
    )
    embeddings_path = out / "embeddings.txt"
    with embeddings_path.open("w", encoding="utf-8") as fh:
        for token in vocabulary:
            vec = rng.normal(size=8)
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")

    lexicon_path = out / "lexicon.tsv"
    lexicon_path.write_text("\n".join(LEXICON_LINES) + "\n", encoding="utf-8")

    config_path = out / "config.txt"
    config_path.write_text(
        "\n".join(
            [
                f"interactions = {interactions_path}",
                f"profiles = {profiles_path}",
                f"embeddings = {embeddings_path}",
                f"lexicon = {lexicon_path}",
                f"out = {out / 'results'}",
                f"seed = {seed}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "interactions": interactions_path,
        "profiles": profiles_path,
        "embeddings": embeddings_path,
        "lexicon": lexicon_path,
        "config": config_path,
    }
