"""Synthetic input sets for demos, tests and the benchmark.

generate_dataset writes a complete, self-consistent input set
(interactions, profiles, embeddings, lexicon and a ready-to-run config)
in the exact formats the ingestion layer consumes, drawn from one
generator seeded by its argument. Each pair's sentiment sequence comes
from a known chain: friendly inside a user's block, distant across.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .affinity import stationary_distribution
from .errors import InvalidSpec
from .ingest import ALL_TYPES, MbtiType, Sentiment, cannot_write, make_output_dir


def _chain_cdf(P: np.ndarray) -> list[list[float]]:
    """Cumulative rows of a chain as Python floats: rows 0-2 step from a
    state, row 3 draws the first state from the stationary distribution.

    InvalidSpec unless P is 3 x 3 and row-stochastic: a row summing below
    1 would otherwise hand its missing mass to the last state."""
    P = np.asarray(P, dtype=float)
    if P.shape != (3, 3):
        raise InvalidSpec(f"chain matrix must be 3 x 3, got shape {P.shape}")
    if not (np.isfinite(P).all() and (P >= 0).all()):
        raise InvalidSpec("chain matrix entries must be finite and >= 0")
    if np.abs(P.sum(axis=1) - 1).max() > 1e-12:
        raise InvalidSpec(f"chain matrix rows must sum to 1, got {P.sum(axis=1).tolist()}")
    return np.cumsum(np.concatenate([P, stationary_distribution(P)[None]]), axis=1).tolist()


def _sample_states(cdf: list[list[float]], length: int, seed: int) -> list[int]:
    """`length` state values from a chain given by _chain_cdf, drawn with
    one uniform per state from a generator seeded by `seed`."""
    last = len(cdf) - 2
    state, states = last + 1, []
    for u in np.random.default_rng(seed).random(length).tolist():
        state = min(bisect_right(cdf[state], u), last)
        states.append(state)
    return states


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


# five marker words per type: the type signal the classifier learns
TYPE_WORDS: dict[MbtiType, tuple[str, ...]] = {
    t: tuple(f"{t.value.lower()}word{i}" for i in range(5)) for t in ALL_TYPES
}


# generate_dataset's type groups (block b holds every BLOCKS-th type from
# the b-th) and its bot profiles
BLOCKS = 4
BOTS = 4

# P(positive word), P(negative word), indexed by Sentiment value (NEG, NEU, POS)
_EMOTION_RATES = ((0.10, 0.85), (0.30, 0.20), (0.85, 0.10))


class _User(NamedTuple):
    """One row of the generated user table; bots follow the users."""

    name: str
    mbti: MbtiType
    bot_score: float
    block: int
    emotionality: tuple[float, float]


def generate_dataset(
    out_dir: str | Path, seed: int = 0, users_per_type: int = 12
) -> dict[str, Path]:
    """Write a synthetic but fully pipeline-compatible input set.

    The 16 types are split into BLOCKS groups; users mention others in
    their own group often and with friendlier sentiment, so the affinity
    graph carries recoverable block structure. BOTS extra high-bot-score
    profiles (with events) exercise the bot filter downstream. Raises
    InvalidSpec for a negative seed or fewer than one user per type (no
    usable dataset), the ConfigError of make_output_dir for an out_dir
    that cannot be created, and the out key's cannot-write ConfigError,
    naming the file under out_dir as given, for a file that cannot be
    written. The config and the returned paths are absolute.
    """
    if users_per_type < 1:
        raise InvalidSpec(f"users_per_type must be >= 1, got {users_per_type}")
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    make_output_dir(Path(out_dir))
    # absolute, so the written config.txt runs from any working directory
    out = Path(out_dir).resolve()
    rng = np.random.default_rng(seed)

    # the last field, emotional expressiveness, spreads the category
    # proportions so the downstream regressions have something to fit; a
    # deterministic within-type grid guarantees the spread for every type
    # (pure sampling can clump and let the elastic-net soft threshold zero
    # everything)
    m = users_per_type
    table = [
        _User(
            f"user{ti * m + j:04d}", t, round(float(rng.uniform(0.0, 2.2)), 3), ti % BLOCKS,
            (0.1 + 2.6 * j / max(m - 1, 1), 0.1 + 2.6 * ((j * 3 + 1) % m) / max(m - 1, 1)),
        )
        for ti, t in enumerate(ALL_TYPES)
        for j in range(m)
    ]
    table += [
        _User(
            f"bot{b:02d}", ALL_TYPES[b % len(ALL_TYPES)],
            round(float(rng.uniform(2.5, 5.0)), 3), b % BLOCKS, (1.0, 1.0),
        )
        for b in range(BOTS)
    ]
    # table indices per block, ascending, and everyone outside each block
    members = [[i for i, u in enumerate(table) if u.block == b] for b in range(BLOCKS)]
    outsiders = [[u for u in table if u.block != b] for b in range(BLOCKS)]

    # The generator calls below, their arguments and their order are part of
    # the pinned output: every golden was recorded on these bytes. Per event:
    # three type words, one shared word, one pronoun, a uniform (and maybe a
    # word) per emotion category, then the word order.
    cdf = {True: _chain_cdf(FRIENDLY_CHAIN), False: _chain_cdf(DISTANT_CHAIN)}
    integers, random, permutation = rng.integers, rng.random, rng.permutation
    n_shared, n_pronouns = len(SHARED_WORDS), len(PRONOUNS)
    n_positive, n_negative = len(POSITIVE_WORDS), len(NEGATIVE_WORDS)
    lines: list[str] = []
    timestamp = 1_600_000_000
    for i, user in enumerate(table):
        block = members[user.block]
        # mate k is the k-th block member other than the user
        own = bisect_left(block, i)
        picks = rng.choice(len(block) - 1, size=min(len(block) - 1, 4), replace=False)
        partners = [table[block[k + (k >= own)]] for k in picks]
        outside = outsiders[user.block]
        partners += [outside[k] for k in rng.choice(len(outside), size=2, replace=False)]
        words_of_type = TYPE_WORDS[user.mbti]
        n_type = len(words_of_type)
        # per state value: the user's capped P(positive word), P(negative word)
        e_pos, e_neg = user.emotionality
        rates = [(min(p * e_pos, 0.95), min(q * e_neg, 0.95)) for p, q in _EMOTION_RATES]
        for partner in partners:
            friendly = partner.block == user.block
            length = int(integers(8, 14)) if friendly else int(integers(1, 4))
            states = _sample_states(cdf[friendly], length, int(integers(0, 2**32)))
            # each line is json.dumps(event, sort_keys=True): every id and
            # word is plain ASCII, so nothing needs escaping
            heads = [
                f'{{"sentiment": "{s.name}", "source": "{user.name}", '
                f'"target": "{partner.name}", "text": "'
                for s in Sentiment
            ]
            for s in states:
                p_pos, p_neg = rates[s]
                words = [
                    words_of_type[integers(n_type)],
                    words_of_type[integers(n_type)],
                    words_of_type[integers(n_type)],
                    SHARED_WORDS[integers(n_shared)],
                    PRONOUNS[integers(n_pronouns)],
                ]
                if random() < p_pos:
                    words.append(POSITIVE_WORDS[integers(n_positive)])
                if random() < p_neg:
                    words.append(NEGATIVE_WORDS[integers(n_negative)])
                text = " ".join([words[k] for k in permutation(len(words)).tolist()])
                lines.append(f'{heads[s]}{text}", "timestamp": {timestamp}}}\n')
                timestamp += 1

    shuffle = rng.permutation(len(lines))
    vocabulary = sorted(
        set(POSITIVE_WORDS + NEGATIVE_WORDS + PRONOUNS + SHARED_WORDS).union(*TYPE_WORDS.values())
    )
    names = ("interactions.jsonl", "profiles.tsv", "embeddings.txt", "lexicon.tsv", "config.txt")
    paths = {name.partition(".")[0]: out / name for name in names}
    contents = {
        # line by line: a joined string plus its encoded copy would more
        # than double the memory the lines hold
        "interactions": (lines[i] for i in shuffle.tolist()),
        "profiles": ["user_id\tmbti\tbot_score\n"]
        + [f"{u.name}\t{u.mbti}\t{u.bot_score}\n" for u in table],
        "embeddings": [
            token + " " + " ".join(f"{v:.6f}" for v in rng.normal(size=8)) + "\n"
            for token in vocabulary
        ],
        "lexicon": [line + "\n" for line in LEXICON_LINES],
        "config": [f"{key} = {path}\n" for key, path in paths.items() if key != "config"]
        + [f"out = {out / 'results'}\n", f"seed = {seed}\n"],
    }
    for key, chunks in contents.items():
        try:
            with paths[key].open("w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise cannot_write(Path(out_dir) / paths[key].name, exc) from None
    return paths
