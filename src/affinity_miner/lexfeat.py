"""Lexicon-based psycholinguistic features and elastic-net correlation.

A lexicon maps category names to word patterns (literal tokens or prefixes
written with a trailing *). Feature extraction reports each category's
matched-token proportion plus the first-person pronoun proportion. To
compare two groups' emotional language, each group's per-document category
proportion is regressed on token counts with an elastic net and the top
coefficient vectors are correlated.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    ConstantVector,
    DegenerateCorpus,
    DimensionMismatch,
    LengthMismatch,
    MalformedPattern,
    MalformedRecord,
)
from .ingest import read_lines

FIRST_PERSON_PRONOUNS = frozenset(
    ["i", "me", "my", "mine", "myself", "we", "us", "our", "ours", "ourselves"]
)
FIRST_PERSON_KEY = "first_person_pronoun"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

FeatureVector = dict[str, float]

# stop when the largest per-sweep coefficient change falls below this;
# 1e-8 rather than 1e-6 because correlated designs contract slowly and the
# solution must agree with closed-form least squares to 1e-6
ENET_TOL = 1e-8
ENET_MAX_SWEEPS = 1000


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Lexicon:
    """categories: category name -> set of lowercase patterns."""

    categories: Mapping[str, frozenset[str]]

    @cached_property
    def compiled(self) -> dict[str, tuple[frozenset[str], tuple[str, ...]]]:
        """Per category: (literal tokens, prefix stems), built once."""
        out = {}
        for name, patterns in self.categories.items():
            literals = frozenset(p for p in patterns if not p.endswith("*"))
            prefixes = tuple(sorted(p[:-1] for p in patterns if p.endswith("*")))
            out[name] = (literals, prefixes)
        return out


def _check_pattern(pattern: str, lineno: int) -> str:
    if not pattern or pattern == "*":
        raise MalformedPattern(f"line {lineno}: empty pattern")
    if "*" in pattern[:-1]:
        raise MalformedPattern(f"line {lineno}: interior wildcard in {pattern!r}")
    return pattern.lower()


def load_lexicon(stream) -> Lexicon:
    """Parse category<TAB>pattern lines; duplicates collapse."""
    categories: dict[str, set[str]] = {}
    for lineno, line in read_lines(stream):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip():
            raise MalformedRecord(
                f"line {lineno}: expected category<TAB>pattern, got {line!r}",
                line=lineno,
            )
        category = parts[0].strip().lower()
        pattern = _check_pattern(parts[1].strip(), lineno)
        categories.setdefault(category, set()).add(pattern)
    return Lexicon({name: frozenset(p) for name, p in sorted(categories.items())})


def extract_features(text: str, lex: Lexicon) -> FeatureVector:
    """Per-category matched-token proportions plus first-person proportion.

    Empty text yields an all-zero vector. Categories may overlap, so the
    proportions need not sum to 1. Each distinct token is matched once and
    adds its count; integer counts are exact in float64.
    """
    tokens = tokenize(text)
    compiled = lex.compiled
    values = {name: 0.0 for name in compiled}
    values[FIRST_PERSON_KEY] = 0.0
    if not tokens:
        return values
    for token, count in Counter(tokens).items():
        for name, (literals, prefixes) in compiled.items():
            if token in literals or token.startswith(prefixes):
                values[name] += count
        if token in FIRST_PERSON_PRONOUNS:
            values[FIRST_PERSON_KEY] += count
    n = float(len(tokens))
    return {name: count / n for name, count in values.items()}


@dataclass(frozen=True)
class EnetFit:
    """Numeric elastic-net solution (original-scale coefficients)."""

    coef: np.ndarray
    intercept: float
    sweeps: int
    converged: bool
    objective_trace: tuple[float, ...]


def _soft_threshold(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def fit_elastic_net(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = 0.01,
    mix: float = 0.5,
    tol: float = ENET_TOL,
    max_sweeps: int = ENET_MAX_SWEEPS,
) -> EnetFit:
    """Cyclic coordinate descent on standardized columns.

    Minimizes (1/2n)||y - Xb - b0||^2 + lam (mix ||b||_1 + (1-mix)/2 ||b||^2)
    with the penalty applied to standardized coefficients; the returned
    coefficients are mapped back to the original column scale. Stops when
    the largest coefficient change in a sweep falls below tol.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"y length {y.shape} does not match {n} rows")
    if n < 2:
        raise DimensionMismatch(f"need at least 2 rows, got {n}")
    if lam < 0 or not 0.0 <= mix <= 1.0:
        raise ValueError(f"bad penalty: lam={lam}, mix={mix}")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd_safe = np.where(sd == 0.0, 1.0, sd)
    Xs = (X - mu) / sd_safe
    y_mean = y.mean()
    yc = y - y_mean

    col_sq = (Xs * Xs).sum(axis=0) / n
    gamma = lam * mix
    denom = col_sq + lam * (1.0 - mix)
    beta = np.zeros(p)
    resid = yc.copy()
    trace: list[float] = []
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = (Xs[:, j] @ resid) / n + col_sq[j] * old
            new = _soft_threshold(rho, gamma) / denom[j]
            if new != old:
                resid += Xs[:, j] * (old - new)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        trace.append(
            float(
                (resid @ resid) / (2 * n)
                + lam * (mix * np.abs(beta).sum() + (1 - mix) / 2 * (beta @ beta))
            )
        )
        if max_delta < tol:
            converged = True
            break
    coef = beta / sd_safe
    intercept = float(y_mean - mu @ coef)
    return EnetFit(coef, intercept, sweeps, converged, tuple(trace))


def pearson_r(x, y) -> float:
    """Pearson correlation; identical inputs give exactly 1.0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"shapes {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantVector("correlation undefined for constant input")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def count_matrix(
    token_lists: Iterable[Sequence[str]], vocabulary: Mapping[str, int]
) -> sparse.csr_matrix:
    """Documents x vocabulary token counts (float64 CSR).

    Row i counts the tokens of token_lists[i] found in `vocabulary` (token
    -> column); other tokens are skipped. Columns ascend within each row.
    """
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        row = sorted((vocabulary[t], n) for t, n in Counter(tokens).items() if t in vocabulary)
        indices.extend(j for j, _ in row)
        data.extend(n for _, n in row)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32), indptr),
        shape=(len(indptr) - 1, len(vocabulary)),
    )


def _token_count_rows(documents: Sequence[str]) -> tuple[list[str], np.ndarray]:
    vocab = sorted({t for doc in documents for t in tokenize(doc)})
    index = {t: j for j, t in enumerate(vocab)}
    return vocab, count_matrix((tokenize(doc) for doc in documents), index).toarray()


def _category_weights(
    documents: Sequence[str],
    lex: Lexicon,
    target: str,
    lam: float,
    mix: float,
) -> dict[str, float]:
    """Elastic-net coefficients of target-category proportion on token counts."""
    if len(documents) < 2:
        raise DegenerateCorpus(f"need at least 2 documents, got {len(documents)}")
    if target not in lex.categories:
        raise ValueError(f"unknown lexicon category: {target!r}")
    y = np.array([extract_features(doc, lex)[target] for doc in documents])
    vocab, X = _token_count_rows(documents)
    fit = fit_elastic_net(X, y, lam, mix)
    return {t: float(c) for t, c in zip(vocab, fit.coef)}


def _top_n_keys(weights: dict[str, float], n: int) -> list[str]:
    return [
        k for k, _ in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    ]


def emotion_correlation_table(
    documents_by_group: Mapping[str, Sequence[str]],
    lex: Lexicon,
    target: str,
    n: int = 1000,
    lam: float = 0.01,
    mix: float = 0.5,
) -> dict[tuple[str, str], float]:
    """Correlations of every two groups' elastic-net emotion weights.

    Each group's target-category proportion is regressed on its token
    counts, once per group. For each pair of groups the top-n coefficients
    of each fit (by descending value) are aligned on the union of selected
    keys, missing keys as 0, and the aligned vectors are Pearson-correlated.
    Keys are (later group, earlier group) in sorted name order.
    """
    weights = {
        name: _category_weights(docs, lex, target, lam, mix)
        for name, docs in sorted(documents_by_group.items())
    }
    names = sorted(weights)
    top = {name: set(_top_n_keys(weights[name], n)) for name in names}
    table: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[:i]:
            keys = sorted(top[a] | top[b])
            va = np.array([weights[a].get(k, 0.0) for k in keys])
            vb = np.array([weights[b].get(k, 0.0) for k in keys])
            table[(a, b)] = pearson_r(va, vb)
    return table
