"""Lexicon-based psycholinguistic features and elastic-net correlation.

A lexicon maps category names to word patterns (literal tokens or prefixes
written with a trailing *). The features of a document are the lexicon's
categories, each one's matched-token proportion and nothing else. To
compare two groups' emotional language, each group's per-document category
proportion is regressed on token counts with an elastic net and the top
coefficient vectors are correlated.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np
from scipy import sparse

from .errors import (
    ConstantVector,
    DimensionMismatch,
    InsufficientData,
    InvalidSpec,
    MalformedRecord,
)
from .ingest import read_lines

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# every ASCII non-alphanumeric mapped to a space: on ASCII text the runs
# _TOKEN_RE finds are then exactly the fields str.split() returns
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()}
)

FeatureVector = dict[str, float]
G = TypeVar("G")

# stop when the largest per-sweep coefficient change falls below this;
# 1e-8 rather than 1e-6 because correlated designs contract slowly and the
# solution must agree with closed-form least squares to 1e-6
ENET_TOL = 1e-8
ENET_MAX_SWEEPS = 1000


def tokenize(text: str) -> list[str]:
    """Maximal runs of Unicode alphanumerics (`str.isalnum`) in the
    lowercased text; `_`, apostrophes and hyphens separate tokens.

    ASCII text (after lowercasing) takes a str.translate and split path,
    several times cheaper than the regex and with the same tokens; other
    text takes _TOKEN_RE, which stays the definition.
    """
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


# category name -> (literal tokens, sorted prefix stems), all lowercase
Lexicon = Mapping[str, tuple[frozenset[str], tuple[str, ...]]]


def _check_pattern(pattern: str, lineno: int) -> str:
    """The lowercased pattern; its stem (without a trailing *) must be one
    token, since a stem tokenize splits or drops can never match."""
    if not pattern or pattern == "*":
        raise MalformedRecord(f"line {lineno}: empty pattern")
    if "*" in pattern[:-1]:
        raise MalformedRecord(f"line {lineno}: interior wildcard in {pattern!r}")
    pattern = pattern.lower()
    # _TOKEN_RE, not tokenize: tokenize's call count measures document text
    if not _TOKEN_RE.fullmatch(pattern.removesuffix("*")):
        raise MalformedRecord(f"line {lineno}: {pattern!r} is not one token and can never match")
    return pattern


def load_lexicon(stream) -> Lexicon:
    """Parse category<TAB>pattern lines into the category map, in category
    name order; duplicates collapse. Any category name loads: the features
    are exactly these categories."""
    categories: dict[str, set[str]] = {}
    for lineno, line in read_lines(stream):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip():
            raise MalformedRecord(f"line {lineno}: expected category<TAB>pattern, got {line!r}")
        category = parts[0].strip().lower()
        pattern = _check_pattern(parts[1].strip(), lineno)
        categories.setdefault(category, set()).add(pattern)
    return {
        name: (
            frozenset(p for p in patterns if not p.endswith("*")),
            tuple(sorted(p[:-1] for p in patterns if p.endswith("*"))),
        )
        for name, patterns in sorted(categories.items())
    }


def extract_features(text: str, lex: Lexicon) -> FeatureVector:
    """Each lexicon category's matched-token proportion, and no other key.

    Empty text yields an all-zero vector. Categories may overlap, so the
    proportions need not sum to 1. Each distinct token is matched once and
    adds its count; integer counts are exact in float64.
    """
    tokens = tokenize(text)
    values = {name: 0.0 for name in lex}
    if not tokens:
        return values
    for token, count in Counter(tokens).items():
        for name, (literals, prefixes) in lex.items():
            if token in literals or token.startswith(prefixes):
                values[name] += count
    n = float(len(tokens))
    return {name: count / n for name, count in values.items()}


@dataclass(frozen=True)
class EnetFit:
    """Numeric elastic-net solution (original-scale coefficients)."""

    coef: np.ndarray
    intercept: float
    sweeps: int
    converged: bool


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
) -> EnetFit:
    """Cyclic coordinate descent on the standardized columns of the float
    arrays X (n x p) and y (n).

    Minimizes (1/2n)||y - Xb - b0||^2 + lam (mix ||b||_1 + (1-mix)/2 ||b||^2)
    with the penalty applied to standardized coefficients; the returned
    coefficients are mapped back to the original column scale. Stops when
    the largest coefficient change in a sweep falls below ENET_TOL, or
    after ENET_MAX_SWEEPS sweeps (both read at call time).
    """
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"y length {y.shape} does not match {n} rows")
    if n < 2:
        raise InsufficientData(f"need at least 2 rows, got {n}")
    if lam < 0 or not 0.0 <= mix <= 1.0:
        raise InvalidSpec(f"bad penalty: lam={lam}, mix={mix}")

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
    converged = False
    sweeps = 0
    for _ in range(ENET_MAX_SWEEPS):
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
        if max_delta < ENET_TOL:
            converged = True
            break
    coef = beta / sd_safe
    intercept = float(y_mean - mu @ coef)
    return EnetFit(coef, intercept, sweeps, converged)


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two 1-d float arrays; identical inputs give
    exactly 1.0."""
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"shapes {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise InsufficientData("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantVector("correlation undefined for constant input")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def count_matrix(
    token_lists: Iterable[Sequence[str]], vocabulary: Mapping[str, int]
) -> sparse.csr_array:
    """Documents x vocabulary token counts (float64 CSR array).

    Row i counts the tokens of token_lists[i] found in `vocabulary` (token
    -> column); other tokens are skipped. Columns ascend within each row.
    """
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        row = sorted((vocabulary[t], n) for t, n in Counter(tokens).items() if t in vocabulary)
        indices.extend(j for j, _ in row)
        data.extend(n for _, n in row)
        indptr.append(len(indices))
    return sparse.csr_array(
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
        raise InsufficientData(f"need at least 2 documents, got {len(documents)}")
    if target not in lex:
        raise InvalidSpec(f"unknown lexicon category: {target!r}")
    y = np.array([extract_features(doc, lex)[target] for doc in documents])
    vocab, X = _token_count_rows(documents)
    fit = fit_elastic_net(X, y, lam, mix)
    if not fit.converged:
        log.warning(
            "elastic net on %r proportions stopped unconverged at the %d-sweep cap",
            target, fit.sweeps,
        )
    return {t: float(c) for t, c in zip(vocab, fit.coef)}


def _top_n_keys(weights: dict[str, float], n: int) -> list[str]:
    return [
        k for k, _ in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    ]


def emotion_correlation_table(
    documents_by_group: Mapping[G, Sequence[str]],
    lex: Lexicon,
    target: str,
    n: int = 1000,
    lam: float = 0.01,
    mix: float = 0.5,
) -> dict[tuple[G, G], float]:
    """Correlations of every two groups' elastic-net emotion weights.

    Each group's target-category proportion is regressed on its token
    counts, once per group. For each pair of groups the top-n coefficients
    of each fit (by descending value) are aligned on the union of selected
    keys, missing keys as 0, and the aligned vectors are Pearson-correlated.
    Groups must sort; keys are (later group, earlier group) in sorted order.
    A group with too few documents raises InsufficientData naming the
    group, and every pearson_r failure is re-raised naming the pair.
    """
    weights = {}
    for name, docs in sorted(documents_by_group.items()):
        try:
            weights[name] = _category_weights(docs, lex, target, lam, mix)
        except InsufficientData as exc:
            raise InsufficientData(f"{name}: {exc}") from None
    names = sorted(weights)
    top = {name: set(_top_n_keys(weights[name], n)) for name in names}
    table: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[:i]:
            keys = sorted(top[a] | top[b])
            va = np.array([weights[a].get(k, 0.0) for k in keys])
            vb = np.array([weights[b].get(k, 0.0) for k in keys])
            try:
                table[(a, b)] = pearson_r(va, vb)
            except (DimensionMismatch, InsufficientData, ConstantVector) as exc:
                raise type(exc)(f"{a} vs {b}: {exc}") from None
    return table
