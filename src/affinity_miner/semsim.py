"""Embedding-based semantic similarity between per-type corpora.

Pre-trained word vectors are loaded from the standard text layout (token
followed by d numbers per line); a document's vector is the unweighted
mean of its in-vocabulary token vectors, and corpora are compared with
cosine similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConstantVector, InsufficientData, MalformedRecord
from .ingest import ALL_TYPES, MbtiType, read_lines
from .lexfeat import tokenize


@dataclass(frozen=True)
class EmbeddingTable:
    dimension: int
    vectors: dict[str, np.ndarray]


def load_embeddings(stream: Iterable[str]) -> EmbeddingTable:
    """Parse token-plus-numbers lines; dimension inferred from the first.

    Tokens are lowercased; a token repeated later wins (last occurrence).
    A component that is not a finite number fails the load naming its line.
    """
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    for lineno, line in read_lines(stream):
        parts = line.split()
        if not parts:
            raise MalformedRecord(f"line {lineno}: only whitespace, no token", line=lineno)
        token, values = parts[0].lower(), parts[1:]
        if dimension is None:
            if not values:
                raise MalformedRecord(f"line {lineno}: no vector components", line=lineno)
            dimension = len(values)
        elif len(values) != dimension:
            raise MalformedRecord(
                f"line {lineno}: expected {dimension} components, got {len(values)}",
                line=lineno,
            )
        try:
            vec = np.array([float(v) for v in values])
        except ValueError as exc:
            raise MalformedRecord(f"line {lineno}: bad number: {exc}", line=lineno) from None
        if not np.isfinite(vec).all():
            raise MalformedRecord(f"line {lineno}: components must be finite", line=lineno)
        vec.setflags(write=False)
        vectors[token] = vec
    if dimension is None:
        raise MalformedRecord("embedding file has no vector lines")
    return EmbeddingTable(dimension, vectors)


def doc_vector(tokens: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """Mean of in-vocabulary token vectors; OOV tokens are skipped."""
    hits = [table.vectors[t] for t in tokens if t in table.vectors]
    if not hits:
        return np.zeros(table.dimension)
    return np.mean(hits, axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors; exact 1.0 for identical input."""
    da = float(a @ a)
    db = float(b @ b)
    if da == 0.0 or db == 0.0:
        raise ConstantVector("cosine undefined for a zero vector")
    return float(a @ b) / math.sqrt(da * db)


def type_similarity_matrix(
    corpora: Mapping[MbtiType, str], table: EmbeddingTable
) -> dict[tuple[MbtiType, MbtiType], float]:
    """Cosine similarity for the 120 cross-type pairs.

    Keys are (row, column) with the row type later in code order, matching
    a lower-triangular layout; same-type cells are omitted.
    """
    missing = [t for t in ALL_TYPES if t not in corpora]
    if missing:
        raise InsufficientData(
            "all 16 type corpora required; missing: "
            + ", ".join(t.value for t in missing)
        )
    vectors: dict[MbtiType, np.ndarray] = {}
    for t in ALL_TYPES:
        v = doc_vector(tokenize(corpora[t]), table)
        if not v.any():
            raise ConstantVector(f"corpus for {t} has no in-vocabulary tokens")
        vectors[t] = v
    table_out: dict[tuple[MbtiType, MbtiType], float] = {}
    for i, row in enumerate(ALL_TYPES):
        for col in ALL_TYPES[:i]:
            table_out[(row, col)] = cosine(vectors[row], vectors[col])
    return table_out
