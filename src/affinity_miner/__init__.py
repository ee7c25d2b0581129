"""Affinity graph analytics over sentiment-annotated mention interactions.

The pipeline: ingest profiles and interactions, score each directed pair's
sentiment sequence with a smoothed Markov chain, build the personality-
labeled affinity graph, cluster it with random-walk methods, and analyze
the result (influential types, semantic similarity, emotion correlation,
type prediction).
"""

__version__ = "0.1.0"
