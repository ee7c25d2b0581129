"""Affinity graph analytics over sentiment-annotated mention interactions.

The pipeline: ingest profiles and interactions, score each directed pair's
sentiment sequence with a smoothed Markov chain, build the personality-
labeled affinity graph, cluster it with random-walk methods, and analyze
the result (influential types, semantic similarity, emotion correlation,
type prediction).
"""

from .affinity import (
    PairSequences,
    build_pair_sequences,
    estimate_chains,
    score_sequences,
    stationary_distribution,
)
from .classify import (
    CvReport,
    LabeledCorpus,
    TfIdfMatrix,
    cross_validate,
    f1_score,
    predict_many,
    train_lr,
    train_nb,
    vectorize_corpus,
)
from .cluster import (
    Clustering,
    clustering_error,
    hitting_times,
    k_destinations,
    labels_from_clustering,
    mcl,
    nmi,
    random_walk_matrix,
)
from .graph import (
    AffinityGraph,
    build_affinity_graph,
    export_graph,
    type_pair_percentages,
)
from .influence import cluster_link_counts, influential_types
from .ingest import (
    ALL_TYPES,
    EventTable,
    MbtiType,
    Sentiment,
    UserProfile,
    filter_bots,
    load_interactions,
    load_profiles,
    parse_mbti,
)
from .lexfeat import (
    Lexicon,
    emotion_correlation_table,
    extract_features,
    fit_elastic_net,
    load_lexicon,
    pearson_r,
    tokenize,
)
from .semsim import (
    EmbeddingTable,
    cosine,
    doc_vector,
    load_embeddings,
    type_similarity_matrix,
)
from .synth import PlantedSpec, generate_dataset, planted_partition, sample_chain_sequence

__version__ = "0.1.0"
