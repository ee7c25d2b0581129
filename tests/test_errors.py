"""Library calls with an argument outside its range raise the domain error
README's error table names, never a bare ValueError, so the CLI exits 1."""

import numpy as np
import pytest

from affinity_miner import errors
from affinity_miner.classify import LabeledCorpus, cross_validate, train_lr, vectorize_corpus
from affinity_miner.cluster import mcl, random_walk_matrix
from affinity_miner.errors import AffinityMinerError, InsufficientData, InvalidSpec
from affinity_miner.graph import build_affinity_graph, export_graph
from affinity_miner.ingest import ALL_TYPES
from affinity_miner.lexfeat import emotion_correlation_table, fit_elastic_net, load_lexicon
from affinity_miner.semsim import load_embeddings, type_similarity_matrix

from conftest import make_graph, scored_pairs, two_block_graph

INFJ, ENTP = ALL_TYPES[:2]

BAD_CALLS = {
    "build_affinity_graph-threshold": (
        lambda: build_affinity_graph(*scored_pairs({}), [], 0.0),
        InvalidSpec, "^threshold must be > 0, got 0.0$",
    ),
    "export_graph-format": (
        lambda: export_graph(make_graph([("a", "b", 0.5)]), "xml"),
        InvalidSpec, "^unknown export format: 'xml'$",
    ),
    "random_walk_matrix-tau": (
        lambda: random_walk_matrix(make_graph([("a", "b", 0.5)]), 0.0),
        InvalidSpec, r"^teleport must be in \(0, 1\), got 0.0$",
    ),
    "mcl-e": (
        lambda: mcl(two_block_graph(3), e=1),
        InvalidSpec, "^expansion power must be >= 2, got 1$",
    ),
    "mcl-r": (
        lambda: mcl(two_block_graph(3), r=1.0),
        InvalidSpec, "^inflation power must be > 1, got 1.0$",
    ),
    "train_lr-ridge": (
        lambda: train_lr(vectorize_corpus(["a b", "c d"]), [INFJ, ENTP], ridge=-1.0),
        InvalidSpec, "^ridge must be >= 0, got -1.0$",
    ),
    "cross_validate-classifier": (
        lambda: cross_validate(LabeledCorpus((("a b", INFJ), ("c d", ENTP))), "svm"),
        InvalidSpec, "^unknown classifier: 'svm'$",
    ),
    "fit_elastic_net-lam": (
        lambda: fit_elastic_net(np.eye(3), np.arange(3.0), -0.1, 0.5),
        InvalidSpec, "^bad penalty: lam=-0.1, mix=0.5$",
    ),
    "fit_elastic_net-mix": (
        lambda: fit_elastic_net(np.eye(3), np.arange(3.0), 0.01, 1.5),
        InvalidSpec, "^bad penalty: lam=0.01, mix=1.5$",
    ),
    "emotion_correlation_table-category": (
        lambda: emotion_correlation_table(
            {"a": ["happy me", "sad me"], "b": ["happy", "sad"]},
            load_lexicon(["posemo\thapp*", "negemo\tsad"]),
            "nope",
        ),
        InvalidSpec, "^unknown lexicon category: 'nope'$",
    ),
    "type_similarity_matrix-corpora": (
        lambda: type_similarity_matrix({INFJ: "happy"}, load_embeddings(["happy 1 0"])),
        InsufficientData, "^all 16 type corpora required; missing: ",
    ),
}


@pytest.mark.parametrize("call, error, message", BAD_CALLS.values(), ids=BAD_CALLS)
def test_out_of_range_argument_raises_its_domain_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_errors_carry_only_their_message():
    # the message names the input line or config key at fault; no field repeats it
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, AffinityMinerError)
    ]
    assert len(classes) == 10
    assert [cls.__name__ for cls in classes if "__init__" in vars(cls)] == []
