"""Property tests for invariants the library does not check at run time.

Examples are derandomized and bounded, so every run checks the same cases.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affinity_miner import Sentiment, affinity_score, stationary_distribution
from affinity_miner.cli import parse_config_file
from affinity_miner.errors import (
    AffinityMinerError,
    ConfigError,
    DimensionMismatch,
    MalformedRecord,
)
from affinity_miner.graph import EDGE_TSV_HEADER, parse_graph_tsv
from affinity_miner.ingest import load_interactions, load_profiles, open_input
from affinity_miner.lexfeat import load_lexicon
from affinity_miner.semsim import load_embeddings

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

state_tuples = st.lists(st.sampled_from(list(Sentiment)), max_size=200).map(tuple)
# The half-open bound holds for moderate smoothing only: with alpha and kappa
# near the smallest floats the score rounds to exactly 1.0 or dips just below
# 0, and alpha near 1e308 overflows the chain estimate. Config validation
# rejects alpha and kappa outside this range.
smoothing = st.floats(min_value=1e-6, max_value=1e6)


@PROPERTY
@given(state_tuples, smoothing, smoothing)
def test_affinity_score_in_half_open_unit_interval(states, alpha, kappa):
    assert 0.0 <= affinity_score(states, alpha, kappa) < 1.0


@st.composite
def positive_chains(draw):
    k = draw(st.integers(min_value=2, max_value=8))
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=k * k, max_size=k * k)
    )
    P = np.array(weights).reshape(k, k)
    return P / P.sum(axis=1, keepdims=True)


@PROPERTY
@given(positive_chains())
def test_stationary_distribution_of_positive_chain(P):
    pi = stationary_distribution(P)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pi @ P - pi)) < 1e-12


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
event_records = st.fixed_dictionaries(
    {},
    optional={
        "source": st.sampled_from(["a", "b"]) | json_values,
        "target": st.sampled_from(["a", "b"]) | json_values,
        "timestamp": json_values,
        "sentiment": st.sampled_from(["NEG", "NEU", "POS"]) | json_values,
        "text": json_values,
    },
).map(lambda record: json.dumps(record).encode())
# raw bytes (not always UTF-8), tab- and space-separated fields, JSON records
lines = st.one_of(
    st.binary(max_size=40),
    st.lists(st.text(max_size=10), max_size=4).map(lambda f: "\t".join(f).encode()),
    st.lists(st.text(max_size=10), max_size=4).map(lambda f: " ".join(f).encode()),
    event_records,
)
input_files = st.lists(lines, max_size=12).map(lambda ls: b"\n".join(ls))


def _through_file(load):
    def run(path):
        with open_input(path) as fh:
            return load(fh)

    return run


LOADERS = {
    "load_interactions": _through_file(load_interactions),
    "load_profiles": _through_file(load_profiles),
    "load_lexicon": _through_file(load_lexicon),
    "load_embeddings": _through_file(load_embeddings),
    "parse_config_file": parse_config_file,
    "parse_graph_tsv": _through_file(lambda fh: parse_graph_tsv(fh.read())),
}


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input.txt"


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(PROPERTY, max_examples=100)
@given(data=input_files)
@example(data=b'{"source": "a", "target": "b", "timestamp": 1, "sentiment": []}')
@example(data=b"[" * 100_000)
@example(data=b"user_id\tmbti\tbot_score\ncaf\xe9\tINFJ\t1.0")
@example(data=EDGE_TSV_HEADER.encode() + b"\n\na\tb\tx\tINFJ\tENTP\n")
@example(data=b"\r\n\r" + EDGE_TSV_HEADER.encode() + b"\n\n\na\tb\n")
def test_loaders_raise_only_domain_errors(input_path, loader, data):
    input_path.write_bytes(data)
    try:
        LOADERS[loader](input_path)
    except (MalformedRecord, DimensionMismatch, ConfigError) as exc:
        # every line an error names is a physical line of the file
        with open_input(input_path) as fh:
            lines = fh.readlines()
        if exc.line is None:
            assert not any(line.strip() for line in lines)
        named = [exc.line] + [n for n, _ in getattr(exc, "line_errors", [])]
        assert all(1 <= n <= len(lines) for n in named if n is not None)
    except AffinityMinerError:
        pass
