"""Metamorphic relations over the whole pipeline (Segura et al., "A Survey on
Metamorphic Testing", IEEE TSE 2016): input changes that carry no meaning
must leave every stage file byte-identical. Unlike a golden hash, a relation
still holds after a change that moves every output, so it needs no
re-recording.

Each test runs the pipeline in process on the seed-7 demo input, once with
mcl and naive Bayes and once with k-destinations and logistic regression.
The shuffle and rename relations also run the graph stages, through both
clusterers, on a seed-7 input of 768 nodes, where ties and small clusters
cannot hide an order dependence as they can on the demo.
"""

import json
import random

import pytest

from affinity_miner.cli import STAGES, PipelineRunner, resolve_config, run_pipeline
from affinity_miner.synth import generate_dataset

INPUT_KEYS = ("interactions", "profiles", "embeddings", "lexicon")

# report.txt is left out: its [config] section names the input paths
STAGE_FILES = (
    "ingest.txt",
    "scores.tsv",
    "graph.tsv",
    "graph.dot",
    "type_pairs.tsv",
    "clustering.tsv",
    "influence.txt",
    "semsim.tsv",
    "lexcorr_pos.tsv",
    "lexcorr_neg.tsv",
    "cv_report.tsv",
)

SETTINGS = {
    "mcl-nb": {"method": "mcl", "classifier": "nb"},
    "kdest-lr": {"method": "k-destinations", "classifier": "lr"},
}

RENAME_PREFIX = "u_"


def shuffled_lines(interactions, profiles):
    """Every interaction line and every profile row in a fixed random order.
    No source has two events at one timestamp, so the event order is unchanged."""
    rnd = random.Random(20160101)
    header, *rows = profiles
    rnd.shuffle(interactions)
    rnd.shuffle(rows)
    return interactions, [header, *rows]


def remapped_timestamps(interactions, profiles):
    """Every timestamp t mapped to 3t + 17, which keeps their order."""
    events = [json.loads(line) for line in interactions]
    for event in events:
        event["timestamp"] = 3 * event["timestamp"] + 17
    return [json.dumps(event, sort_keys=True) for event in events], profiles


def renamed_ids(interactions, profiles):
    """Every user id prefixed, which keeps their order."""
    events = [json.loads(line) for line in interactions]
    for event in events:
        for key in ("source", "target"):
            event[key] = RENAME_PREFIX + event[key]
    header, *rows = profiles
    rows = [RENAME_PREFIX + row for row in rows]
    return [json.dumps(event, sort_keys=True) for event in events], [header, *rows]


BOT = "zbot0000"


def appended_bot(interactions, profiles):
    """One profile with bot score 4.5, over the filter's threshold, and 120
    events that it sends to the other users. No event mentions the bot: a
    mention would add text to its sender's document."""
    header, *rows = profiles
    users = [row.split("\t")[0] for row in rows]
    events = [
        json.dumps(
            {
                "sentiment": ("POS", "NEU", "NEG")[i % 3],
                "source": BOT,
                "target": users[i % len(users)],
                "text": "love common1 my",
                "timestamp": 1600000000 + i,
            },
            sort_keys=True,
        )
        for i in range(120)
    ]
    return [*interactions, *events], [*profiles, f"{BOT}\tINFJ\t4.5"]


RELATIONS = {
    "shuffled-lines": shuffled_lines,
    "timestamps-3t+17": remapped_timestamps,
    "ids-renamed": renamed_ids,
}


# the stages the 768-node relations run
GRAPH_STAGES = ("ingest", "affinity", "graph", "cluster", "influence")


def config(inputs, out, settings):
    overrides = {key: str(inputs[key]) for key in INPUT_KEYS}
    overrides.update(out=str(out), seed="7", **settings)
    return resolve_config({}, overrides)


def run(inputs, out, **settings):
    """The stage files of one full run, by file name."""
    assert run_pipeline(config(inputs, out, settings)) == 0
    return {name: (out / name).read_bytes() for name in STAGE_FILES}


def run_graph_stages(inputs, out, **settings):
    """The files of GRAPH_STAGES, written in process, by file name."""
    runner = PipelineRunner(config(inputs, out, settings))
    for stage in GRAPH_STAGES:
        runner.write_stage(stage)
    return {name: (out / name).read_bytes() for stage in GRAPH_STAGES for name, _ in STAGES[stage]}


def differing(got, want):
    return [name for name in want if got[name] != want[name]]


def without_rename(got, want):
    """`got` with the rename undone; `want`'s files hold no prefix to confuse it with."""
    assert not any(RENAME_PREFIX.encode() in data for data in want.values())
    return {name: data.replace(RENAME_PREFIX.encode(), b"") for name, data in got.items()}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("demo"), seed=7)


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("large"), seed=7, users_per_type=48)


@pytest.fixture(scope="module", params=sorted(SETTINGS))
def setting(request, demo, tmp_path_factory):
    """(settings, stage files of the unchanged demo)."""
    settings = SETTINGS[request.param]
    return settings, run(demo, tmp_path_factory.mktemp("base"), **settings)


def transformed_inputs(demo, directory, relation):
    """The demo inputs with interactions and profiles rewritten by `relation`."""
    keys = ("interactions", "profiles")
    rewritten = relation(*(demo[key].read_text(encoding="utf-8").splitlines() for key in keys))
    inputs = dict(demo)
    for key, lines in zip(keys, rewritten):
        inputs[key] = directory / demo[key].name
        inputs[key].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return inputs


def has_no_tied_timestamps_within_a_source(inputs):
    # ties keep input order, so the shuffle relation holds only without them
    events = [json.loads(line) for line in inputs["interactions"].read_text().splitlines()]
    stamps = {(event["source"], event["timestamp"]) for event in events}
    return len(stamps) == len(events)


def test_demo_has_no_tied_timestamps_within_a_source(demo):
    assert has_no_tied_timestamps_within_a_source(demo)


def test_large_input_has_no_tied_timestamps_within_a_source(large):
    assert has_no_tied_timestamps_within_a_source(large)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_stage_files_unchanged(demo, setting, tmp_path, relation):
    settings, want = setting
    inputs = transformed_inputs(demo, tmp_path, RELATIONS[relation])
    got = run(inputs, tmp_path / "results", **settings)
    if relation == "ids-renamed":
        got = without_rename(got, want)
    assert differing(got, want) == []


@pytest.mark.parametrize("method", ["mcl", "k-destinations"])
def test_graph_stage_files_unchanged_at_768_nodes(large, tmp_path, method):
    want = run_graph_stages(large, tmp_path / "base", method=method)
    found = {}
    for relation in ("shuffled-lines", "ids-renamed"):
        directory = tmp_path / relation
        directory.mkdir()
        inputs = transformed_inputs(large, directory, RELATIONS[relation])
        got = run_graph_stages(inputs, directory / "results", method=method)
        if relation == "ids-renamed":
            got = without_rename(got, want)
        found[relation] = differing(got, want)
    assert found == {"shuffled-lines": [], "ids-renamed": []}


def test_swapped_categories_swap_the_lexcorr_files(demo, setting, tmp_path):
    settings, want = setting
    got = run(demo, tmp_path, pos_category="negemo", neg_category="posemo", **settings)
    assert got["lexcorr_pos.tsv"] != got["lexcorr_neg.tsv"]
    got["lexcorr_pos.tsv"], got["lexcorr_neg.tsv"] = got["lexcorr_neg.tsv"], got["lexcorr_pos.tsv"]
    assert differing(got, want) == []


def test_appended_bot_changes_only_ingest_and_scores(demo, setting, tmp_path):
    settings, want = setting
    inputs = transformed_inputs(demo, tmp_path, appended_bot)
    got = run(inputs, tmp_path / "results", **settings)
    counts = [
        {key: int(value) for key, value in (line.split(" = ") for line in text.decode().splitlines())}
        for text in (got["ingest.txt"], want["ingest.txt"])
    ]
    assert counts[0] == {
        "events": counts[1]["events"] + 120,
        "profiles_total": counts[1]["profiles_total"] + 1,
        "profiles_kept": counts[1]["profiles_kept"],
    }
    # the bot's pairs are scored before the filter; the graph keeps none of them
    assert differing(got, want) == ["ingest.txt", "scores.tsv"]
