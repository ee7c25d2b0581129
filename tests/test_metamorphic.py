"""Metamorphic relations over the whole pipeline (Segura et al., "A Survey on
Metamorphic Testing", IEEE TSE 2016): input changes that carry no meaning
must leave every stage file byte-identical. Unlike a golden hash, a relation
still holds after a change that moves every output, so it needs no
re-recording.

Each test runs the pipeline in process on the seed-7 demo input, once with
mcl and naive Bayes and once with k-destinations and logistic regression.
"""

import json
import random

import pytest

from affinity_miner.cli import resolve_config, run_pipeline
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


def run(inputs, out, **settings):
    """The stage files of one full run, by file name."""
    overrides = {key: str(inputs[key]) for key in INPUT_KEYS}
    overrides.update(out=str(out), seed="7", **settings)
    assert run_pipeline(resolve_config({}, overrides, env={})) == 0
    return {name: (out / name).read_bytes() for name in STAGE_FILES}


def differing(got, want):
    return [name for name in STAGE_FILES if got[name] != want[name]]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("demo"), seed=7)


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


def test_demo_has_no_tied_timestamps_within_a_source(demo):
    # ties keep input order, so the shuffle relation holds only without them
    events = [json.loads(line) for line in demo["interactions"].read_text().splitlines()]
    stamps = {(event["source"], event["timestamp"]) for event in events}
    assert len(stamps) == len(events)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_stage_files_unchanged(demo, setting, tmp_path, relation):
    settings, want = setting
    inputs = transformed_inputs(demo, tmp_path, RELATIONS[relation])
    got = run(inputs, tmp_path / "results", **settings)
    if relation == "ids-renamed":
        # undo the rename; the unchanged run's files hold no prefix to confuse it with
        assert not any(RENAME_PREFIX.encode() in data for data in want.values())
        got = {name: data.replace(RENAME_PREFIX.encode(), b"") for name, data in got.items()}
    assert differing(got, want) == []


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
