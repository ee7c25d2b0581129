"""Traced counts on the demo dataset match their closed forms and repeat exactly."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import run  # noqa: E402

FOLDS = 10  # the pipeline's default


def traced(cli_args, trace):
    """Run the CLI under trace_run.py and return the trace it writes."""
    argv = harness.traced_pipeline(trace) + cli_args
    subprocess.run(argv, env=harness.child_env(), check=True, capture_output=True)
    return json.loads(trace.read_text())


@pytest.fixture(scope="module")
def demo_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("demo")
    return harness.synth().generate_dataset(work / "inputs", **harness.DEMO)


@pytest.fixture(scope="module")
def demo_counts(demo_inputs, tmp_path_factory):
    work = tmp_path_factory.mktemp("traces")
    return [
        traced(harness.run_args(demo_inputs["config"], work / f"out{i}", "mcl", "nb"),
               work / f"trace{i}.json")
        for i in range(2)
    ]


def test_counts_match_closed_forms(demo_counts):
    counts = demo_counts[0]["counts"]
    docs = 16 * harness.DEMO["users_per_type"]
    assert demo_counts[0]["missing_probes"] == []
    assert counts["classify.docs"] == docs
    # each fold tokenizes its training documents twice and its test documents once
    assert counts["tokenize.calls.classify"] == (2 * FOLDS - 1) * docs
    # per emotion category: one pass for the target proportion, two for the counts
    assert counts["tokenize.calls.lexcorr"] == 6 * docs
    assert counts["tokenize.calls.semsim"] == 16
    # one fit per type and emotion category
    assert counts["lexcorr.enet_fits"] == 32


def test_counts_repeat_exactly(demo_counts):
    assert demo_counts[0]["counts"] == demo_counts[1]["counts"]
    names = [span[0] for span in demo_counts[0]["spans"]]
    assert names == [span[0] for span in demo_counts[1]["spans"]]


def test_rejected_lines_are_counted(demo_inputs, tmp_path):
    lines = demo_inputs["interactions"].read_text().splitlines(keepends=True)
    bad = tmp_path / "interactions.jsonl"
    bad.write_text("".join(lines) + "not json\n{}\n[1]\n")
    cli = harness.run_args(demo_inputs["config"], tmp_path / "out", "mcl", "nb")
    cli[0] = "ingest"
    counts = traced(cli + ["--set", f"interactions={bad}"], tmp_path / "trace.json")["counts"]
    assert counts["ingest.lines_rejected"] == 3
    assert counts["ingest.events"] == len(lines)


def test_metric_names_and_units_match_benchmark_json(demo_counts):
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    traced = run.layer_metrics(demo_counts[0], 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.LAYER_UNITS.get(name, "count") for name in traced
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kdest-lr-768",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
