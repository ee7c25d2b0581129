import ast
import dataclasses
import errno
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from affinity_miner import affinity, classify, cluster, lexfeat, semsim
from affinity_miner import cli as cli_module
from affinity_miner.cli import (
    PipelineConfig,
    _write_atomic,
    _write_atomic_bytes,
    main,
    parse_config_file,
    resolve_config,
    run_pipeline,
)
from affinity_miner.errors import ConfigError
from affinity_miner.ingest import load_interactions, load_profiles, open_input
from affinity_miner.synth import generate_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402

STAGE_FILES = [
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
    "report.txt",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    paths = generate_dataset(out, seed=11, users_per_type=10)
    return paths


def config_for(dataset, out_dir, **extra):
    overrides = {
        "interactions": str(dataset["interactions"]),
        "profiles": str(dataset["profiles"]),
        "embeddings": str(dataset["embeddings"]),
        "lexicon": str(dataset["lexicon"]),
        "out": str(out_dir),
        "seed": "11",
    }
    overrides.update({k: str(v) for k, v in extra.items()})
    return resolve_config({}, overrides)


def input_args(dataset):
    """--set flags naming the four input files."""
    keys = ("interactions", "profiles", "embeddings", "lexicon")
    return [f"--set={key}={dataset[key]}" for key in keys]


FLOAT_KEYS = [f.name for f in dataclasses.fields(PipelineConfig) if type(f.default) is float]


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config({}, {})
        assert cfg.alpha == 1.0 and cfg.method == "mcl" and cfg.folds == 10

    def test_file_values(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\nalpha = 2.5\nmethod = k-destinations\n")
        cfg = resolve_config(parse_config_file(path), {})
        assert cfg.alpha == 2.5 and cfg.method == "k-destinations"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match=r"^line 1: unknown config key 'bogus'$"):
            parse_config_file(path)

    def test_repeated_key_rejected_at_its_second_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha = 2.5\n# alpha = 9\n\nkappa = 3\nalpha = 4.0\n")
        with pytest.raises(ConfigError, match=r"^line 5: repeated config key 'alpha'$"):
            parse_config_file(path)

    def test_repeated_key_exits_one_and_overrides_still_apply(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("seed = 1\nseed = 2\n")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 2: repeated config key 'seed'\n"
        path.write_text("seed = 1\n")
        assert resolve_config(parse_config_file(path), {"seed": "3"}).seed == 3

    def test_bad_file_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("# c\nalpha = abc\n")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 2: bad value for alpha: 'abc'\n"

    def test_environment_is_not_a_source(self, monkeypatch):
        for key, value in [("KAPPA", "9"), ("SEED", "3"), ("CLASSIFIER", "lr")]:
            monkeypatch.setenv(f"AFFINITY_MINER_{key}", value)
        assert resolve_config({}, {}) == PipelineConfig()

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_seed_flag_is_a_usage_error(self, command, capsys):
        # --set seed=N is the one spelling; synth's --seed is its own argument
        with pytest.raises(SystemExit) as info:
            main([command, "--seed", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_range_validation(self):
        with pytest.raises(ConfigError, match=r"^config key tau must be in \(0, 1\)$"):
            resolve_config({}, {"tau": "1.5"})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            resolve_config({}, {"folds": "many"})

    def test_library_gives_no_tuning_parameter_a_default(self):
        # (function, parameter) pairs whose value a config key, or an option
        # of the synth subcommand, sets: that key or option holds the one default
        backing = {
            "alpha": [(affinity.score_sequences, "alpha"), (affinity.estimate_chains, "alpha")],
            "kappa": [(affinity.score_sequences, "kappa")],
            "expansion": [(cluster.mcl, "e"), (cluster.mcl_flow, "e")],
            "inflation": [(cluster.mcl, "r"), (cluster.mcl_flow, "r")],
            "prune": [(cluster.mcl, "prune"), (cluster.mcl_flow, "prune")],
            "tau": [(cluster.k_destinations, "tau"), (cluster.hitting_times, "tau"),
                    (cluster.random_walk_matrix, "tau")],
            "top_n": [(lexfeat.emotion_correlation_table, "n")],
            "lam": [(lexfeat.emotion_correlation_table, "lam"), (lexfeat.fit_elastic_net, "lam")],
            "mix": [(lexfeat.emotion_correlation_table, "mix"), (lexfeat.fit_elastic_net, "mix")],
            "classifier": [(classify.cross_validate, "classifier")],
            "folds": [(classify.cross_validate, "folds")],
            "seed": [(classify.cross_validate, "seed")],
            "ridge": [(classify.cross_validate, "ridge"), (classify.train_lr, "ridge")],
            "synth --seed": [(generate_dataset, "seed")],
            "synth --users-per-type": [(generate_dataset, "users_per_type")],
        }
        keys = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert {key for key in backing if not key.startswith("synth ")} <= keys
        defaulted = [
            (key, f.__name__, name)
            for key, uses in backing.items()
            for f, name in uses
            if inspect.signature(f).parameters[name].default is not inspect.Parameter.empty
        ]
        assert defaulted == []

    def test_smoothing_range_is_closed(self):
        cfg = resolve_config({}, {"alpha": "1e-6", "kappa": "1e6"})
        assert (cfg.alpha, cfg.kappa) == (1e-6, 1e6)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, tmp_path, key):
        path = tmp_path / "c.txt"
        path.write_text(f"{key} = inf\n")
        with pytest.raises(ConfigError, match=f"^line 1: config key {key} must be finite"):
            parse_config_file(path)
        with pytest.raises(ConfigError, match=f"^config key {key} must be finite"):
            resolve_config({}, {key: "nan"})


class TestRunPipeline:
    def test_exit_zero_and_all_outputs(self, dataset, tmp_path):
        cfg = config_for(dataset, tmp_path / "results")
        assert run_pipeline(cfg) == 0
        for name in STAGE_FILES:
            assert (tmp_path / "results" / name).is_file(), name

    def test_missing_interactions_exit_one(self, dataset, tmp_path, capsys):
        cfg = config_for(dataset, tmp_path / "r", interactions="/does/not/exist")
        assert run_pipeline(cfg) == 1
        assert "interactions" in capsys.readouterr().err

    def test_byte_identical_reruns(self, dataset, tmp_path):
        out = tmp_path / "results"
        cfg = config_for(dataset, out)
        assert run_pipeline(cfg) == 0
        first = {name: (out / name).read_bytes() for name in STAGE_FILES}
        assert run_pipeline(cfg) == 0
        for name in STAGE_FILES:
            assert (out / name).read_bytes() == first[name], name

    def test_stage_isolation_on_late_failure(self, dataset, tmp_path):
        bad_lexicon = tmp_path / "bad_lexicon.tsv"
        bad_lexicon.write_text("posemo\tha*p\n")
        # the lexicon fails as lexcorr loads it; at threshold 0.99 the graph
        # has no edge, so type_pairs.tsv fails after graph.tsv and graph.dot
        cases = [("lexcorr", {"lexicon": bad_lexicon}), ("graph", {"threshold": 0.99})]
        for failing, extra in cases:
            out = tmp_path / failing
            assert run_pipeline(config_for(dataset, out, **extra)) == 1
            stages = cli_module.RUN_STAGES[: cli_module.RUN_STAGES.index(failing)]
            done = [name for stage in stages for name, _ in cli_module.STAGES[stage]]
            assert sorted(p.name for p in out.iterdir()) == sorted(done), failing

    def test_k_destinations_method(self, dataset, tmp_path):
        out = tmp_path / "results"
        cfg = config_for(dataset, out, method="k-destinations", k=4)
        assert run_pipeline(cfg) == 0
        header = (out / "clustering.tsv").read_text().splitlines()[0]
        assert header == "# method=k-destinations"


def test_graph_stage_caches_no_dict_keyed_by_id_pairs(dataset, tmp_path):
    runner = cli_module.PipelineRunner(config_for(dataset, tmp_path))
    for stage in ("ingest", "affinity", "graph"):
        runner.write_stage(stage)
    assert not hasattr(cli_module.PipelineRunner, "sequences")
    cached = vars(runner)
    assert {"interactions", "scores", "affinity_graph", "type_pairs"} <= set(cached)
    # the cached values, the fields of `interactions`, and their attributes
    values = [*cached.values(), *cached["interactions"]]
    values += [v for value in values for v in getattr(value, "__dict__", {}).values()]
    for value in values:
        if isinstance(value, dict):
            assert not any(
                isinstance(k, tuple) and len(k) == 2 and all(isinstance(x, str) for x in k)
                for k in value
            )
    g = runner.affinity_graph
    assert set(vars(g)) == {"order", "node_types", "edge_arrays"}


def test_graph_stage_holds_no_event_column(dataset, tmp_path, monkeypatch):
    tables = []

    def load(fh):
        tables.append(load_interactions(fh))
        return tables[-1]

    monkeypatch.setattr(cli_module, "load_interactions", load)
    cfg = config_for(dataset, tmp_path)
    runner = cli_module.PipelineRunner(cfg)
    runner.write_stage("ingest")
    (table,) = tables
    columns = [weakref.ref(c) for c in (table.source, table.target, table.timestamp, table.sentiment)]
    n_events = len(table)
    del table, tables[:]
    gc.collect()
    assert all(ref() is None for ref in columns)
    for stage in cli_module.RUN_STAGES[1:]:
        runner.write_stage(stage)
    staged = (tmp_path / "report.txt").read_text()
    assert f"\n[ingest]\nevents = {n_events}\n" in staged
    # the same report from a runner that writes only the report
    cli_module.PipelineRunner(cfg).write_stage("report")
    assert (tmp_path / "report.txt").read_text() == staged


@pytest.fixture(scope="module")
def run_outputs(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", *input_args(dataset), "--set", "seed=11", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("stage", list(cli_module.STAGES))
def test_stage_subcommand_alone_writes_the_run_bytes(dataset, run_outputs, tmp_path, stage):
    assert main([stage, *input_args(dataset), "--set", "seed=11", "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(name for name, _ in cli_module.STAGES[stage])
    for name in written:
        got, want = (tmp_path / name).read_bytes(), (run_outputs / name).read_bytes()
        if name == "report.txt":
            # [config] names the output directory
            got, want = (harness.report_without_config(x.decode()) for x in (got, want))
        assert got == want, name


class TestMainEntry:
    def test_synth_then_run(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "3",
                     "--users-per-type", "10"]) == 0
        assert main(["run", "--config", str(tmp_path / "config.txt")]) == 0
        assert (tmp_path / "results" / "report.txt").is_file()

    def test_synth_config_runs_from_the_dataset_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "demo", "--seed", "3",
                     "--users-per-type", "10"]) == 0
        monkeypatch.chdir(tmp_path / "demo")
        assert main(["run", "--config", "config.txt"]) == 0
        assert (tmp_path / "demo" / "results" / "report.txt").is_file()

    def test_synth_without_users_exits_one(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert main(["synth", "--out", str(out), "--users-per-type", "0"]) == 1
        assert "users_per_type" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "negative"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_negative_seed_exits_one_before_any_stage(self, dataset, tmp_path, capsys):
        out = tmp_path / "results"
        args = ["--config", str(dataset["config"]), "--set", "seed=-1", "--out", str(out)]
        assert main(["run", *args]) == 1
        err = capsys.readouterr().err
        assert "config key seed must be >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ingest", "report"])
    @pytest.mark.parametrize("below, reason", [(False, "File exists"), (True, "Not a directory")])
    def test_unusable_out_exits_one(self, dataset, tmp_path, capsys, command, below, reason):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / "sub" if below else taken
        assert main([command, "--config", str(dataset["config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key out: cannot create directory {str(out)!r}: {reason}\n"
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_directory_as_output_file_exits_one(self, dataset, tmp_path, capsys, command):
        # a directory where ingest.txt goes: the write fails even for root
        out = tmp_path / "o"
        target = out / "ingest.txt"
        target.mkdir(parents=True)
        assert main([command, "--config", str(dataset["config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key out: cannot write {str(target)!r}: Is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == ["ingest.txt"]
        assert target.is_dir() and not any(target.iterdir())

    @pytest.mark.parametrize("below, reason", [(False, "File exists"), (True, "Not a directory")])
    def test_synth_unusable_out_exits_one(self, tmp_path, capsys, below, reason):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / "sub" if below else taken
        assert main(["synth", "--out", str(out), "--users-per-type", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key out: cannot create directory {str(out)!r}: {reason}\n"
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("name", ["interactions.jsonl", "config.txt"])
    def test_synth_unwritable_file_exits_one(self, tmp_path, monkeypatch, capsys, name):
        # named as given: relative here, not resolved
        monkeypatch.chdir(tmp_path)
        Path("d", name).mkdir(parents=True)
        assert main(["synth", "--out", "d", "--users-per-type", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key out: cannot write 'd/{name}': Is a directory\n"

    def test_unusable_out_is_one_error_for_synth_and_stages(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        # named as given: relative here, not resolved
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("keep\n")
        config = ["--config", str(dataset["config"])]
        errors = []
        for args in (["synth"], ["ingest", *config], ["run", *config]):
            assert main([*args, "--out", "taken"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == ["error: config key out: cannot create directory 'taken': File exists\n"] * 3

    def test_empty_out_is_required_and_writes_nothing(self, dataset, tmp_path, monkeypatch, capsys):
        # --out "$OUT" with OUT unset must not write into the working directory
        blank = tmp_path / "config.txt"
        lines = dataset["config"].read_text().splitlines(keepends=True)
        blank.write_text("".join("out =\n" if line.startswith("out =") else line for line in lines))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        config = ["--config", str(dataset["config"])]
        cases = [["synth", "--out", ""]]
        for command in ("ingest", "run"):
            cases += [
                [command, *config, "--out", ""],
                [command, *config, "--set", "out="],
                [command, "--config", str(blank)],
            ]
        for args in cases:
            assert main(args) == 1, args
            assert capsys.readouterr().err == "error: config key out is required\n", args
        assert list(cwd.iterdir()) == []

    def test_single_stage_subcommand(self, dataset, tmp_path):
        out = tmp_path / "stage_out"
        code = main([
            "graph",
            "--set", f"interactions={dataset['interactions']}",
            "--set", f"profiles={dataset['profiles']}",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "graph.tsv").is_file()
        assert not (out / "clustering.tsv").exists()

    @pytest.mark.parametrize(
        "stage, setting, error",
        [
            pytest.param("graph", "threshold=0.99",
                         "error: type-pair percentages need at least one edge",
                         id="graph-threshold=0.99"),
            pytest.param("lexcorr", "pos_category=nope",
                         "error: config key pos_category: 'nope' is not a lexicon category; "
                         "the lexicon has: negemo, posemo",
                         id="lexcorr-pos_category=nope"),
            pytest.param("classify", "folds=100",
                         "error: fewer than 2 types have at least 100 documents",
                         id="classify-folds=100"),
        ],
    )
    def test_failing_stage_writes_nothing(self, dataset, tmp_path, capsys, stage, setting, error):
        # graph fails on type_pairs.tsv after rendering graph.tsv and graph.dot
        out = tmp_path / "failed"
        args = ["--config", str(dataset["config"]), "--out", str(out), "--set", setting]
        assert main([stage, *args]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [error]
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nope/missing.txt"]) == 1

    def test_bad_set_syntax(self):
        assert main(["run", "--set", "novalue"]) == 1

    def test_unknown_set_key_exits_one(self, capsys):
        assert main(["run", "--set", "bogus=1"]) == 1
        assert capsys.readouterr().err == "error: unknown config key 'bogus'\n"

    def test_top_n_below_two_exits_one_before_any_stage(self, dataset, tmp_path, capsys):
        # with top_n = 1 two types that share their top token leave Pearson one point
        out = tmp_path / "results"
        args = ["--config", str(dataset["config"]), "--out", str(out), "--set", "top_n=1"]
        assert main(["lexcorr", *args]) == 1
        assert capsys.readouterr().err == "error: config key top_n must be >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, key",
        [("ingest", "interactions"), ("ingest", "profiles"),
         ("semsim", "embeddings"), ("lexcorr", "lexicon")],
    )
    def test_empty_input_key_exits_one(self, dataset, tmp_path, capsys, stage, key):
        out = tmp_path / "results"
        args = ["--config", str(dataset["config"]), "--out", str(out), "--set", f"{key}="]
        assert main([stage, *args]) == 1
        assert capsys.readouterr().err == f"error: config key {key} is required\n"

    def test_internal_error_exits_two_with_traceback(self, dataset, tmp_path, capsys, monkeypatch):
        def broken(stream):
            raise RuntimeError("loader bug")

        monkeypatch.setattr(cli_module, "load_interactions", broken)
        args = ["--config", str(dataset["config"]), "--out", str(tmp_path / "results")]
        assert main(["ingest", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: loader bug\n")

    def test_report_subcommand(self, dataset, tmp_path):
        out = tmp_path / "rep_out"
        code = main([
            "report",
            "--set", f"interactions={dataset['interactions']}",
            "--set", f"profiles={dataset['profiles']}",
            "--set", f"embeddings={dataset['embeddings']}",
            "--set", f"lexicon={dataset['lexicon']}",
            "--set", "seed=11",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "report.txt").is_file()
        assert not (out / "graph.tsv").exists()

    def test_config_echo_in_report(self, dataset, tmp_path):
        out = tmp_path / "echo_out"
        cfg = config_for(dataset, out)
        assert run_pipeline(cfg) == 0
        text = (out / "report.txt").read_text()
        assert "[config]" in text
        assert "seed = 11" in text


class TestNonUtf8Input:
    """A byte that is not UTF-8 rejects its line, not the whole run."""

    @staticmethod
    def corrupt_copy(src, dst, every=None):
        """Copy src, then either append one 0xff byte (every=None) or put
        one into every `every`-th line; returns the first corrupted line."""
        lines = src.read_bytes().splitlines(keepends=True)
        if every is None:
            dst.write_bytes(b"".join(lines) + b"\xff")
            return len(lines) + 1
        for i in range(every - 1, len(lines), every):
            lines[i] = b"\xff" + lines[i]
        dst.write_bytes(b"".join(lines))
        return every

    @pytest.mark.parametrize("key", ["interactions", "profiles"])
    def test_under_limit_run_proceeds(self, dataset, tmp_path, caplog, key):
        bad = tmp_path / dataset[key].name
        lineno = self.corrupt_copy(dataset[key], bad)
        cfg = config_for(dataset, tmp_path / "results", **{key: str(bad)})
        assert run_pipeline(cfg) == 0
        assert f"line {lineno} rejected: not valid UTF-8" in caplog.text
        assert (tmp_path / "results" / "report.txt").is_file()

    @pytest.mark.parametrize("key", ["interactions", "profiles"])
    def test_over_limit_exits_one(self, dataset, tmp_path, capsys, key):
        bad = tmp_path / dataset[key].name
        # every 5th line: 20% of rows, with the profiles header (line 1) intact
        lineno = self.corrupt_copy(dataset[key], bad, every=5)
        out = tmp_path / "results"
        code = main([
            "run",
            *(f"--set={k}={dataset[k]}" for k in
              ("interactions", "profiles", "embeddings", "lexicon") if k != key),
            f"--set={key}={bad}",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"(first: line {lineno}: not valid UTF-8" in err
        assert "Traceback" not in err
        assert not (out / "ingest.txt").exists()


def loaded(key, path):
    """What the pipeline reads from the `key` file at `path`, in a form
    that compares with ==."""
    if key == "config":
        return parse_config_file(path)
    loader = {
        "interactions": load_interactions,
        "profiles": load_profiles,
        "embeddings": semsim.load_embeddings,
        "lexicon": lexfeat.load_lexicon,
    }[key]
    with open_input(path) as fh:
        value = loader(fh)
    if key == "interactions":
        columns = (value.source, value.target, value.timestamp, value.sentiment)
        return value.users, value.documents, [c.tolist() for c in columns]
    if key == "embeddings":
        return value.dimension, {t: v.tolist() for t, v in value.vectors.items()}
    return value


@pytest.mark.parametrize("key", ["config", "interactions", "profiles", "embeddings", "lexicon"])
def test_leading_byte_order_mark_is_ignored(dataset, tmp_path, key):
    bom = tmp_path / dataset[key].name
    bom.write_bytes(b"\xef\xbb\xbf" + dataset[key].read_bytes())
    assert loaded(key, bom) == loaded(key, dataset[key])


class TestEscapedSurrogate:
    """A JSON escape that decodes to a lone surrogate rejects its line."""

    @staticmethod
    def escape_copy(src, dst, field, linenos):
        """Copy src with `field` of each listed line set to the escape \\udcff."""
        lines = src.read_text(encoding="utf-8").splitlines()
        for lineno in linenos:
            record = json.loads(lines[lineno - 1])
            record[field] = "\udcff"
            lines[lineno - 1] = json.dumps(record)
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def affinity_stage(dataset, interactions, out):
        return main([
            "affinity",
            *(f"--set={k}={dataset[k]}" for k in ("profiles", "embeddings", "lexicon")),
            f"--set=interactions={interactions}",
            "--out", str(out),
        ])

    @pytest.mark.parametrize("field", ["source", "target", "text"])
    def test_under_limit_lines_rejected(self, dataset, tmp_path, caplog, field):
        bad = tmp_path / "interactions.jsonl"
        linenos = [7, 14, 21, 28, 35]
        self.escape_copy(dataset["interactions"], bad, field, linenos)
        out = tmp_path / "results"
        assert self.affinity_stage(dataset, bad, out) == 0
        for lineno in linenos:
            assert f"line {lineno} rejected: {field}: not valid UTF-8" in caplog.text
        assert (out / "scores.tsv").is_file()

    @pytest.mark.parametrize("field", ["source", "target", "text"])
    def test_over_limit_exits_one(self, dataset, tmp_path, capsys, field):
        bad = tmp_path / "interactions.jsonl"
        n = len(dataset["interactions"].read_text(encoding="utf-8").splitlines())
        self.escape_copy(dataset["interactions"], bad, field, range(5, n + 1, 5))
        out = tmp_path / "results"
        assert self.affinity_stage(dataset, bad, out) == 1
        err = capsys.readouterr().err
        assert f"(first: line 5: {field}: not valid UTF-8" in err
        assert "Traceback" not in err
        assert not (out / "scores.tsv").exists()


class TestAtomicWrites:
    def test_success_leaves_only_the_target(self, tmp_path):
        target = tmp_path / "report.txt"
        _write_atomic(target, "first\n")
        _write_atomic(target, "second\n")
        _write_atomic_bytes(tmp_path / "graph.tsv", b"a\tb\n")
        assert target.read_text() == "second\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.tsv", "report.txt"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failure_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch, step):
        target = tmp_path / "report.txt"
        _write_atomic(target, "old\n")

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module.os, step, fail)
        with pytest.raises(OSError, match="disk full"):
            _write_atomic(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_mode_follows_umask(self, tmp_path):
        target = tmp_path / "report.txt"
        old = os.umask(0o027)
        try:
            _write_atomic(target, "x\n")
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == 0o640


class UnreadableStream(io.StringIO):
    """An open file whose every read fails as a disk error does."""

    def _fail(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    __next__ = read = readline = readlines = _fail


class TestUnreadableInputExitsOne:
    """A file that exists but cannot be opened or read exits 1 with one
    line naming its config key, not 2 with a traceback."""

    FAILURES = {
        "open": os.strerror(errno.EACCES),
        "read": os.strerror(errno.EIO),
        "missing": os.strerror(errno.ENOENT),
        "directory": os.strerror(errno.EISDIR),
    }

    @staticmethod
    def fail_on(monkeypatch, tmp_path, path, failure):
        """The path to name for `failure`: a real missing file or
        directory, or `path` with opening or reading it made to fail."""
        if failure == "missing":
            return tmp_path / "missing"
        if failure == "directory":
            (tmp_path / "directory").mkdir()
            return tmp_path / "directory"
        real = cli_module.open_input

        def open_input(opened):
            if str(opened) != str(path):
                return real(opened)
            if failure == "open":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(opened))
            return UnreadableStream()

        monkeypatch.setattr(cli_module, "open_input", open_input)
        return path

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    @pytest.mark.parametrize(
        "key, stage",
        [("interactions", "ingest"), ("profiles", "ingest"),
         ("embeddings", "semsim"), ("lexicon", "lexcorr")],
    )
    def test_input_file(self, dataset, tmp_path, capsys, monkeypatch, key, stage, failure):
        bad = self.fail_on(monkeypatch, tmp_path, dataset[key], failure)
        out = tmp_path / "out"
        assert main([stage, *input_args(dataset), f"--set={key}={bad}", "--out", str(out)]) == 1
        reason = self.FAILURES[failure]
        assert capsys.readouterr().err == f"error: config key {key}: cannot read {bad}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_config_file(self, tmp_path, capsys, monkeypatch, failure):
        path = tmp_path / "config.txt"
        path.write_text("seed = 1\n", encoding="utf-8")
        bad = self.fail_on(monkeypatch, tmp_path, path, failure)
        assert main(["ingest", "--config", str(bad)]) == 1
        want = f"error: config key config: cannot read {bad}: {self.FAILURES[failure]}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads a mode-000 file anyway")
    def test_input_file_without_read_permission(self, dataset, tmp_path, capsys):
        # the "open" case above with a real mode-000 file, not a patched open
        locked = tmp_path / "interactions.jsonl"
        locked.write_bytes(dataset["interactions"].read_bytes())
        locked.chmod(0)
        out = tmp_path / "out"
        args = [*input_args(dataset), f"--set=interactions={locked}", "--out", str(out)]
        assert main(["ingest", *args]) == 1
        want = f"error: config key interactions: cannot read {locked}: {self.FAILURES['open']}\n"
        assert capsys.readouterr().err == want
        assert not out.exists()


def test_console_process_exit_codes(dataset, tmp_path):
    # a real process: argparse's usage error exits 2, a config error 1, and
    # neither writes into the working directory
    def pipeline(*args):
        return subprocess.run(harness.PIPELINE + list(args), cwd=tmp_path,
                              env=harness.child_env(), capture_output=True, text=True)

    usage = pipeline("run", "--seed", "3")
    assert usage.returncode == 2
    assert "unrecognized arguments: --seed 3" in usage.stderr
    empty_out = pipeline("ingest", "--config", str(dataset["config"]), "--out", "")
    assert (empty_out.returncode, empty_out.stderr) == (1, "error: config key out is required\n")
    assert list(tmp_path.iterdir()) == []


class TestBadInputsExitOne:
    """Bad bytes or names in the other inputs exit 1 naming the line or key."""

    @staticmethod
    def stage_args(dataset, out, *keys, **files):
        """Input overrides for `keys`, with `files` replacing some of them."""
        paths = {k: dataset[k] for k in keys} | files
        return [*(f"--set={k}={v}" for k, v in paths.items()), "--out", str(out)]

    @pytest.mark.parametrize("key, stage", [("lexicon", "lexcorr"), ("embeddings", "semsim")])
    def test_non_utf8_line(self, dataset, tmp_path, capsys, key, stage):
        lines = dataset[key].read_bytes().splitlines(keepends=True)
        lines[2] = b"\xe9" + lines[2]
        bad = tmp_path / dataset[key].name
        bad.write_bytes(b"".join(lines))
        args = self.stage_args(dataset, tmp_path / "results",
                               "interactions", "profiles", key, **{key: bad})
        assert main([stage, *args]) == 1
        err = capsys.readouterr().err
        assert "line 3: not valid UTF-8" in err
        assert "Traceback" not in err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2: not valid UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("blank", ["\xa0", "\x0c", "\u3000"])
    def test_whitespace_config_line_is_not_blank(self, tmp_path, capsys, blank):
        # a blank line holds nothing but spaces and tabs
        path = tmp_path / "config.txt"
        path.write_text(f"seed = 1\n \t\n{blank}\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3: expected key = value" in err
        assert "Traceback" not in err

    def test_whitespace_embedding_line_exits_one(self, dataset, tmp_path, capsys):
        lines = dataset["embeddings"].read_text().splitlines(keepends=True)
        lines.insert(2, "\x0c\n")
        bad = tmp_path / "embeddings.txt"
        bad.write_text("".join(lines))
        args = self.stage_args(dataset, tmp_path / "results",
                               "interactions", "profiles", embeddings=bad)
        assert main(["semsim", *args]) == 1
        err = capsys.readouterr().err
        assert "line 3: only whitespace, no token" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["\x0c", '{"source": "a", "target": "b", '
                                      '"timestamp": 9223372036854775808, "sentiment": "POS"}'])
    def test_interactions_line_rejected_not_crashed(self, dataset, tmp_path, caplog, line):
        lines = dataset["interactions"].read_text().splitlines(keepends=True)
        lines.insert(4, line + "\n")
        bad = tmp_path / "interactions.jsonl"
        bad.write_text("".join(lines))
        out = tmp_path / "results"
        args = self.stage_args(dataset, out, "profiles", interactions=bad)
        assert main(["ingest", *args]) == 0
        assert "interactions line 5 rejected: " in caplog.text
        assert (out / "ingest.txt").read_text().startswith(f"events = {len(lines) - 1}\n")

    @pytest.mark.parametrize("key", ["alpha", "kappa"])
    @pytest.mark.parametrize("value", ["1e-20", "1.45e308"])
    def test_smoothing_out_of_range(self, dataset, tmp_path, capsys, key, value):
        # 1e-20 scores a POS-only pair exactly 1.0; 1.45e308 overflows 3 alpha
        out = tmp_path / "results"
        args = self.stage_args(dataset, out, "interactions", "profiles")
        assert main(["affinity", *args, "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"config key {key} must be in [1e-6, 1e6]" in err
        assert "Traceback" not in err
        assert not (out / "scores.tsv").exists()

    @pytest.mark.parametrize("key", ["ridge", "inflation", "prune", "lam"])
    def test_infinite_float_exits_one(self, capsys, key):
        assert main(["run", "--set", f"{key}=inf"]) == 1
        err = capsys.readouterr().err
        assert f"config key {key} must be finite, got 'inf'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1", "1.5"])
    def test_prune_of_one_or_more_exits_one(self, capsys, value):
        assert main(["run", "--set", f"prune={value}"]) == 1
        err = capsys.readouterr().err
        assert "config key prune must be in (0, 1)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["pos_category", "neg_category"])
    def test_unknown_category_rejected_before_fitting(
        self, dataset, tmp_path, capsys, monkeypatch, key
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("elastic net fitted before the category check")

        monkeypatch.setattr(cli_module.lexfeat, "fit_elastic_net", no_fit)
        args = self.stage_args(dataset, tmp_path, "interactions", "profiles", "lexicon")
        assert main(["lexcorr", *args, "--set", f"{key}=nosuch"]) == 1
        err = capsys.readouterr().err
        assert f"config key {key}: 'nosuch' is not a lexicon category" in err
        assert "the lexicon has: negemo, posemo" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_embedding_component(self, dataset, tmp_path, capsys, value):
        lines = dataset["embeddings"].read_text().splitlines(keepends=True)
        token, *components = lines[4].split()
        lines[4] = " ".join([token, value, *components[1:]]) + "\n"
        bad = tmp_path / "embeddings.txt"
        bad.write_text("".join(lines))
        out = tmp_path / "results"
        args = self.stage_args(dataset, out, "interactions", "profiles", embeddings=bad)
        assert main(["semsim", *args]) == 1
        err = capsys.readouterr().err
        assert "line 5: components must be finite" in err
        assert "Traceback" not in err
        assert not (out / "semsim.tsv").exists()

    def test_lexicon_pattern_that_cannot_match(self, dataset, tmp_path, capsys):
        lines = dataset["lexicon"].read_text().splitlines(keepends=True)
        lines[3] = "negemo\tself-*\n"
        bad = tmp_path / "lexicon.tsv"
        bad.write_text("".join(lines))
        args = self.stage_args(dataset, tmp_path / "results",
                               "interactions", "profiles", lexicon=bad)
        assert main(["lexcorr", *args]) == 1
        err = capsys.readouterr().err
        assert "line 4: 'self-*' is not one token and can never match" in err
        assert "Traceback" not in err

    def test_lexcorr_names_a_type_without_users(self, dataset, tmp_path, capsys):
        lines = dataset["profiles"].read_text().splitlines(keepends=True)
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text("".join(line for line in lines if "\tENFJ\t" not in line))
        args = self.stage_args(dataset, tmp_path / "results",
                               "interactions", "lexicon", profiles=profiles)
        assert main(["lexcorr", *args]) == 1
        err = capsys.readouterr().err
        assert "error: ENFJ: need at least 2 documents, got 0" in err
        assert "Traceback" not in err

    def test_deeply_nested_json_line_rejected(self, dataset, tmp_path, caplog):
        lines = dataset["interactions"].read_bytes().splitlines(keepends=True)
        bad = tmp_path / "interactions.jsonl"
        bad.write_bytes(b"".join(lines) + b"[" * 100_000 + b"\n")
        out = tmp_path / "results"
        args = self.stage_args(dataset, out, "profiles", interactions=bad)
        assert main(["ingest", *args]) == 0
        assert f"line {len(lines) + 1} rejected: invalid JSON: nested too deeply" in caplog.text
        assert (out / "ingest.txt").read_text().startswith(f"events = {len(lines)}\n")


def test_lexicon_category_named_first_person_pronoun_loads(dataset, tmp_path, capsys):
    # the features are the lexicon's categories, so no category name is reserved
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(dataset["lexicon"].read_text() + "first_person_pronoun\ti\n")
    out = tmp_path / "results"
    inputs = [f"--set={key}={dataset[key]}" for key in ("interactions", "profiles")]
    assert main(["lexcorr", *inputs, f"--set=lexicon={lexicon}",
                 "--set=neg_category=first_person_pronoun", "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == ["lexcorr_neg.tsv", "lexcorr_pos.tsv"]


def nan_cells(path):
    """The (row, column) names of a lower-triangular table's nan cells."""
    header, *rows = (line.split("\t") for line in path.read_text().splitlines())
    return {(row[0], header[j]) for row in rows for j, cell in enumerate(row) if cell == "nan"}


def lower_cells_with(path, names):
    """The lower-triangular cells of a table whose row or column is in `names`."""
    header = path.read_text().splitlines()[0].split("\t")[1:]
    return {(r, c) for i, r in enumerate(header) for c in header[:i] if names & {r, c}}


def test_lexcorr_type_without_selected_words_prints_nan(dataset, tmp_path, caplog):
    # at lam = 0.05 some types' elastic nets select no word: their
    # correlations are undefined, and the stage still writes both tables
    out = tmp_path / "results"
    args = ["--config", str(dataset["config"]), "--set", "lam=0.05", "--out", str(out)]
    assert main(["lexcorr", *args]) == 0
    for category, name in (("posemo", "lexcorr_pos.tsv"), ("negemo", "lexcorr_neg.tsv")):
        suffix = f": every top-1000 {category!r} weight is zero at lam=0.05, so its correlations are nan"
        empty = {m.removesuffix(suffix) for m in caplog.messages if m.endswith(suffix)}
        assert nan_cells(out / name) == lower_cells_with(out / name, empty), category
    assert nan_cells(out / "lexcorr_neg.tsv")


def test_semsim_type_without_vocabulary_prints_nan(dataset, tmp_path, caplog):
    # every ENFJ user's texts replaced by a token the embeddings lack
    enfj = {line.split("\t")[0] for line in dataset["profiles"].read_text().splitlines()
            if "\tENFJ\t" in line}
    records = [json.loads(line) for line in dataset["interactions"].read_text().splitlines()]
    interactions = tmp_path / "interactions.jsonl"
    interactions.write_text("".join(
        json.dumps({**r, "text": "zzunknown"} if r["source"] in enfj else r) + "\n"
        for r in records
    ))
    out = tmp_path / "results"
    args = ["--config", str(dataset["config"]), f"--set=interactions={interactions}"]
    assert main(["semsim", *args, "--out", str(out)]) == 0
    assert caplog.messages.count(
        "ENFJ: corpus has no in-vocabulary tokens, so its similarities are nan"
    ) == 1
    table = out / "semsim.tsv"
    assert nan_cells(table) == lower_cells_with(table, {"ENFJ"})


def test_lexicon_category_matches_in_any_case(dataset, tmp_path):
    # load_lexicon lowercases the names, so the file's PosEmo loads as posemo
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(dataset["lexicon"].read_text().replace("posemo\t", "PosEmo\t"))
    inputs = [f"--set={key}={dataset[key]}" for key in ("interactions", "profiles")]
    tables = []
    for name in ("PosEmo", "posemo"):
        out = tmp_path / name
        assert main(["lexcorr", *inputs, f"--set=lexicon={lexicon}",
                     f"--set=pos_category={name}", "--out", str(out)]) == 0
        tables.append((out / "lexcorr_pos.tsv").read_bytes())
    assert tables[0] == tables[1]


def fresh_python(code: str) -> str:
    """Stripped stdout of `code` run in a new interpreter on this source tree."""
    src = Path(cli_module.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_import_does_not_touch_the_umask():
    # umask is process-wide: changing it even briefly races other threads
    code = (
        "import os\n"
        "calls = []\n"
        "umask = os.umask\n"
        "os.umask = lambda mask: calls.append(mask) or umask(mask)\n"
        "import affinity_miner.cli\n"
        "print(calls)\n"
    )
    assert fresh_python(code) == "[]"


@pytest.mark.parametrize(
    "module, method",
    [
        pytest.param("scipy.optimize", None, id="scipy.optimize"),
        pytest.param("scipy.linalg", None, id="scipy.linalg"),
        pytest.param("scipy.linalg", "k-destinations", id="scipy.linalg-k-destinations-run"),
    ],
)
def test_import_leaves_scipy_module_unloaded(module, method, dataset, tmp_path):
    # nothing in the package uses scipy.optimize, the slowest scipy import,
    # or scipy.linalg, whose import loads scipy's own BLAS (about 8 MB of
    # RSS): hitting_times inverts with numpy alone, so not even a
    # k-destinations run loads it; this keeps either from coming back
    code = "import sys, affinity_miner.cli\n"
    if method:
        argv = ["run", *input_args(dataset), f"--set=method={method}", "--out", str(tmp_path)]
        code += f"print(affinity_miner.cli.main({argv!r}))\n"
    code += f"print({module!r} in sys.modules)"
    assert fresh_python(code).split() == (["0"] if method else []) + ["False"]


@pytest.mark.parametrize(
    "statement, prefix",
    [
        # the package itself loads none of its modules
        ("import affinity_miner", "affinity_miner."),
        # what a benchmark process imports to generate its inputs
        ("import affinity_miner.synth", "scipy"),
        ("import affinity_miner.synth", "affinity_miner.graph"),
    ],
)
def test_import_loads_only_what_it_names(statement, prefix):
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    assert fresh_python(code) == "[]"


def names_used(path: Path) -> set[str]:
    """Every name, attribute and import alias in a Python file, plus, in
    trace_run.py, the strings of its PROBES table."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
        elif isinstance(node, ast.Assign) and path.name == "trace_run.py" and any(
            isinstance(target, ast.Name) and target.id == "PROBES" for target in node.targets
        ):
            names.update(
                leaf.value for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            )
    return names


def test_every_package_definition_is_named_by_the_program():
    # a definition only tests call belongs in tests/oracles.py, not the package
    package = Path(cli_module.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    modules = sorted(package.glob("*.py"))
    used = set().union(*map(names_used, modules), *map(names_used, perfbench.rglob("*.py")))
    unnamed = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    # the one exception: cli.run_pipeline is the in-process form of `run`,
    # which only tests call by name
    assert unnamed == ["cli.run_pipeline"]
