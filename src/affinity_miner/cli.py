"""Pipeline orchestration and command-line entry point.

Subcommands run individual stages (ingest, affinity, graph, cluster,
influence, semsim, lexcorr, classify), generate synthetic inputs (synth),
write the aggregated report (report) or everything at once (run).

Configuration is a flat key = value text file; every key can be overridden
by --set key=value, and out also by --out. Unknown keys are rejected. A
stage renders all of its outputs before it creates the output directory and
writes each file atomically, so a failing stage writes nothing and never
corrupts the outputs of stages that already completed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import traceback
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from . import affinity, classify, cluster, graph, influence, lexfeat, semsim, synth
from .errors import AffinityMinerError, ConfigError
from .ingest import (
    ALL_TYPES,
    MbtiType,
    UserProfile,
    cannot_write,
    filter_bots,
    load_interactions,
    load_profiles,
    make_output_dir,
    open_input,
    read_lines,
)


@dataclass(frozen=True)
class PipelineConfig:
    interactions: str = ""
    profiles: str = ""
    embeddings: str = ""
    lexicon: str = ""
    out: str = "out"
    alpha: float = 1.0
    kappa: float = 5.0
    threshold: float = 1e-5
    method: str = "mcl"
    k: int = 4
    expansion: int = 2
    inflation: float = 2.0
    tau: float = 0.01
    prune: float = 1e-6
    lam: float = 0.01
    mix: float = 0.5
    top_n: int = 1000
    pos_category: str = "posemo"
    neg_category: str = "negemo"
    classifier: str = "nb"
    ridge: float = 1.0
    folds: int = 10
    seed: int = 0


_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig)}


def _convert(key: str, raw: str):
    """`raw` as config key `key`'s type; ConfigError for an unknown key or a bad value."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    # inf passes the one-sided range checks (inf > 1, inf >= 0) and then
    # turns into NaN arithmetic inside a solver
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {raw!r}")
    return value


def _validate(cfg: PipelineConfig) -> PipelineConfig:
    lo, hi = affinity.SMOOTHING_RANGE
    smoothing = f"must be in {affinity.SMOOTHING_RANGE_TEXT}"
    checks = [
        ("out", cfg.out != "", "is required"),
        ("alpha", lo <= cfg.alpha <= hi, smoothing),
        ("kappa", lo <= cfg.kappa <= hi, smoothing),
        ("threshold", cfg.threshold > 0, "must be > 0"),
        ("method", cfg.method in ("mcl", "k-destinations"), "must be mcl or k-destinations"),
        ("k", cfg.k >= 1, "must be >= 1"),
        ("expansion", cfg.expansion >= 2, "must be >= 2"),
        ("inflation", cfg.inflation > 1, "must be > 1"),
        ("tau", 0 < cfg.tau < 1, "must be in (0, 1)"),
        ("prune", 0 < cfg.prune < 1, "must be in (0, 1)"),
        ("lam", cfg.lam >= 0, "must be >= 0"),
        ("mix", 0 <= cfg.mix <= 1, "must be in [0, 1]"),
        ("top_n", cfg.top_n >= 2, "must be >= 2"),
        ("classifier", cfg.classifier in ("nb", "lr"), "must be nb or lr"),
        ("ridge", cfg.ridge >= 0, "must be >= 0"),
        ("folds", cfg.folds >= 2, "must be >= 2"),
        ("seed", cfg.seed >= 0, "must be >= 0"),
    ]
    for key, ok, message in checks:
        if not ok:
            raise ConfigError(f"config key {key} {message}")
    return cfg


def _read_input(path: Path, key: str, loader: Callable):
    """loader(stream) over `path`; an OSError opening or reading it is a ConfigError."""
    try:
        with open_input(path) as fh:
            return loader(fh)
    except OSError as exc:
        message = f"config key {key}: cannot read {path}: {exc.strerror}"
        raise ConfigError(message) from None


def parse_config_file(path: str | Path) -> dict[str, object]:
    """key = value lines, each value converted to its key's type; blank
    lines and #-comment lines are skipped, and a key given twice is
    rejected at its second line."""
    return _read_input(Path(path), "config", _config_values)


def _config_values(stream) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in read_lines(stream, ConfigError):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: repeated config key {key!r}")
        try:
            values[key] = _convert(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values


def resolve_config(file_values: dict[str, object], overrides: dict[str, str]) -> PipelineConfig:
    """Defaults, then the config file's typed values, then command-line
    overrides."""
    merged = dict(file_values)
    for key, raw in overrides.items():
        merged[key] = _convert(key, str(raw))
    return _validate(PipelineConfig(**merged))


def _write_atomic(path: Path, text: str):
    _write_atomic_bytes(path, text.encode("utf-8"))


def _write_atomic_bytes(path: Path, data: bytes):
    """Write through a randomly named temp file in the same directory,
    created exclusively, so concurrent runs into one directory never share
    a temp file. The kernel applies the umask to its 0666 mode."""
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def render_lower_triangular(
    entries: Mapping[tuple[Hashable, Hashable], float], names: Sequence[Hashable]
) -> str:
    """Tab-delimited lower-triangular table; unset cells hold a dash.

    `entries` is keyed by (row, column) name pairs; names print with str().
    """
    lines = ["\t".join([""] + [str(name) for name in names])]
    for i, row in enumerate(names):
        cells = [str(row)]
        for j, col in enumerate(names):
            cells.append(f"{entries[(row, col)]:.6f}" if j < i else "-")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


class Interactions(NamedTuple):
    """What the stages read of the interactions file."""

    count: int
    # each source's event texts, joined in event order (bots included)
    documents: dict[str, str]
    pairs: affinity.PairSequences


class PipelineRunner:
    """Computes each stage's data once, on first use, and renders outputs."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)

    def _load(self, key: str, loader: Callable):
        raw = getattr(self.cfg, key)
        if not raw:
            raise ConfigError(f"config key {key} is required")
        return _read_input(Path(raw), key, loader)

    # -- data stages ---------------------------------------------------------

    @cached_property
    def interactions(self) -> Interactions:
        """The event table is not kept, so its columns are freed here rather
        than staying cached through clustering."""
        events = self._load("interactions", load_interactions)
        return Interactions(len(events), events.documents, affinity.build_pair_sequences(events))

    @cached_property
    def profiles_all(self) -> list[UserProfile]:
        return self._load("profiles", load_profiles)

    @cached_property
    def profiles(self) -> list[UserProfile]:
        """Profiles that pass the bot filter."""
        return filter_bots(self.profiles_all)

    @cached_property
    def scores(self) -> np.ndarray:
        pairs, cfg = self.interactions.pairs, self.cfg
        return affinity.score_sequences(pairs.length, pairs.states, cfg.alpha, cfg.kappa)

    @cached_property
    def affinity_graph(self) -> graph.AffinityGraph:
        pairs, cfg = self.interactions.pairs, self.cfg
        return graph.build_affinity_graph(pairs, self.scores, self.profiles, cfg.threshold)

    @cached_property
    def type_pairs(self) -> dict[tuple[MbtiType, MbtiType], float]:
        return graph.type_pair_percentages(self.affinity_graph)

    @cached_property
    def clustering(self) -> cluster.Clustering:
        g = self.affinity_graph
        if self.cfg.method == "mcl":
            return cluster.mcl(g, self.cfg.expansion, self.cfg.inflation, self.cfg.prune)
        return cluster.k_destinations(g, self.cfg.k, tau=self.cfg.tau)

    @cached_property
    def influence_report(self) -> tuple[influence.ClusterInfluence, ...]:
        return influence.influential_types(self.affinity_graph, self.clustering)

    @cached_property
    def documents_by_type(self) -> dict[MbtiType, list[str]]:
        """Each type's kept users' documents ("" for none), in profile order."""
        documents = self.interactions.documents
        groups: dict[MbtiType, list[str]] = {t: [] for t in ALL_TYPES}
        for profile in self.profiles:
            groups[profile.mbti].append(documents.get(profile.user_id, ""))
        return groups

    @cached_property
    def similarity(self) -> dict[tuple[MbtiType, MbtiType], float]:
        table = self._load("embeddings", semsim.load_embeddings)
        corpora = {t: " ".join(docs) for t, docs in self.documents_by_type.items()}
        return semsim.type_similarity_matrix(corpora, table)

    @cached_property
    def lexcorr(self) -> dict[str, dict[tuple[MbtiType, MbtiType], float]]:
        """Correlation tables for the "pos" and "neg" categories."""
        lex = self._load("lexicon", lexfeat.load_lexicon)
        for key in ("pos_category", "neg_category"):
            category = getattr(self.cfg, key)
            # load_lexicon lowercases the category names, so any case matches
            if category.lower() not in lex:
                raise ConfigError(
                    f"config key {key}: {category!r} is not a lexicon category; "
                    f"the lexicon has: {', '.join(lex)}"
                )
        return {
            name: lexfeat.emotion_correlation_table(
                self.documents_by_type, lex, category.lower(),
                self.cfg.top_n, self.cfg.lam, self.cfg.mix,
            )
            for name, category in (
                ("pos", self.cfg.pos_category),
                ("neg", self.cfg.neg_category),
            )
        }

    @cached_property
    def cv_report(self) -> classify.CvReport:
        documents = self.interactions.documents
        corpus = classify.LabeledCorpus(
            tuple(
                (documents.get(p.user_id, ""), p.mbti)
                for p in sorted(self.profiles, key=lambda p: p.user_id)
            )
        )
        return classify.cross_validate(
            corpus,
            classifier=self.cfg.classifier,
            folds=self.cfg.folds,
            seed=self.cfg.seed,
            ridge=self.cfg.ridge,
        )

    # -- rendered outputs ----------------------------------------------------

    def ingest_text(self) -> str:
        return (
            f"events = {self.interactions.count}\n"
            f"profiles_total = {len(self.profiles_all)}\n"
            f"profiles_kept = {len(self.profiles)}\n"
        )

    def scores_text(self) -> str:
        pairs = self.interactions.pairs
        users = pairs.users
        rows = zip(*(a.tolist() for a in (pairs.source, pairs.target, pairs.length, self.scores)))
        lines = [f"{users[u]}\t{users[v]}\t{n}\t{x:.17g}" for u, v, n, x in rows]
        return "\n".join(["source\ttarget\tn\tscore", *lines]) + "\n"

    def type_pairs_text(self) -> str:
        lines = [f"{p}\t{q}\t{pct:.12g}" for (p, q), pct in self.type_pairs.items()]
        return "\n".join(["type_a\ttype_b\tpercent", *lines]) + "\n"

    def graph_summary_text(self) -> str:
        g = self.affinity_graph
        return f"nodes = {len(g.order)}\nedges = {len(g.edge_arrays[2])}\n"

    def config_text(self) -> str:
        items = sorted(dataclasses.asdict(self.cfg).items())
        return "".join(f"{k} = {v}\n" for k, v in items)

    def report_text(self) -> str:
        chunks = ["# affinity-miner pipeline report\n"]
        for name, render in SECTIONS.items():
            chunks.append(f"\n[{name}]\n{render(self)}")
        return "".join(chunks)

    def write_stage(self, stage: str):
        """Render every output file of the stage (see STAGES), then create
        the directory and write each file atomically, so a stage that fails
        to render writes nothing. An OSError creating the directory or
        writing a file is a ConfigError."""
        texts = [(self.out / name, render(self)) for name, render in STAGES[stage]]
        make_output_dir(self.out)
        for path, text in texts:
            try:
                _write_atomic(path, text)
            except OSError as exc:
                raise cannot_write(path, exc) from None


# report section -> renderer, in report order. Renderers and writers are
# looked up when called, so wrapping a module-level name reaches them.
SECTIONS: dict[str, Callable[[PipelineRunner], str]] = {
    "config": PipelineRunner.config_text,
    "ingest": PipelineRunner.ingest_text,
    "graph": PipelineRunner.graph_summary_text,
    "type_pairs": PipelineRunner.type_pairs_text,
    "cluster": lambda r: cluster.serialize_clustering(r.clustering),
    "influence": lambda r: influence.render_influence_report(r.influence_report),
    "semsim": lambda r: render_lower_triangular(r.similarity, ALL_TYPES),
    "lexcorr_pos": lambda r: render_lower_triangular(r.lexcorr["pos"], ALL_TYPES),
    "lexcorr_neg": lambda r: render_lower_triangular(r.lexcorr["neg"], ALL_TYPES),
    "classify": lambda r: classify.render_cv_report(r.cv_report),
}

# stage -> (output file, renderer) pairs, in run order
STAGES: dict[str, tuple[tuple[str, Callable[[PipelineRunner], str]], ...]] = {
    "ingest": (("ingest.txt", SECTIONS["ingest"]),),
    "affinity": (("scores.tsv", PipelineRunner.scores_text),),
    "graph": (
        ("graph.tsv", lambda r: graph.export_graph(r.affinity_graph, "edge-tsv")),
        ("graph.dot", lambda r: graph.export_graph(r.affinity_graph, "dot")),
        ("type_pairs.tsv", SECTIONS["type_pairs"]),
    ),
    "cluster": (("clustering.tsv", SECTIONS["cluster"]),),
    "influence": (("influence.txt", SECTIONS["influence"]),),
    "semsim": (("semsim.tsv", SECTIONS["semsim"]),),
    "lexcorr": (
        ("lexcorr_pos.tsv", SECTIONS["lexcorr_pos"]),
        ("lexcorr_neg.tsv", SECTIONS["lexcorr_neg"]),
    ),
    "classify": (("cv_report.tsv", SECTIONS["classify"]),),
    "report": (("report.txt", PipelineRunner.report_text),),
}

RUN_STAGES = list(STAGES)


def _write_stages(cfg: PipelineConfig, stages: Sequence[str]) -> None:
    runner = PipelineRunner(cfg)
    for stage in stages:
        runner.write_stage(stage)


def _exit_code(action: Callable[[], object]) -> int:
    """Run `action`; 0 on success, 1 on validation failure (bad config,
    missing or malformed inputs), 2 on unexpected internal errors."""
    try:
        action()
    except AffinityMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    return 0


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run every stage and write all outputs; returns the exit code."""
    return _exit_code(lambda: _write_stages(cfg, RUN_STAGES))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinity-miner",
        description="Affinity graph analytics over mention interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to key = value config file")
        p.add_argument("--out", help="override output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )

    for name, outputs in STAGES.items():
        files = ", ".join(file for file, _ in outputs)
        add_common(sub.add_parser(name, help=f"write {files}"))
    add_common(sub.add_parser("run", help="run all stages and the report"))

    synth_p = sub.add_parser("synth", help="generate synthetic pipeline inputs")
    synth_p.add_argument("--out", required=True, help="directory for generated files")
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--users-per-type", type=int, default=12)
    return parser


def _config_from_args(args) -> PipelineConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.out is not None:
        overrides["out"] = args.out
    return resolve_config(file_values, overrides)


def _synth(args) -> None:
    if not args.out:
        raise ConfigError("config key out is required")
    paths = synth.generate_dataset(
        args.out, seed=args.seed, users_per_type=args.users_per_type
    )
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "synth":
        return _exit_code(lambda: _synth(args))
    stages = RUN_STAGES if args.command == "run" else [args.command]
    return _exit_code(lambda: _write_stages(_config_from_args(args), stages))


if __name__ == "__main__":
    sys.exit(main())
