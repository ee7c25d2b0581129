"""Pipeline orchestration and command-line entry point.

Subcommands run individual stages (ingest, affinity, graph, cluster,
influence, semsim, lexcorr, classify), generate synthetic inputs (synth),
write the aggregated report (report) or everything at once (run).

Configuration is a flat key = value text file; every key can be overridden
by an AFFINITY_MINER_<KEY> environment variable, by --set key=value, and by
the dedicated --seed / --out flags. Unknown keys are rejected. Stage
outputs are written atomically, so a failing stage never corrupts the
outputs of stages that already completed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

from . import affinity, classify, cluster, graph, influence, lexfeat, semsim, synth
from .errors import AffinityMinerError, ConfigError
from .ingest import (
    ALL_TYPES,
    EventTable,
    MbtiType,
    Sentiment,
    UserProfile,
    filter_bots,
    load_interactions,
    load_profiles,
    open_input,
    read_lines,
)

ENV_PREFIX = "AFFINITY_MINER_"

# the process umask can only be read by setting it
_UMASK = os.umask(0)
os.umask(_UMASK)


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


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind != "float":
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}", key=key) from None
    # inf passes the one-sided range checks (inf > 1, inf >= 0) and then
    # turns into NaN arithmetic inside a solver
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {raw!r}", key=key)
    return value


def _validate(cfg: PipelineConfig) -> PipelineConfig:
    # alpha and kappa outside [1e-6, 1e6] push affinity scores out of [0, 1):
    # near the smallest floats a score rounds to exactly 1.0 or dips below 0,
    # and alpha near 1e308 overflows the chain estimate
    checks = [
        ("alpha", 1e-6 <= cfg.alpha <= 1e6, "must be in [1e-6, 1e6]"),
        ("kappa", 1e-6 <= cfg.kappa <= 1e6, "must be in [1e-6, 1e6]"),
        ("threshold", cfg.threshold > 0, "must be > 0"),
        ("method", cfg.method in ("mcl", "k-destinations"), "must be mcl or k-destinations"),
        ("k", cfg.k >= 1, "must be >= 1"),
        ("expansion", cfg.expansion >= 2, "must be >= 2"),
        ("inflation", cfg.inflation > 1, "must be > 1"),
        ("tau", 0 < cfg.tau < 1, "must be in (0, 1)"),
        ("prune", 0 < cfg.prune < 1, "must be in (0, 1)"),
        ("lam", cfg.lam >= 0, "must be >= 0"),
        ("mix", 0 <= cfg.mix <= 1, "must be in [0, 1]"),
        ("top_n", cfg.top_n >= 1, "must be >= 1"),
        ("classifier", cfg.classifier in ("nb", "lr"), "must be nb or lr"),
        ("ridge", cfg.ridge >= 0, "must be >= 0"),
        ("folds", cfg.folds >= 2, "must be >= 2"),
        ("seed", cfg.seed >= 0, "must be >= 0"),
    ]
    for key, ok, message in checks:
        if not ok:
            raise ConfigError(f"config key {key} {message}", key=key)
    return cfg


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key = value lines; blank lines and #-comment lines are skipped."""
    values: dict[str, str] = {}
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}", key="config")
    with open_input(path) as fh:
        for lineno, line in read_lines(fh, partial(ConfigError, key="config")):
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"line {lineno}: expected key = value", key="config", line=lineno
                )
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(
                    f"line {lineno}: unknown config key {key!r}", key=key, line=lineno
                )
            values[key] = raw.strip()
    return values


def resolve_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
) -> PipelineConfig:
    """Defaults, then config file, then environment, then CLI overrides."""
    env = os.environ if env is None else env
    merged: dict[str, object] = {}
    for key, raw in (file_values or {}).items():
        merged[key] = _convert(key, raw)
    for key in _FIELD_TYPES:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            merged[key] = _convert(key, env[env_key])
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}", key=key)
        merged[key] = _convert(key, str(raw))
    return _validate(PipelineConfig(**merged))


def _write_atomic(path: Path, text: str):
    _write_atomic_bytes(path, text.encode("utf-8"))


def _write_atomic_bytes(path: Path, data: bytes):
    """Write through a uniquely named temp file in the same directory, so
    concurrent runs into one directory never share a temp file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates 0600; give outputs the usual umask-derived mode
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
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


class PipelineRunner:
    """Computes each stage's data once, on first use, and renders outputs."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)

    def _require_file(self, key: str) -> Path:
        raw = getattr(self.cfg, key)
        if not raw:
            raise ConfigError(f"config key {key} is required", key=key)
        path = Path(raw)
        if not path.is_file():
            raise ConfigError(f"config key {key}: file not found: {path}", key=key)
        return path

    # -- data stages ---------------------------------------------------------

    @cached_property
    def events(self) -> EventTable:
        with open_input(self._require_file("interactions")) as fh:
            return load_interactions(fh)

    @cached_property
    def profiles_all(self) -> list[UserProfile]:
        with open_input(self._require_file("profiles")) as fh:
            return load_profiles(fh)

    @cached_property
    def profiles(self) -> list[UserProfile]:
        """Profiles that pass the bot filter."""
        return filter_bots(self.profiles_all)

    @cached_property
    def sequences(self) -> dict[tuple[str, str], tuple[Sentiment, ...]]:
        return affinity.build_pair_sequences(self.events)

    @cached_property
    def scores(self) -> dict[tuple[str, str], float]:
        return affinity.score_sequences(self.sequences, self.cfg.alpha, self.cfg.kappa)

    @cached_property
    def affinity_graph(self) -> graph.AffinityGraph:
        return graph.build_affinity_graph(self.scores, self.profiles, self.cfg.threshold)

    @cached_property
    def type_pairs(self) -> graph.TypePairTable:
        return graph.type_pair_percentages(self.affinity_graph)

    @cached_property
    def clustering(self) -> cluster.Clustering:
        g = self.affinity_graph
        if self.cfg.method == "mcl":
            return cluster.mcl(g, self.cfg.expansion, self.cfg.inflation, self.cfg.prune)
        return cluster.k_destinations(g, self.cfg.k, tau=self.cfg.tau)

    @cached_property
    def influence_report(self) -> influence.InfluenceReport:
        return influence.influential_types(self.affinity_graph, self.clustering)

    @cached_property
    def documents(self) -> dict[str, str]:
        """Each kept user's event texts, joined in event order."""
        kept = {p.user_id for p in self.profiles}
        return {u: text for u, text in self.events.documents.items() if u in kept}

    @cached_property
    def documents_by_type(self) -> dict[MbtiType, list[str]]:
        """Each type's kept users' documents ("" for none), in profile order."""
        groups: dict[MbtiType, list[str]] = {t: [] for t in ALL_TYPES}
        for profile in self.profiles:
            groups[profile.mbti].append(self.documents.get(profile.user_id, ""))
        return groups

    @cached_property
    def similarity(self) -> dict[tuple[MbtiType, MbtiType], float]:
        with open_input(self._require_file("embeddings")) as fh:
            table = semsim.load_embeddings(fh)
        corpora = {t: " ".join(docs) for t, docs in self.documents_by_type.items()}
        return semsim.type_similarity_matrix(corpora, table)

    @cached_property
    def lexcorr(self) -> dict[str, dict[tuple[MbtiType, MbtiType], float]]:
        """Correlation tables for the "pos" and "neg" categories."""
        with open_input(self._require_file("lexicon")) as fh:
            lex = lexfeat.load_lexicon(fh)
        for key in ("pos_category", "neg_category"):
            category = getattr(self.cfg, key)
            if category not in lex.categories:
                raise ConfigError(
                    f"config key {key}: {category!r} is not a lexicon category; "
                    f"the lexicon has: {', '.join(lex.categories)}",
                    key=key,
                )
        return {
            name: lexfeat.emotion_correlation_table(
                self.documents_by_type, lex, category,
                self.cfg.top_n, self.cfg.lam, self.cfg.mix,
            )
            for name, category in (
                ("pos", self.cfg.pos_category),
                ("neg", self.cfg.neg_category),
            )
        }

    @cached_property
    def cv_report(self) -> classify.CvReport:
        corpus = classify.LabeledCorpus(
            tuple(
                (self.documents.get(p.user_id, ""), p.mbti)
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
            f"events = {len(self.events)}\n"
            f"profiles_total = {len(self.profiles_all)}\n"
            f"profiles_kept = {len(self.profiles)}\n"
        )

    def scores_text(self) -> str:
        lines = ["source\ttarget\tn\tscore"]
        for pair in sorted(self.scores):
            n = len(self.sequences[pair])
            lines.append(f"{pair[0]}\t{pair[1]}\t{n}\t{self.scores[pair]:.17g}")
        return "\n".join(lines) + "\n"

    def type_pairs_text(self) -> str:
        lines = ["type_a\ttype_b\tpercent"]
        for (p, q), pct in sorted(self.type_pairs.entries.items()):
            lines.append(f"{p}\t{q}\t{pct:.12g}")
        return "\n".join(lines) + "\n"

    def graph_summary_text(self) -> str:
        g = self.affinity_graph
        return f"nodes = {len(g.nodes)}\nedges = {len(g.edges)}\n"

    def clustering_text(self) -> str:
        return cluster.serialize_clustering(self.clustering)

    def influence_text(self) -> str:
        return influence.render_influence_report(self.influence_report)

    def semsim_text(self) -> str:
        return render_lower_triangular(self.similarity, ALL_TYPES)

    def lexcorr_text(self, which: str) -> str:
        return render_lower_triangular(self.lexcorr[which], ALL_TYPES)

    def classify_text(self) -> str:
        return classify.render_cv_report(self.cv_report)

    def config_text(self) -> str:
        items = sorted(dataclasses.asdict(self.cfg).items())
        return "".join(f"{k} = {v}\n" for k, v in items)

    def report_text(self) -> str:
        sections = [
            ("config", self.config_text()),
            ("ingest", self.ingest_text()),
            ("graph", self.graph_summary_text()),
            ("type_pairs", self.type_pairs_text()),
            ("cluster", self.clustering_text()),
            ("influence", self.influence_text()),
            ("semsim", self.semsim_text()),
            ("lexcorr_pos", self.lexcorr_text("pos")),
            ("lexcorr_neg", self.lexcorr_text("neg")),
            ("classify", self.classify_text()),
        ]
        chunks = ["# affinity-miner pipeline report\n"]
        for name, body in sections:
            chunks.append(f"\n[{name}]\n{body}")
        return "".join(chunks)

    def write_stage(self, stage: str):
        """Write the stage's output files (see STAGES), each atomically."""
        self.out.mkdir(parents=True, exist_ok=True)
        for name, render in STAGES[stage]:
            _write_atomic(self.out / name, render(self))


# stage -> (output file, renderer) pairs, in run order. Renderers and writers
# are looked up when called, so wrapping a module-level name reaches them.
STAGES: dict[str, tuple[tuple[str, Callable[[PipelineRunner], str]], ...]] = {
    "ingest": (("ingest.txt", PipelineRunner.ingest_text),),
    "affinity": (("scores.tsv", PipelineRunner.scores_text),),
    "graph": (
        ("graph.tsv", lambda r: graph.export_graph(r.affinity_graph, "edge-tsv")),
        ("graph.dot", lambda r: graph.export_graph(r.affinity_graph, "dot")),
        ("type_pairs.tsv", PipelineRunner.type_pairs_text),
    ),
    "cluster": (("clustering.tsv", PipelineRunner.clustering_text),),
    "influence": (("influence.txt", PipelineRunner.influence_text),),
    "semsim": (("semsim.tsv", PipelineRunner.semsim_text),),
    "lexcorr": (
        ("lexcorr_pos.tsv", lambda r: r.lexcorr_text("pos")),
        ("lexcorr_neg.tsv", lambda r: r.lexcorr_text("neg")),
    ),
    "classify": (("cv_report.tsv", PipelineRunner.classify_text),),
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
        p.add_argument("--seed", type=int, help="override config seed")
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
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}", key="set")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    return resolve_config(file_values, overrides)


def _synth(args) -> None:
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
