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
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

from . import affinity, classify, cluster, graph, influence, lexfeat, semsim, synth
from .errors import AffinityMinerError, ConfigError
from .ingest import (
    ALL_TYPES,
    MbtiType,
    filter_bots,
    load_interactions,
    load_profiles,
    open_input,
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
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}", key=key) from None


def _validate(cfg: PipelineConfig) -> PipelineConfig:
    checks = [
        ("alpha", cfg.alpha > 0, "must be > 0"),
        ("kappa", cfg.kappa > 0, "must be > 0"),
        ("threshold", cfg.threshold > 0, "must be > 0"),
        ("method", cfg.method in ("mcl", "k-destinations"), "must be mcl or k-destinations"),
        ("k", cfg.k >= 1, "must be >= 1"),
        ("expansion", cfg.expansion >= 2, "must be >= 2"),
        ("inflation", cfg.inflation > 1, "must be > 1"),
        ("tau", 0 < cfg.tau < 1, "must be in (0, 1)"),
        ("prune", cfg.prune > 0, "must be > 0"),
        ("lam", cfg.lam >= 0, "must be >= 0"),
        ("mix", 0 <= cfg.mix <= 1, "must be in [0, 1]"),
        ("top_n", cfg.top_n >= 1, "must be >= 1"),
        ("classifier", cfg.classifier in ("nb", "lr"), "must be nb or lr"),
        ("ridge", cfg.ridge >= 0, "must be >= 0"),
        ("folds", cfg.folds >= 2, "must be >= 2"),
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
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value", key="config")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}", key=key)
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
    entries: dict[tuple[str, str], float], names: list[str]
) -> str:
    """Tab-delimited lower-triangular table; unset cells hold a dash."""
    lines = ["\t".join([""] + names)]
    for i, row in enumerate(names):
        cells = [row]
        for j, col in enumerate(names):
            cells.append(f"{entries[(row, col)]:.6f}" if j < i else "-")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


class PipelineRunner:
    """Executes stages in dependency order, caching intermediate results."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self._cache: dict[str, object] = {}

    def _require_file(self, key: str) -> Path:
        raw = getattr(self.cfg, key)
        if not raw:
            raise ConfigError(f"config key {key} is required", key=key)
        path = Path(raw)
        if not path.is_file():
            raise ConfigError(f"config key {key}: file not found: {path}", key=key)
        return path

    # -- data stages ---------------------------------------------------------

    def ingest(self):
        if "ingest" not in self._cache:
            interactions = self._require_file("interactions")
            profiles_path = self._require_file("profiles")
            with open_input(interactions) as fh:
                events = load_interactions(fh)
            with open_input(profiles_path) as fh:
                profiles_all = load_profiles(fh)
            profiles = filter_bots(profiles_all)
            self._cache["ingest"] = {
                "events": events,
                "profiles_all": profiles_all,
                "profiles": profiles,
            }
        return self._cache["ingest"]

    def affinity(self):
        if "affinity" not in self._cache:
            data = self.ingest()
            sequences = affinity.build_pair_sequences(data["events"])
            scores = affinity.score_sequences(
                sequences, self.cfg.alpha, self.cfg.kappa
            )
            self._cache["affinity"] = {"sequences": sequences, "scores": scores}
        return self._cache["affinity"]

    def graph(self):
        if "graph" not in self._cache:
            data = self.ingest()
            scores = self.affinity()["scores"]
            g = graph.build_affinity_graph(
                scores, data["profiles"], self.cfg.threshold
            )
            self._cache["graph"] = {
                "graph": g,
                "type_pairs": graph.type_pair_percentages(g),
            }
        return self._cache["graph"]

    def cluster(self):
        if "cluster" not in self._cache:
            g = self.graph()["graph"]
            if self.cfg.method == "mcl":
                c = cluster.mcl(
                    g, self.cfg.expansion, self.cfg.inflation, self.cfg.prune
                )
            else:
                c = cluster.k_destinations(g, self.cfg.k, tau=self.cfg.tau)
            self._cache["cluster"] = {"clustering": c}
        return self._cache["cluster"]

    def influence(self):
        if "influence" not in self._cache:
            g = self.graph()["graph"]
            c = self.cluster()["clustering"]
            self._cache["influence"] = {
                "report": influence.influential_types(g, c)
            }
        return self._cache["influence"]

    def _documents_by_user(self) -> dict[str, str]:
        if "docs" not in self._cache:
            data = self.ingest()
            kept = {p.user_id for p in data["profiles"]}
            parts: dict[str, list[str]] = {}
            for event in data["events"]:
                if event.text and event.source in kept:
                    parts.setdefault(event.source, []).append(event.text)
            self._cache["docs"] = {u: " ".join(p) for u, p in parts.items()}
        return self._cache["docs"]

    def semsim(self):
        if "semsim" not in self._cache:
            embeddings_path = self._require_file("embeddings")
            with embeddings_path.open(encoding="utf-8") as fh:
                table = semsim.load_embeddings(fh)
            docs = self._documents_by_user()
            data = self.ingest()
            corpora: dict[MbtiType, str] = {t: "" for t in ALL_TYPES}
            for profile in data["profiles"]:
                text = docs.get(profile.user_id, "")
                if text:
                    corpora[profile.mbti] = (corpora[profile.mbti] + " " + text).strip()
            sim = semsim.type_similarity_matrix(corpora, table)
            self._cache["semsim"] = {"similarity": sim}
        return self._cache["semsim"]

    def lexcorr(self):
        if "lexcorr" not in self._cache:
            lexicon_path = self._require_file("lexicon")
            with lexicon_path.open(encoding="utf-8") as fh:
                lex = lexfeat.load_lexicon(fh)
            docs = self._documents_by_user()
            data = self.ingest()
            by_type: dict[str, list[str]] = {t.value: [] for t in ALL_TYPES}
            for profile in data["profiles"]:
                by_type[profile.mbti.value].append(docs.get(profile.user_id, ""))
            tables = {}
            for name, target in (
                ("pos", self.cfg.pos_category),
                ("neg", self.cfg.neg_category),
            ):
                tables[name] = lexfeat.emotion_correlation_table(
                    by_type, lex, target, self.cfg.top_n, self.cfg.lam, self.cfg.mix
                )
            self._cache["lexcorr"] = tables
        return self._cache["lexcorr"]

    def classify(self):
        if "classify" not in self._cache:
            docs = self._documents_by_user()
            data = self.ingest()
            corpus = classify.LabeledCorpus(
                tuple(
                    (docs.get(p.user_id, ""), p.mbti)
                    for p in sorted(data["profiles"], key=lambda p: p.user_id)
                )
            )
            report = classify.cross_validate(
                corpus,
                classifier=self.cfg.classifier,
                folds=self.cfg.folds,
                seed=self.cfg.seed,
                ridge=self.cfg.ridge,
            )
            self._cache["classify"] = {"report": report}
        return self._cache["classify"]

    # -- rendered outputs ----------------------------------------------------

    def ingest_text(self) -> str:
        data = self.ingest()
        return (
            f"events = {len(data['events'])}\n"
            f"profiles_total = {len(data['profiles_all'])}\n"
            f"profiles_kept = {len(data['profiles'])}\n"
        )

    def scores_text(self) -> str:
        data = self.affinity()
        lines = ["source\ttarget\tn\tscore"]
        for pair in sorted(data["scores"]):
            seq = data["sequences"][pair]
            score = data["scores"][pair]
            lines.append(f"{pair[0]}\t{pair[1]}\t{len(seq)}\t{score.value:.17g}")
        return "\n".join(lines) + "\n"

    def type_pairs_text(self) -> str:
        table = self.graph()["type_pairs"]
        lines = ["type_a\ttype_b\tpercent"]
        for (p, q), pct in sorted(
            table.entries.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            lines.append(f"{p}\t{q}\t{pct:.12g}")
        return "\n".join(lines) + "\n"

    def graph_summary_text(self) -> str:
        g = self.graph()["graph"]
        return f"nodes = {len(g.nodes)}\nedges = {len(g.edges)}\n"

    def clustering_text(self) -> str:
        return cluster.serialize_clustering(self.cluster()["clustering"])

    def influence_text(self) -> str:
        return influence.render_influence_report(self.influence()["report"])

    def semsim_text(self) -> str:
        sim = self.semsim()["similarity"]
        names = [t.value for t in ALL_TYPES]
        entries = {(a.value, b.value): v for (a, b), v in sim.items()}
        return render_lower_triangular(entries, names)

    def lexcorr_text(self, which: str) -> str:
        table = self.lexcorr()[which]
        return render_lower_triangular(table, [t.value for t in ALL_TYPES])

    def classify_text(self) -> str:
        return classify.render_cv_report(self.classify()["report"])

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

    # -- stage writers -------------------------------------------------------

    def write_stage(self, stage: str):
        self.out.mkdir(parents=True, exist_ok=True)
        if stage == "ingest":
            _write_atomic(self.out / "ingest.txt", self.ingest_text())
        elif stage == "affinity":
            _write_atomic(self.out / "scores.tsv", self.scores_text())
        elif stage == "graph":
            g = self.graph()["graph"]
            _write_atomic_bytes(self.out / "graph.tsv", graph.export_graph(g, "edge-tsv"))
            _write_atomic_bytes(self.out / "graph.dot", graph.export_graph(g, "dot"))
            _write_atomic(self.out / "type_pairs.tsv", self.type_pairs_text())
        elif stage == "cluster":
            _write_atomic(self.out / "clustering.tsv", self.clustering_text())
        elif stage == "influence":
            _write_atomic(self.out / "influence.txt", self.influence_text())
        elif stage == "semsim":
            _write_atomic(self.out / "semsim.tsv", self.semsim_text())
        elif stage == "lexcorr":
            _write_atomic(self.out / "lexcorr_pos.tsv", self.lexcorr_text("pos"))
            _write_atomic(self.out / "lexcorr_neg.tsv", self.lexcorr_text("neg"))
        elif stage == "classify":
            _write_atomic(self.out / "cv_report.tsv", self.classify_text())
        elif stage == "report":
            _write_atomic(self.out / "report.txt", self.report_text())
        else:
            raise ValueError(f"unknown stage: {stage!r}")


RUN_STAGES = [
    "ingest",
    "affinity",
    "graph",
    "cluster",
    "influence",
    "semsim",
    "lexcorr",
    "classify",
    "report",
]


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run every stage and write all outputs; returns the exit code.

    0 on success, 1 on validation failure (bad config, missing or
    malformed inputs), 2 on unexpected internal errors.
    """
    runner = PipelineRunner(cfg)
    try:
        for stage in RUN_STAGES:
            runner.write_stage(stage)
    except AffinityMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    return 0


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

    for name in RUN_STAGES[:-1]:
        add_common(sub.add_parser(name, help=f"run the {name} stage"))
    add_common(sub.add_parser("report", help="write the aggregated report"))
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            paths = synth.generate_dataset(
                args.out, seed=args.seed, users_per_type=args.users_per_type
            )
            for name, path in sorted(paths.items()):
                print(f"{name}: {path}")
            return 0
        cfg = _config_from_args(args)
        if args.command == "run":
            return run_pipeline(cfg)
        runner = PipelineRunner(cfg)
        runner.write_stage(args.command)
        return 0
    except AffinityMinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
