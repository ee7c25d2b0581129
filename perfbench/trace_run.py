"""Run the affinity-miner CLI with spans recorded around each layer's calls.

Usage (with the package on PYTHONPATH):

    python3 perfbench/trace_run.py TRACE_JSON CLI_ARG...

Wrappers are installed on the module-level names the pipeline looks up at
call time, so the program itself is unchanged. Each wrapper records a span
and adds counts taken from the call's arguments and return value. The
spans, counters and exit code are written to TRACE_JSON; the process exits
with the CLI's own exit code.
"""

from __future__ import annotations

import json
import logging
import sys
import time

from harness import report_without_config
from spans import Tracer


def _set(key, value):
    def count(counts, result, args, kwargs):
        counts[key] = value(result, args, kwargs)

    return count


def _add(key, value):
    def count(counts, result, args, kwargs):
        counts[key] += value(result, args, kwargs)

    return count


def _both(*fns):
    def count(counts, result, args, kwargs):
        for fn in fns:
            fn(counts, result, args, kwargs)

    return count


_cluster_counts = _both(
    _set("cluster.iterations", lambda r, a, k: r.iterations),
    _set("cluster.converged", lambda r, a, k: int(r.converged)),
    _set("cluster.clusters", lambda r, a, k: len(r.clusters)),
    # one dense n x n float64 matrix, computed from n, not measured
    _set("cluster.matrix_bytes_computed", lambda r, a, k: 8 * len(r.nodes) ** 2),
)


def _calls(result, args, kwargs):
    return 1


def _report_bytes(result, args, kwargs):
    """Bytes of report.txt outside [config], which holds run-specific paths."""
    path, text = args[0], args[1]
    if path.name != "report.txt":
        return 0
    return len(report_without_config(text).encode("utf-8"))


# (module, attribute, span name, counter); the attribute is the name the
# caller resolves at call time, e.g. `tokenize` as bound in each module.
PROBES = [
    ("cli", "main", "cli.main", None),
    ("cli.PipelineRunner", "write_stage", lambda self, stage: f"stage.{stage}", None),
    ("cli", "_write_atomic", "cli.write", _add("cli.report_bytes", _report_bytes)),
    ("cli", "_write_atomic_bytes", "cli.write", None),
    ("cli", "load_interactions", "ingest.load_interactions",
     _set("ingest.events", lambda r, a, k: len(r))),
    ("cli", "load_profiles", "ingest.load_profiles", None),
    ("cli", "filter_bots", "ingest.filter_bots",
     _set("ingest.bots_removed", lambda r, a, k: len(a[0]) - len(r))),
    ("affinity", "build_pair_sequences", "affinity.build_pair_sequences", None),
    ("affinity", "score_sequences", "affinity.score_sequences",
     _set("affinity.pairs", lambda r, a, k: len(r))),
    ("graph", "build_affinity_graph", "graph.build",
     _both(_set("graph.nodes", lambda r, a, k: len(r.nodes)),
           _set("graph.edges", lambda r, a, k: len(r.edges)))),
    ("graph", "type_pair_percentages", "graph.type_pairs", None),
    ("graph", "export_graph", "graph.export", None),
    ("cluster", "mcl", "cluster.mcl", _cluster_counts),
    ("cluster", "k_destinations", "cluster.k_destinations", _cluster_counts),
    ("cluster", "hitting_times", "cluster.hitting_times", None),
    ("influence", "influential_types", "influence.influential_types", None),
    ("influence", "render_influence_report", "influence.render", None),
    ("semsim", "load_embeddings", "semsim.load_embeddings", None),
    ("semsim", "type_similarity_matrix", "semsim.similarity", None),
    ("semsim", "tokenize", "tokenize.semsim", _add("tokenize.calls.semsim", _calls)),
    ("lexfeat", "load_lexicon", "lexcorr.load_lexicon", None),
    ("lexfeat", "emotion_correlation_table", "lexcorr.table", None),
    ("lexfeat", "extract_features", "lexcorr.features", None),
    ("lexfeat", "_token_count_rows", "lexcorr.features", None),
    ("lexfeat", "fit_elastic_net", "lexcorr.enet",
     _both(_add("lexcorr.enet_fits", _calls),
           _add("lexcorr.enet_sweeps", lambda r, a, k: r.sweeps),
           _add("lexcorr.enet_unconverged", lambda r, a, k: int(not r.converged)))),
    ("lexfeat", "tokenize", "tokenize.lexcorr", _add("tokenize.calls.lexcorr", _calls)),
    ("classify", "cross_validate", "classify.cross_validate",
     _both(_set("classify.docs", lambda r, a, k: len(a[0].documents)),
           _set("classify.macro_f1", lambda r, a, k: r.macro_f1()))),
    ("classify", "vectorize_corpus", "classify.vectorize", None),
    ("classify", "transform_documents", "classify.vectorize", None),
    ("classify", "train_nb", "classify.train", None),
    ("classify", "train_lr", "classify.train",
     _add("classify.lr_unconverged", lambda r, a, k: sum(not c for c in r.converged))),
    ("classify", "tokenize", "tokenize.classify", _add("tokenize.calls.classify", _calls)),
]


class _RejectedLines(logging.Handler):
    """Counts the per-line rejections the ingest layer logs."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "rejected" in record.getMessage():
            self.counts["ingest.lines_rejected"] += 1


def install(tracer: Tracer, package) -> list[str]:
    """Wrap every probe target that exists; return the ones that do not."""
    missing = []
    for owner_path, attr, name, count in PROBES:
        owner = package
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(fn, name, count))
    logging.getLogger(package.__name__ + ".ingest").addHandler(
        _RejectedLines(tracer.counts)
    )
    return missing


def traced_main(trace_path: str, cli_args: list[str]) -> int:
    start = time.perf_counter()
    import affinity_miner
    import affinity_miner.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = install(tracer, affinity_miner)
    code = affinity_miner.cli.main(cli_args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "import_s": import_s,
                "missing_probes": missing,
                "counts": dict(tracer.counts),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
