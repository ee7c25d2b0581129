"""Benchmark: time to report, peak memory and input set-up of `affinity-miner run`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client, closed loop: the benchmark generates the workload's inputs from
the seed with `synth.generate_dataset` (timed as set-up), then starts one
fresh pipeline process at a time, each after the previous one exits, as
long as the next run is expected to end within S seconds (at least one
run). Each run's outputs are checked. Its report, without the path-bearing
[config] section, is hashed and compared with the hash recorded in
golden.json for this workload and seed or, for a seed with none recorded,
with the first run of that seed in this checkout. The demo reports are
checked against golden.json once per source tree.

With --trace 0 the end-to-end metrics are reported; with --trace 1 every
run is traced (see trace_run.py) and the per-layer metrics are reported.
The last line of standard output is one JSON object; results, the
environment and (when traced) the spans are also written under
.bench_build/perfbench/. See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
from spans import inclusive_by_name, self_by_name

# the whole run, set-up included, must end well inside three minutes
TIME_LIMIT_S = 170.0

WORKLOADS = {
    "mcl-nb-2048": {"users_per_type": 128, "method": "mcl", "classifier": "nb"},
    "kdest-lr-768": {"users_per_type": 48, "method": "k-destinations", "classifier": "lr"},
}

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer timings: metric -> span-name prefix (outermost spans only)
LAYER_TIMES = {
    "ingest.s": "ingest.",
    "affinity.s": "affinity.",
    "graph.s": "graph.",
    "cluster.s": "cluster.",
    "cluster.hitting_s": "cluster.hitting_times",
    "influence.s": "influence.",
    "semsim.s": "semsim.",
    "lexcorr.s": "lexcorr.",
    "lexcorr.features_s": "lexcorr.features",
    "lexcorr.enet_s": "lexcorr.enet",
    "classify.s": "classify.",
    "classify.vectorize_s": "classify.vectorize",
    "classify.train_s": "classify.train",
    "tokenize.s": "tokenize.",
    "cli.write_s": "cli.write",
}

LAYER_COUNTS = [
    "ingest.events",
    "ingest.lines_rejected",
    "ingest.bots_removed",
    "affinity.pairs",
    "graph.nodes",
    "graph.edges",
    "cluster.iterations",
    "cluster.converged",
    "cluster.clusters",
    "cluster.matrix_bytes_computed",
    "lexcorr.enet_fits",
    "lexcorr.enet_sweeps",
    "lexcorr.enet_unconverged",
    "classify.lr_unconverged",
    "classify.macro_f1",
    "tokenize.calls.classify",
    "tokenize.calls.lexcorr",
    "tokenize.calls.semsim",
    "cli.report_bytes",
]

LAYER_UNITS = {
    "cluster.matrix_bytes_computed": "bytes",
    "cli.report_bytes": "bytes",
    "classify.macro_f1": "ratio",
    "tokenize.calls_per_doc": "calls/doc",
    "cli.import_s": "s",
    "trace.run_s": "s",
    **{name: "s" for name in LAYER_TIMES},
}


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced run."""
    spans = trace["spans"]
    values = {name: inclusive_by_name(spans, prefix) for name, prefix in LAYER_TIMES.items()}
    counts = trace["counts"]
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    calls = sum(counts.get(f"tokenize.calls.{layer}", 0) for layer in ("classify", "lexcorr", "semsim"))
    values["tokenize.calls_per_doc"] = calls / max(counts.get("classify.docs", 0), 1)
    values["cli.import_s"] = trace["import_s"]
    values["trace.run_s"] = wall_s
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class FirstReports:
    """Report hash of the first run per workload, seed and source tree."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}

    def expected(self, key: str, digest: str) -> str:
        if key not in self.known:
            self.known[key] = digest
            self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return self.known[key]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "affinity_miner" / "cli.py").is_file():
        print(f"error: no affinity_miner sources under {harness.SRC}", file=sys.stderr)
        return 2
    os.environ.update(harness.blas_env())
    harness.BUILD.mkdir(parents=True, exist_ok=True)
    for name in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        deadline = time.monotonic() + TIME_LIMIT_S
        work = harness.BUILD / f"work-{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            measure(name, args, work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def one_run(argv, out: Path, work: Path, deadline: float, expected) -> dict:
    """Run the pipeline once and check its outputs and report hash.

    `expected(digest)` gives the hash this run's report must have, and
    where that hash comes from.
    """
    result = harness.run_process(argv, work / "pipeline.log", deadline)
    sample = {"wall_s": result.wall_s, "peak_rss_mb": result.peak_rss_mb,
              "exit_code": result.exit_code, "report_sha256": None, "problem": ""}
    if result.exit_code != 0:
        sample["problem"] = f"exit code {result.exit_code}: {result.stderr_tail[-500:]}"
        return sample
    digest, sample["problem"] = harness.check_outputs(out)
    sample["report_sha256"] = digest
    if digest is not None:
        want, origin = expected(digest)
        if digest != want:
            sample["problem"] = f"report hash {digest} differs from {origin}: {want}"
    return sample


def measure(name: str, args, work: Path, deadline: float) -> None:
    """Set up, run and check one workload; print its metrics, JSON line last."""
    spec = WORKLOADS[name]
    env = harness.environment()
    source = harness.source_digest()
    problems = [f"demo report mismatch: {combo}" for combo in harness.demo_gate(work, deadline)]

    synth = harness.synth()
    start = time.perf_counter()
    paths = synth.generate_dataset(
        work / "inputs", seed=args.seed, users_per_type=spec["users_per_type"]
    )
    setup_s = time.perf_counter() - start

    recorded = harness.load_golden()["workloads"].get(name, {}).get(str(args.seed))
    first = FirstReports(harness.BUILD / "first_reports.json")

    def expected(digest):
        if recorded:
            return recorded, "golden.json"
        return first.expected(f"{name}/{args.seed}/{source}", digest), "the first run of this seed"

    samples = []
    measure_start = time.monotonic()
    # start another run only if, at the last run's pace, it ends inside the window
    while not samples or (
        time.monotonic() + samples[-1]["wall_s"] <= min(measure_start + args.seconds, deadline)
    ):
        out = work / f"out{len(samples)}"
        trace_path = work / f"trace{len(samples)}.json"
        program = harness.traced_pipeline(trace_path) if args.trace else harness.PIPELINE
        cli = harness.run_args(paths["config"], out, spec["method"], spec["classifier"])
        sample = one_run(program + cli, out, work, deadline, expected)
        if trace_path.is_file():
            sample["trace"] = json.loads(trace_path.read_text())
        samples.append(sample)
        shutil.rmtree(out, ignore_errors=True)

    failed = sum(1 for s in samples if s["problem"])
    problems += [s["problem"] for s in samples if s["problem"]]
    results = {
        "workload": name, "spec": spec, "seed": args.seed, "trace": args.trace,
        "environment": env, "source_sha256": source, "setup_s": setup_s,
        "samples": samples, "problems": problems,
    }
    if args.trace:
        traces = [(s.pop("trace"), s["wall_s"]) for s in samples if "trace" in s]
        per_run = [layer_metrics(trace, wall) for trace, wall in traces] or [
            layer_metrics({"spans": [], "counts": {}, "import_s": 0.0}, 0.0)
        ]
        metrics = {
            metric: {"value": statistics.median(run[metric] for run in per_run),
                     "unit": LAYER_UNITS.get(metric, "count")}
            for metric in per_run[0]
        }
        if traces:
            spans = traces[-1][0]["spans"]
            results["spans"] = spans
            results["self_s_by_span"] = self_by_name(spans)
            for probe in traces[-1][0]["missing_probes"]:
                print(f"trace: {probe} no longer exists; its metrics read 0", file=sys.stderr)
    else:
        values = {
            "run_s": statistics.median(s["wall_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "setup_s": setup_s,
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    results["metrics"] = metrics
    result_path = harness.BUILD / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(results))

    print(f"workload {name} seed {args.seed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for s in samples:
        print(f"run wall_s={s['wall_s']:.4f} peak_rss_mb={s['peak_rss_mb']:.1f} "
              f"report_sha256={s['report_sha256']}")
    for metric, m in metrics.items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / len(samples):.6g} ratio ({failed} of {len(samples)} runs)")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
