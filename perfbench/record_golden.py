"""Record report hashes in golden.json.

    python3 perfbench/record_golden.py demo
        Run the demo dataset (seed 7, users_per_type 12) under every
        method/classifier pair and record its report hashes.
    python3 perfbench/record_golden.py collect
        Copy the report hash of every passing benchmark result under
        .bench_build/perfbench/ into golden.json, for workload/seed pairs
        that have none recorded yet. Recorded hashes are never replaced.

Only record from the code the hashes are meant to pin: a later change
that alters a report must explain why instead of re-recording.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import harness
from run import WORKLOADS


def save(golden: dict) -> None:
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def record_demo(golden: dict) -> None:
    work = harness.BUILD / "record-demo"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reports = harness.demo_reports(work, time.monotonic() + 600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [combo for combo, digest in reports.items() if digest is None]
    if failed:
        raise SystemExit(f"demo runs failed: {failed}")
    golden["demo"] = {**harness.DEMO, "reports": reports}


def collect(golden: dict) -> None:
    workloads = golden.setdefault("workloads", {})
    for path in sorted(harness.BUILD.glob("BENCH_*.json")):
        result = json.loads(path.read_text())
        digests = {s["report_sha256"] for s in result["samples"]}
        if result["workload"] not in WORKLOADS or result["problems"] or len(digests) != 1:
            continue
        per_seed = workloads.setdefault(result["workload"], {})
        per_seed.setdefault(str(result["seed"]), digests.pop())


def main(argv) -> int:
    if argv not in (["demo"], ["collect"]):
        print(__doc__, file=sys.stderr)
        return 2
    golden = harness.load_golden() if harness.GOLDEN_PATH.is_file() else {"workloads": {}}
    record_demo(golden) if argv == ["demo"] else collect(golden)
    save(golden)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
