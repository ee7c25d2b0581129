"""Process control, output checks and golden report hashes for the benchmark.

The pipeline always runs as a fresh `affinity-miner run` process (one at a
time), started from the checkout's `src/` tree. Its wall time is taken from
launch to exit and its peak RSS from the kernel's accounting for that one
child.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
# scratch and results live inside the checkout, under a git-ignored directory
BUILD = ROOT / ".bench_build" / "perfbench"

# every stage output `run` writes; a run that leaves one out has failed
STAGE_OUTPUTS = (
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
)

DEMO = {"seed": 7, "users_per_type": 12}
DEMO_COMBOS = [
    (method, classifier)
    for method in ("mcl", "k-destinations")
    for classifier in ("nb", "lr")
]


def blas_threads() -> int:
    """BLAS threads for every pipeline process: one per usable core."""
    return len(os.sched_getaffinity(0))


def blas_env() -> dict[str, str]:
    threads = str(blas_threads())
    return {key: threads for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), **blas_env()}


def environment() -> dict:
    """What a result depends on besides the code: cores, versions, BLAS."""
    import ctypes
    import glob
    import platform
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "libscipy_openblas*.so*"))):
        getter = getattr(ctypes.CDLL(lib_path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "nproc": os.cpu_count(),
        "usable_cores": blas_threads(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def source_digest() -> str:
    """SHA-256 over every file under src/, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def report_without_config(text: str) -> str:
    """report.txt without its [config] section.

    [config] prints the output directory and absolute input paths, so the
    same run written to two places would otherwise differ.
    """
    kept = []
    in_config = False
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_config = stripped == "[config]"
        if not in_config:
            kept.append(line)
    return "".join(kept)


def report_digest(text: str) -> str:
    """SHA-256 of report.txt without its path-bearing [config] section."""
    return hashlib.sha256(report_without_config(text).encode("utf-8")).hexdigest()


@dataclass
class ProcessResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stderr_tail: str


def run_process(argv: list[str], log_path: Path, deadline: float) -> ProcessResult:
    """Run one child to completion; kill it if it outlives `deadline`.

    `deadline` is a time.monotonic() value. Wall time covers launch to exit.
    """
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    # ru_maxrss is in KiB on Linux
    return ProcessResult(wall, usage.ru_maxrss / 1024.0, proc.returncode, tail)


# the installed `affinity-miner` entry point, run from the checkout's src/
PIPELINE = [sys.executable, "-m", "affinity_miner.cli"]


def traced_pipeline(trace: Path) -> list[str]:
    """The pipeline under trace_run.py, writing its spans to `trace`."""
    return [sys.executable, str(HERE / "trace_run.py"), str(trace)]


def run_args(config: Path, out: Path, method: str, classifier: str) -> list[str]:
    return [
        "run",
        "--config", str(config),
        "--out", str(out),
        "--set", f"method={method}",
        "--set", f"classifier={classifier}",
    ]


def check_outputs(out: Path) -> tuple[str | None, str]:
    """(report digest, problem); digest is None when outputs are incomplete."""
    missing = [name for name in STAGE_OUTPUTS if not (out / name).is_file()]
    if missing:
        return None, "missing outputs: " + ", ".join(missing)
    return report_digest((out / "report.txt").read_text(encoding="utf-8")), ""


def load_golden() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def synth():
    """The checkout's own input generator, imported from src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from affinity_miner import synth as module

    return module


def demo_reports(work: Path, deadline: float) -> dict[str, str | None]:
    """Report digest per method/classifier on the demo dataset (None: failed)."""
    paths = synth().generate_dataset(work / "demo", **DEMO)
    digests = {}
    for method, classifier in DEMO_COMBOS:
        out = work / f"demo-{method}-{classifier}"
        result = run_process(
            PIPELINE + run_args(paths["config"], out, method, classifier),
            work / "demo.log",
            deadline,
        )
        digest, _ = check_outputs(out) if result.exit_code == 0 else (None, "")
        digests[f"{method}/{classifier}"] = digest
        shutil.rmtree(out, ignore_errors=True)
    return digests


def demo_gate(work: Path, deadline: float) -> list[str]:
    """Check the demo reports against golden.json once per source tree.

    Returns the mismatching combinations. A pass is remembered under the
    source digest, so later runs of the same code skip the four demo runs.
    """
    stamp = BUILD / f"demo-gate-{source_digest()}.ok"
    if stamp.is_file():
        return []
    expected = load_golden()["demo"]["reports"]
    found = demo_reports(work, deadline)
    bad = [combo for combo, digest in found.items() if digest != expected.get(combo)]
    if not bad:
        stamp.write_text("demo reports match golden.json\n", encoding="utf-8")
    return bad
