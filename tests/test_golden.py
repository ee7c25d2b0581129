"""Golden stage outputs on the demo dataset (seed 7, 12 users per type).

Every refactor must leave these bytes unchanged. The report digests are the
benchmark's own (perfbench/golden.json, without the path-bearing [config]
section); the other stage files are pinned here by SHA-256. The same bytes
must come out whichever OpenBLAS kernel the CPU selects.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import affinity_miner
from affinity_miner.cli import resolve_config, run_pipeline
from affinity_miner.synth import generate_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402

# files that do not depend on the clustering method or the classifier
SHARED = {
    "ingest.txt": "e6da25295ef35714718d92564dde5aba0ac1409d2fd4153f28c3161b7f65ebfe",
    "scores.tsv": "7ca49e877426e86af322a614b04c4a876ea6b7f0caf734fcb227606fa7339f8e",
    "graph.tsv": "955f932a9127c0354c01e59778288a5e547ee9dc92e428994e91787057a912c0",
    "graph.dot": "b16b25946d28bf2dc2b2b95f25921c7ef1acfda09fb4d67a43fd410ae34ce94f",
    "type_pairs.tsv": "c964afc0c04ac9f9046f7b21388a96c67c3cefbfd0350f50cd14624336c43d7e",
    "semsim.tsv": "957b92ff21e9ef202e6e1a5d817285b070d476e36135a4d76b06a586fec6d978",
    "lexcorr_pos.tsv": "78cafbdd32bd0e88cf60a9e935fefc366a010232432c70baa2208ac0fadafe11",
    "lexcorr_neg.tsv": "04ae357c030f83ed67c6ee36a8b67c28983ee8731bc80f04b1e30cc9cbfa88ba",
}
BY_METHOD = {
    "mcl": {
        "clustering.tsv": "d4bdd25b3e9763c85432848213e690a083c97450765ad2d61ee1ebf46797b0df",
        "influence.txt": "1f3c51d60fdc5b18435d1a9df869b8ef2d8fba68f5062c0d2c13e00d48ac1cd9",
    },
    "k-destinations": {
        "clustering.tsv": "aa8ca0cfdcc714381975733b8170d3f121b017b0b80d50950841113311c5487f",
        "influence.txt": "24ba67b18035f6578d6db4dbeb4a9e8763e8e41dea1b492eb811a970b3ea1e38",
    },
}
BY_CLASSIFIER = {
    "nb": {"cv_report.tsv": "ec91df8e862385029be2faa377868d4af46c21e2d351cb595c0f68d8eb98f947"},
    "lr": {"cv_report.tsv": "6e0197b802b678d8b30fea85fb6a1556ee7c0e7524badabd782639f43788a14f"},
}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return generate_dataset(tmp_path_factory.mktemp("demo"), **harness.DEMO)


@pytest.mark.parametrize("method, classifier", harness.DEMO_COMBOS)
def test_demo_outputs_match_golden(demo, tmp_path, method, classifier):
    keys = ("interactions", "profiles", "embeddings", "lexicon")
    overrides = {key: str(demo[key]) for key in keys}
    cfg = resolve_config({}, {
        **overrides,
        "out": str(tmp_path),
        "seed": str(harness.DEMO["seed"]),
        "method": method,
        "classifier": classifier,
    })
    assert run_pipeline(cfg) == 0
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    expected = harness.load_golden()["demo"]["reports"][f"{method}/{classifier}"]
    assert harness.report_digest(report) == expected
    pinned = {**SHARED, **BY_METHOD[method], **BY_CLASSIFIER[classifier]}
    assert sorted(pinned) == sorted(set(harness.STAGE_OUTPUTS) - {"report.txt"})
    found = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in pinned
    }
    assert found == pinned


def _openblas_kernels() -> list[str | None]:
    """The default kernel plus older ones this CPU can run; None is the default."""
    cpuinfo = Path("/proc/cpuinfo")
    flags = cpuinfo.read_text().split() if cpuinfo.is_file() else []
    return [None, "Nehalem"] + (["Haswell"] if "avx2" in flags else [])


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OpenBLAS core types named here are x86-64 kernels",
)
@pytest.mark.parametrize("method, classifier", [("mcl", "nb"), ("k-destinations", "lr")])
def test_demo_outputs_identical_under_every_openblas_kernel(demo, tmp_path, method, classifier):
    src = Path(affinity_miner.__file__).parents[1]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(src)
    outputs = {}
    for kernel in _openblas_kernels():
        out = tmp_path / f"out-{kernel}"
        kernel_env = env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel}
        subprocess.run(
            harness.PIPELINE + harness.run_args(demo["config"], out, method, classifier),
            env=kernel_env,
            capture_output=True,
            check=True,
        )
        files = {name: (out / name).read_bytes() for name in harness.STAGE_OUTPUTS}
        report = files["report.txt"].decode("utf-8")
        files["report.txt"] = harness.report_without_config(report).encode("utf-8")
        outputs[kernel] = files
    default = outputs.pop(None)
    differing = {
        kernel: [name for name in harness.STAGE_OUTPUTS if files[name] != default[name]]
        for kernel, files in outputs.items()
    }
    assert differing == {kernel: [] for kernel in outputs}
