"""README's library-use example runs as written against a synth demo."""

import re
from pathlib import Path

from affinity_miner import generate_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_on_demo(tmp_path, monkeypatch):
    paths = generate_dataset(tmp_path, seed=7)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)

    lines = paths["interactions"].read_text(encoding="utf-8").splitlines()
    events, profiles, g = namespace["events"], namespace["profiles"], namespace["g"]
    assert len(events) == len(lines)
    assert sorted(u for cluster in namespace["members"] for u in cluster) == sorted(g.nodes)
    kept = {p.user_id for p in profiles}
    assert namespace["documents"] and set(namespace["documents"]) <= kept
    assert namespace["report"] is not None
