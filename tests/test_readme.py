"""README's library-use example runs as written against a synth demo, and its
config table lists PipelineConfig's fields and defaults."""

import re
from dataclasses import fields
from pathlib import Path

from affinity_miner.cli import PipelineConfig
from affinity_miner.synth import generate_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_on_demo(tmp_path, monkeypatch):
    paths = generate_dataset(tmp_path, seed=7, users_per_type=12)
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


def config_table() -> dict[str, str]:
    """key -> default text of README's config table; a row naming several
    keys gives each its own comma-separated default, or one for all."""
    section = README.read_text(encoding="utf-8").split("| key | default | meaning |\n", 1)[1]
    table = {}
    for row in section.split("\n\n", 1)[0].splitlines()[1:]:
        keys, defaults = (cell.strip() for cell in row.strip("|").split("|")[:2])
        keys, defaults = keys.split(", "), defaults.split(", ")
        assert len(defaults) in (1, len(keys)), row
        for key, default in zip(keys, defaults * len(keys)):
            assert key not in table, f"{key} listed twice"
            table[key] = default
    return table


def test_config_table_matches_pipeline_config():
    table = config_table()
    config = PipelineConfig()
    assert list(table) == [f.name for f in fields(PipelineConfig)]
    for key, text in table.items():
        default = getattr(config, key)
        documented = "" if text == "—" else type(default)(text)
        assert documented == default, f"{key}: README says {text}, PipelineConfig() has {default!r}"
