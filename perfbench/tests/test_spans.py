"""Self-time arithmetic, span recording and the path-independent report hash."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import report_digest  # noqa: E402
from spans import Tracer, inclusive_by_name, self_by_name, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the children cover 1..6, not 6 s
        ["c", 2.0, 3.0, 1],
        ["d", 2.5, 3.5, 3],  # outlives its parent c: only 2.5..3 counts
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 0.5, 1.0]


def test_self_time_sums_per_name_and_inclusive_counts_outermost_only():
    spans = [
        ["layer.outer", 0.0, 4.0, -1],
        ["layer.inner", 1.0, 3.0, 0],
        ["other", 5.0, 6.0, -1],
        ["layer.inner", 6.5, 7.0, -1],
    ]
    assert self_by_name(spans) == {"layer.outer": 2.0, "layer.inner": 2.5, "other": 1.0}
    assert inclusive_by_name(spans, "layer.") == 4.5
    assert inclusive_by_name(spans, "missing.") == 0.0


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return [x] * x

    traced_leaf = tracer.wrap(
        leaf, "leaf", lambda counts, r, a, k: counts.update({"items": len(r)})
    )
    outer = tracer.wrap(lambda: traced_leaf(2) + traced_leaf(3), lambda: "outer")
    assert outer() == [2, 2, 3, 3, 3]
    assert tracer.spans == [
        ["outer", 0.0, 5.0, -1],
        ["leaf", 1.0, 2.0, 0],
        ["leaf", 3.0, 4.0, 0],
    ]
    assert tracer.counts["items"] == 5


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer(clock=lambda: 1.0)

    def boom():
        raise ValueError("x")

    traced = tracer.wrap(boom, "boom")
    try:
        traced()
    except ValueError:
        pass
    assert tracer.spans == [["boom", 1.0, 1.0, -1]]
    assert tracer._open == []


def test_report_digest_ignores_config_section_only():
    body = "\n[ingest]\nevents = 3\n\n[graph]\nnodes = 2\n"
    a = "# affinity-miner pipeline report\n\n[config]\nout = /a\n" + body
    b = "# affinity-miner pipeline report\n\n[config]\nout = /b/c\nseed = 1\n" + body
    assert report_digest(a) == report_digest(b)
    assert report_digest(a) != report_digest(a.replace("nodes = 2", "nodes = 3"))
