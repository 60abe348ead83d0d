"""Exporter round trips: JSON-lines, Chrome trace_event, plain-text tree."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    Span,
    Tracer,
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    format_span_tree,
    load_spans,
)


@pytest.fixture
def recorded() -> Tracer:
    """A small two-thread trace: a run span, a worker lane, an instant."""
    tracer = Tracer()
    root = tracer.start("bulk.run", scheduler="replay")
    with tracer.span("statement", op="insert"):
        tracer.event("fault", site="execute")

    def lane() -> None:
        with tracer.span("shard.replay", parent=root, shard=1):
            with tracer.span("statement", op="flood"):
                pass

    thread = threading.Thread(target=lane, name="shard1")
    thread.start()
    thread.join()
    tracer.finish(root)
    return tracer


class TestJsonl:
    def test_round_trip(self, recorded, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        written = export_jsonl(recorded, path)
        assert written == len(recorded.spans)
        loaded = load_spans(path)
        assert [s.to_dict() for s in loaded] == [
            s.to_dict() for s in recorded.spans
        ]

    def test_span_list_input(self, recorded, tmp_path):
        path = str(tmp_path / "subset.jsonl")
        subset = recorded.spans_named("statement")
        assert export_jsonl(subset, path) == 2
        assert [s.name for s in load_spans(path)] == ["statement", "statement"]


class TestChromeTrace:
    def test_document_structure(self, recorded):
        document = chrome_trace(recorded)
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        json.dumps(document)  # the whole document must be JSON-serializable

        meta = [e for e in events if e["ph"] == "M"]
        durations = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(meta) == 2  # one thread_name record per recording thread
        assert {e["args"]["name"] for e in meta} == {"MainThread", "shard1"}
        assert len(durations) == len([s for s in recorded.spans if not s.instant])
        assert len(instants) == 1 and instants[0]["s"] == "t"

        for event in durations + instants:
            assert event["pid"] == 1
            assert event["ts"] >= 0.0  # microseconds relative to the origin
            assert event["cat"] == event["name"].split(".", 1)[0]
            assert "span_id" in event["args"]
        assert all(e["dur"] >= 0.0 for e in durations)

    def test_parent_edges_and_tids(self, recorded):
        events = chrome_trace(recorded)["traceEvents"]
        tid_of = {
            e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"
        }
        shard = next(e for e in events if e["name"] == "shard.replay")
        root = next(e for e in events if e["name"] == "bulk.run")
        assert shard["tid"] == tid_of["shard1"]
        assert root["tid"] == tid_of["MainThread"]
        assert shard["args"]["parent_id"] == root["args"]["span_id"]
        assert "parent_id" not in root["args"]

    def test_export_writes_valid_json(self, recorded, tmp_path):
        path = str(tmp_path / "trace.json")
        count = export_chrome_trace(recorded, path)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert count == len(document["traceEvents"])
        assert count > 0

    def test_empty_trace(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestSpanTree:
    def test_nesting_and_markers(self, recorded):
        text = format_span_tree(recorded)
        lines = text.splitlines()
        assert lines[0].startswith("- bulk.run ")
        assert any(line.startswith("  - statement") for line in lines)
        assert any(line.startswith("    ! fault") for line in lines)
        assert any("[shard1]" in line for line in lines)
        assert "'instant'" not in text  # bookkeeping tag is hidden

    def test_orphans_promoted_to_roots(self):
        orphan = Span("lost", span_id=7, parent_id=99, thread="t", started=0.0)
        orphan.ended = 1.0
        text = format_span_tree([orphan], unit="s")
        assert text == "- lost 1.000s [t]"
