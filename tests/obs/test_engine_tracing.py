"""End-to-end tracing through the engine: the acceptance scenario.

A traced ``materialize(compiled=True)`` on a sharded file-backed store must
export a valid Chrome trace whose spans cover (essentially all of) the
verb's wall time, show the shard replay lanes overlapping, and aggregate to
exactly the counts the run report carries.  Tracing must also be inert:
the POSS relation is byte-identical with tracing on and off, and
``phase_seconds`` never over-counts overlapped workers.
"""

from __future__ import annotations

import json

import pytest

from repro import ResolutionEngine
from repro.bulk.backends import SqliteFileBackend
from repro.bulk.executor import BulkResolver
from repro.bulk.store import ShardedPossStore
from repro.incremental import SetBelief
from repro.obs import Tracer, export_chrome_trace
from repro.workloads.bulkload import (
    BELIEF_USERS,
    chain_network,
    figure19_network,
    generate_objects,
)
from tests.conftest import random_binary_network


def _belief_chain(depth: int):
    """The scheduler-experiment chain with explicit beliefs installed."""
    network = chain_network(depth)
    network.set_explicit_belief(BELIEF_USERS[0], "v")
    network.set_explicit_belief(BELIEF_USERS[1], "w")
    return network


def _poss_bytes(store) -> bytes:
    rows = sorted((row.user, row.key, row.value) for row in store.possible_table())
    return "\n".join("|".join(row) for row in rows).encode()


def _descendants(spans, root):
    """All spans in the subtree under ``root`` (excluding the root)."""
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    out, frontier = [], [root.span_id]
    while frontier:
        next_frontier = []
        for parent_id in frontier:
            for child in children.get(parent_id, ()):
                out.append(child)
                next_frontier.append(child.span_id)
        frontier = next_frontier
    return out


class TestAcceptance:
    """Traced compiled materialize on two file-backed shards."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("obs-acceptance")
        backends = [
            SqliteFileBackend(str(directory / f"shard{i}.db")) for i in range(2)
        ]
        store = ShardedPossStore(2, backends=backends)
        # 300 keys give each lane a couple of hundred milliseconds of
        # replay, so the lanes overlap even on a loaded two-core host.
        engine = ResolutionEngine.open(
            _belief_chain(400),
            store=store,
            keys=tuple(f"k{i}" for i in range(300)),
        )
        report = engine.materialize(compiled=True, trace=True)
        yield engine, report, report.trace
        engine.close()

    def test_trace_handle_and_root_span(self, traced_run):
        _engine, report, tracer = traced_run
        assert isinstance(tracer, Tracer)
        (root,) = tracer.spans_named("engine.materialize")
        assert root.tags["compiled"] is True
        assert root.tags["statements"] == report.statements
        assert root.tags["rows"] == report.rows_inserted
        assert root.tags["shards"] == 2
        assert root.tags["scheduler"] == "compiled"
        assert report.scheduler == "compiled"
        assert report.bulk.regions_compiled > 0

    def test_span_tree_well_formed(self, traced_run):
        _engine, _report, tracer = traced_run
        spans = tracer.spans
        ids = {span.span_id for span in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids, span
            assert span.ended is not None and span.ended >= span.started
        (root,) = tracer.spans_named("engine.materialize")
        for name in ("engine.plan", "engine.compile", "engine.load_beliefs"):
            (child,) = tracer.spans_named(name)
            assert child.parent_id == root.span_id
            assert child.started >= root.started
            assert child.ended <= root.ended

    def test_coverage_of_wall_time(self, traced_run):
        _engine, _report, tracer = traced_run
        # The materialize root span accounts for the whole recorded window…
        assert tracer.coverage() >= 0.99
        # …and its direct children attribute the bulk of the inside of it
        # (the remainder is executor setup and report assembly glue).
        (root,) = tracer.spans_named("engine.materialize")
        children = [s for s in tracer.spans if s.parent_id == root.span_id]
        assert tracer.coverage(children) >= 0.50

    def test_shard_lanes_overlap(self, traced_run):
        _engine, _report, tracer = traced_run
        lanes = tracer.spans_named("shard.replay")
        assert {span.tags["shard"] for span in lanes} == {0, 1}
        latest_start = max(span.started for span in lanes)
        earliest_end = min(span.ended for span in lanes)
        assert earliest_end > latest_start  # the replay lanes ran concurrently
        assert {span.thread for span in lanes} == {"shard0", "shard1"}

    def test_aggregates_equal_report(self, traced_run):
        _engine, report, tracer = traced_run
        bulk = report.bulk
        (run,) = tracer.spans_named("bulk.run")
        # report.statements counts plan-execution statements: exactly the
        # statement spans inside the shard replay lanes (the bulk.run spans
        # outside the lanes are transaction/row-count bookkeeping).
        spans = tracer.spans
        replayed = []
        for lane in tracer.spans_named("shard.replay"):
            assert lane.parent_id == run.span_id
            replayed.extend(_descendants(spans, lane))
        statements = [s for s in replayed if s.name == "statement"]
        attempts = [s for s in replayed if s.name == "attempt"]
        faults = [s for s in replayed if s.name == "fault"]
        assert len(statements) == bulk.statements
        assert len(attempts) == bulk.statements + bulk.retries
        assert len(faults) == bulk.faults_injected
        assert run.tags["statements"] == bulk.statements
        assert run.tags["rows"] == bulk.rows_inserted
        assert tracer.metrics.get("poss.retries") == bulk.retries
        assert tracer.metrics.get("poss.timeouts") == bulk.timed_out_statements

    def test_chrome_export_valid(self, traced_run, tmp_path):
        _engine, _report, tracer = traced_run
        path = str(tmp_path / "acceptance-trace.json")
        count = export_chrome_trace(tracer, path)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert count == len(events) and count > 0
        threads = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"MainThread", "shard0", "shard1"} <= threads
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0


class TestApplyTracing:
    def test_apply_records_session_subtree(self):
        with ResolutionEngine.open(_belief_chain(10)) as engine:
            engine.materialize()
            report = engine.apply(SetBelief(BELIEF_USERS[0], "w2"), trace=True)
            tracer = report.trace
            assert isinstance(tracer, Tracer)
            (root,) = tracer.spans_named("engine.apply")
            assert root.tags["statements"] == report.statements
            (batch,) = tracer.spans_named("session.apply_batch")
            assert batch.parent_id == root.span_id
            assert tracer.spans_named("session.coalesce")
            assert tracer.spans_named("session.recompute")
            assert tracer.spans_named("session.flush")
            assert (
                tracer.metrics.get("poss.statements.delta") == report.statements
            )


class TestTracingIsInert:
    def test_100_networks_byte_identical(self):
        """Tracing on/off leaves the POSS relation byte-identical."""
        for seed in range(100):
            network = random_binary_network(seed)
            with ResolutionEngine.open(network) as plain:
                plain.materialize()
                baseline = _poss_bytes(plain.store)
                plain_report = plain.materialize(compiled=True)
                compiled_baseline = _poss_bytes(plain.store)
            with ResolutionEngine.open(network) as traced:
                traced.materialize(trace=True)
                assert _poss_bytes(traced.store) == baseline, seed
                traced_report = traced.materialize(compiled=True, trace=True)
                assert _poss_bytes(traced.store) == compiled_baseline, seed
                assert traced_report.statements == plain_report.statements, seed

    def test_apply_byte_identical(self):
        def run(trace: bool) -> bytes:
            with ResolutionEngine.open(_belief_chain(20)) as engine:
                engine.materialize(trace=trace)
                engine.apply(SetBelief(BELIEF_USERS[0], "w9"), trace=trace)
                return _poss_bytes(engine.store)

        assert run(trace=False) == run(trace=True)


class TestPhaseSeconds:
    """Regression lock for the phase-attribution double count.

    ``phase_seconds`` values are unions of the recording lanes' intervals,
    so their sum can never exceed the run's wall clock — not even when
    several workers or shard lanes execute the same phase concurrently
    (which is exactly where the old per-lane sum over-counted).
    """

    def _check(self, report):
        assert report.phase_seconds, report
        for phase, seconds in report.phase_seconds.items():
            assert 0.0 <= seconds <= report.elapsed_seconds + 1e-6, (
                phase,
                report.phase_seconds,
                report.elapsed_seconds,
            )
        assert (
            sum(report.phase_seconds.values()) <= report.elapsed_seconds + 1e-6
        ), (report.phase_seconds, report.elapsed_seconds)

    def test_sharded_lanes_do_not_double_count(self, tmp_path):
        backends = [
            SqliteFileBackend(str(tmp_path / f"phase{i}.db")) for i in range(2)
        ]
        store = ShardedPossStore(2, backends=backends)
        resolver = BulkResolver(
            chain_network(200), store=store, explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(generate_objects(20, seed=3))
        report = resolver.run()
        store.close()
        assert report.shards == 2
        self._check(report)

    def test_serial_run_still_attributed(self):
        resolver = BulkResolver(figure19_network(), explicit_users=BELIEF_USERS)
        resolver.load_beliefs(generate_objects(50, seed=7))
        report = resolver.run()
        resolver.store.close()
        self._check(report)
        assert report.phase_seconds["copy"] > 0.0
