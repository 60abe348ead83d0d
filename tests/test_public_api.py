"""The documented top-level API surface must stay importable and usable."""

from __future__ import annotations

import pytest

import repro
from repro import (
    Belief,
    BeliefSet,
    Paradigm,
    TrustNetwork,
    binarize,
    certain_snapshot,
    resolve,
    resolve_skeptic,
    resolve_with_constraints,
)


def test_version_is_exposed():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_snippet():
    tn = TrustNetwork()
    tn.add_trust("alice", "bob", priority=100)
    tn.add_trust("alice", "charlie", priority=50)
    tn.add_trust("bob", "alice", priority=80)
    tn.set_explicit_belief("bob", "fish")
    tn.set_explicit_belief("charlie", "knot")
    result = resolve(binarize(tn).btn)
    assert result.certain_value("alice") == "fish"


def test_certain_snapshot_helper_is_exported(simple_network):
    assert certain_snapshot(simple_network)["x1"] == "v"


def test_constrained_entry_point_roundtrip():
    tn = TrustNetwork()
    tn.add_trust("x", "filter", priority=2)
    tn.add_trust("x", "source", priority=1)
    tn.set_explicit_belief("filter", BeliefSet.from_negatives(["bad"]))
    tn.set_explicit_belief("source", "good")
    for paradigm in ("A", "E", "S", Paradigm.SKEPTIC):
        resolution = resolve_with_constraints(tn, paradigm)
        assert resolution.certain_positive_value("x") == "good"
    assert resolve_skeptic(tn).certain_positive_values("x") == frozenset({"good"})


def test_belief_constructors_are_exported():
    assert Belief.positive("v").is_positive
    assert BeliefSet.bottom().is_bottom


#: The locked surface of repro.bulk: removing or renaming any of these is a
#: breaking change and must be deliberate (update this list in the same PR).
BULK_API = [
    "BOTTOM_VALUE",
    "BulkResolver",
    "BulkRunReport",
    "CompiledPlan",
    "CompiledRegion",
    "DEFAULT_MAX_BIND_PARAMS",
    "DagNode",
    "DbApiBackend",
    "FloodStep",
    "GroupedCopyStep",
    "PlanDag",
    "PlanPatch",
    "PossRow",
    "PossStore",
    "RegionLimits",
    "ResolutionPlan",
    "SCHEDULERS",
    "ShardSpec",
    "ShardedPossStore",
    "SkepticBulkResolver",
    "SqlBackend",
    "SqlDialect",
    "SqliteFileBackend",
    "SqliteMemoryBackend",
    "compile_plan",
    "patch_plan",
    "plan_dag",
    "plan_resolution",
    "plan_skeptic_resolution",
    "probe_max_bind_params",
    "resolve_dialect",
    "splice_compiled",
    "sqlite_dialect",
    "sqlite_max_bind_params",
]


def test_bulk_surface_is_locked():
    import repro.bulk

    assert sorted(repro.bulk.__all__) == BULK_API
    for name in repro.bulk.__all__:
        assert hasattr(repro.bulk, name), name


#: The locked surface of repro.incremental (same contract as BULK_API).
INCREMENTAL_API = [
    "AddTrust",
    "Delta",
    "DeltaApplyReport",
    "DeltaLog",
    "DeltaResolver",
    "IncrementalSession",
    "RemoveBelief",
    "RemoveTrust",
    "RemoveUser",
    "RowChange",
    "SetBelief",
    "SetPriority",
    "SkepticDeltaLog",
    "SkepticDeltaResolver",
    "SkepticRowChange",
    "coalesce",
    "is_structural",
]


def test_incremental_surface_is_locked():
    import repro.incremental

    assert sorted(repro.incremental.__all__) == INCREMENTAL_API
    for name in repro.incremental.__all__:
        assert hasattr(repro.incremental, name), name


def test_incremental_round_trip():
    """The new names work together end to end through the public surface."""
    from repro.incremental import (
        DeltaResolver,
        IncrementalSession,
        SetBelief,
        is_structural,
    )

    tn = TrustNetwork()
    tn.add_trust("mirror", "source", priority=1)
    tn.set_explicit_belief("source", "v")
    resolver = DeltaResolver(tn)
    log = resolver.apply(SetBelief("source", "w"))
    assert not is_structural(log.delta)
    assert resolver.possible["mirror"] == frozenset({"w"})

    session = IncrementalSession(tn.copy())
    report = session.apply(SetBelief("source", "z"))
    assert report.transactions == 1
    assert session.store.possible_values("mirror", "k0") == frozenset({"z"})
    session.close()


def test_sharded_engine_round_trip():
    """The new names work together end to end through the public surface."""
    from repro.bulk import BulkResolver, ShardSpec, ShardedPossStore

    tn = TrustNetwork()
    tn.add_trust("mirror", "source", priority=1)
    store = ShardedPossStore(ShardSpec.hashed(2))
    resolver = BulkResolver(tn, store=store, explicit_users=["source"])
    resolver.load_beliefs([("source", "k0", "v"), ("source", "k1", "w")])
    report = resolver.run()
    assert report.shards == 2
    assert report.dag_stages == resolver.plan.dag().stage_count
    assert report.scheduler == "replay"
    assert store.possible_values("mirror", "k0") == frozenset({"v"})
    assert store.possible_values("mirror", "k1") == frozenset({"w"})
    store.close()


def test_compiled_engine_round_trip():
    """compile_plan -> scheduler="compiled" -> EngineReport through the
    public surface: the compiled run is byte-identical and cheaper."""
    from repro import ResolutionEngine
    from repro.bulk import CompiledPlan, CompiledRegion, compile_plan, plan_resolution

    tn = TrustNetwork()
    tn.add_trust("b", "a", priority=1)
    tn.add_trust("c", "b", priority=1)
    tn.add_trust("d", "c", priority=1)
    tn.set_explicit_belief("a", "v")

    compiled = compile_plan(plan_resolution(tn))
    assert isinstance(compiled, CompiledPlan)
    assert all(isinstance(region, CompiledRegion) for region in compiled.regions)
    assert compiled.statement_count() < compiled.replay_statement_count()

    with ResolutionEngine.open(tn.copy()) as plain:
        plain.materialize()
        reference = sorted(plain.store.possible_table())
    with ResolutionEngine.open(tn) as engine:
        report = engine.materialize(compiled=True)
        assert report.scheduler == "compiled"
        assert report.regions_compiled >= 1
        assert report.statements_saved > 0
        assert report.statements < report.statements_saved + report.statements
        assert sorted(engine.store.possible_table()) == reference


#: The locked surface of repro.engine (same contract as BULK_API).
ENGINE_API = [
    "EngineReport",
    "MODES",
    "ResolutionEngine",
]


def test_engine_surface_is_locked():
    import repro.engine

    assert sorted(repro.engine.__all__) == ENGINE_API
    for name in repro.engine.__all__:
        assert hasattr(repro.engine, name), name
    # The façade is re-exported at the top level.
    import repro

    assert repro.ResolutionEngine is repro.engine.ResolutionEngine
    assert repro.EngineReport is repro.engine.EngineReport
    assert "ResolutionEngine" in repro.__all__
    assert "EngineReport" in repro.__all__


def test_unified_engine_round_trip():
    """resolve -> materialize -> apply -> query through the public surface."""
    from repro import ResolutionEngine
    from repro.incremental import SetBelief

    tn = TrustNetwork()
    tn.add_trust("mirror", "source", priority=1)
    tn.set_explicit_belief("source", "v")
    with ResolutionEngine.open(tn) as engine:
        assert engine.resolve().resolutions["k0"].possible["mirror"] == frozenset(
            {"v"}
        )
        assert engine.materialize().transactions == 1
        report = engine.apply(SetBelief("source", "w"))
        assert report.operation == "apply"
        assert engine.query("mirror") == frozenset({"w"})


FAULTS_API = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjectingBackend",
    "FaultPolicy",
    "RetryPolicy",
    "ScriptedFault",
]


def test_faults_surface_is_locked():
    import repro.faults

    assert sorted(repro.faults.__all__) == FAULTS_API
    for name in repro.faults.__all__:
        assert hasattr(repro.faults, name), name


#: The locked surface of repro.obs (same contract as BULK_API).
OBS_API = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "compare_runs",
    "export_chrome_trace",
    "export_jsonl",
    "format_comparison",
    "format_span_tree",
    "install_cli_handler",
    "interval_union",
    "load_spans",
]


def test_obs_surface_is_locked():
    import repro.obs

    assert sorted(repro.obs.__all__) == OBS_API
    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name), name


def test_traced_round_trip():
    """materialize(trace=True) records spans behind the public surface."""
    from repro import ResolutionEngine
    from repro.obs import Tracer, chrome_trace

    tn = TrustNetwork()
    tn.add_trust("mirror", "source", priority=1)
    tn.set_explicit_belief("source", "v")
    with ResolutionEngine.open(tn) as engine:
        report = engine.materialize(trace=True)
        tracer = report.trace
        assert isinstance(tracer, Tracer)
        assert tracer.spans_named("engine.materialize")
        assert tracer.spans_named("bulk.run")
        assert tracer.metrics.get("poss.statements.bulk") > 0
        assert chrome_trace(tracer)["traceEvents"]


def test_fault_tolerant_round_trip():
    """Injected transient faults are absorbed behind the public surface."""
    from repro import ResolutionEngine
    from repro.bulk import PossStore, SqliteMemoryBackend
    from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy

    tn = TrustNetwork()
    tn.add_trust("mirror", "source", priority=1)
    tn.set_explicit_belief("source", "v")
    store = PossStore(
        backend=FaultInjectingBackend(
            SqliteMemoryBackend(),
            FaultPolicy(seed=3, probability=0.2, sites=("execute",)),
        ),
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0, max_delay=0.0),
    )
    with ResolutionEngine.open(tn, store=store) as engine:
        report = engine.materialize()
        assert engine.query("mirror") == frozenset({"v"})
        assert report.retries == report.faults_injected
