"""One engine, three execution paths: a live curation session end to end.

The earlier examples drive each path separately — ``bulk_curation.py`` the
Section 4 SQL replay, ``update_reconciliation.py`` the delta resolvers.
This one runs the same story through the unified façade
(:class:`repro.engine.ResolutionEngine`): open an engine over a sharded
store, materialize the relation through the bulk plan, absorb a
high-rate burst of updates as one coalesced batch, and answer point
queries — watching the engine patch its plan instead of re-planning.

Run with::

    PYTHONPATH=src python examples/engine_session.py
"""

from __future__ import annotations

from repro import ResolutionEngine, TrustNetwork
from repro.incremental import AddTrust, SetBelief


def build_network() -> TrustNetwork:
    """A small curation community: two sources, a chain of mirrors."""
    tn = TrustNetwork()
    tn.add_trust("curator", "museum", priority=2)
    tn.add_trust("curator", "wiki", priority=1)
    tn.add_trust("mirror", "curator", priority=1)
    tn.add_trust("archive", "mirror", priority=1)
    tn.set_explicit_belief("museum", "bronze-age")
    tn.set_explicit_belief("wiki", "iron-age")
    return tn


def main() -> None:
    engine = ResolutionEngine.open(
        build_network(), shards=2, keys=("artifact-1", "artifact-2")
    )

    resolved = engine.resolve()
    print(
        "resolve:    curator believes",
        sorted(resolved.resolutions["artifact-1"].possible["curator"]),
        "for artifact-1 (in memory)",
    )

    report = engine.materialize()
    print(
        f"materialize: {report.statements} statements, "
        f"{report.transactions} transactions over {report.shards} shards "
        f"({report.scheduler} scheduler, plan {report.plan_source})"
    )

    # A bursty update stream: the museum flip-flops, a new mirror joins.
    burst = [
        SetBelief("museum", "late-bronze", key="artifact-1"),
        SetBelief("museum", "early-iron", key="artifact-1"),
        SetBelief("museum", "early-iron", key="artifact-2"),
        AddTrust("replica", "archive", priority=1),
    ]
    report = engine.apply(*burst)
    print(
        f"apply:       {report.coalesced_from} ops coalesced to "
        f"{report.deltas}, {report.recomputes} regional recomputes, "
        f"plan {report.plan_source}"
    )

    for key in engine.keys:
        print(f"query:       replica sees {sorted(engine.query('replica', key))} for {key}")
    engine.close()


if __name__ == "__main__":
    main()
