"""Bulk conflict resolution over many objects via SQL (Section 4).

The package splits the bulk path into these layers:

* :mod:`repro.bulk.planner` — compiles a trust network into an ordered
  :class:`ResolutionPlan` of copy/flood steps (data-independent; copies
  from one parent always form one :class:`GroupedCopyStep`) through one
  planning loop shared by fresh, Skeptic and patched plans, and lowers it
  to a dependency DAG (:class:`PlanDag`) whose stages are units of safe
  parallelism;
* :mod:`repro.bulk.store` — the ``POSS(X, K, V)`` relation plus the bulk
  ``INSERT … SELECT`` statements and the run-scoped transaction;
  :class:`ShardedPossStore` routes the relation by object key across N
  child stores (a single store is the one-shard case);
* :mod:`repro.bulk.backends` — pluggable SQL engines, index strategies and
  shard routing (:class:`ShardSpec`) behind the store;
* :mod:`repro.bulk.executor` — executes a plan region by region against
  a store inside one transaction (or one per region under a checkpoint)
  through a single run loop, once per shard of the store, and reports
  instrumentation;
* :mod:`repro.bulk.planpatch` — patches a plan's affected region after a
  structural delta instead of re-planning the network
  (:func:`patch_plan`, consumed by :class:`repro.engine.ResolutionEngine`);
* :mod:`repro.bulk.compile` / :mod:`repro.bulk.sql` — compiles a plan into
  contiguous *regions* (:func:`compile_plan`): runs of acyclic copies
  collapse into one flat join against their compile-time frontier
  ancestors each, independent flood steps into one ``SELECT DISTINCT``
  stage each, with statement-at-a-time replay on a store without a SQL
  dialect.  The ``replay``
  scheduler lowers a plan to one-step replay regions instead; the run loop
  in :mod:`repro.bulk.executor` executes either;
  :func:`splice_compiled` carries a compiled plan across a patch.
"""

from repro.bulk.backends import (
    DEFAULT_MAX_BIND_PARAMS,
    DbApiBackend,
    ShardSpec,
    SqlBackend,
    SqliteFileBackend,
    SqliteMemoryBackend,
    probe_max_bind_params,
    sqlite_max_bind_params,
)
from repro.bulk.compile import (
    CompiledPlan,
    CompiledRegion,
    RegionLimits,
    compile_plan,
)
from repro.bulk.executor import (
    SCHEDULERS,
    BulkResolver,
    BulkRunReport,
    SkepticBulkResolver,
)
from repro.bulk.planner import (
    DagNode,
    FloodStep,
    GroupedCopyStep,
    PlanDag,
    ResolutionPlan,
    plan_dag,
    plan_resolution,
    plan_skeptic_resolution,
)
from repro.bulk.planpatch import PlanPatch, patch_plan, splice_compiled
from repro.bulk.sql import SqlDialect, resolve_dialect, sqlite_dialect
from repro.bulk.store import BOTTOM_VALUE, PossRow, PossStore, ShardedPossStore

__all__ = [
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
    "sqlite_max_bind_params",
    "resolve_dialect",
    "splice_compiled",
    "sqlite_dialect",
]
