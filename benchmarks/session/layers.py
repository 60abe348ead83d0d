"""Per-layer attribution recorded from outside the program.

:class:`LayerRecorder` replaces public functions of each layer (the planner,
compiler, executor, store, plan patcher and incremental resolver) with thin
wrappers that open a span on the recorder's own
:class:`~repro.obs.trace.Tracer` around every call, and restores the
originals on exit.  The engine never sees that tracer, so nothing under
``src/`` runs differently: the only cost of a traced call is the wrappers
themselves, which ``trace.overhead`` measures against calls made with the
originals in place.

The benchmark enters the recorder around each traced verb call and opens one
``engine.<verb>`` span inside it; layer spans opened inside that nest under
it through the tracer's per-thread stack (the session is single-threaded).
Outside those calls the program runs its own functions.
:meth:`LayerRecorder.metrics` then reduces the spans to the ``per_layer``
metrics of ``BENCHMARK.json``: per-layer seconds are interval unions, as in
:mod:`repro.obs.compare`, and a verb's ``self_s`` is its duration minus the
union of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from typing import Callable, Dict, List, Tuple

from repro.obs.trace import Tracer, interval_union

#: The engine verbs the benchmark calls, in session order.
VERBS = ("open", "materialize", "apply", "query")

#: Store methods that run one region or plan step as SQL (compiled regions
#: and the statement-at-a-time replay fallback).
REGION_STATEMENTS = (
    "copy_region",
    "flood_stage",
    "blocked_flood",
    "copy_from_parent",
    "copy_to_children",
    "flood_component",
    "flood_component_skeptic",
)

#: Layers whose wrapper must fire at least once in every workload; a rename
#: inside the program that bypasses a wrapper shows up here, not as a
#: silently zeroed layer.
LAYERS = (
    "core.resolve",
    "bulk.planner.plan_resolution",
    "bulk.compile.compile_plan",
    "bulk.executor.load_beliefs",
    "bulk.executor.run",
    "bulk.store.clear",
    "bulk.store.insert_explicit_beliefs",
    "bulk.store.region_sql",
    "bulk.store.transaction",
    "bulk.store.delete_user_rows",
    "bulk.store.insert_rows",
    "bulk.store.possible_values",
    "bulk.planpatch.patch_plan",
    "bulk.planpatch.splice_compiled",
    "incremental.recompute",
    "incremental.coalesce",
)

#: What each workload was chosen for, as layer shares of a verb:
#: ``(workload, label, numerator layers, verb, op, threshold)``.
CHECKS = (
    (
        "cycles-stream",
        "plan patching share of engine.apply",
        ("bulk.planpatch.patch_plan.s", "bulk.planpatch.splice_compiled.s"),
        "engine.apply.s",
        ">=",
        0.80,
    ),
    (
        "objects-bulk",
        "executor share of engine.materialize",
        ("bulk.executor.run.s",),
        "engine.materialize.s",
        ">=",
        0.70,
    ),
    (
        "web-session",
        "recompute share of engine.apply",
        ("incremental.recompute.s",),
        "engine.apply.s",
        ">=",
        0.15,
    ),
    (
        "cycles-stream",
        "recompute share of engine.apply",
        ("incremental.recompute.s",),
        "engine.apply.s",
        "<=",
        0.05,
    ),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerRecorder:
    """Wrap each layer's public functions with spans on a private tracer.

    Use as a context manager, once per traced call: the wrappers are
    installed on entry and the original attributes restored on exit,
    whatever happens in between.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: Work counts read off the wrapped calls' arguments and results.
        self.counts: Counter = Counter()
        #: ``(owner, attribute, wrapper, original)``; ``original`` is None
        #: when the owner inherits the attribute.
        self._swaps: List[Tuple[object, str, Callable, object]] = []
        for owner, attribute, name, on_result in self._targets():
            wrapper = self._wrap(getattr(owner, attribute), name, on_result)
            self._swaps.append((owner, attribute, wrapper, vars(owner).get(attribute)))
        self._installed = 0

    # -- installation ------------------------------------------------------

    def _targets(self):
        import repro.engine as engine_module
        import repro.incremental.resolver as resolver_module
        import repro.incremental.session as session_module
        from repro.bulk.executor import BulkResolver
        from repro.bulk.store import PossStore
        from repro.incremental.resolver import DeltaResolver

        counts = self.counts

        def rows_written(_args, result):
            counts["bulk.store.rows_written"] += int(result or 0)

        def regions(_args, result):
            counts["bulk.compile.regions"] += len(result.regions)

        def statements(_args, result):
            counts["bulk.executor.statements"] += result.statements

        def recomputed(_args, log):
            counts["incremental.dirty_users"] += log.dirty_region
            counts["incremental.recomputed_users"] += log.recomputed
            counts["incremental.changed_users"] += len(log.changes)

        def coalesced(args, result):
            counts["incremental.coalesce.in"] += len(args[0])
            counts["incremental.coalesce.out"] += len(result)

        return [
            (resolver_module, "resolve", "core.resolve", None),
            (engine_module, "plan_resolution", "bulk.planner.plan_resolution", None),
            (engine_module, "compile_plan", "bulk.compile.compile_plan", regions),
            (engine_module, "patch_plan", "bulk.planpatch.patch_plan", None),
            (engine_module, "splice_compiled", "bulk.planpatch.splice_compiled", None),
            (BulkResolver, "load_beliefs", "bulk.executor.load_beliefs", None),
            (BulkResolver, "run", "bulk.executor.run", statements),
            (PossStore, "clear", "bulk.store.clear", None),
            (
                PossStore,
                "insert_explicit_beliefs",
                "bulk.store.insert_explicit_beliefs",
                rows_written,
            ),
            (PossStore, "delete_user_rows", "bulk.store.delete_user_rows", None),
            (PossStore, "insert_rows", "bulk.store.insert_rows", rows_written),
            (PossStore, "possible_values", "bulk.store.possible_values", None),
            *(
                (PossStore, method, "bulk.store.region_sql", rows_written)
                for method in REGION_STATEMENTS
            ),
            (DeltaResolver, "apply_batch", "incremental.recompute", recomputed),
            (session_module, "coalesce_deltas", "incremental.coalesce", coalesced),
            (PossStore, "transaction", "bulk.store.transaction", None),
        ]

    def _wrap(self, function, name: str, on_result) -> Callable:
        tracer = self.tracer
        if name == "bulk.store.transaction":
            return self._wrap_transaction(function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            current = tracer.current()
            if current is not None and current.name == name:
                # A layer calling itself (copy_to_children -> copy_from_parent)
                # is one call of that layer, not two.
                return function(*args, **kwargs)
            span = tracer.start(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.finish(span)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _wrap_transaction(self, transaction):
        tracer = self.tracer

        @contextlib.contextmanager
        @functools.wraps(transaction)
        def wrapper(store):
            span = tracer.start("bulk.store.transaction")
            try:
                with transaction(store) as inner:
                    yield inner
            finally:  # enter -> exit, commit or rollback included
                tracer.finish(span)

        return wrapper

    def __enter__(self) -> "LayerRecorder":
        try:
            for owner, attribute, wrapper, _ in self._swaps:
                setattr(owner, attribute, wrapper)
                self._installed += 1
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            self._installed -= 1
            owner, attribute, _, original = self._swaps[self._installed]
            if original is None:  # inherited: drop the override to expose the base
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- reduction ---------------------------------------------------------

    def fired(self) -> Tuple[str, ...]:
        """Layers whose wrapper recorded at least one span."""
        names = {span.name for span in self.tracer.spans}
        return tuple(layer for layer in LAYERS if layer in names)

    def metrics(
        self, plan_sources: Counter, retries: int
    ) -> Dict[str, float]:
        """Every per-layer value of this recording, by metric name.

        ``trace.overhead`` is not among them: it compares traced with
        untraced calls, which the caller times.  ``BENCHMARK.json`` picks
        which of these a run reports, and gives their units.
        """
        spans = [span for span in self.tracer.spans if not span.instant]
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in spans:
            intervals.setdefault(span.name, []).append(span.interval())
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span.interval())
        seconds = {name: interval_union(found) for name, found in intervals.items()}
        calls = {name: len(found) for name, found in intervals.items()}

        values: Dict[str, float] = {}
        for verb in VERBS:
            total = covered = 0.0
            for span in spans:
                if span.name == f"engine.{verb}":
                    total += span.duration
                    covered += interval_union(children.get(span.span_id, ()))
            values[f"engine.{verb}.s"] = total
            values[f"engine.{verb}.self_s"] = total - covered
            values[f"trace.coverage.{verb}"] = _ratio(covered, total)
        # No "fresh": a compiled materialize reports "cached" even when it
        # planned afresh; bulk.planner.plan_resolution.calls counts those.
        for source in ("patched", "cached"):
            values[f"engine.plan_source.{source}"] = plan_sources[source]
        for layer in LAYERS:
            values[f"{layer}.s"] = seconds.get(layer, 0.0)
            values[f"{layer}.calls"] = calls.get(layer, 0)
        counts = self.counts
        values.update(
            {
                "bulk.compile.regions": counts["bulk.compile.regions"],
                "bulk.executor.statements": counts["bulk.executor.statements"],
                "bulk.store.rows_written": counts["bulk.store.rows_written"],
                "bulk.store.retries": retries,
                "incremental.dirty_users": counts["incremental.dirty_users"],
                "incremental.recomputed_users": counts["incremental.recomputed_users"],
                "incremental.changed_ratio": _ratio(
                    counts["incremental.changed_users"],
                    counts["incremental.recomputed_users"],
                ),
                "incremental.coalesce.kept_ratio": _ratio(
                    counts["incremental.coalesce.out"], counts["incremental.coalesce.in"]
                ),
            }
        )
        return values


def check_shares(workload: str, values: Dict[str, float]) -> List[Dict[str, object]]:
    """Evaluate the workload's :data:`CHECKS` against per-layer values."""
    results = []
    for name, label, numerators, verb, op, threshold in CHECKS:
        if name != workload:
            continue
        share = _ratio(sum(values[layer] for layer in numerators), values[verb])
        holds = share >= threshold if op == ">=" else share <= threshold
        results.append(
            {"check": label, "share": share, "expect": f"{op} {threshold:.2f}", "holds": holds}
        )
    return results


def format_table(workload: str, values: Dict[str, float], checks, units: Dict[str, str]) -> str:
    """Plain-text table of the reported per-layer metrics plus share checks."""
    lines = [f"per-layer split: {workload}", f"{'metric':<40} {'value':>14} unit"]
    for name, unit in units.items():
        if name in values:
            lines.append(f"{name:<40} {values[name]:>14.6g} {unit}")
    for check in checks:
        mark = "ok" if check["holds"] else "NOT MET"
        lines.append(
            f"check: {check['check']} = {check['share']:.1%} "
            f"(expect {check['expect']}) {mark}"
        )
    return "\n".join(lines)
