"""Region compiler: resolution plans → set-based SQL regions.

Statement-at-a-time replay executes one SQL statement per plan step, so a
400-step chain plan costs 400 driver round trips even though the work is a
single transitive closure the database could evaluate by itself.  This
module partitions the step sequence of a :class:`~repro.bulk.planner
.ResolutionPlan` into *compiled regions*:

``copy`` regions
    A maximal run of consecutive copy steps.  The edges of the
    run form a forest rooted at the region's closed frontier — every child
    is closed exactly once by Algorithm 1, and a copy only duplicates its
    parent's rows — so each child ends up with exactly the rows of its
    frontier ancestor.  The compiler resolves those ancestors once per
    region (:attr:`CompiledRegion.ancestors`), and the engine lands every
    child's rows with one flat ``VALUES`` join against ``POSS``
    (:meth:`~repro.bulk.sql.SqlDialect.copy_region_statement`), never
    reading a row the region itself has not yet derived.  The acyclic
    portion of a chain plan therefore executes as a *single* statement.

``flood`` regions
    A maximal run of consecutive unblocked flood steps whose parents are
    disjoint from the members of every flood already in the region (local
    independence).  Such a stage reads only rows committed before the
    region, so one ``SELECT DISTINCT`` pass
    (:meth:`~repro.bulk.sql.SqlDialect.flood_stage_statement`) floods all
    members at once.  A flood that reads an earlier flood's members starts
    a new region — preserving the replay's stage-by-stage semantics.

``blocked_flood`` regions
    A maximal run of consecutive *blocked* (Skeptic) flood steps under the
    same independence rule as unblocked floods.  The members' candidate
    rows are anti-joined against a per-member ``VALUES`` blocklist feeding
    the same ``DISTINCT`` de-dupe, plus a ``⊥`` branch for the rejected
    values (:meth:`~repro.bulk.sql.SqlDialect.blocked_flood_statement`), so
    `SkepticBulkResolver` compiles instead of falling back to replay.  The
    blocklist's bound parameters count against the same bind budget as the
    ``(member, parent)`` pairs.

``replay`` regions
    Steps the compiler cannot express as one statement: single steps whose
    parameter count alone exceeds the bind limit.  They execute exactly as
    the sequential replay would.  :func:`replay_plan` lowers a whole plan
    to one-step replay regions, which is how the executor runs the
    statement-at-a-time ``replay`` scheduler through the same loop.

Regions partition the plan's step sequence contiguously and in order, so
any contiguous tail of steps can be recompiled independently — that is what
:func:`repro.bulk.planpatch.splice_compiled` exploits to keep untouched
regions of a patched plan compiled.  Each region also maps to one
checkpoint journal marker (the plan index of its last step), which keeps
the region the unit of retry and resume under fault injection.

Region sizes come from :class:`RegionLimits`: the defaults assume the
historic 999-parameter sqlite bind limit, while
:meth:`RegionLimits.for_bind_params` sizes regions from the backend's
*probed* capacity (``store.max_bind_params``) so a modern engine compiles
deep chains into far fewer, larger regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.errors import BulkProcessingError
from repro.bulk.planner import FloodStep, GroupedCopyStep, ResolutionPlan, count_stages

#: Compiled region kinds, in the order the compiler may emit them.
REGION_KINDS = ("copy", "flood", "blocked_flood", "replay")

#: Edge cap per copy region: two bound parameters per edge stays far below
#: the historic sqlite limit of 999 bound parameters per statement.
MAX_COPY_EDGES = 480

#: (member, parent) pair cap per flood region, for the same bind limit.
MAX_FLOOD_PAIRS = 480


@dataclass(frozen=True)
class RegionLimits:
    """Bind-parameter budget the compiler sizes regions against.

    The defaults reproduce the historic conservative caps (two parameters
    per edge/pair under sqlite's old 999-parameter limit).
    :meth:`for_bind_params` derives caps from a backend's *probed* limit
    (:attr:`repro.bulk.backends.SqlBackend.max_bind_params`) instead, so a
    modern sqlite (32766+) or server engine compiles a deep chain into one
    region rather than dozens.  ``max_flood_pairs`` budgets blocked floods
    too: each blocklist ``(member, value)`` entry costs the same two bound
    parameters as a ``(member, parent)`` pair, so the compiler charges both
    against the one cap (one parameter is reserved for the ``⊥`` scalar).
    """

    max_copy_edges: int = MAX_COPY_EDGES
    max_flood_pairs: int = MAX_FLOOD_PAIRS

    @classmethod
    def for_bind_params(cls, max_bind_params: int) -> "RegionLimits":
        """Size region caps from a backend's bound-parameter limit."""
        # One parameter stays reserved for the blocked-flood ⊥ scalar; two
        # parameters per edge / pair / blocklist entry consume the rest.
        usable = max(int(max_bind_params) - 1, 2)
        cap = max(usable // 2, 1)
        return cls(max_copy_edges=cap, max_flood_pairs=cap)


def frontier_ancestors(
    edges: Sequence[Tuple[str, str]],
) -> Tuple[Tuple[str, str], ...]:
    """Map each ``(child, parent)`` copy edge to ``(child, frontier ancestor)``.

    Follows parent pointers with memoisation, so a region costs
    ``O(edges)`` however deep its chains run.  Raises
    :class:`~repro.core.errors.BulkProcessingError` on a cycle, which no
    plan produces: a cyclic copy run would have no frontier to read from.
    """
    parent_of = dict(edges)
    ancestor_of: Dict[str, str] = {}
    for child, _parent in edges:
        path: List[str] = []
        node = child
        while node in parent_of and node not in ancestor_of:
            path.append(node)
            if len(path) > len(parent_of):
                raise BulkProcessingError(
                    f"copy edges form a cycle through {child!r}"
                )
            node = parent_of[node]
        root = ancestor_of.get(node, node)
        for member in path:
            ancestor_of[member] = root
    return tuple((child, ancestor_of[child]) for child, _parent in edges)


@dataclass(frozen=True)
class CompiledRegion:
    """One contiguous run of plan steps executed as (at most) one statement.

    ``kind`` is one of :data:`REGION_KINDS`.  ``copy`` regions carry the
    flattened ``(child, parent)`` edges, ``flood`` regions the flattened
    ``(member, parent)`` pairs, ``blocked_flood`` regions the pairs plus
    the flattened ``(member, blocked value)`` blocklist; ``replay`` regions
    carry none of these and fall back to statement-at-a-time execution of
    ``steps``.  A ``copy`` region's compiled statement reads
    :attr:`ancestors`, derived from ``edges`` once per region.
    """

    kind: str
    steps: Tuple[object, ...]
    edges: Tuple[Tuple[str, str], ...] = ()
    pairs: Tuple[Tuple[str, str], ...] = ()
    blocked: Tuple[Tuple[str, str], ...] = ()

    def statement_count(self) -> int:
        """Statements this region issues when executed compiled."""
        if self.kind == "copy":
            return 1 if self.edges else 0
        if self.kind in ("flood", "blocked_flood"):
            return 1 if self.pairs else 0
        return self.replay_statement_count()

    @cached_property
    def _replay_statements(self) -> int:
        return sum(step.statement_count() for step in self.steps)

    def replay_statement_count(self) -> int:
        """Statements the same steps cost under sequential replay.

        Cached: the executor reads it for every region it runs, and a
        flood step's count walks its members.
        """
        return self._replay_statements

    @cached_property
    def ancestors(self) -> Tuple[Tuple[str, str], ...]:
        """One ``(child, frontier ancestor)`` pair per copy edge, in edge order.

        The frontier ancestor is the first parent up the region's parent
        pointers that is no edge's child: a user closed before the region,
        whose rows every child below it copies.  Cached, like
        :attr:`fingerprint`, so a warm materialize never walks the forest
        again.
        """
        return frontier_ancestors(self.edges)

    @cached_property
    def fingerprint(self) -> "str | None":
        """Content key of the per-store compiled-statement cache.

        Two regions with equal kind/edges/pairs/blocked render identical
        SQL and parameters, so the rendered statement of one can serve the
        other — that is what lets repeated runs and incremental re-applies
        skip re-rendering the compiled statements.  ``replay`` regions return
        ``None``: they carry opaque step objects, not statement inputs,
        and are never cached.  The key is the full rendering of those
        inputs, not a digest of it: two regions can share a key only when
        they render the same SQL, so the cache can never execute the
        *wrong* statement.  (A digest would also load ``hashlib``, whose
        OpenSSL binding costs a session process about 3.5 MB.)  Computed
        once per region: a warm materialize reuses the engine's cached
        regions, so the rendering is not rebuilt on every run.
        """
        if self.kind == "replay":
            return None
        return repr((self.kind, self.edges, self.pairs, self.blocked))


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`ResolutionPlan` partitioned into compiled regions.

    Everything a run derives from the plan alone — the replay statement
    count, the plan DAG's stage count — is computed once
    per compiled plan and cached on it.  The instance is frozen and a
    patched plan gets a new one (:func:`~repro.bulk.planpatch
    .splice_compiled`), so the caches never outlive the plan they describe.
    """

    plan: ResolutionPlan
    regions: Tuple[CompiledRegion, ...]

    @property
    def region_count(self) -> int:
        return len(self.regions)

    @cached_property
    def dag_stages(self) -> int:
        """Critical-path length of the plan's step DAG.

        A lowered plan carries it; a patched one counts it in one pass over
        its steps (:func:`~repro.bulk.planner.count_stages`).  No
        :class:`~repro.bulk.planner.PlanDag` is built: runs execute regions,
        so the step DAG would be dead weight for as long as the plan stays
        cached.
        """
        if self.plan.stage_count is not None:
            return self.plan.stage_count
        return count_stages(self.plan.steps)

    def statement_count(self) -> int:
        """Statements the compiled execution issues on a capable engine."""
        return sum(region.statement_count() for region in self.regions)

    @cached_property
    def _replay_statements(self) -> int:
        return sum(region.replay_statement_count() for region in self.regions)

    def replay_statement_count(self) -> int:
        """Statements sequential replay of the same plan issues."""
        return self._replay_statements

    def statements_saved(self) -> int:
        """Round trips avoided per lane by compiling (never negative)."""
        return max(0, self.replay_statement_count() - self.statement_count())

    def journal_markers(self) -> Tuple[int, ...]:
        """One checkpoint marker per region: the plan index of its last step.

        Regions partition the plan's steps contiguously, so the markers are
        the cumulative step counts minus one — distinct by construction and
        disjoint from the beliefs marker (-1) used by the executor.
        """
        markers: List[int] = []
        position = 0
        for region in self.regions:
            position += len(region.steps)
            markers.append(position - 1)
        return tuple(markers)


def compile_steps(
    steps: Iterable[object], limits: Optional[RegionLimits] = None
) -> List[CompiledRegion]:
    """Partition a step sequence into compiled regions, preserving order.

    Any contiguous segment of a plan's causal step order is a valid input —
    the compiler never looks beyond the segment — which is what allows
    patched plans to recompile only their changed suffix.  ``limits``
    bounds each region's bound-parameter footprint; the default is the
    conservative historic budget (see :class:`RegionLimits`).
    """
    limits = limits if limits is not None else RegionLimits()
    regions: List[CompiledRegion] = []
    copy_steps: List[object] = []
    copy_edges: List[Tuple[str, str]] = []
    flood_steps: List[object] = []
    flood_pairs: List[Tuple[str, str]] = []
    flood_members: Set[str] = set()
    blocked_steps: List[object] = []
    blocked_pairs: List[Tuple[str, str]] = []
    blocked_values: List[Tuple[str, str]] = []
    blocked_members: Set[str] = set()

    def flush_copy() -> None:
        nonlocal copy_steps, copy_edges
        if copy_steps:
            regions.append(
                CompiledRegion("copy", tuple(copy_steps), edges=tuple(copy_edges))
            )
            copy_steps, copy_edges = [], []

    def flush_flood() -> None:
        nonlocal flood_steps, flood_pairs, flood_members
        if flood_steps:
            regions.append(
                CompiledRegion("flood", tuple(flood_steps), pairs=tuple(flood_pairs))
            )
            flood_steps, flood_pairs, flood_members = [], [], set()

    def flush_blocked() -> None:
        nonlocal blocked_steps, blocked_pairs, blocked_values, blocked_members
        if blocked_steps:
            regions.append(
                CompiledRegion(
                    "blocked_flood",
                    tuple(blocked_steps),
                    pairs=tuple(blocked_pairs),
                    blocked=tuple(blocked_values),
                )
            )
            blocked_steps, blocked_pairs = [], []
            blocked_values, blocked_members = [], set()

    for step in steps:
        if isinstance(step, GroupedCopyStep):
            flush_flood()
            flush_blocked()
            edges = [(str(child), str(step.parent)) for child in step.children]
            if len(edges) > limits.max_copy_edges:
                # A single step too wide for the bind limit: replay is
                # already one statement for it, so compiling buys nothing.
                flush_copy()
                regions.append(CompiledRegion("replay", (step,)))
                continue
            if copy_edges and len(copy_edges) + len(edges) > limits.max_copy_edges:
                flush_copy()
            copy_steps.append(step)
            copy_edges.extend(edges)
        elif isinstance(step, FloodStep):
            flush_copy()
            if step.blocked:
                flush_flood()
                members = tuple(str(member) for member in step.members)
                parents = tuple(str(parent) for parent in step.parents)
                blocklist = [
                    (str(member), str(value))
                    for member, values in step.blocked
                    for value in values
                ]
                if not members or not parents:
                    # Inserts nothing under replay; closing the members
                    # still fences later floods reading them.
                    blocked_steps.append(step)
                    blocked_members.update(members)
                    continue
                pairs = [
                    (member, parent) for member in members for parent in parents
                ]
                # Blocklist entries bind two parameters each, exactly like
                # pairs, so both charge the one flood budget.
                weight = len(pairs) + len(blocklist)
                if weight > limits.max_flood_pairs:
                    flush_blocked()
                    regions.append(CompiledRegion("replay", (step,)))
                    continue
                independent = blocked_members.isdisjoint(parents)
                filled = len(blocked_pairs) + len(blocked_values)
                if blocked_steps and (
                    not independent or filled + weight > limits.max_flood_pairs
                ):
                    flush_blocked()
                blocked_steps.append(step)
                blocked_pairs.extend(pairs)
                blocked_values.extend(blocklist)
                blocked_members.update(members)
                continue
            flush_blocked()
            members = tuple(str(member) for member in step.members)
            parents = tuple(str(parent) for parent in step.parents)
            if not members or not parents:
                # Inserts nothing under replay; closing the members still
                # fences later floods that read them into a new region.
                flood_steps.append(step)
                flood_members.update(members)
                continue
            pairs = [(member, parent) for member in members for parent in parents]
            if len(pairs) > limits.max_flood_pairs:
                flush_flood()
                regions.append(CompiledRegion("replay", (step,)))
                continue
            independent = flood_members.isdisjoint(parents)
            if flood_steps and (
                not independent
                or len(flood_pairs) + len(pairs) > limits.max_flood_pairs
            ):
                flush_flood()
            flood_steps.append(step)
            flood_pairs.extend(pairs)
            flood_members.update(members)
        else:
            raise BulkProcessingError(f"cannot compile unknown plan step {step!r}")
    flush_copy()
    flush_flood()
    flush_blocked()
    return regions


def compile_plan(
    plan: ResolutionPlan, limits: Optional[RegionLimits] = None
) -> CompiledPlan:
    """Compile a resolution plan into its region partition."""
    return CompiledPlan(plan=plan, regions=tuple(compile_steps(plan.steps, limits)))


def replay_plan(plan: ResolutionPlan) -> CompiledPlan:
    """Lower a plan to one ``replay`` region per step (statement-at-a-time).

    The executor runs it through the same loop as a compiled plan; each
    region's journal marker is then its step's plan index.
    """
    return CompiledPlan(
        plan=plan, regions=tuple(CompiledRegion("replay", (step,)) for step in plan.steps)
    )
