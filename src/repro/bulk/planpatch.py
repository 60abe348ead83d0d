"""Incremental maintenance of bulk resolution plans (structural deltas).

A :class:`~repro.bulk.planner.ResolutionPlan` depends only on the network
topology and on which users carry explicit beliefs, so a structural delta —
an edge added or removed, a priority change, a user joining or leaving the
explicit set — invalidates only the part of the plan downstream of the
touched users.  This module patches the plan instead of re-planning the
whole network.  Only the regional re-plan (step 3) costs time proportional
to the *affected region*; the rest makes three passes over the whole old
plan — the scan for blocked flood steps, the kept/dropped partition
(step 2) and the closed set built from every kept step's outputs — so one
patch costs ``O(|plan| + region)``.  Re-prioritizing one edge of the
12k-user oscillator network (a 2-user region, 3,000 steps) took 6.0 to
11.3 ms (the medians of 9 patches in each of three processes, Python 3.11
on a 2-vCPU Xeon VM; the spread is between processes, not patches):
cheaper than a full re-plan, but not proportional to the region alone.
The steps:

1. The affected region is the set of descendants of the touched users in
   the (already mutated) network — the same successor-closed dirty region
   the incremental resolvers recompute (influence only flows parent →
   child, so steps closing users outside the region are still correct).
2. Every old step closing a region user is dropped (a copy step whose
   children straddle the region is split: children outside it survive).
   A flood step's members form one SCC, and an SCC is either entirely
   inside or entirely outside the region — any mutation of an
   intra-component edge touches its child — so flood steps never straddle
   the boundary.
3. The region is re-planned as a fresh plan is: Algorithm 1's closing
   loop (:func:`repro.core.resolution.close_union`) runs over the region's
   reachable users that are not closed yet, with the users the kept steps
   close and the explicit users as its closed boundary, and its record is
   lowered to steps (:func:`repro.bulk.planner.lower_union`, the lowering
   behind :func:`~repro.bulk.planner.plan_resolution`).
4. The new region steps, in the lowering's (stage, copies before floods,
   name) order, are appended after the kept steps.  This is causal: a kept
   step never reads a region user (a user read by an outside step would
   make that step's closer a region descendant — contradiction), and a
   region step reads either boundary users (closed by kept steps or the
   load) or region users closed in an earlier stage of the appended
   segment.

The patched plan's step *order* (and copy grouping across the boundary)
can differ from a fresh re-plan's, but replaying a plan DAG in any
dependency-satisfied order produces the byte-identical relation, so the
patched and fresh plans are interchangeable — the property the test suite
locks on randomized delta streams.  A patched plan carries no stage count;
:func:`~repro.bulk.planner.count_stages` counts it in one pass.

**Several batches, one patch.**  :class:`repro.engine.ResolutionEngine`
defers patches across batches: it unions the touched and removed sets of
every batch since the plan was last valid and calls :func:`patch_plan`
once, against the final network.  Steps 1–4 rely on a single fact: a user
outside the affected region has the same *ancestral subgraph* — the
incoming edges and explicit status of itself and of each of its ancestors
— as when the plan was built, so its old step is still right and reads
only users outside the region.  That fact survives the union.  A delta
changes a user's incoming edges or explicit status only by touching that
user, except ``RemoveUser``, which deletes the user's edges, touches its
former children and lists the user as removed.  Now take a user ``x``
outside the descendants (in the final network) of the unioned touched set
and outside the unioned removed set, and an ancestor ``y`` of ``x`` (or
``x`` itself) whose incoming edges or explicit status changed in some
batch.  If ``y`` was touched, ``x`` is its descendant — in the region.
Otherwise ``y`` was removed and later re-added; every edge leaving it in
the final network was added after the removal and touched its child, so
``x`` again descends from a touched user.  Both contradict the choice of
``x``, so no batch changed its ancestral subgraph.  The same path argument
keeps flood steps whole: an old component member reachable from the region
either keeps every edge on its path from it, or one of those edges was
changed and touched the next member.

**Value-only touches.**  The plan reads each ancestral subgraph only down
to the explicit users: an explicit user is closed from the start, so its
incoming edges and its value never reach a step.  A touched user that is
explicit both in the old plan and in the final network, and was not
removed, therefore changes nothing the plan depends on, and the patch
ignores it.  A batch that only changes believers' values returns the
input plan itself, which :func:`splice_compiled` passes through whole.

Skeptic plans (flood steps carrying blocked values) are not patched: the
``prefNeg`` propagation is not region-local in the plan representation, so
:class:`repro.engine.ResolutionEngine` re-plans those from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork, User
from repro.bulk.compile import CompiledPlan, RegionLimits, compile_steps
from repro.bulk.planner import (
    FloodStep,
    GroupedCopyStep,
    ResolutionPlan,
    ResolutionStep,
    _close_region,
    _explicit_users,
    lower_union,
    step_io,
)


@dataclass(frozen=True)
class PlanPatch:
    """The result of one :func:`patch_plan` call.

    ``plan`` is the patched plan; the counters expose the patch's cost
    model — how many old steps survived, how many were dropped or split
    away, how many fresh steps the regional re-plan produced, and how large
    the affected region was.  The re-plan costs time proportional to the
    region, the passes over the old steps time proportional to
    ``kept_steps + dropped_steps``.
    """

    plan: ResolutionPlan
    kept_steps: int
    dropped_steps: int
    added_steps: int
    region_size: int


def patch_plan(
    plan: ResolutionPlan,
    network: TrustNetwork,
    touched: Iterable[User],
    removed: Iterable[User] = (),
    explicit_users: Optional[Sequence[User]] = None,
) -> PlanPatch:
    """Patch a plan after structural (or explicit-set) deltas.

    Parameters
    ----------
    plan:
        The plan built *before* the delta (Algorithm-1 plans only; plans
        with blocked flood steps are rejected).
    network:
        The network *after* the mutation.
    touched:
        The users whose incoming edges or explicit belief changed — the
        same touched set the incremental resolvers use (for a removed user:
        its former children).  May be the union over several deltas applied
        since ``plan`` was built (see the module docstring).  A touched user
        that is explicit both in ``plan`` and in ``network`` (and not
        removed) is ignored: explicit users are closed from the start, so
        neither its value nor its incoming edges reach any step.  When that
        leaves nothing to patch, the input ``plan`` itself comes back with
        ``region_size == 0``.
    removed:
        Users the deltas removed from the network (possibly re-added
        since); their old steps are dropped alongside the region's.
    explicit_users:
        Optional override of the explicit-user set, as in
        :func:`~repro.bulk.planner.plan_resolution`; defaults to the users
        carrying positive explicit beliefs in ``network``.
    """
    for step in plan.steps:
        if isinstance(step, FloodStep) and step.blocked:
            raise BulkProcessingError(
                "cannot patch a Skeptic plan (blocked flood steps); re-plan"
            )

    new_explicit = _explicit_users(network, explicit_users)
    removed = set(removed)
    touched = [
        user
        for user in touched
        if user in removed
        or user not in new_explicit
        or user not in plan.explicit_users
    ]
    if not touched and not removed and new_explicit == plan.explicit_users:
        return PlanPatch(
            plan=plan,
            kept_steps=len(plan.steps),
            dropped_steps=0,
            added_steps=0,
            region_size=0,
        )
    region = network.descendants(touched)
    affected: Set[User] = set(region)
    affected.update(removed)

    # ---- partition the old steps ------------------------------------- #
    kept: List[ResolutionStep] = []
    dropped = 0
    for step in plan.steps:
        if isinstance(step, GroupedCopyStep):
            surviving = tuple(
                child for child in step.children if child not in affected
            )
            if len(surviving) == len(step.children):
                kept.append(step)
            else:
                dropped += 1
                if surviving:
                    kept.append(
                        GroupedCopyStep(parent=step.parent, children=surviving)
                    )
        elif isinstance(step, FloodStep):
            inside = sum(1 for member in step.members if member in affected)
            if inside and inside != len(step.members):
                raise BulkProcessingError(
                    "flood step straddles the affected region; the touched "
                    "set does not cover the delta"
                )
            if inside:
                dropped += 1
            else:
                kept.append(step)
        else:
            raise BulkProcessingError(f"unknown plan step {step!r}")

    # Explicit users never carry steps: a user that just joined the
    # explicit set may still be closed by a kept step only if it is outside
    # the region — but joining the explicit set always touches the user, so
    # its old step (if any) was dropped above.

    # ---- re-plan the region ------------------------------------------- #
    closed: Set[User] = {
        user for user in new_explicit if user not in affected and user in network
    }
    for step in kept:
        closed.update(step_io(step)[1])

    region_live = sorted((user for user in region if user in network), key=str)
    incoming = network.incoming_map()

    # Region reachability: seeded by region explicit users and by region
    # users fed from a closed boundary parent, expanded inside the region.
    region_reachable: Set[User] = set()
    stack: List[User] = []
    outgoing = network.outgoing_map()
    for user in region_live:
        seeded = user in new_explicit or any(
            edge.parent in closed for edge in incoming.get(user, ())
        )
        if seeded:
            region_reachable.add(user)
            stack.append(user)
    while stack:
        user = stack.pop()
        for edge in outgoing.get(user, ()):
            child = edge.child
            if child in region and child not in region_reachable:
                region_reachable.add(child)
                stack.append(child)

    closed.update(region_reachable & new_explicit)
    added, _stages = lower_union(
        _close_region(network, region_reachable - closed, closed)
    )

    patched = ResolutionPlan(
        network=network,
        explicit_users=new_explicit,
        steps=kept + added,
    )
    return PlanPatch(
        plan=patched,
        kept_steps=len(kept),
        dropped_steps=dropped,
        added_steps=len(added),
        region_size=len(region_live),
    )


def splice_compiled(
    compiled: CompiledPlan,
    patch: PlanPatch,
    limits: Optional[RegionLimits] = None,
) -> CompiledPlan:
    """Carry a compiled plan across a :func:`patch_plan`, reusing regions.

    The kept steps of a patch are an order-preserving prefix-subsequence of
    the patched plan (kept first, regional re-plan appended), and compiled
    regions partition the step sequence contiguously — so every region of
    the old compiled plan whose steps survive *unchanged and in place* can
    be reused as-is.  The splice walks the old regions against the patched
    step list: regions matching by identity transfer directly; from the
    first divergence (a dropped step, a split copy step, the appended
    region steps) the remaining steps recompile via
    :func:`~repro.bulk.compile.compile_steps`.  Region boundaries may then
    differ from a from-scratch :func:`~repro.bulk.compile.compile_plan` of
    the same plan, but any contiguous partition executes to the identical
    relation — the equivalence the patch property suite locks.  Pass the
    backend-derived ``limits`` the original plan compiled under so the
    recompiled tail sizes its regions against the same bind budget.
    """
    if patch.plan is compiled.plan:
        return compiled
    steps = patch.plan.steps
    reused: List = []
    position = 0
    for region in compiled.regions:
        size = len(region.steps)
        window = steps[position : position + size]
        if len(window) == size and all(
            new is old for new, old in zip(window, region.steps)
        ):
            reused.append(region)
            position += size
        else:
            break
    recompiled = compile_steps(steps[position:], limits=limits)
    return CompiledPlan(plan=patch.plan, regions=tuple(reused + recompiled))
