"""Resolution plans for bulk processing (Section 4, Appendix B.10).

Bulk resolution relies on two assumptions stated in the paper:

(i)  the trust mappings are the same for every object, and
(ii) a user with an explicit belief for one object has an explicit belief for
     every object.

Under those assumptions the *sequence of resolution steps* taken by
Algorithm 1 (and Algorithm 2) depends only on the network topology and on
*which* users have explicit beliefs — not on the actual values.  So the
closing record Algorithm 1 keeps anyway is the plan: :func:`plan_resolution`
lowers a :class:`~repro.core.resolution.UnionProgram` (recorded by
:func:`~repro.core.resolution.close_union`, the loop
:func:`~repro.core.resolution.resolve` runs too) into steps
(:func:`lower_union`), and the executor replays each step as SQL over all
objects at once.  A caller that already resolved the network passes the
record of that resolution in, so the closing loop runs once per network
state; :func:`repro.bulk.planpatch.patch_plan` lowers a record of the
re-planned region the same way.  Statement batching keeps the statement
count a function of the network alone: all copies from one parent form one
multi-child :class:`GroupedCopyStep` (one ``INSERT … SELECT`` per distinct
parent), and a :class:`FloodStep` issues one statement per group of
same-constraint members — for plain Algorithm-1 plans a single statement
per flood step regardless of component size.  Steps are sorted by (DAG
stage, copies before floods, name), so equal networks plan equal step lists
whatever order their users were built or hashed in, and the plan carries
its DAG stage count.

The Skeptic plan (:func:`plan_skeptic_resolution` with constraints) has its
own loop, :func:`_plan_region`: Algorithm 2 gates copies on Type-2 users
and blocks each flood member's ``prefNeg`` values, which a value-free
Algorithm 1 record does not describe.  Like :mod:`repro.core.resolution`,
both loops discover minimal SCCs through the incremental condensation
engine (:mod:`repro.core.sccs`), so planning itself is near-linear instead
of recondensing per flooding pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.beliefs import Value
from repro.core.errors import BulkProcessingError
from repro.core.gcpause import paused_gc
from repro.core.network import TrustNetwork, User
from repro.core.resolution import UnionProgram, close_union
from repro.core.sccs import CondensationEngine
from repro.core.skeptic import propagate_forced_negatives


@dataclass(frozen=True)
class GroupedCopyStep:
    """Step 1 of Algorithm 1: copy a parent's values to its children.

    Every copy from the same parent lands in one multi-child
    ``INSERT … SELECT`` (see
    :meth:`repro.bulk.store.PossStore.copy_to_children`), at the position of
    the parent's first copy.  This is sound because a user's rows are final
    once it closes, and it closes before the first copy that reads from it:
    executing the later same-parent copies early cannot change what any
    intervening statement reads, since every bulk statement selects rows for
    explicitly named users only.  The statement count is therefore one per
    *distinct parent* instead of one per child.
    """

    parent: User
    children: Tuple[User, ...]

    def statement_count(self) -> int:
        """SQL statements the executor issues for this step."""
        return 1 if self.children else 0


@dataclass(frozen=True)
class FloodStep:
    """Step 2 of Algorithm 1: flood an SCC with its closed parents' values.

    ``blocked`` is only populated by the Skeptic planner: it maps component
    members to the values their ``prefNeg`` set rejects.
    """

    members: Tuple[User, ...]
    parents: Tuple[User, ...]
    blocked: Tuple[Tuple[User, Tuple[Value, ...]], ...] = ()

    def blocked_map(self) -> Dict[str, Tuple[Value, ...]]:
        """``blocked`` as a mapping from member name to rejected values."""
        return {str(user): values for user, values in self.blocked}

    def statement_count(self) -> int:
        """SQL statements the executor issues for this step.

        Members sharing the same (possibly empty) blocked-value set are
        flooded by one multi-member statement; a non-empty blocked set needs
        a second statement for the ⊥ rows.  A flood without closed parents
        inserts nothing and costs no statement.
        """
        if not self.parents or not self.members:
            return 0
        if not self.blocked:
            return 1  # every Algorithm 1 flood: one group, nothing blocked
        blocked = self.blocked_map()
        groups = {blocked.get(str(member), ()) for member in self.members}
        return sum(2 if rejected else 1 for rejected in groups)


ResolutionStep = object  # GroupedCopyStep | FloodStep


def step_io(step: ResolutionStep) -> Tuple[Tuple[User, ...], Tuple[User, ...]]:
    """The users a step reads from and the users it closes, as (reads, closes).

    This is the dependency interface of the DAG lowering: every bulk
    statement selects rows of explicitly named *source* users and inserts
    rows for the users the step closes, so a step depends exactly on the
    steps that close one of its sources.
    """
    if isinstance(step, GroupedCopyStep):
        return (step.parent,), step.children
    if isinstance(step, FloodStep):
        return step.parents, step.members
    raise BulkProcessingError(f"unknown plan step {step!r}")


@dataclass(frozen=True)
class DagNode:
    """One plan step with its explicit dependencies inside a :class:`PlanDag`.

    ``depends_on`` holds the indices (into :attr:`PlanDag.nodes`) of the
    steps that close one of this step's source users; sources closed by the
    initial data load (the explicit users) contribute no edge.  ``stage`` is
    the node's level in the longest-path layering: 0 for steps depending on
    loaded data only, otherwise one more than the deepest dependency.
    """

    index: int
    step: ResolutionStep
    depends_on: Tuple[int, ...]
    stage: int


@dataclass(frozen=True)
class PlanDag:
    """A :class:`ResolutionPlan` lowered to a dependency DAG of its steps.

    The sequential plan order is one valid topological order of this DAG,
    but not the only one: a step only *reads* rows of users closed by the
    steps it depends on (or loaded explicitly), and every user's rows are
    written by exactly one step, so replaying the nodes in **any**
    topological order produces the identical ``POSS`` relation (the DAG
    test suite locks this).  The executor itself runs steps in plan order.

    ``stages`` groups node indices by :attr:`DagNode.stage`; all nodes of a
    stage are mutually independent (their dependencies live in strictly
    earlier stages), and ``len(stages)`` is the critical-path length of the
    plan (``BulkRunReport.dag_stages``).
    """

    plan: ResolutionPlan
    nodes: Tuple[DagNode, ...]
    stages: Tuple[Tuple[int, ...], ...]

    @property
    def stage_count(self) -> int:
        """Critical-path length of the plan (number of stages)."""
        return len(self.stages)

    def edge_count(self) -> int:
        """Total number of depends-on edges."""
        return sum(len(node.depends_on) for node in self.nodes)

    def statement_count(self) -> int:
        """SQL statements one replay of the DAG issues (a plan property)."""
        return self.plan.statement_count()


def plan_dag(plan: ResolutionPlan) -> PlanDag:
    """Lower a plan's step list to its dependency DAG.

    A step depends on the steps that close one of its source users; users
    whose rows come from the explicit-belief load close no step and add no
    edge.  Dependencies always point backwards in plan order (a source is
    closed before any step reads it), so the DAG is acyclic by construction;
    a violation — a step closing a user twice, or reading a user that only a
    *later* step closes — means the plan itself is malformed and is rejected.
    """
    closer: Dict[str, int] = {}
    for index, step in enumerate(plan.steps):
        for user in step_io(step)[1]:
            name = str(user)
            if name in closer:
                raise BulkProcessingError(
                    f"plan closes user {name!r} twice (steps {closer[name]} and {index})"
                )
            closer[name] = index
    nodes: List[DagNode] = []
    stage_of: List[int] = []
    stages: Dict[int, List[int]] = {}
    for index, step in enumerate(plan.steps):
        reads, _closes = step_io(step)
        dependencies = set()
        for user in reads:
            closed_at = closer.get(str(user))
            if closed_at is None:
                continue  # explicitly loaded data, no edge
            if closed_at >= index:
                raise BulkProcessingError(
                    f"step {index} reads user {user!r} closed only by the "
                    f"later step {closed_at}; the plan order is not causal"
                )
            dependencies.add(closed_at)
        depends_on = tuple(sorted(dependencies))
        stage = 1 + max((stage_of[dep] for dep in depends_on), default=-1)
        nodes.append(
            DagNode(index=index, step=step, depends_on=depends_on, stage=stage)
        )
        stage_of.append(stage)
        stages.setdefault(stage, []).append(index)
    return PlanDag(
        plan=plan,
        nodes=tuple(nodes),
        stages=tuple(
            tuple(stages[level]) for level in sorted(stages)
        ),
    )


def count_stages(steps: Sequence[ResolutionStep]) -> int:
    """The stage count of :func:`plan_dag` in one pass, without building nodes.

    A step's stage is one more than the deepest stage among the steps that
    close its sources (0 when it reads loaded data only).  Raises the same
    two malformed-plan errors as :func:`plan_dag`: a user closed twice, and
    a read of a user that only the same or a later step closes.
    """
    #: Closed users: name -> (closing step, its stage).
    closer: Dict[str, Tuple[int, int]] = {}
    #: Users read before any step closed them: name -> (reading step, user).
    early: Dict[str, Tuple[int, User]] = {}
    stages = 0
    for index, step in enumerate(steps):
        reads, closes = step_io(step)
        stage = 0
        for user in reads:
            name = str(user)
            closed = closer.get(name)
            if closed is None:
                early.setdefault(name, (index, user))
            elif closed[1] >= stage:
                stage = closed[1] + 1
        for user in closes:
            name = str(user)
            if name in closer:
                raise BulkProcessingError(
                    f"plan closes user {name!r} twice (steps {closer[name][0]} and {index})"
                )
            if name in early:
                reader, read = early[name]
                raise BulkProcessingError(
                    f"step {reader} reads user {read!r} closed only by the "
                    f"later step {index}; the plan order is not causal"
                )
            closer[name] = (index, stage)
        stages = max(stages, stage + 1)
    return stages


@dataclass
class ResolutionPlan:
    """An ordered list of bulk-resolution steps for a fixed network.

    ``stage_count`` is the critical-path length of the step DAG when the
    planner knew it while building the steps (:func:`lower_union`), and
    ``None`` otherwise (:func:`count_stages` then counts it in one pass).
    A caller that edits ``steps`` in place must reset it.
    """

    network: TrustNetwork
    explicit_users: FrozenSet[User]
    steps: List[ResolutionStep] = field(default_factory=list)
    stage_count: Optional[int] = field(default=None, compare=False)

    @property
    def copy_steps(self) -> List[GroupedCopyStep]:
        """Copy steps, in execution order."""
        return [step for step in self.steps if isinstance(step, GroupedCopyStep)]

    @property
    def flood_steps(self) -> List[FloodStep]:
        """Flood steps, in execution order."""
        return [step for step in self.steps if isinstance(step, FloodStep)]

    def copied_children(self) -> List[User]:
        """Every user that receives a Step-1 copy, in execution order."""
        return [child for step in self.copy_steps for child in step.children]

    def statement_count(self) -> int:
        """Number of SQL statements the executor will issue."""
        return sum(step.statement_count() for step in self.steps)

    def dag(self) -> "PlanDag":
        """This plan lowered to its dependency DAG (see :func:`plan_dag`)."""
        return plan_dag(self)


def plan_resolution(
    network: TrustNetwork,
    explicit_users: Optional[Sequence[User]] = None,
    program: Optional[UnionProgram] = None,
) -> ResolutionPlan:
    """Build the Algorithm-1 resolution plan for a network.

    ``explicit_users`` defaults to the users carrying explicit beliefs in the
    network itself; passing it explicitly supports planning against a
    template network whose per-object values live only in the store.

    The plan is Algorithm 1's closing record lowered to steps
    (:func:`lower_union`).  ``program`` is such a record when the caller
    already holds one: the :attr:`~repro.core.resolution.ResolutionResult
    .program` of a :func:`~repro.core.resolution.resolve` of this network in
    its current state, whose believers are exactly the explicit users.  The
    caller vouches for that (an engine's session hands its record out only
    while the network version has not moved, see
    :meth:`~repro.incremental.session.IncrementalSession.take_opening_program`).
    Without one, the planner runs :func:`~repro.core.resolution.close_union`
    over every user reachable from the explicit users.
    """
    users_with_beliefs = _explicit_users(network, explicit_users)
    # A bounded batch computation, like resolve(): see repro.core.gcpause.
    with paused_gc():
        if program is None:
            program = _close_region(
                network,
                network.descendants(users_with_beliefs) - users_with_beliefs,
                users_with_beliefs,
            )
        steps, stages = lower_union(program)
    return ResolutionPlan(network, users_with_beliefs, steps, stage_count=stages)


def _close_region(
    network: TrustNetwork, members: Iterable[User], closed: "Set[User] | FrozenSet[User]"
) -> UnionProgram:
    """:func:`~repro.core.resolution.close_union` over ``members``, with the
    ``closed`` users as the boundary that can hold a belief."""
    members = list(members)
    index = {member: i for i, member in enumerate(members)}
    return close_union(members, index, network.incoming_map(), closed.__contains__)


def lower_union(program: UnionProgram) -> Tuple[List[ResolutionStep], int]:
    """Lower a closing record to plan steps; returns ``(steps, stage count)``.

    The members a record closes by copying the same preferred parent form
    one :class:`GroupedCopyStep`, and each flood one :class:`FloodStep` with
    its closed parents; members, children and parents are sorted by name.
    A step's *stage* is its level in :func:`plan_dag`'s layering (0 when it
    reads only the record's leaves, else one more than the deepest step it
    reads from), and the steps are sorted by ``(stage, copies before
    floods, name)``, where the name is a copy's parent or a flood's first
    member.  That order is causal, since a step only reads users closed in
    earlier stages, and canonical: which users copy from which and which
    components flood is independent of the order Algorithm 1 meets them
    in, so the plan does not depend on the member order or hash order the
    record was built in.  The stage count is the plan DAG's
    :attr:`~PlanDag.stage_count`.
    """
    members = program.members
    m = len(members)
    users = [*members, *program.leaves]
    names = list(map(str, users))
    by_name = names.__getitem__
    closed_by = program.closed_by
    flood_parents = program.flood_parents
    copies: Dict[int, List[int]] = {}
    flooded: List[List[int]] = [[] for _ in flood_parents]
    for member, how in enumerate(closed_by):
        if how < 0:
            flooded[~how].append(member)
        elif how in copies:
            copies[how].append(member)
        else:
            copies[how] = [member]

    # Leaves are closed before any step (stage -1).  Flood members get their
    # flood's stage as it is lowered, in record order; a copy-closed user
    # one more than its parent, settled by walking up the copy chain.
    unset = -2
    stage = [unset] * m
    stage.extend([-1] * len(program.leaves))

    def settle(node: int) -> int:
        chain = []
        while stage[node] == unset:
            chain.append(node)
            node = closed_by[node]
            if node < 0:
                raise BulkProcessingError(
                    "closing record reads a flood member before its flood"
                )
        level = stage[node]
        for node in reversed(chain):
            level += 1
            stage[node] = level
        return level

    keyed: List[Tuple[int, int, str, ResolutionStep]] = []
    for group, parents in zip(flooded, flood_parents):
        level = 0
        for parent in parents:
            closer = stage[parent]
            if closer == unset:
                closer = settle(parent)
            if closer >= level:
                level = closer + 1
        group.sort(key=by_name)
        for i in group:
            stage[i] = level
        sources = sorted(set(parents), key=by_name)
        step = FloodStep(
            tuple([users[i] for i in group]), tuple([users[p] for p in sources])
        )
        keyed.append((level, 1, names[group[0]], step))
    for parent, children in copies.items():
        level = stage[parent]
        if level == unset:
            level = settle(parent)
        children.sort(key=by_name)
        step = GroupedCopyStep(users[parent], tuple([users[i] for i in children]))
        keyed.append((level + 1, 0, names[parent], step))
    keyed.sort(key=_STEP_KEY)
    stages = 1 + max((entry[0] for entry in keyed), default=-1)
    return [entry[3] for entry in keyed], stages


#: Sort key of :func:`lower_union`'s entries: (stage, kind, name).
_STEP_KEY = itemgetter(0, 1, 2)


def plan_skeptic_resolution(
    network: TrustNetwork,
    positive_users: Sequence[User],
    negative_constraints: Dict[User, Sequence[Value]],
) -> ResolutionPlan:
    """Build the Algorithm-2 (Skeptic) plan for bulk resolution.

    ``positive_users`` are the users whose per-object positive values live in
    the store; ``negative_constraints`` maps users to the constraint (set of
    rejected values) they apply to *every* object.  Constraints are network
    properties here, matching bulk assumption (i) that the trust structure —
    including filters — is shared across objects.  Both name users of
    ``network``; an unknown one raises :class:`BulkProcessingError`.
    Without constraints Algorithm 2 is Algorithm 1, and so is the plan
    (:func:`plan_resolution`).
    """
    positive = _explicit_users(network, positive_users)
    constrained = _explicit_users(network, negative_constraints)
    both = positive & constrained
    if both:
        raise BulkProcessingError(
            f"user {sorted(map(str, both))[0]!r} cannot have both positive "
            "beliefs and a constraint"
        )
    if not constrained:
        return plan_resolution(network, positive)
    # prefNeg propagation (phase P of Algorithm 2), worklist-driven.
    pref_neg: Dict[User, Set[Value]] = {user: set() for user in network.users}
    children_pref: Dict[User, List[User]] = {}
    for user, parent in network.preferred_parent_map().items():
        if parent is not None:
            children_pref.setdefault(parent, []).append(user)
    for user, values in negative_constraints.items():
        pref_neg[user].update(values)
    propagate_forced_negatives(
        pref_neg,
        list(negative_constraints),
        lambda parent: children_pref.get(parent, ()),
        positive,
    )
    steps = _plan_region(
        network, network.descendants(positive | constrained), set(positive), pref_neg
    )
    return ResolutionPlan(network, positive, steps)


def _plan_region(
    network: TrustNetwork,
    region: Set[User],
    closed: Set[User],
    pref_neg: Dict[User, Set[Value]],
) -> List[ResolutionStep]:
    """Algorithm 2's closing loop over ``region``: the Skeptic planner.

    ``closed`` holds the users whose rows are final before the first step
    (the positive users); the loop grows it in place.  Every other
    ``region`` user receives exactly one copy or flood step, in Algorithm
    1's order: Step-1 copies drain in lexicographic order before the
    condensation engine yields the next minimal component to flood.
    Preferred parents are chosen among the ``region`` and initially
    ``closed`` users only.

    Only *Type-2* users — the initially closed ones and those that received
    values — feed a copy or push their preferred children, a flood's
    members turn Type 2 when one of its parents is, and each flood step
    carries its members' ``prefNeg`` values as blocked.  A component fed
    solely by negative-only users thus stays empty, exactly as in
    Algorithm 2.
    """
    open_nodes = region - closed
    if not open_nodes:
        return []
    incoming = network.incoming_map()
    preferred: Dict[User, User] = {}
    children_pref: Dict[User, List[User]] = {}
    for user in open_nodes:
        parent = _preferred_parent(incoming.get(user, ()), region, closed)
        if parent is not None:
            preferred[user] = parent
            children_pref.setdefault(parent, []).append(user)
    # Dense ids in sorted(str) order make component discovery, and hence
    # the plan, deterministic.
    order = sorted(open_nodes, key=str)
    index = {user: i for i, user in enumerate(order)}
    successors: List[List[int]] = [[] for _ in order]
    for i, user in enumerate(order):
        for edge in incoming.get(user, ()):
            parent_id = index.get(edge.parent)
            if parent_id is not None:
                successors[parent_id].append(i)
    engine = CondensationEngine(range(len(order)), successors, len(order))

    # Users whose rows may feed a copy (Type 2).
    sources = set(closed)
    heap: List[Tuple[str, User]] = [
        (str(child), child)
        for parent, children in children_pref.items()
        if parent in sources
        for child in children
    ]
    heapq.heapify(heap)
    steps: List[object] = []
    groups: Dict[User, List[User]] = {}
    while open_nodes:
        while heap:
            node = heapq.heappop(heap)[1]
            if node not in open_nodes:
                continue
            parent = preferred.get(node)
            if parent is None or parent not in sources:
                continue
            children = groups.get(parent)
            if children is None:
                children = groups[parent] = []
                steps.append((parent, children))
            children.append(node)
            closed.add(node)
            sources.add(node)
            open_nodes.discard(node)
            engine.close(index[node])
            for child in children_pref.get(node, ()):
                heapq.heappush(heap, (str(child), child))
        if not open_nodes:
            break
        members = [order[i] for i in sorted(engine.pop_minimal())]
        parents = sorted(
            {
                edge.parent
                for member in members
                for edge in incoming.get(member, ())
                if edge.parent in closed
            },
            key=str,
        )
        blocked = tuple(
            (member, tuple(sorted(pref_neg[member], key=str)))
            for member in members
            if pref_neg[member]
        )
        steps.append(FloodStep(tuple(members), tuple(parents), blocked))
        closed.update(members)
        open_nodes.difference_update(members)
        fed = any(parent in sources for parent in parents)
        if fed:
            sources.update(members)
        for member in members:
            engine.close(index[member])
            if fed:
                for child in children_pref.get(member, ()):
                    heapq.heappush(heap, (str(child), child))
    return [
        GroupedCopyStep(step[0], tuple(step[1])) if isinstance(step, tuple) else step
        for step in steps
    ]


# ---------------------------------------------------------------------- #
# shared helpers                                                          #
# ---------------------------------------------------------------------- #


def _explicit_users(
    network: TrustNetwork, explicit_users: Optional[Iterable[User]]
) -> FrozenSet[User]:
    if explicit_users is not None:
        users = frozenset(explicit_users)
        unknown = users - network.users
        if unknown:
            raise BulkProcessingError(f"unknown users in explicit set: {sorted(map(str, unknown))}")
        return users
    return frozenset(
        user
        for user, belief in network.explicit_beliefs.items()
        if belief.has_positive
    )


def _preferred_parent(edges, region: Set[User], closed: Set[User]) -> Optional[User]:
    """The parent of the one top-priority edge among ``edges`` from a
    ``region`` or ``closed`` user, or ``None`` on a tie or without one."""
    best = None
    tied = False
    for edge in edges:
        if edge.parent not in region and edge.parent not in closed:
            continue
        if best is None or edge.priority > best.priority:
            best, tied = edge, False
        elif edge.priority == best.priority:
            tied = True
    return None if best is None or tied else best.parent
