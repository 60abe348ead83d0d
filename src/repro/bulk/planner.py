"""Resolution plans for bulk processing (Section 4, Appendix B.10).

Bulk resolution relies on two assumptions stated in the paper:

(i)  the trust mappings are the same for every object, and
(ii) a user with an explicit belief for one object has an explicit belief for
     every object.

Under those assumptions the *sequence of resolution steps* taken by
Algorithm 1 (and Algorithm 2) depends only on the network topology and on
*which* users have explicit beliefs — not on the actual values.  The planner
therefore runs the closed/open bookkeeping once on the network and records
the steps; the executor then replays each step as SQL over all objects at
once.  Statement batching keeps the statement count a function of the
network alone: copy steps sharing a parent merge into one multi-child
:class:`GroupedCopyStep` (one ``INSERT … SELECT`` per distinct parent), and
a :class:`FloodStep` issues one statement per group of same-constraint
members — for plain Algorithm-1 plans a single statement per flood step
regardless of component size.

Like :mod:`repro.core.resolution`, the planner discovers minimal SCCs
through the incremental condensation engine (:mod:`repro.core.sccs`), so
planning itself is near-linear instead of recondensing per flooding pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.beliefs import Value
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork, User
from repro.core.sccs import CondensationEngine
from repro.core.skeptic import propagate_forced_negatives


@dataclass(frozen=True)
class CopyStep:
    """Step 1 of Algorithm 1: copy all values from a preferred parent.

    One step is one single-child ``INSERT … SELECT``.  Grouped plans merge
    all copy steps sharing a parent into one :class:`GroupedCopyStep`.
    """

    parent: User
    child: User

    def statement_count(self) -> int:
        """SQL statements the executor issues for this step (always 1)."""
        return 1


@dataclass(frozen=True)
class GroupedCopyStep:
    """Step 1 of Algorithm 1, batched: copy a parent's values to many children.

    Every :class:`CopyStep` sharing the same parent collapses into one
    multi-child ``INSERT … SELECT`` (see
    :meth:`repro.bulk.store.PossStore.copy_to_children`).  This is sound
    because a user's rows are final once it closes, and it closes before the
    first copy that reads from it: executing the later same-parent copies
    early cannot change what any intervening statement reads, since every
    bulk statement selects rows for explicitly named users only.  The
    grouped statement count is therefore one per *distinct parent* instead
    of one per child, shrinking the plan without changing its output.
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
        blocked = self.blocked_map()
        groups = {blocked.get(str(member), ()) for member in self.members}
        return sum(2 if rejected else 1 for rejected in groups)


ResolutionStep = object  # CopyStep | GroupedCopyStep | FloodStep


def step_io(step: ResolutionStep) -> Tuple[Tuple[User, ...], Tuple[User, ...]]:
    """The users a step reads from and the users it closes, as (reads, closes).

    This is the dependency interface of the DAG lowering: every bulk
    statement selects rows of explicitly named *source* users and inserts
    rows for the users the step closes, so a step depends exactly on the
    steps that close one of its sources.
    """
    if isinstance(step, CopyStep):
        return (step.parent,), (step.child,)
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


@dataclass
class ResolutionPlan:
    """An ordered list of bulk-resolution steps for a fixed network.

    ``grouped`` records whether same-parent copy steps were merged into
    :class:`GroupedCopyStep`\\ s (the default); :meth:`grouped_copies` /
    :meth:`ungrouped_copies` convert between the two representations without
    re-planning.
    """

    network: TrustNetwork
    explicit_users: FrozenSet[User]
    steps: List[ResolutionStep] = field(default_factory=list)
    grouped: bool = False

    @property
    def copy_steps(self) -> List["CopyStep | GroupedCopyStep"]:
        """Copy steps (single-child or grouped), in execution order."""
        return [
            step
            for step in self.steps
            if isinstance(step, (CopyStep, GroupedCopyStep))
        ]

    @property
    def flood_steps(self) -> List[FloodStep]:
        """Flood steps, in execution order."""
        return [step for step in self.steps if isinstance(step, FloodStep)]

    def copied_children(self) -> List[User]:
        """Every user that receives a Step-1 copy, in execution order."""
        children: List[User] = []
        for step in self.steps:
            if isinstance(step, CopyStep):
                children.append(step.child)
            elif isinstance(step, GroupedCopyStep):
                children.extend(step.children)
        return children

    def statement_count(self) -> int:
        """Number of SQL statements the executor will issue."""
        return sum(step.statement_count() for step in self.steps)

    def dag(self) -> "PlanDag":
        """This plan lowered to its dependency DAG (see :func:`plan_dag`)."""
        return plan_dag(self)

    def grouped_copies(self) -> "ResolutionPlan":
        """This plan with same-parent copy steps merged (idempotent)."""
        if self.grouped:
            return self
        return ResolutionPlan(
            network=self.network,
            explicit_users=self.explicit_users,
            steps=_group_copy_steps(self.steps),
            grouped=True,
        )

    def ungrouped_copies(self) -> "ResolutionPlan":
        """This plan with grouped copy steps expanded back to single copies.

        The expansion keeps each group's position and child order, which is
        exactly the order the ungrouped planner emitted them in — useful for
        the grouped-vs-ungrouped equivalence tests.
        """
        if not self.grouped:
            return self
        steps: List[ResolutionStep] = []
        for step in self.steps:
            if isinstance(step, GroupedCopyStep):
                steps.extend(
                    CopyStep(parent=step.parent, child=child)
                    for child in step.children
                )
            else:
                steps.append(step)
        return ResolutionPlan(
            network=self.network,
            explicit_users=self.explicit_users,
            steps=steps,
            grouped=False,
        )


def _group_copy_steps(steps: Sequence[ResolutionStep]) -> List[ResolutionStep]:
    """Merge same-parent :class:`CopyStep`\\ s into :class:`GroupedCopyStep`\\ s.

    Each group lands at the position of its parent's *first* copy step.
    Moving the later same-parent copies earlier is sound (see
    :class:`GroupedCopyStep`): the parent's rows are already final there,
    and no intervening statement reads the children being filled early.
    Flood steps keep their positions.
    """
    children_of: Dict[User, List[User]] = {}
    grouped: List[ResolutionStep] = []
    for step in steps:
        if isinstance(step, CopyStep):
            known = children_of.get(step.parent)
            if known is None:
                children: List[User] = [step.child]
                children_of[step.parent] = children
                # Placeholder keeps first-occurrence order; filled below
                # once the parent's full child list is known.
                grouped.append(step.parent)
            else:
                known.append(step.child)
        else:
            grouped.append(step)
    out: List[ResolutionStep] = []
    for entry in grouped:
        if isinstance(entry, (FloodStep, CopyStep, GroupedCopyStep)):
            out.append(entry)
        else:
            out.append(
                GroupedCopyStep(parent=entry, children=tuple(children_of[entry]))
            )
    return out


def plan_resolution(
    network: TrustNetwork,
    explicit_users: Optional[Sequence[User]] = None,
    group_copies: bool = True,
) -> ResolutionPlan:
    """Build the Algorithm-1 resolution plan for a network.

    ``explicit_users`` defaults to the users carrying explicit beliefs in the
    network itself; passing it explicitly supports planning against a
    template network whose per-object values live only in the store.

    With ``group_copies`` (the default) all copy steps sharing a parent are
    merged into one :class:`GroupedCopyStep`, so the executor issues one
    multi-child ``INSERT … SELECT`` per distinct parent; pass ``False`` to
    keep the seed's one-statement-per-child plan (the equivalence tests
    compare the two).
    """
    users_with_beliefs = _explicit_users(network, explicit_users)
    plan = ResolutionPlan(network=network, explicit_users=users_with_beliefs)

    reachable = network.descendants(users_with_beliefs)
    closed: Set[User] = set(users_with_beliefs)
    open_nodes: Set[User] = set(reachable) - closed
    preferred = {
        user: _preferred_parent(network, reachable, user) for user in reachable
    }
    children_pref = _preferred_children(network, reachable, preferred)
    order, index, successors = _indexed_graph(network, reachable)

    # The engine works on dense integer ids; ids follow sorted(str) order so
    # component discovery (and hence plan output) is deterministic.
    engine = CondensationEngine(
        (i for i, user in enumerate(order) if user in open_nodes), successors, len(order)
    )
    # Lexicographic heap keeps the copy-step order identical to the seed
    # implementation (which re-scanned sorted(open_nodes) every pass).
    heap: List[Tuple[str, User]] = []
    for user in closed:
        for child in children_pref.get(user, ()):
            heapq.heappush(heap, (str(child), child))

    while open_nodes:
        while heap:
            _, node = heapq.heappop(heap)
            if node not in open_nodes:
                continue
            parent = preferred.get(node)
            if parent is None or parent not in closed:
                continue
            plan.steps.append(CopyStep(parent=parent, child=node))
            closed.add(node)
            open_nodes.discard(node)
            engine.close(index[node])
            for child in children_pref.get(node, ()):
                heapq.heappush(heap, (str(child), child))
        if not open_nodes:
            break
        members = {order[i] for i in engine.pop_minimal()}
        incoming = network.incoming_map()
        parents = sorted(
            {
                edge.parent
                for member in members
                for edge in incoming.get(member, ())
                if edge.parent in closed and edge.parent in reachable
            },
            key=str,
        )
        plan.steps.append(
            FloodStep(
                members=tuple(sorted(members, key=str)), parents=tuple(parents)
            )
        )
        closed.update(members)
        open_nodes.difference_update(members)
        for member in members:
            engine.close(index[member])
            for child in children_pref.get(member, ()):
                heapq.heappush(heap, (str(child), child))
    return plan.grouped_copies() if group_copies else plan


def plan_skeptic_resolution(
    network: TrustNetwork,
    positive_users: Sequence[User],
    negative_constraints: Dict[User, Sequence[Value]],
    group_copies: bool = True,
) -> ResolutionPlan:
    """Build the Algorithm-2 (Skeptic) plan for bulk resolution.

    ``positive_users`` are the users whose per-object positive values live in
    the store; ``negative_constraints`` maps users to the constraint (set of
    rejected values) they apply to *every* object.  Constraints are network
    properties here, matching bulk assumption (i) that the trust structure —
    including filters — is shared across objects.

    ``group_copies`` behaves as in :func:`plan_resolution`: grouping is
    sound for Skeptic plans too, because Type-2 membership (which gates a
    copy's admission into the plan) is decided at planning time and copied
    rows are final once a user closes.
    """
    positive = frozenset(positive_users)
    plan = ResolutionPlan(network=network, explicit_users=positive)

    # prefNeg propagation (phase P of Algorithm 2), worklist-driven.
    pref_neg: Dict[User, Set[Value]] = {user: set() for user in network.users}
    preferred_all = network.preferred_parent_map()
    children_pref_all: Dict[User, List[User]] = {}
    for user, parent in preferred_all.items():
        if parent is not None:
            children_pref_all.setdefault(parent, []).append(user)
    pending: List[User] = []
    for user, values in negative_constraints.items():
        if user in positive:
            raise BulkProcessingError(
                f"user {user!r} cannot have both positive beliefs and a constraint"
            )
        pref_neg[user].update(values)
        pending.append(user)
    propagate_forced_negatives(
        pref_neg, pending, lambda parent: children_pref_all.get(parent, ()), positive
    )

    sources = positive | frozenset(negative_constraints)
    reachable = network.descendants(sources)
    closed: Set[User] = set(positive)
    open_nodes: Set[User] = set(reachable) - closed
    # Negative-only users never enter the store: they are closed implicitly
    # once their (empty) contribution has been accounted for.
    type2: Set[User] = set(positive)
    preferred = {
        user: _preferred_parent(network, reachable, user) for user in reachable
    }
    children_pref = _preferred_children(network, reachable, preferred)
    order, index, successors = _indexed_graph(network, reachable)

    engine = CondensationEngine(
        (i for i, user in enumerate(order) if user in open_nodes), successors, len(order)
    )
    heap: List[Tuple[str, User]] = []
    for user in closed:
        for child in children_pref.get(user, ()):
            heapq.heappush(heap, (str(child), child))

    incoming = network.incoming_map()
    while open_nodes:
        while heap:
            _, node = heapq.heappop(heap)
            if node not in open_nodes:
                continue
            parent = preferred.get(node)
            if parent is None or parent not in closed or parent not in type2:
                continue
            plan.steps.append(CopyStep(parent=parent, child=node))
            closed.add(node)
            type2.add(node)
            open_nodes.discard(node)
            engine.close(index[node])
            for child in children_pref.get(node, ()):
                heapq.heappush(heap, (str(child), child))
        if not open_nodes:
            break
        members = {order[i] for i in engine.pop_minimal()}
        parents = sorted(
            {
                edge.parent
                for member in members
                for edge in incoming.get(member, ())
                if edge.parent in closed and edge.parent in reachable
            },
            key=str,
        )
        blocked = tuple(
            (member, tuple(sorted(pref_neg[member], key=str)))
            for member in sorted(members, key=str)
            if pref_neg[member]
        )
        plan.steps.append(
            FloodStep(
                members=tuple(sorted(members, key=str)),
                parents=tuple(parents),
                blocked=blocked,
            )
        )
        closed.update(members)
        # Members become Type 2 (and therefore valid sources for later
        # copy steps) only if the component actually receives values from
        # a Type-2 parent; a component fed solely by negative-only users
        # stays empty, exactly as in Algorithm 2.
        member_type2 = any(parent in type2 for parent in parents)
        if member_type2:
            type2.update(members)
        open_nodes.difference_update(members)
        for member in members:
            engine.close(index[member])
            if member_type2:
                for child in children_pref.get(member, ()):
                    heapq.heappush(heap, (str(child), child))
    return plan.grouped_copies() if group_copies else plan


# ---------------------------------------------------------------------- #
# shared helpers                                                          #
# ---------------------------------------------------------------------- #


def _explicit_users(
    network: TrustNetwork, explicit_users: Optional[Sequence[User]]
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


def _preferred_parent(network: TrustNetwork, reachable: Set[User], user: User):
    edges = [e for e in network.incoming(user) if e.parent in reachable]
    if not edges:
        return None
    if len(edges) == 1:
        return edges[0].parent
    ordered = sorted(edges, key=lambda e: e.priority, reverse=True)
    if ordered[0].priority > ordered[1].priority:
        return ordered[0].parent
    return None


def _preferred_children(
    network: TrustNetwork,
    reachable: Set[User],
    preferred: Dict[User, Optional[User]],
) -> Dict[User, List[User]]:
    """Children via preferred edges, within the reachable set."""
    incoming = network.incoming_map()
    children_pref: Dict[User, List[User]] = {}
    for node in reachable:
        node_preferred = preferred.get(node)
        if node_preferred is None:
            continue
        for edge in incoming.get(node, ()):
            if edge.parent == node_preferred:
                children_pref.setdefault(edge.parent, []).append(node)
    return children_pref


def _indexed_graph(
    network: TrustNetwork, reachable: Set[User]
) -> Tuple[List[User], Dict[User, int], List[List[int]]]:
    """Dense integer ids (in sorted(str) order) and successor lists for the
    reachable subgraph, as consumed by the condensation engine."""
    order = sorted(reachable, key=str)
    index = {user: i for i, user in enumerate(order)}
    successors: List[List[int]] = [[] for _ in order]
    incoming = network.incoming_map()
    for i, user in enumerate(order):
        for edge in incoming.get(user, ()):
            parent_id = index.get(edge.parent)
            if parent_id is not None:
                successors[parent_id].append(i)
    return order, index, successors