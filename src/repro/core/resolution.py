"""The Resolution Algorithm (Algorithm 1, Section 2.4).

Given a binary trust network the algorithm computes, for every user ``x``,
the set of *possible* values ``poss(x)`` (values taken by ``x`` in at least
one stable solution) and the *certain* value ``cert(x)`` (the value taken in
*every* stable solution, which exists exactly when ``poss(x)`` is a
singleton).

The algorithm maintains a set of *closed* nodes whose possible values are
final.  It alternates two steps until every node is closed:

* **Step 1** greedily propagates ``poss`` along preferred edges from closed
  to open nodes (the preferred parent always wins, so its possible values
  transfer unchanged).
* **Step 2** fires when no preferred edge can be traversed: it picks a
  minimal SCC ``S`` of the open subgraph (one with no incoming edges from
  other open SCCs — all its incoming edges come from closed nodes and are
  non-preferred), and floods ``S`` with the union of the possible values of
  those closed parents.

One closing loop
----------------
The closing loop is written once, as :func:`close_union`: it closes a set
of open members over a closed boundary and records the run as a value-free
:class:`UnionProgram` (which members copy which node, and which floods
union which nodes), because the closing order depends only on the
structure and on which boundary users can hold a belief — never on the
values (Section 4: one plan serves every object).  :func:`resolve` runs it
once over every user reachable from a positive belief, with the believers
as the boundary, and evaluates the program; the delta resolver
(:mod:`repro.incremental.resolver`) runs it over one SCC, with the SCC's
external parents as the boundary, and keeps the program to evaluate for
later recomputes and for other keys.  The bulk planner
(:mod:`repro.bulk.planner`) lowers a program to its SQL plan: the one
:func:`resolve` keeps on its result (:attr:`ResolutionResult.program`), or
one it records itself.

Complexity
----------
The paper's pseudocode recomputes the SCC graph of the open subgraph before
every flooding step, which is quadratic in the worst case (Appendix B.5).
This implementation instead condenses the open subgraph **once** through the
incremental engine of :mod:`repro.core.sccs` and maintains minimal-SCC
status with per-component in-degree counters while nodes close; Step 1 is
driven by an event-seeded worklist (newly closed nodes enqueue their
preferred children) rather than rescanning the open set.  Both steps share
one worklist-driven loop, so resolution runs in ``O(|U| + |E|)`` time plus
re-condensation work that only arises when preferred-edge closures carve a
component apart.  Typical networks (Figures 8a/8b, Section 5) resolve in
near-linear time; the adversarial nested-SCC family (Figure 15) remains
quadratic-bounded, exactly as the paper predicts.  No third-party graph
library is involved on this hot path.

Lineage pointers (Section 2.5, "Retrieving lineage") are derived, on first
access, from the program's record of how each member closed, so that each
possible value can be traced back to at least one explicit belief.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.beliefs import Value
from repro.core.errors import NetworkError
from repro.core.gcpause import paused_gc
from repro.core.network import TrustMapping, TrustNetwork, User
from repro.core.sccs import CondensationEngine

_EMPTY: FrozenSet[Value] = frozenset()


@dataclass(frozen=True)
class LineageStep:
    """One backward pointer in a lineage: value ``value`` at ``user`` was
    imported from the same value at ``source`` (``source is None`` marks an
    explicit belief)."""

    user: User
    value: Value
    source: Optional[User]


class ResolutionResult:
    """Possible and certain values for every user, with lineage pointers.

    ``lineage_pointers`` may be supplied eagerly, or produced on first
    access from a factory (``lineage_factory``) — :func:`resolve` uses the
    latter so workloads that never trace lineage skip materializing one
    pointer set per (user, value) pair.

    ``program`` is the value-free :class:`UnionProgram` that closed every
    user reachable from ``explicit_users`` (set by :func:`resolve`, ``None``
    otherwise).  It is the bulk plan of the same network and explicit set
    (:func:`repro.bulk.planner.plan_resolution` lowers it), which is how an
    engine session plans without running Algorithm 1 a second time.
    """

    __slots__ = ("possible", "explicit_users", "program", "_lineage", "_lineage_factory")

    def __init__(
        self,
        possible: Dict[User, FrozenSet[Value]],
        lineage_pointers: Optional[
            Dict[Tuple[User, Value], FrozenSet[Optional[User]]]
        ] = None,
        explicit_users: FrozenSet[User] = frozenset(),
        lineage_factory: Optional[
            Callable[[], Dict[Tuple[User, Value], FrozenSet[Optional[User]]]]
        ] = None,
        program: Optional["UnionProgram"] = None,
    ) -> None:
        self.possible = possible
        self.explicit_users = explicit_users
        self.program = program
        self._lineage = lineage_pointers
        self._lineage_factory = lineage_factory

    @property
    def lineage_pointers(
        self,
    ) -> Dict[Tuple[User, Value], FrozenSet[Optional[User]]]:
        lineage = self._lineage
        if lineage is None:
            factory = self._lineage_factory
            lineage = factory() if factory is not None else {}
            self._lineage = lineage
            # Drop the factory: its closure retains the resolution arrays,
            # which are redundant once the pointers are materialized.
            self._lineage_factory = None
        return lineage

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"{type(self).__name__}(|possible|={len(self.possible)}, "
            f"|explicit|={len(self.explicit_users)})"
        )

    def possible_values(self, user: User) -> FrozenSet[Value]:
        """``poss(user)`` — the set of possible values (Definition 2.7)."""
        return self.possible.get(user, frozenset())

    def certain_values(self, user: User) -> FrozenSet[Value]:
        """``cert(user)`` — a singleton if all stable solutions agree, else ∅."""
        values = self.possible_values(user)
        if len(values) == 1:
            return values
        return frozenset()

    def certain_value(self, user: User) -> Optional[Value]:
        """The certain value of ``user`` or ``None`` when there is none."""
        values = self.certain_values(user)
        for value in values:
            return value
        return None

    def has_conflict(self, user: User) -> bool:
        """True iff the user has more than one possible value."""
        return len(self.possible_values(user)) > 1

    def users_with_conflicts(self) -> FrozenSet[User]:
        """All users whose snapshot cannot show a single value."""
        return frozenset(u for u, vals in self.possible.items() if len(vals) > 1)

    def snapshot(self) -> Dict[User, Value]:
        """The consistent snapshot: each user mapped to its certain value."""
        result: Dict[User, Value] = {}
        for user, values in self.possible.items():
            if len(values) == 1:
                (value,) = values
                result[user] = value
        return result

    def trace_lineage(self, user: User, value: Value) -> List[LineageStep]:
        """One lineage of ``value ∈ poss(user)`` back to an explicit belief.

        Follows the recorded pointers greedily; the result starts at ``user``
        and ends at a user holding the value as an explicit belief.  Raises
        :class:`KeyError` if the value is not possible at the user.
        """
        if value not in self.possible_values(user):
            raise KeyError(f"{value!r} is not a possible value for {user!r}")
        path: List[LineageStep] = []
        current = user
        visited: Set[User] = set()
        while True:
            if current in visited:
                # Defensive: pointer cycles cannot happen because pointers
                # always reach back to nodes closed strictly earlier.
                raise NetworkError("lineage pointers form a cycle")
            visited.add(current)
            sources = self.lineage_pointers.get((current, value), frozenset())
            if current in self.explicit_users and None in sources:
                path.append(LineageStep(current, value, None))
                return path
            chosen: Optional[User] = None
            for source in sources:
                if source is not None:
                    chosen = source
                    break
            if chosen is None:
                raise NetworkError(
                    f"no lineage pointer recorded for {value!r} at {current!r}"
                )
            path.append(LineageStep(current, value, chosen))
            current = chosen


def resolve(network: TrustNetwork) -> ResolutionResult:
    """Run Algorithm 1 on a (binary) trust network.

    The network must be binary in the structural sense of Section 2.2 (at
    most two parents per node, beliefs only on roots); use
    :func:`repro.core.binarize.binarize` first otherwise.  Only the positive
    explicit values are used — negative beliefs are the subject of
    Algorithm 2 (:mod:`repro.core.skeptic`).

    Nodes that are unreachable from every node with an explicit belief have
    an undefined belief in every stable solution; they are reported with an
    empty ``poss`` set.
    """
    if not network.is_binary():
        raise NetworkError(
            "Algorithm 1 requires a binary trust network; call binarize() first"
        )
    # Resolution is a bounded batch computation that allocates no reference
    # cycles of its own; see repro.core.gcpause for why the collector is
    # paused (and restored to its entry state) around the batch.
    with paused_gc():
        return _resolve_impl(network)


def _resolve_impl(network: TrustNetwork) -> ResolutionResult:
    # The positive explicit users are the closed boundary: each holds the
    # singleton of its value (one shared frozenset per value).
    singletons: Dict[Value, FrozenSet[Value]] = {}
    explicit: Dict[User, FrozenSet[Value]] = {}
    for user, belief in network.explicit_beliefs.items():
        value = belief.positive_value
        if value is not None:
            singleton = singletons.get(value)
            if singleton is None:
                singleton = singletons[value] = frozenset((value,))
            explicit[user] = singleton

    # The open members are the users reachable from the explicit ones, in
    # discovery order.  Beliefs sit on roots only, so no explicit user is
    # ever a child.
    index: Dict[User, int] = {}
    stack = list(explicit)
    outgoing_get = network.outgoing_map().get
    while stack:
        for edge in outgoing_get(stack.pop(), ()):
            child = edge.child
            if child not in index:
                index[child] = len(index)
                stack.append(child)
    members = list(index)

    program = close_union(members, index, network.incoming_map(), explicit.get)
    values = program.node_values([explicit[leaf] for leaf in program.leaves])

    # Unreachable users share one empty set; lineage pointers are derived
    # lazily from the program's closing record.
    possible: Dict[User, FrozenSet[Value]] = dict.fromkeys(network.users, _EMPTY)
    possible.update(explicit)
    possible.update(zip(members, map(values.__getitem__, program.reads)))

    def materialize_lineage() -> Dict[Tuple[User, Value], FrozenSet[Optional[User]]]:
        # An explicit belief's single value points at the user itself.
        believed: FrozenSet[Optional[User]] = frozenset({None})
        lineage: Dict[Tuple[User, Value], FrozenSet[Optional[User]]] = {
            (user, value): believed
            for user, singleton in explicit.items()
            for value in singleton
        }
        lineage.update(program.lineage(values))
        return lineage

    return ResolutionResult(
        possible=possible,
        explicit_users=frozenset(explicit),
        lineage_factory=materialize_lineage,
        program=program,
    )


def certain_snapshot(network: TrustNetwork) -> Dict[User, Value]:
    """Convenience wrapper: resolve the network and return the certain snapshot."""
    return resolve(network).snapshot()


@dataclass(frozen=True, slots=True)
class UnionProgram:
    """Algorithm 1's closing order over open members, recorded without values.

    Which members close by a preferred copy and which by a flood, and the
    order of the floods, depend only on the structure and on which external
    parents are reachable (have a non-empty possible set) — never on the
    values themselves (Section 4's observation that one plan serves every
    object).  A program records that order once as *nodes*: the reachable
    external parents (:attr:`leaves`, in discovery order) are nodes
    ``0..len(leaves)-1``, and every flood that merges more than one node
    appends a node holding the union of its :attr:`floods` sources.
    :attr:`reads` gives each member's node: a preferred copy, or a flood
    fed by a single node, reads that node's frozenset itself.

    The closing record explains the values (:meth:`lineage`):
    ``closed_by[i]`` is member ``i``'s preferred parent when it closed by a
    copy and ``~f`` when it closed in flood ``f``, and ``flood_parents[f]``
    lists that flood's closed parents.  Parent ids below ``len(members)``
    are members, the others leaf ``id - len(members)``.

    The delta resolver keeps one program per multi-node SCC in the network
    condensation.  There a program is valid for the :attr:`members` tuple
    it was recorded on (checked by identity: merges and splits make new
    tuples) and for its reachability :attr:`mask` over :attr:`externals`
    (every external parent, reachable or not); the condensation drops it
    whenever an in-edge of a member changes
    (:meth:`~repro.core.condensation.Condensation.drop_program`).
    """

    members: Sequence[User]
    externals: Tuple[User, ...]
    mask: Tuple[bool, ...]
    leaves: Tuple[User, ...]
    floods: Tuple[Tuple[int, ...], ...]
    reads: Tuple[int, ...]
    closed_by: List[int]
    flood_parents: List[Tuple[int, ...]]

    def node_values(self, values: List[FrozenSet[Value]]) -> List[FrozenSet[Value]]:
        """Every node's value: ``values`` holds the leaves' sets and is
        extended in place with one union per flood node."""
        for sources in self.floods:
            values.append(_EMPTY.union(*[values[s] for s in sources]))
        return values

    def evaluate(
        self, possible: Mapping[User, FrozenSet[Value]]
    ) -> Optional[List[FrozenSet[Value]]]:
        """The members' values under ``possible``, in member order.

        ``None`` when ``possible`` reaches a different set of external
        parents than the one the program was recorded for.
        """
        get = possible.get
        if tuple(map(bool, map(get, self.externals))) != self.mask:
            return None
        values = self.node_values(list(map(get, self.leaves)))
        return [values[node] for node in self.reads]

    def lineage(
        self, values: List[FrozenSet[Value]]
    ) -> Dict[Tuple[User, Value], FrozenSet[User]]:
        """The members' lineage pointers (Section 2.5) under node ``values``.

        A copied value points at the preferred parent it was copied from; a
        flooded value at every closed parent of the flood that holds it.
        """
        users = [*self.members, *self.leaves]
        node_of = [*self.reads, *range(len(self.leaves))]
        contributors: List[Dict[Value, FrozenSet[User]]] = []
        for parents in self.flood_parents:
            holders: Dict[Value, Set[User]] = {}
            for parent in parents:
                for value in values[node_of[parent]]:
                    holders.setdefault(value, set()).add(users[parent])
            contributors.append(
                {value: frozenset(held) for value, held in holders.items()}
            )
        lineage: Dict[Tuple[User, Value], FrozenSet[User]] = {}
        for member, node, how in zip(self.members, self.reads, self.closed_by):
            if how < 0:
                flood = contributors[~how]
                for value in values[node]:
                    lineage[(member, value)] = flood[value]
            else:
                pointer = frozenset((users[how],))
                for value in values[node]:
                    lineage[(member, value)] = pointer
        return lineage


def close_union(
    members: Sequence[User],
    index: Mapping[User, int],
    incoming: Mapping[User, Sequence[TrustMapping]],
    reachable: Callable[[User], object],
) -> UnionProgram:
    """Algorithm 1's closing loop over ``members``, recorded as a program.

    Shared by :func:`resolve` (every user reachable from a belief, over the
    explicit users), the delta resolver (one SCC's members, over their
    external parents) and the bulk planner (a fresh plan's users, or a
    patched plan's region, over the users closed before them; see
    :func:`repro.bulk.planner.lower_union`); ``index`` maps each member to
    its position in ``members``.  Every parent of a member is either a
    member or an external parent that is closed, with a final possible
    set.  ``reachable(parent)`` is truthy when that set is non-empty (the
    callers pass their value map's ``get``, or a closed set's
    ``__contains__``).  An external parent with an empty set can never hold
    a belief, so its edges are dropped and preferred parents are
    re-derived on the surviving edges (Definition 2.4, condition 3).  The
    loop then drains one Step-1 worklist and one
    :class:`~repro.core.sccs.CondensationEngine`: Step 1 copies a closed
    preferred parent, Step 2 floods a minimal SCC of the open members.  It
    reads which external parents are reachable, never their values, so the
    returned program serves any boundary with the same reachability.
    Members may have more than two parents (the planner also plans
    non-binary networks); the binary case keeps its two flat parent arrays.
    """
    # Int ids: members 0..m-1, then the reachable external parents (the
    # program's leaves, closed from the start) in discovery order.
    m = len(members)
    index_get = index.get
    externals: Dict[User, int] = {}
    leaves: List[User] = []
    # Binary networks have at most two parents per node, so the parent
    # adjacency fits two flat arrays instead of m tiny lists.
    preferred = [-1] * m
    parent_a = [-1] * m
    parent_b = [-1] * m
    children_pref: List[List[int]] = [[] for _ in range(m)]
    successors: List[List[int]] = [[] for _ in range(m)]
    # The surviving parents of members with more than two in-edges.
    wide: Dict[int, Tuple[int, ...]] = {}

    def external(parent: User) -> int:
        node = externals.get(parent)
        if node is None:
            if reachable(parent):
                node = m + len(leaves)
                leaves.append(parent)
                children_pref.append([])
            else:
                node = -1
            externals[parent] = node
        return node

    for i, member in enumerate(members):
        edges = incoming[member]
        if len(edges) > 2:
            ranked: List[Tuple[int, int]] = []
            for edge in edges:
                parent = index_get(edge.parent, -1)
                if parent < 0:
                    parent = external(edge.parent)
                else:
                    successors[parent].append(i)
                if parent >= 0:
                    ranked.append((edge.priority, parent))
            if ranked:
                top = max(ranked)[0]
                best = [parent for priority, parent in ranked if priority == top]
                if len(best) == 1:
                    preferred[i] = best[0]
                    children_pref[best[0]].append(i)
                wide[i] = tuple(parent for _priority, parent in ranked)
            continue
        first = edges[0]
        p_first = index_get(first.parent, -1)
        if p_first < 0:
            p_first = external(first.parent)
        else:
            successors[p_first].append(i)
        if len(edges) == 1:
            if p_first >= 0:
                preferred[i] = parent_a[i] = p_first
                children_pref[p_first].append(i)
            continue
        second = edges[1]
        p_second = index_get(second.parent, -1)
        if p_second < 0:
            p_second = external(second.parent)
        else:
            successors[p_second].append(i)
        if p_first < 0:
            p_first, p_second = p_second, -1
            if p_first < 0:
                continue
            pref = p_first
        elif p_second < 0:
            pref = p_first
        elif first.priority > second.priority:
            pref = p_first
        elif second.priority > first.priority:
            pref = p_second
        else:
            pref = -1
        parent_a[i] = p_first
        parent_b[i] = p_second
        if pref >= 0:
            preferred[i] = pref
            children_pref[pref].append(i)

    # Every member closes exactly once, onto a program node: a preferred
    # copy aliases its parent's node, and a flood makes a new node only
    # when it merges more than one.
    n_leaves = len(leaves)
    node_of = [-1] * m
    node_of.extend(range(n_leaves))
    closed_by = [-1] * m
    closed = bytearray(m)
    closed.extend(b"\x01" * n_leaves)
    floods: List[Tuple[int, ...]] = []
    flood_parents: List[Tuple[int, ...]] = []
    engine = CondensationEngine(range(m), successors, m)
    # Step-1 worklist, seeded from the leaves; every later closure enqueues
    # its own preferred children, so the open set is never rescanned.
    worklist = [child for leaf in range(m, m + n_leaves) for child in children_pref[leaf]]
    open_count = m
    while open_count:
        # Step 1: close chains of preferred edges, event-driven.
        while worklist:
            node = worklist.pop()
            if closed[node]:
                continue
            parent = preferred[node]
            if parent < 0 or not closed[parent]:
                continue
            node_of[node] = node_of[parent]
            closed_by[node] = parent
            closed[node] = 1
            open_count -= 1
            engine.close(node)
            worklist.extend(children_pref[node])
        if not open_count:
            break

        # Step 2: flood one minimal SCC of the open subgraph.  Its incoming
        # edges all come from closed nodes, whose values are final, so the
        # flood is independent of the order minimal SCCs are processed.
        scc = engine.pop_minimal()
        parents = tuple(
            parent
            for node in scc
            for parent in (parent_a[node], parent_b[node])
            if parent >= 0 and closed[parent]
        )
        if wide:
            parents += tuple(
                parent for node in scc for parent in wide.get(node, ()) if closed[parent]
            )
        sources = {node_of[parent] for parent in parents}
        if len(sources) == 1:
            (flood,) = sources
        else:
            flood = n_leaves + len(floods)
            floods.append(tuple(sources))
        how = ~len(flood_parents)
        flood_parents.append(parents)
        for node in scc:
            node_of[node] = flood
            closed_by[node] = how
            closed[node] = 1
            open_count -= 1
            engine.close(node)
            worklist.extend(children_pref[node])

    return UnionProgram(
        members,
        tuple(externals),
        tuple([node >= 0 for node in externals.values()]),
        tuple(leaves),
        tuple(floods),
        tuple(node_of[:m]),
        closed_by,
        flood_parents,
    )
