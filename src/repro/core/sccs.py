"""Incremental SCC condensation of a shrinking directed graph.

Algorithms 1 and 2 (and the bulk planner) repeatedly need the *minimal*
strongly connected components of the still-open subgraph: the components
with no incoming edges from other open nodes.  Recomputing the full
condensation before every flooding step — as the paper's pseudocode allows —
makes even the easy workloads quadratic (Appendix B.5).  This module instead
computes the SCC DAG **once** with an iterative Tarjan pass and then
maintains minimal-component status incrementally while nodes close:

* every component carries a counter of edges arriving from open nodes in
  *other* components (``in_count``);
* closing a node discharges the counters touched by its incident edges, and
  a component whose counter reaches zero becomes a candidate minimal
  component;
* Step-1 closures (preferred-edge propagation) can carve nodes out of a
  component, potentially splitting it; such components are marked *dirty*
  and locally re-condensed over their residual members when they are popped.

Because SCCs of a subgraph only ever refine (never merge) as nodes are
deleted, the local re-condensation is confined to the carved component's
residual members — the rest of the DAG and all other counters stay valid.
The total work is ``O(|V| + |E|)`` for construction plus ``O(1)`` amortized
per edge endpoint closed, plus re-condensation work bounded by the sizes of
carved components; on the paper's workloads (Figures 8a/8b) this makes
resolution near-linear, while the genuine nested-SCC worst case (Figure 15)
stays quadratic-bounded as the paper predicts.

For speed the engine is *int-native*: callers index their node universe
with dense integer ids ``0..n-1`` once and hand the engine plain adjacency
lists, so the hot loops run on arrays and integer keys instead of hashing
user objects.  The module-level :func:`strongly_connected_components`
helper remains generic over hashable nodes for tests and offline tools.
Everything is pure Python with no third-party dependencies; it replaces the
``networkx`` condensation calls that used to sit on the resolution hot path.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import NetworkError

Node = Hashable


def strongly_connected_components(
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> List[List[Node]]:
    """Iterative Tarjan over ``nodes`` (successors outside ``nodes`` must not
    be yielded by ``successors``).  Components are returned in reverse
    topological order (every component before its predecessors).
    """
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: List[tuple] = [(root, iter(successors(root)))]
        while work:
            node, child_iter = work[-1]
            advanced = False
            for child in child_iter:
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    advanced = True
                    break
                if child in on_stack and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _tarjan_indexed(
    roots: Iterable[int],
    successors: Sequence[Sequence[int]],
    admit: bytearray,
    index: List[int],
    lowlink: List[int],
    on_stack: bytearray,
) -> List[List[int]]:
    """Int-native Tarjan restricted to nodes with ``admit[node] == 1``.

    ``index`` must hold ``-1`` and ``on_stack`` ``0`` for every admitted
    node on entry; ``lowlink`` needs no initialization (always written
    before read).  ``on_stack`` self-cleans; the caller owns the buffers and
    resets the ``index`` entries of the returned components afterwards,
    allowing reuse without O(n) clears.
    """
    UNSEEN = -1
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in roots:
        if index[root] != UNSEEN:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # Each frame holds a node and the iterator over its successors, so
        # a resumed frame continues where its descent left off.
        work: List[Tuple[int, Iterator[int]]] = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if not admit[child]:
                    continue
                child_index = index[child]
                if child_index == UNSEEN:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = 1
                    work.append((child, iter(successors[child])))
                    break
                if on_stack[child] and child_index < lowlink[node]:
                    lowlink[node] = child_index
            else:
                work.pop()
                node_low = lowlink[node]
                if work:
                    parent = work[-1][0]
                    if node_low < lowlink[parent]:
                        lowlink[parent] = node_low
                if node_low == index[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class CondensationEngine:
    """Maintain the minimal SCCs of a directed graph while nodes close.

    Parameters
    ----------
    open_nodes:
        The initially-open nodes, as dense integer ids.
    successors:
        ``successors[node]`` lists the children of ``node`` (parallel edges
        may repeat a child; the engine accounts for edge multiplicity
        consistently).  Entries for closed/never-open nodes are ignored.
    n:
        Size of the id space; defaults to ``len(successors)``.

    Protocol
    --------
    * :meth:`close` must be called for **every** node that leaves the open
      set, whether it was closed by preferred-edge propagation (Step 1) or as
      a member of a component returned by :meth:`pop_minimal` (Step 2).
    * :meth:`pop_minimal` returns the members of one currently-minimal
      component; the caller is expected to flood and then close all of them.

    Counters only ever decrease, so a component becomes a candidate exactly
    once; components carved by Step-1 closures are re-condensed lazily (and
    only over their own residual members) when they reach the front of the
    candidate queue.
    """

    def __init__(
        self,
        open_nodes: Iterable[int],
        successors: Sequence[Sequence[int]],
        n: int = -1,
    ) -> None:
        if n < 0:
            n = len(successors)
        open_flags = bytearray(n)
        count = 0
        for node in open_nodes:
            if not open_flags[node]:
                open_flags[node] = 1
                count += 1
        self._n = n
        self._open = open_flags
        self._succ = successors
        self._open_count = count
        # The condensation is built lazily at the first pop_minimal() call:
        # Step-1 closures arriving before any flooding is needed then cost
        # O(1) flag flips, and the Tarjan pass only covers the residual open
        # subgraph (on tree-like networks that residual is a small fraction).
        self._built = False

    def _build(self) -> None:
        n = self._n
        open_flags = self._open
        successors = self._succ
        ordered = [node for node in range(n) if open_flags[node]]
        comp_of = [-1] * n
        self._comp_of = comp_of
        self._members: Dict[int, Set[int]] = {}
        self._in_count: Dict[int, int] = {}
        self._dirty: Set[int] = set()
        self._candidates: Deque[int] = deque()

        # Persistent Tarjan buffers, shared by the initial condensation and
        # all later local re-condensations (index entries are reset per use).
        self._t_index = [-1] * n
        self._t_low = [0] * n
        self._t_onstack = bytearray(n)
        components = _tarjan_indexed(
            ordered, successors, open_flags, self._t_index, self._t_low, self._t_onstack
        )
        t_index = self._t_index
        for node in ordered:
            t_index[node] = -1
        members = self._members
        in_count = self._in_count
        for cid, component in enumerate(components):
            members[cid] = set(component)
            in_count[cid] = 0
            for member in component:
                comp_of[member] = cid
        self._next_id = len(components)
        # A cross-component edge u -> v is accounted in in_count[comp(v)]
        # while BOTH endpoints are open; it is discharged by whichever
        # endpoint closes first (successor side in close(u), predecessor
        # side in close(v)).  The predecessor index makes the latter O(1).
        pred: Dict[int, List[int]] = {}
        for node in ordered:
            cid = comp_of[node]
            for child in successors[node]:
                if open_flags[child]:
                    entry = pred.get(child)
                    if entry is None:
                        pred[child] = [node]
                    else:
                        entry.append(node)
                    if comp_of[child] != cid:
                        in_count[comp_of[child]] += 1
        self._pred = pred
        # Scratch admission mask reused by local re-condensations so a split
        # costs O(residual) instead of O(n).
        self._scratch = bytearray(n)
        for cid, count in in_count.items():
            if count == 0:
                self._candidates.append(cid)
        self._built = True

    # ------------------------------------------------------------------ #
    # mutation                                                            #
    # ------------------------------------------------------------------ #

    def close(self, node: int) -> None:
        """Remove ``node`` from the open graph, updating incident counters."""
        open_flags = self._open
        if not open_flags[node]:
            return
        open_flags[node] = 0
        self._open_count -= 1
        if not self._built:
            return
        comp_of = self._comp_of
        cid = comp_of[node]
        comp_of[node] = -1
        in_count = self._in_count
        candidates = self._candidates
        members = self._members.get(cid)
        if members is not None:
            members.discard(node)
            if members:
                # The component lost a member but keeps others: its residual
                # may have split, re-condense it lazily on pop.
                self._dirty.add(cid)
                # Incoming cross edges from still-open nodes die with this
                # node: the residual no longer waits on them.
                discharged = 0
                for parent in self._pred.get(node, ()):
                    if open_flags[parent] and comp_of[parent] != cid:
                        discharged += 1
                if discharged:
                    remaining = in_count[cid] - discharged
                    in_count[cid] = remaining
                    if remaining == 0:
                        candidates.append(cid)
            else:
                del self._members[cid]
                self._in_count.pop(cid, None)
                self._dirty.discard(cid)
        for child in self._succ[node]:
            if open_flags[child]:
                child_cid = comp_of[child]
                if child_cid != cid:
                    remaining = in_count[child_cid] - 1
                    in_count[child_cid] = remaining
                    if remaining == 0:
                        candidates.append(child_cid)

    def pop_minimal(self) -> List[int]:
        """Members of one minimal component of the current open subgraph.

        The caller must subsequently :meth:`close` every returned node.
        Raises :class:`NetworkError` when no open component remains.
        """
        if not self._built:
            self._build()
        candidates = self._candidates
        while candidates:
            cid = candidates.popleft()
            members = self._members.get(cid)
            if not members:
                continue
            if cid not in self._dirty:
                del self._members[cid]
                self._in_count.pop(cid, None)
                return list(members)
            # Residual of a carved component: re-condense locally.  All its
            # incoming edges from open nodes outside `members` are gone
            # (in_count reached zero), so the split is fully determined by
            # the edges among the residual members.
            self._dirty.discard(cid)
            del self._members[cid]
            self._in_count.pop(cid, None)
            succ = self._succ
            in_members = members.__contains__
            admit = self._scratch
            member_list = list(members)
            for member in member_list:
                admit[member] = 1
            subcomponents = _tarjan_indexed(
                member_list, succ, admit, self._t_index, self._t_low, self._t_onstack
            )
            t_index = self._t_index
            for member in member_list:
                admit[member] = 0
                t_index[member] = -1
            if len(subcomponents) == 1:
                return member_list
            comp_of = self._comp_of
            in_count = self._in_count
            fresh: List[int] = []
            for component in subcomponents:
                new_cid = self._next_id
                self._next_id += 1
                self._members[new_cid] = set(component)
                in_count[new_cid] = 0
                fresh.append(new_cid)
                for member in component:
                    comp_of[member] = new_cid
            for member in members:
                member_cid = comp_of[member]
                for child in succ[member]:
                    if in_members(child) and comp_of[child] != member_cid:
                        in_count[comp_of[child]] += 1
            for new_cid in fresh:
                if in_count[new_cid] == 0:
                    candidates.append(new_cid)
        raise NetworkError("open subgraph has no minimal SCC")

    # ------------------------------------------------------------------ #
    # inspection                                                          #
    # ------------------------------------------------------------------ #

    @property
    def open_count(self) -> int:
        """Number of nodes still open inside the engine."""
        return self._open_count

    def is_open(self, node: int) -> bool:
        """Whether ``node`` is still open (not yet closed via :meth:`close`)."""
        return bool(self._open[node])
