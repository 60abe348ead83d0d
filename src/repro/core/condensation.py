"""The whole-network SCC condensation, kept current under mutation.

Algorithm 1 closes the strongly connected components of the trust graph in
topological order.  The delta resolver (:mod:`repro.incremental.resolver`)
needs that order for the whole network on every apply, so instead of
condensing a region per delta it reads one :class:`Condensation` that the
:class:`~repro.core.network.TrustNetwork` mutators patch in place:

* every user belongs to one component (:attr:`Condensation.component`);
* every component has a **rank**, a tuple of ints, and every edge between
  two components runs from the lower rank to the higher one.  Ranks are
  unique and no rank is a prefix of another, so a component of rank ``r``
  can be split into pieces ranked ``r + (0,)``, ``r + (1,)``, … that sort
  exactly where ``r`` did, without renumbering anyone else.

The patches cost what the components they involve cost, never a rebuild:

* a belief change, a priority change, a new user and the removal of an
  edge between two components leave the condensation valid (a new user is
  a singleton with a fresh rank above all others);
* an edge added along the rank order changes nothing; one added against it
  runs the bounded search of Pearce & Kelly (*A dynamic topological sort
  algorithm for directed acyclic graphs*, JEA 2006) over the components
  ranked between its endpoints, then either reorders the ones it found or,
  when the edge closes a cycle, merges the components on that cycle;
* removing an edge or a user inside one component re-condenses that
  component alone, and its pieces take its rank as their prefix.

The initial build ranks the users without parents first and the users
without children last, each a component of its own, and orders the rest
with one int-native Tarjan pass (:func:`repro.core.sccs._tarjan_indexed`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Set, Tuple

from repro.core.sccs import _tarjan_indexed

if TYPE_CHECKING:
    from repro.core.network import TrustNetwork, User

Rank = Tuple[int, ...]


class Condensation:
    """Components and topological ranks of one network's trust graph.

    Built by :meth:`TrustNetwork.condensation`, patched by its mutators.
    The three views are read-only for callers:

    * :attr:`component` — ``user -> component id``;
    * :attr:`members` — ``component id -> members`` (``None`` for ids that
      were merged away or split);
    * :attr:`rank` — ``component id -> rank`` (``None`` likewise).

    One more map belongs to its users: :attr:`programs`, ``component id ->
    program``, where the delta resolver keeps the Algorithm 1
    :class:`~repro.core.resolution.UnionProgram` of a multi-node
    component, shared by every resolver on the network.  The condensation
    only empties slots: a component's slot goes when an in-edge of one of
    its members changes (:meth:`drop_program`, called by the network's
    cache patch) and when the component is merged, split or shrunk, so
    every slot belongs to a live component and was recorded on its current
    members and in-edges.
    """

    def __init__(self, network: "TrustNetwork") -> None:
        # The network's adjacency, which its mutators update in place.
        self._incoming = incoming = network._incoming
        self._outgoing = outgoing = network._outgoing
        # A user without parents or without children is a component of its
        # own: roots rank first, childless users last, and Tarjan orders
        # only the users in between.
        roots = list(network._users - incoming.keys())
        middle = list(incoming.keys() & outgoing.keys())
        sinks = list(incoming.keys() - outgoing.keys())
        position = {user: i for i, user in enumerate(middle)}
        get = position.get
        successors = [
            [i for edge in outgoing[user] if (i := get(edge.child)) is not None]
            for user in middle
        ]
        n = len(middle)
        pieces = _tarjan_indexed(
            range(n), successors, bytearray(b"\x01") * n, [-1] * n, [0] * n, bytearray(n)
        )
        # Tarjan emits components in reverse topological order.
        pieces.reverse()
        first = len(roots)
        groups: List[Tuple["User", ...] | None] = list(zip(roots))
        groups.extend([tuple([middle[i] for i in piece]) for piece in pieces])
        groups.extend(zip(sinks))
        self.component: Dict["User", int] = dict(zip(roots, range(first)))
        self.component.update(
            {user: cid for cid, group in enumerate(groups[first:], first) for user in group}
        )
        self.members = groups
        self.rank: List[Rank | None] = list(zip(range(len(groups))))
        self.programs: Dict[int, Any] = {}
        #: First element of the next fresh top-level rank.
        self._top = len(groups)

    # ------------------------------------------------------------------ #
    # patches (called by the TrustNetwork mutators after they mutate)     #
    # ------------------------------------------------------------------ #

    def add_user(self, user: "User") -> None:
        """A new isolated user: a singleton ranked above every component."""
        self.component[user] = self._new_component((user,), (self._top,))
        self._top += 1

    def add_edge(self, parent: "User", child: "User") -> None:
        """Restore the rank order after the edge ``parent -> child`` arrived."""
        source = self.component[parent]
        target = self.component[child]
        if source == target:
            return
        rank = self.rank
        upper = rank[source]
        lower = rank[target]
        if upper < lower:
            return
        # Pearce-Kelly: only components ranked within [lower, upper] can
        # sit on a path target ~> source, or need to move.
        forward = self._search(target, upper, forward=True)
        backward = self._search(source, lower, forward=False)
        cycle = forward & backward  # non-empty iff the edge closed a cycle
        pool = sorted(rank[cid] for cid in forward | backward)
        order: List[int] = sorted(backward - cycle, key=rank.__getitem__)
        if cycle:
            merged = max(cycle, key=lambda cid: len(self.members[cid]))
            order.extend([merged] * len(cycle))
        order.extend(sorted(forward - cycle, key=rank.__getitem__))
        # Every slot of the merged block lies between the two halves, so
        # whichever the merged component ends up with orders it correctly.
        for cid, new_rank in zip(order, pool):
            rank[cid] = new_rank
        if cycle:
            self._merge(merged, cycle)

    def remove_edge(self, parent: "User", child: "User") -> None:
        """Split the component an internal edge ``parent -> child`` held."""
        cid = self.component[parent]
        if cid == self.component[child]:
            self._recondense(cid)

    def remove_user(self, user: "User") -> None:
        """Drop a user whose edges are already gone; split what it held."""
        cid = self.component.pop(user)
        members = tuple([member for member in self.members[cid] if member != user])
        if not members:
            self._retire(cid)
            return
        self.members[cid] = members
        self.programs.pop(cid, None)
        if len(members) > 1:
            self._recondense(cid)

    def drop_program(self, user: "User") -> None:
        """Forget the program of ``user``'s component: an in-edge changed."""
        self.programs.pop(self.component[user], None)

    # ------------------------------------------------------------------ #
    # helpers                                                             #
    # ------------------------------------------------------------------ #

    def _retire(self, cid: int) -> None:
        """A component merged away, split or emptied: free its id's slots."""
        self.members[cid] = None
        self.rank[cid] = None
        self.programs.pop(cid, None)

    def _new_component(self, members: Tuple["User", ...], rank: Rank) -> int:
        cid = len(self.members)
        self.members.append(members)
        self.rank.append(rank)
        return cid

    def _search(self, start: int, bound: Rank, forward: bool) -> Set[int]:
        """Components reachable from ``start`` without crossing ``bound``.

        Forward it follows out-edges through ranks ``<= bound``, backward
        in-edges through ranks ``>= bound``.  Ranks strictly increase along
        paths, so every component on a path from ``start`` to a component
        inside the window lies inside the window too.
        """
        adjacency = self._outgoing if forward else self._incoming
        component = self.component
        members = self.members
        rank = self.rank
        seen = {start}
        stack = [start]
        while stack:
            cid = stack.pop()
            for user in members[cid]:
                for edge in adjacency.get(user, ()):
                    other = component[edge.child if forward else edge.parent]
                    if other in seen:
                        continue
                    other_rank = rank[other]
                    if (other_rank <= bound) if forward else (other_rank >= bound):
                        seen.add(other)
                        stack.append(other)
        return seen

    def _merge(self, keep: int, cycle: Set[int]) -> None:
        component = self.component
        merged = list(self.members[keep])
        for cid in cycle:
            if cid == keep:
                continue
            moved = self.members[cid]
            for user in moved:
                component[user] = keep
            merged.extend(moved)
            self._retire(cid)
        self.members[keep] = tuple(merged)
        self.programs.pop(keep, None)

    def _recondense(self, cid: int) -> None:
        """Re-run Tarjan over one component's members and split it."""
        members = self.members[cid]
        position = {user: i for i, user in enumerate(members)}
        outgoing = self._outgoing
        successors = [
            [
                position[edge.child]
                for edge in outgoing.get(user, ())
                if edge.child in position
            ]
            for user in members
        ]
        m = len(members)
        pieces = _tarjan_indexed(
            range(m), successors, bytearray(b"\x01") * m, [-1] * m, [0] * m, bytearray(m)
        )
        if len(pieces) == 1:
            return
        base = self.rank[cid]
        self._retire(cid)
        component = self.component
        for j, piece in enumerate(reversed(pieces)):
            users = tuple([members[i] for i in piece])
            new = self._new_component(users, base + (j,))
            for user in users:
                component[user] = new
