"""SQL dialects for compiled region execution.

The statement-at-a-time replay of :mod:`repro.bulk.executor` drives the
database from Python: one round trip per plan step.  Compiled execution
(:mod:`repro.bulk.compile`) pushes whole plan regions *into* the engine —
one flat ``INSERT … SELECT`` per region of copy steps, one per stage of
independent floods — each joining a ``VALUES`` list of compile-time pairs
against ``POSS`` by a prefix of its ``(X, K, V)`` key.  No statement
recurses or sorts through a window: everything that depends only on the
plan (each copy child's frontier ancestor) is computed once by the
compiler, and the floods de-duplicate with ``SELECT DISTINCT`` exactly as
the replay floods do.

A :class:`SqlDialect` renders those statements in the store's canonical
``qmark`` placeholder style (the backend's :meth:`~repro.bulk.backends
.SqlBackend.render` still rewrites placeholders per driver, exactly as for
the replay statements).  An engine either has a dialect, and then compiles
every region kind, or has none, and then replays every region
statement-at-a-time.

Every statement uses the ``VALUES`` auto-naming convention
(``column1``/``column2``) or a non-recursive ``WITH`` list, both shared by
sqlite (3.8.3 and later) and PostgreSQL, the same idioms the store's
multi-child copy and flood statements already rely on.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.core.errors import BulkProcessingError

#: First sqlite release evaluating ``VALUES`` subqueries and ``WITH`` lists.
SQLITE_CTE_VERSION = (3, 8, 3)


@dataclass(frozen=True)
class SqlDialect:
    """How one engine family evaluates compiled plan regions.

    The render methods emit canonical ``?``-placeholder SQL against the
    ``POSS(X, K, V)`` relation plus the flat parameter tuple.
    """

    name: str

    def copy_region_statement(
        self, ancestors: Sequence[Tuple[str, str]]
    ) -> Tuple[str, Tuple[str, ...]]:
        """One flat join closing every copy child of a region.

        ``ancestors`` holds one ``(child, frontier ancestor)`` pair per copy
        edge of the region (:attr:`~repro.bulk.compile.CompiledRegion
        .ancestors`).  The region's edges form a forest rooted at its
        *closed frontier* (parents closed before the region), and a copy
        only ever duplicates its parent's rows, so every child ends up with
        exactly the rows of its frontier ancestor.  The compiler resolves
        that ancestor once per region, so the statement is one ``VALUES``
        list joined against ``POSS`` through the ``X`` prefix of its
        ``(X, K, V)`` key: one row per child, two bound parameters per
        edge, and no recursion (a
        recursive CTE over the edge ``VALUES`` re-scans them once per queue
        row, ``O(edges²)`` on sqlite).  Each child closes once, so the
        plain join writes each of its rows once, as the replay copies do
        (they are not ``DISTINCT`` either), and the compiled region is
        byte-identical to replaying its steps one statement at a time.
        """
        if not ancestors:
            raise BulkProcessingError("a copy region needs at least one edge")
        values = ",".join("(?, ?)" for _ in ancestors)
        sql = (
            "INSERT INTO POSS (X, K, V) SELECT cl.column1, s.K, s.V "
            f"FROM (VALUES {values}) AS cl "
            "JOIN POSS AS s ON s.X = cl.column2"
        )
        parameters = tuple(
            text
            for child, ancestor in ancestors
            for text in (str(child), str(ancestor))
        )
        return sql, parameters

    def flood_stage_statement(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Tuple[str, Tuple[str, ...]]:
        """One pass flooding every ``(member, parent)`` pair at once.

        Each member receives the *distinct* ``(K, V)`` union over its own
        parents: ``SELECT DISTINCT`` on ``(member, K, V)`` keeps exactly
        one copy per member, replicating the per-step ``SELECT DISTINCT``
        of the replay flood.  Sound only for floods whose parents were all
        closed before the stage (the compiler's independence condition):
        the statement reads committed ``POSS`` rows, never its own inserts.
        """
        if not pairs:
            raise BulkProcessingError("a flood stage needs at least one pair")
        values = ",".join("(?, ?)" for _ in pairs)
        sql = (
            "INSERT INTO POSS (X, K, V) SELECT DISTINCT mp.column1, s.K, s.V "
            f"FROM (VALUES {values}) AS mp "
            "JOIN POSS AS s ON s.X = mp.column2"
        )
        parameters = tuple(
            text for member, parent in pairs for text in (str(member), str(parent))
        )
        return sql, parameters

    def blocked_flood_statement(
        self,
        pairs: Sequence[Tuple[str, str]],
        blocked: Sequence[Tuple[str, str]],
        bottom_value: str,
    ) -> Tuple[str, Tuple[str, ...]]:
        """One pass flooding Skeptic members around their blocked values.

        The statement is the flood shape with two additions that replicate
        :meth:`~repro.bulk.store.PossStore.flood_component_skeptic` exactly:

        * the candidate ``(member, K, V)`` rows are anti-joined (``NOT
          EXISTS``) against a per-member ``BLOCKLIST(MEMBER, V)`` ``VALUES``
          relation before the ``DISTINCT``, so a member never receives a
          value its forced constraints reject;
        * a second branch inserts one ``⊥`` row per ``(member, K)`` whose
          parents held at least one blocked value — the positive record
          that *something* was rejected, de-duplicated on ``(member, K)``
          with the ``⊥`` constant added outside the ``DISTINCT`` (the
          replay's ``DISTINCT s.K`` idiom), so it lands exactly once.

        Members with no blocklist entry pass the anti-join vacuously and
        contribute nothing to the ``⊥`` branch, so mixed regions (some
        members constrained, some not) compile into the same statement.
        Row multiplicities match the two replay statements branch for
        branch, which is what keeps the compiled region byte-identical.
        """
        if not pairs:
            raise BulkProcessingError("a blocked flood needs at least one pair")
        if not blocked:
            # Degenerate Skeptic step whose constraints all vanished: the
            # plain flood shape is the same statement minus the blocklist.
            return self.flood_stage_statement(pairs)
        pair_values = ",".join("(?, ?)" for _ in pairs)
        block_values = ",".join("(?, ?)" for _ in blocked)
        sql = (
            "INSERT INTO POSS (X, K, V) "
            f"WITH FLOOD_PAIRS(MEMBER, PARENT) AS (VALUES {pair_values}), "
            f"BLOCKLIST(MEMBER, V) AS (VALUES {block_values}) "
            "SELECT DISTINCT mp.MEMBER, s.K, s.V "
            "FROM FLOOD_PAIRS AS mp "
            "JOIN POSS AS s ON s.X = mp.PARENT "
            "WHERE NOT EXISTS (SELECT 1 FROM BLOCKLIST AS bl "
            "WHERE bl.MEMBER = mp.MEMBER AND bl.V = s.V) "
            "UNION ALL "
            "SELECT r.MEMBER, r.K, ? FROM ("
            "SELECT DISTINCT mp.MEMBER AS MEMBER, s.K AS K "
            "FROM FLOOD_PAIRS AS mp "
            "JOIN POSS AS s ON s.X = mp.PARENT "
            "JOIN BLOCKLIST AS bl "
            "ON bl.MEMBER = mp.MEMBER AND bl.V = s.V) AS r"
        )
        parameters = (
            tuple(
                text
                for member, parent in pairs
                for text in (str(member), str(parent))
            )
            + tuple(
                text
                for member, value in blocked
                for text in (str(member), str(value))
            )
            + (str(bottom_value),)
        )
        return sql, parameters


#: PostgreSQL evaluates every shape natively (any supported release).
POSTGRES_DIALECT = SqlDialect(name="postgres")


@lru_cache(maxsize=1)
def sqlite_dialect() -> Optional[SqlDialect]:
    """The dialect of the linked sqlite library, or ``None`` below 3.8.3.

    ``VALUES`` subqueries and ``WITH`` lists arrived in sqlite 3.8.3; an
    older system library has no dialect, so every region replays.
    """
    if sqlite3.sqlite_version_info < SQLITE_CTE_VERSION:
        return None
    return SqlDialect(name="sqlite")


def resolve_dialect(
    dialect: "SqlDialect | str | None",
) -> Optional[SqlDialect]:
    """Normalize a dialect argument (name, object, or ``None``).

    ``None`` means the engine has no compiled-region support (the
    conservative default for unknown DB-API drivers); the names
    ``"sqlite"`` and ``"postgres"`` resolve to the built-in dialects.
    """
    if dialect is None or isinstance(dialect, SqlDialect):
        return dialect
    if dialect == "sqlite":
        return sqlite_dialect()
    if dialect == "postgres":
        return POSTGRES_DIALECT
    raise BulkProcessingError(
        f"unknown SQL dialect {dialect!r}; known: sqlite, postgres"
    )
