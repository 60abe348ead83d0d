"""A fault-injecting decorator over any :class:`~repro.bulk.backends.SqlBackend`.

The wrapper is transparent: ``name``, rendering, concurrency capabilities
and error classification all mirror the inner backend, so reports and
assertions written against the real backend keep holding under injection.
Faults fire *before* the delegated call — an injected failure never
half-applies a statement, which keeps the chaos suite's byte-identity
oracle honest (the real store state is exactly what the successful calls
produced).

Scripted fault indexes count from the first statement after the store's
schema: the store runs its schema statements (and their commit) inside
:meth:`FaultInjectingBackend.schema_setup`, which the policy never sees, so
adding or removing a schema statement moves no fault index.

When the owning store has a tracer installed (``PossStore`` propagates it
onto the wrapper's ``tracer`` attribute), every injected fault is recorded
as an instant ``fault`` event tagged with its site/shard/kind and counted
in the tracer's metrics — reading the live attribute means a tracer
attached after construction still observes the proxies already handed out.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.bulk.backends import SqlBackend
from repro.faults.policy import FaultPolicy
from repro.obs.trace import NULL_TRACER

__all__ = ["FaultInjectingBackend"]


class _FaultCursor:
    """Cursor proxy that consults the policy before execute/executemany."""

    def __init__(self, cursor, backend: "FaultInjectingBackend") -> None:
        self._cursor = cursor
        self._backend = backend

    def execute(self, sql, parameters=()):
        self._backend._check("execute")
        return self._cursor.execute(sql, parameters)

    def executemany(self, sql, rows):
        self._backend._check("executemany")
        return self._cursor.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self._cursor, name)


class _FaultConnection:
    """Connection proxy: fault-checks commit, hands out fault cursors."""

    def __init__(self, connection, backend: "FaultInjectingBackend") -> None:
        self._connection = connection
        self._backend = backend

    def cursor(self) -> _FaultCursor:
        return _FaultCursor(self._connection.cursor(), self._backend)

    def commit(self) -> None:
        self._backend._check("commit")
        self._connection.commit()

    def __getattr__(self, name):
        return getattr(self._connection, name)


class FaultInjectingBackend(SqlBackend):
    """Wrap ``inner`` so its connections fail according to ``policy``.

    ``shard`` labels this backend's fault streams — a sharded store wraps
    each shard's backend with its shard index so scripted faults can
    target "statement N on shard S" exactly.
    """

    def __init__(
        self,
        inner: SqlBackend,
        policy: FaultPolicy,
        shard: Optional[int] = None,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self.shard = shard
        self.tracer = NULL_TRACER
        self._in_schema_setup = False

    @contextlib.contextmanager
    def schema_setup(self) -> Iterator[None]:
        """Run the store's schema statements past the policy (see the
        module docstring)."""
        self._in_schema_setup = True
        try:
            yield
        finally:
            self._in_schema_setup = False

    def _check(self, site: str) -> None:
        """Consult the policy; trace the fault when one is injected."""
        if self._in_schema_setup:
            return
        try:
            self.policy.check(site, self.shard)
        except Exception as error:
            tracer = self.tracer
            if tracer.enabled:
                tracer.event(
                    "fault",
                    site=site,
                    shard=self.shard,
                    kind=type(error).__name__,
                )
                tracer.metrics.counter("faults.injected")
            raise

    @property
    def name(self) -> str:
        # Mirror the inner backend: injection must not change reports.
        return self.inner.name

    @property
    def supports_concurrent_replay(self) -> bool:
        return self.inner.supports_concurrent_replay

    @property
    def supports_without_rowid(self) -> bool:
        return self.inner.supports_without_rowid

    @property
    def max_bind_params(self) -> int:
        return self.inner.max_bind_params

    @property
    def compiled_dialect(self):
        # Forward the dialect so compiled regions run under injection; the
        # base-class None default would silently disable the compiled path
        # for exactly the tests meant to exercise it.
        return self.inner.compiled_dialect

    @property
    def faults_injected(self) -> int:
        return self.policy.faults_injected

    def connect(self):
        self._check("connect")
        return _FaultConnection(self.inner.connect(), self)

    def render(self, sql: str) -> str:
        return self.inner.render(sql)

    def classify_error(self, error: BaseException):
        return self.inner.classify_error(error)
