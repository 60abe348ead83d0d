"""SQL dialect layer for compiled region execution (see :mod:`.dialect`)."""

from repro.bulk.sql.dialect import (
    POSTGRES_DIALECT,
    SQLITE_CTE_VERSION,
    SqlDialect,
    resolve_dialect,
    sqlite_dialect,
)

__all__ = [
    "POSTGRES_DIALECT",
    "SQLITE_CTE_VERSION",
    "SqlDialect",
    "resolve_dialect",
    "sqlite_dialect",
]
