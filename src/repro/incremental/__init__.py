"""Incremental maintenance of resolved trust networks (live updates).

The batch algorithms (:mod:`repro.core.resolution`,
:mod:`repro.core.skeptic`) and the bulk executor (:mod:`repro.bulk`)
recompute everything per run.  This package maintains an already-resolved
network under a stream of deltas instead:

* :mod:`repro.incremental.deltas` — the delta vocabulary
  (``SetBelief`` / ``RemoveBelief``, ``AddTrust`` / ``RemoveTrust``,
  ``SetPriority``, ``RemoveUser``) and the row-level :class:`DeltaLog`;
* :mod:`repro.incremental.resolver` — the change-driven walk both
  paradigms share (validation, mutation, ``apply`` / ``apply_batch``, and
  a rank-ordered walk over the network's maintained condensation that
  visits only the components whose inputs changed), and
  :class:`DeltaResolver`, which re-runs Algorithm 1 locally on each of
  them;
* :mod:`repro.incremental.skeptic` — :class:`SkepticDeltaResolver`, the
  same walk for Algorithm 2's representations: ``prefNeg`` and the
  localized Algorithm 2 per component, and every piece of a split
  component re-seeded;
* :mod:`repro.incremental.session` — :class:`IncrementalSession`, which
  applies delta logs to a ``POSS`` store as delta ``DELETE``/``INSERT``
  statements inside one (per-shard) transaction instead of a full reload;
* :mod:`repro.incremental.coalesce` — :func:`coalesce`, the net-effect
  batch rewriter behind ``IncrementalSession.apply_batch`` (one regional
  recompute per batch instead of one per op).

Correctness contract, locked by the property suite: after any update
stream, the maintained state is byte-identical to a from-scratch
re-resolution of the mutated network — in memory and in the relation.
"""

from repro.incremental.coalesce import coalesce
from repro.incremental.deltas import (
    AddTrust,
    Delta,
    DeltaLog,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    RowChange,
    SetBelief,
    SetPriority,
    is_structural,
)
from repro.incremental.resolver import DeltaResolver
from repro.incremental.session import DeltaApplyReport, IncrementalSession
from repro.incremental.skeptic import (
    SkepticDeltaLog,
    SkepticDeltaResolver,
    SkepticRowChange,
)

__all__ = [
    "AddTrust",
    "Delta",
    "DeltaApplyReport",
    "DeltaLog",
    "DeltaResolver",
    "IncrementalSession",
    "RemoveBelief",
    "RemoveTrust",
    "RemoveUser",
    "RowChange",
    "SetBelief",
    "SetPriority",
    "SkepticDeltaLog",
    "SkepticDeltaResolver",
    "SkepticRowChange",
    "coalesce",
    "is_structural",
]
