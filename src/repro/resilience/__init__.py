"""Hardened data plane: validating ingestion, resumable builds, audits.

Three pillars (see ``docs/robustness.md``, "Build hardening & index
audit"):

* :mod:`repro.resilience.ingest` — strict/lenient parsing of the DIMACS
  and CSP text formats with typed :class:`~repro.exceptions.
  GraphFormatError` (path/line/column context), explicit duplicate-edge
  and self-loop policies, and a documented largest-connected-component
  fallback for disconnected inputs.
* :mod:`repro.resilience.checkpoint` — checkpoint segments for the
  (multi-minute on real road networks) label build: consecutive runs
  of the top-down sweep, saved as plain arrays through the
  atomic/checksummed storage envelope, so an interrupted build resumes
  after the last saved segment and lands on bytes identical to a fresh
  build; plus a time/memory budget watchdog that checkpoints-then-raises.
* :mod:`repro.resilience.audit` — deep structural + semantic self-audit
  of a built or loaded index (skyline canonicality, hoplink coverage,
  tree/LCA well-formedness, seeded spot-checks against constrained
  Dijkstra), surfaced as the ``repro-qhl verify`` CLI command and the
  :class:`~repro.service.ladder.QueryService` ``require_audit`` gate.
"""

from repro.resilience.audit import AuditCheck, AuditReport, audit_index
from repro.resilience.checkpoint import (
    BuildBudget,
    CheckpointStore,
)
from repro.resilience.ingest import (
    LENIENT,
    STRICT,
    IngestReport,
    ParsePolicy,
    load_csp_network,
    load_dimacs_network,
)

__all__ = [
    "AuditCheck",
    "AuditReport",
    "BuildBudget",
    "CheckpointStore",
    "IngestReport",
    "LENIENT",
    "ParsePolicy",
    "STRICT",
    "audit_index",
    "load_csp_network",
    "load_dimacs_network",
]
