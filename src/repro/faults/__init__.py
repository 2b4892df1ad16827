"""``repro.faults`` — deterministic, seeded fault injection.

The robustness layer's chaos harness (docs/ROBUSTNESS.md): a closed
registry of named fault sites (:mod:`repro.faults.registry`), a
``REPRO_FAULTS`` plan spec mapping sites to firing rates under one seed,
and :func:`site` — the single question the instrumented code paths ask
(``faults.site("executor.worker_crash", key=...)``).  Draws are pure
functions of the plan (keyed hash or per-site LCG stream), so a chaos
run injects the *same* crashes, corruptions, and drops every time.

The recovery contract: every injected fault must be survived with
outputs bit-identical to a fault-free run — retried chunks replay the
same deterministic task, quarantined cache entries recompute from the
same seeds, dropped connections re-ask idempotent content-keyed queries.
The chaos-smoke CI job enforces this against the recorded digests.
"""

from .._lazy import lazy_exports

# bound now: instrumented paths ask ``faults.site`` inside graph nodes
# and pool workers, where a first import would compile the plan again in
# every worker
from .plan import site as site

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_SEED": "plan", "ENV_VAR": "plan", "FaultPlan": "plan",
    "FaultPlanError": "plan", "active_plan": "plan", "clear_plan": "plan",
    "fault_stats": "plan", "install_plan": "plan", "parse_plan": "plan",
    "reset_fault_state": "plan",
    "FAULT_SITES": "registry", "FaultSite": "registry",
    "SITE_NAMES": "registry", "is_registered": "registry",
})
__all__ += ["site"]
