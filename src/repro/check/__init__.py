"""``repro.check`` — static and dynamic correctness tooling for the suite.

The headline results of the reproduction rest on invariants that ordinary
tests cannot see from the outside:

* TC and CC variants must route through the *same* batched ``mma_m8n8k4``
  primitive so the Table 6 TC≡CC bit-identity holds by construction
  (DESIGN.md §6.1);
* fragment and lane ownership must follow the PTX ``m8n8k4`` layout
  (Figure 1b);
* kernel/model code must be deterministic (DESIGN.md §6.4) and FP64-pure
  outside the mixed-precision spec code;
* :class:`~repro.gpu.counters.KernelStats` counters must be built through
  the counter API so the execute/analytic agreement tests stay meaningful.

This package enforces them with three layers:

* **Layer 1 — AST lint** (:mod:`repro.check.lint`,
  :mod:`repro.check.contracts`): codebase-specific rules ``R001``-``R008``
  over ``src/repro``.
* **Layer 2 — determinism proof engine** (:mod:`repro.check.dataflow`,
  :mod:`repro.check.determinism`): an interprocedural taint analysis over
  the whole-package call graph proving the three structural properties
  the bit-identity contract rests on — cache/serve value purity, pool
  dispatch purity, and content-key completeness; rules ``D001``-``D006``
  plus the machine-readable ``determinism_facts.json`` artifact.
* **Layer 3 — warp-hazard sanitizer** (:mod:`repro.check.hazards`,
  :mod:`repro.check.dynamic`): a compute-sanitizer/racecheck analog for the
  emulated warp, fed by the instrumentation hooks in
  :mod:`repro.gpu.warp_events`; rules ``H001``-``H004``.

All layers emit structured :class:`~repro.check.findings.Finding` records,
honour a checked-in suppression baseline (``check_baseline.json``), and are
wired into CI through the ``repro check`` CLI subcommand.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "PackageGraph": "dataflow",
    "analyze_package": "determinism",
    "Baseline": "findings", "Finding": "findings", "Suppression": "findings",
    "apply_baseline": "findings", "dedupe_findings": "findings",
    "WarpSanitizer": "hazards",
    "CheckReport": "runner", "default_baseline_path": "runner",
    "run_check": "runner",
})
