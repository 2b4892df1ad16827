"""Characterization analyses: quadrants, accuracy, roofline, EDP, PCA,
feature extraction, and dwarf coverage (Sections 4 and 7-10)."""

from .._lazy import lazy_exports

# bound now: ``pca`` names both a function and its submodule, and the
# first import of ``repro.analysis.pca`` would bind the module over a
# lazy export
from .pca import pca as pca

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ErrorEntry": "accuracy", "accuracy_table": "accuracy",
    "error_metrics": "accuracy",
    "DWARF_ORDER": "dwarfs", "FEATURE_ORDER": "dwarfs", "RODINIA": "dwarfs",
    "SHOC": "dwarfs", "SuiteCoverage": "dwarfs", "coverage_table": "dwarfs",
    "cubie_coverage": "dwarfs",
    "EdpEntry": "edp", "edp_study": "edp", "power_trace_study": "edp",
    "quadrant_geomeans": "edp",
    "GRAPH_FEATURE_NAMES": "features", "MATRIX_FEATURE_NAMES": "features",
    "graph_features": "features", "matrix_features": "features",
    "RefinementResult": "mixed_precision",
    "blocked_cholesky": "mixed_precision",
    "iterative_refinement": "mixed_precision",
    "modeled_factorization_time": "mixed_precision",
    "solve_cholesky": "mixed_precision",
    "ObservationResult": "observations", "verify_all": "observations",
    "OzakiReport": "ozaki", "compare_schemes": "ozaki",
    "modeled_ozaki_time": "ozaki", "ozaki_gemm": "ozaki",
    "split_fp64": "ozaki",
    "PcaResult": "pca", "coverage_stats": "pca", "standardize": "pca",
    "CaseProfile": "representativeness", "Regime": "representativeness",
    "classify_case": "representativeness",
    "workload_regimes": "representativeness",
    "FULL_THRESHOLD": "quadrants", "UtilizationProfile": "quadrants",
    "classify": "quadrants", "classify_suite": "quadrants",
    "Roofline": "roofline", "RooflinePoint": "roofline",
    "suite_roofline": "roofline", "workload_point": "roofline",
    "KernelSketch": "suitability", "Prediction": "suitability",
    "Verdict": "suitability", "predict": "suitability",
})
__all__ += ["pca"]
