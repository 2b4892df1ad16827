"""Deterministic input generation: LINPACK-style LCG randomness, synthetic
SuiteSparse stand-ins (Tables 3-4), and population sweeps (Figure 10)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BFS_GRAPHS": "graphs", "GraphInfo": "graphs", "generate_graph": "graphs",
    "graph_info": "graphs", "graph_to_csr": "graphs",
    "kronecker_edges": "graphs", "mycielskian": "graphs",
    "graph_population": "populations", "matrix_population": "populations",
    "SPMV_MATRICES": "suitesparse", "MatrixInfo": "suitesparse",
    "generate_matrix": "suitesparse", "matrix_info": "suitesparse",
    "Lcg": "synthetic", "default_rng": "synthetic",
})
