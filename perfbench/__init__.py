"""Outside-in benchmark of the characterization stack (see README.md)."""
