"""End-to-end solver study: CG on a Poisson system, with an execution
timeline and a Chrome-trace export.

Combines three layers of the library: the CG application (``repro.apps``),
per-kernel device costing (SpMV/Reduction workload models), and the
timeline/trace tooling (``repro.gpu.trace``).  Writes ``cg_timeline.json``
loadable in chrome://tracing or Perfetto.

Usage:  python examples/solver_timeline.py [grid-side]
"""

import sys
from pathlib import Path

import numpy as np

from repro.apps.cg import conjugate_gradient, modeled_iteration_cost
from repro.gpu import Device, KernelStats, Timeline
from repro.kernels import Variant
from repro.harness import format_table


def poisson_2d(side: int):
    from repro.sparse import CsrMatrix
    n = side * side
    rows, cols, vals = [], [], []
    for i in range(side):
        for j in range(side):
            k = i * side + j
            rows.append(k); cols.append(k); vals.append(4.0)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < side and 0 <= jj < side:
                    rows.append(k); cols.append(ii * side + jj)
                    vals.append(-1.0)
    return CsrMatrix.from_coo(rows, cols, vals, (n, n))


def main(side: int = 48) -> None:
    a = poisson_2d(side)
    rng = np.random.default_rng(7)
    b = rng.uniform(-1, 1, a.n_rows)

    print(f"Solving the {side}x{side} Poisson system "
          f"(n={a.n_rows:,}, nnz={a.nnz:,}) with CG...")
    result = conjugate_gradient(a, b, tol=1e-10, max_iter=5000)
    print(f"  converged: {result.converged} in {result.iterations} "
          f"iterations, final relative residual "
          f"{result.final_residual:.2e}")

    # cost the solve on each GPU, per variant
    rows = []
    for gpu in ("A100", "H200", "B200"):
        dev = Device(gpu)
        for variant in (Variant.BASELINE, Variant.TC):
            c = modeled_iteration_cost(a, dev, variant)
            total = c["iteration_s"] * result.iterations
            rows.append([gpu, variant.value,
                         f"{c['iteration_s'] * 1e6:.1f} us",
                         f"{total * 1e3:.2f} ms",
                         f"{c['energy_j'] * result.iterations:.4f} J"])
    print()
    print(format_table(
        ["GPU", "SpMV variant", "per iteration", "whole solve", "energy"],
        rows, title="Modeled CG solve cost"))

    # build a timeline of the first iterations on H200 and export a trace
    dev = Device("H200")
    tl = Timeline(dev)
    from repro.kernels.spmv import SpmvWorkload, gather_segment_bytes
    from repro.sparse import DaspLayout
    spmv_stats = SpmvWorkload()._stats(Variant.TC, a, DaspLayout.from_csr(a),
                                       gather_segment_bytes(a))
    spmv_res = dev.resolve(spmv_stats)
    dot = KernelStats()
    dot.add_fma(2.0 * a.n_rows)
    dot.read_dram(16.0 * a.n_rows, segment_bytes=1 << 16)
    dot_res = dev.resolve(dot)
    for it in range(min(result.iterations, 8)):
        tl.record(f"spmv#{it}", spmv_res)
        tl.record(f"dot#{it}", dot_res, repeats=2)
        tl.gap(dev.spec.launch_overhead_s)
    print()
    print(tl.to_text(width=56))
    print(f"\ntimeline: {tl.busy_s * 1e6:.1f} us busy of "
          f"{tl.total_s * 1e6:.1f} us ({tl.utilization:.0%} utilization), "
          f"{tl.energy_j() * 1e3:.2f} mJ")
    out = Path("cg_timeline.json")
    out.write_text(tl.to_chrome_trace())
    print(f"chrome trace written to {out} (open in chrome://tracing)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 48)
