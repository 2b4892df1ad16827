"""BFS workload (Quadrant IV, graph traversal dwarf).

The TC implementation follows BerryBees (Niu & Casas, PPoPP'25): the
adjacency matrix — after the degree-descending vertex relabeling BerryBees
preprocesses with — is stored as 8x128 single-bit tiles
(:class:`repro.sparse.bitmap.BitmapGraph`).  Each BFS level gathers the
tiles whose column block intersects the frontier, replicates the frontier
bits into the 8 columns of the B operand, and one ``mma_m8n8k128`` AND+POPC
instruction counts frontier neighbors for 8 vertices at once; only the
*diagonal* of the 8x8 accumulator is consumed (full input, partial output).

The baseline models Gunrock's push-style level-synchronous BFS: per level
it streams the frontier vertices' adjacency lists (4-byte column indices)
and probes/updates the visited status array with scattered accesses.

BFS performs no floating-point math; the counters carry bit-tensor ops and
integer vector ops, and Table 6 excludes it.
"""

from __future__ import annotations

import numpy as np

from ..datasets.graphs import BFS_GRAPHS, generate_graph
from ..gpu import warp_events
from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..gpu.launch import LaunchPlan, execute_plan
from ..sparse.bitmap import SLICE_ROWS, TILE_COLS, BitmapGraph, count_tiles
from ..sparse.csr import CsrMatrix
from .base import (
    MLP_IRREGULAR,
    MLP_MMA_CC,
    Quadrant,
    Variant,
    Workload,
    WorkloadCase,
)

__all__ = ["BfsWorkload"]


class BfsWorkload(Workload):
    """Breadth-first search from a high-degree source vertex."""

    name = "bfs"
    quadrant = Quadrant.IV
    dwarf = "Graph traversal"
    baseline_name = "Gunrock"
    has_cce = True
    edp_repeats = 2_000
    floating_point = False

    def __init__(self) -> None:
        self._prepared: dict[tuple[str, int], dict] = {}

    def _memo_state(self) -> dict:
        # BFS has no configuration attributes; exposing the lazily filled
        # ``_prepared`` cache would change the analytic-stats memo key on
        # every prepare() and force a full graph recompute per variant.
        return {}

    # ------------------------------------------------------------------
    def cases(self) -> list[WorkloadCase]:
        return [WorkloadCase(label=g.name, params={"graph": g.name})
                for g in BFS_GRAPHS]

    # ------------------------------------------------------------------
    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        key = (case["graph"], seed)
        if key in self._prepared:
            return self._prepared[key]
        src, dst, n = generate_graph(case["graph"], seed=seed)
        # BerryBees preprocessing: reorder vertices so edges concentrate in
        # few dense bit tiles.  Degree-descending relabeling packs
        # power-law graphs; lexicographic (natural) order preserves host
        # locality in web graphs — keep whichever yields fewer tiles.
        deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        order = np.argsort(-deg, kind="stable")
        relabel = np.empty(n, dtype=np.int64)
        relabel[order] = np.arange(n)
        # The bitmap stores A^T: row v, column u for edge u -> v, so the
        # AND+POPC against the frontier (in columns) discovers v's whose
        # in-neighbors are on the frontier — push semantics, pull dataflow.
        # Tiles are counted from tile keys alone; only the winner is built.
        candidates = [(relabel[src], relabel[dst]), (src, dst)]
        best = int(np.argmin([count_tiles(d, s, n) for s, d in candidates]))
        src_r, dst_r = candidates[best]
        adj = CsrMatrix.from_coo(src_r, dst_r,
                                 np.ones(len(src_r)), (n, n))
        adj.data[:] = 1.0
        bitmap = BitmapGraph.from_edges(dst_r, src_r, n)
        # start from the highest out-degree vertex (deterministic, and the
        # traversal covers the giant component)
        out_deg = np.bincount(src_r, minlength=n)
        source = int(np.argmax(out_deg))
        data = {"n": n, "adj": adj, "bitmap": bitmap, "source": source,
                "n_edges": len(src_r)}
        self._prepared[key] = data
        return data

    def reference(self, data: dict) -> np.ndarray:
        """Level-synchronous BFS on the CSR adjacency (serial semantics)."""
        adj: CsrMatrix = data["adj"]
        n = data["n"]
        levels = np.full(n, -1, dtype=np.int64)
        levels[data["source"]] = 0
        frontier = np.array([data["source"]], dtype=np.int64)
        level = 0
        while len(frontier):
            level += 1
            nbrs = self._neighbors(adj, frontier)
            nxt = np.unique(nbrs[levels[nbrs] < 0])
            levels[nxt] = level
            frontier = nxt
        return levels

    @staticmethod
    def _neighbors(adj: CsrMatrix, frontier: np.ndarray) -> np.ndarray:
        counts = adj.row_lengths()[frontier]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = np.repeat(adj.indptr[frontier], counts)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(counts) - counts, counts))
        return adj.indices[starts + within]

    # ------------------------------------------------------------------
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        if variant is Variant.BASELINE:
            levels, stats = self._gunrock_push(data)
        else:
            levels, stats = self._bitmap_bfs(data, variant)
        return device.resolve(stats, output=levels)

    # ------------------------------------------------------------------
    def _gunrock_push(self, data: dict) -> tuple[np.ndarray, KernelStats]:
        adj: CsrMatrix = data["adj"]
        n = data["n"]
        st = KernelStats()
        st.cc_efficiency = 0.5
        # push BFS resolves every discovery through atomicCAS on the
        # status array; contention on hot vertices serializes warps beyond
        # the generic irregular-baseline MLP
        st.mlp = MLP_IRREGULAR * 0.75
        levels = np.full(n, -1, dtype=np.int64)
        levels[data["source"]] = 0
        frontier = np.array([data["source"]], dtype=np.int64)
        level = 0
        stages = 1
        while len(frontier):
            level += 1
            stages += 2  # advance kernel + filter kernel per level
            inspected = int(adj.row_lengths()[frontier].sum())
            nbrs = self._neighbors(adj, frontier)
            nxt = np.unique(nbrs[levels[nbrs] < 0])
            levels[nxt] = level
            # adjacency lists stream in per-row runs of 4-byte indices
            avg_run = 4.0 * max(inspected / max(len(frontier), 1), 1.0)
            st.read_dram(4.0 * inspected, segment_bytes=avg_run)
            # status probe + atomic update per inspected edge: scattered
            st.read_dram(4.0 * inspected, segment_bytes=4)
            st.write_dram(4.0 * inspected, segment_bytes=4)
            st.write_dram(4.0 * len(nxt), segment_bytes=4)
            st.add_int_ops(3.0 * inspected)
            st.add_l1(8.0 * inspected)
            frontier = nxt
        st.serial_stages = stages
        return levels, st

    def _bitmap_bfs(self, data: dict,
                    variant: Variant) -> tuple[np.ndarray, KernelStats]:
        """TC/CC/CC-E share one traversal; only the counter attribution
        differs, so the level trace (levels, stages, per-level tile/fresh
        counts) is computed once per prepared case and the other variants
        replay the accounting.  Under the warp sanitizer every variant
        re-traverses so its MMA traffic is actually sampled."""
        audited = warp_events.TRACER is not None
        trace = None if audited else data.get("_bitmap_trace")
        if trace is None:
            trace = self._bitmap_traverse(data)
            if not audited:
                data["_bitmap_trace"] = trace
        levels, stages, level_counts = trace
        n = data["n"]
        st = KernelStats()
        if variant is Variant.CC:
            st.cc_efficiency = 0.5
            st.mlp = MLP_MMA_CC
        elif variant is Variant.CCE:
            st.cc_efficiency = 0.5
        for tiles, fresh in level_counts:
            self._account_level(st, variant, tiles, n, fresh)
        st.serial_stages = stages
        return levels, st

    def _bitmap_traverse(self, data: dict
                         ) -> tuple[np.ndarray, int, list[tuple[int, int]]]:
        g: BitmapGraph = data["bitmap"]
        n = data["n"]
        level_counts: list[tuple[int, int]] = []
        levels = np.full(n, -1, dtype=np.int64)
        levels[data["source"]] = 0
        frontier_bits = np.zeros(g.n_cblocks * TILE_COLS, dtype=bool)
        frontier_bits[data["source"]] = True
        # BerryBees skips tiles whose 8-vertex slice is fully visited
        slice_unvisited = np.full(g.n_slices, SLICE_ROWS, dtype=np.int64)
        pad = g.n_slices * SLICE_ROWS - n
        if pad:
            slice_unvisited[-1] -= pad
        slice_unvisited[data["source"] // SLICE_ROWS] -= 1
        level = 0
        stages = 1
        rows_of_slice = np.arange(SLICE_ROWS, dtype=np.int64)
        while frontier_bits.any():
            level += 1
            stages += 2
            fw = np.packbits(
                frontier_bits.reshape(g.n_cblocks, TILE_COLS),
                axis=-1, bitorder="little").view(np.uint64)
            active_cb = np.flatnonzero(
                frontier_bits.reshape(g.n_cblocks, TILE_COLS).any(axis=1))
            tile_idx, slices, cbs = g.tiles_for_cblocks(active_cb)
            live = slice_unvisited[slices] > 0
            tile_idx, slices, cbs = tile_idx[live], slices[live], cbs[live]
            nxt_bits = np.zeros_like(frontier_bits)
            if len(tile_idx):
                # B operand: frontier bits replicated into all 8 columns
                b_words = np.repeat(fw[cbs][:, np.newaxis, :], SLICE_ROWS,
                                    axis=1)
                # each level's AND+POPC sweep depends on the previous
                # frontier, so levels record as successive one-op plans
                plan = LaunchPlan()
                h = plan.bit(g.tiles[tile_idx], b_words)
                counts = execute_plan(plan, label="bfs")[h]
                diag = counts[:, rows_of_slice, rows_of_slice]
                hit_t, hit_r = np.nonzero(diag > 0)
                rows = slices[hit_t] * SLICE_ROWS + hit_r
                rows = np.unique(rows[rows < n])
                fresh = rows[levels[rows] < 0]
                levels[fresh] = level
                nxt_bits[fresh] = True
                np.subtract.at(slice_unvisited, fresh // SLICE_ROWS, 1)
                level_counts.append((len(tile_idx), len(fresh)))
            frontier_bits = nxt_bits
        return levels, stages, level_counts

    @staticmethod
    def _account_level(st: KernelStats, variant: Variant, tiles: int,
                       n: int, fresh: int) -> None:
        if variant is Variant.TC:
            st.add_mma_b1(tiles, output_useful=8.0 * tiles)
        elif variant is Variant.CC:
            # 8 rows x 2 words x (AND+POPC+merge), replicated 8 columns
            st.add_int_ops(384.0 * tiles)
            st.note_mma_utilization(
                input_useful=tiles * (8 * 128 + 128 * 8),
                input_total=tiles * (8 * 128 + 128 * 8),
                output_useful=tiles * 8,
                output_total=tiles * 64)
        else:  # CC-E: essential row AND+POPC only (no column replication)
            st.add_int_ops(48.0 * tiles)
        # tile payloads (128 B); slice/cblock metadata stays L2 resident
        # after the first sweep
        st.read_dram(128.0 * tiles, segment_bytes=128)
        # frontier words for the active blocks + visited bit updates
        st.read_dram(16.0 * tiles, segment_bytes=16)
        st.write_dram(max(fresh / 8.0, 1.0), segment_bytes=8)
        st.add_l1(160.0 * tiles)

    # ------------------------------------------------------------------
    def analytic_stats(self, variant: Variant,
                       case: WorkloadCase) -> KernelStats:
        data = self.prepare(case)
        if variant is Variant.BASELINE:
            _, st = self._gunrock_push(data)
        else:
            _, st = self._bitmap_bfs(data, variant)
        return st
