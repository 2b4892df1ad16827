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

Every variant's counters come from one level trace, derived without the
bitmap: a level-synchronous BFS on the CSR adjacency gives each vertex's
level, and the distinct tile keys (:func:`repro.sparse.bitmap.tile_pattern`)
give the tiles each level's sweep gathers.  The functional TC/CC/CC-E
variants still traverse the bitmap with AND+POPC MMAs for their output
levels; tests pin that traversal's per-level counts to the trace.
"""

from __future__ import annotations

import numpy as np

from ..datasets.graphs import BFS_GRAPHS, generate_graph
from ..gpu import warp_events
from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..gpu.launch import LaunchPlan, execute_plan
from ..sparse.bitmap import (
    SLICE_ROWS,
    TILE_COLS,
    BitmapGraph,
    tile_coords,
    tile_pattern,
)
from ..sparse.csr import CsrMatrix
from .base import (
    MLP_IRREGULAR,
    MLP_MMA_CC,
    Quadrant,
    Variant,
    Workload,
    WorkloadCase,
)

__all__ = ["BfsWorkload", "graph_layout", "with_bitmap"]

#: a level trace: (levels per vertex, serial stages, (tiles, fresh) of each
#: level sweep that gathers at least one tile)
LevelTrace = tuple[np.ndarray, int, list[tuple[int, int]]]


def _csr_levels(adj: CsrMatrix, source: int) -> np.ndarray:
    """Level-synchronous BFS on the CSR adjacency: each vertex's level,
    -1 where unreached."""
    levels = np.full(adj.n_rows, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    lengths = adj.row_lengths()
    level = 0
    while len(frontier):
        level += 1
        # the frontier rows' entries, concatenated in frontier order
        counts = lengths[frontier]
        offset = adj.indptr[frontier] - (np.cumsum(counts) - counts)
        pos = np.repeat(offset, counts)
        pos += np.arange(len(pos), dtype=np.int64)
        nbrs = adj.indices[pos]
        frontier = np.unique(nbrs[levels[nbrs] < 0])
        levels[frontier] = level
    return levels


def _level_trace(levels: np.ndarray, tile_keys: np.ndarray,
                 n: int) -> LevelTrace:
    """The bitmap traversal's level trace from the BFS levels and the
    distinct tile keys of the stored ``A^T``, without touching a tile.

    Sweep ``L`` (1, 2, ... one past the deepest level) gathers a tile when
    its column block holds a level ``L - 1`` vertex and its slice still
    holds a vertex unvisited before ``L``; it finds the level-``L``
    vertices fresh."""
    n_sweeps = int(levels.max()) + 1
    reached = levels >= 0
    width = n_sweeps + 2
    # the last sweep that finds each slice live: unreached vertices keep
    # a slice live through every sweep; padding rows never do
    last = np.full(-(-n // SLICE_ROWS) * SLICE_ROWS, -1, dtype=np.int64)
    last[:n] = np.where(reached, levels, n_sweeps + 1)
    slice_live = last.reshape(-1, SLICE_ROWS).max(axis=1)
    cblock, slc = tile_coords(tile_keys, n)
    # tiles sorted by (column block, last live sweep of their slice)
    tile_rank = cblock * width + slice_live[slc]
    tile_rank.sort()
    # (column block, sweep) pairs a frontier activates
    active = np.unique(np.flatnonzero(reached) // TILE_COLS * width
                       + levels[reached] + 1)
    act_cb, act_sweep = np.divmod(active, width)
    gathered = (np.searchsorted(tile_rank, (act_cb + 1) * width)
                - np.searchsorted(tile_rank, active))
    tiles = np.bincount(act_sweep, weights=gathered,
                        minlength=n_sweeps + 1).astype(np.int64)
    fresh = np.bincount(levels[reached], minlength=n_sweeps + 1)
    pairs = [(int(tiles[s]), int(fresh[s])) for s in range(1, n_sweeps + 1)
             if tiles[s]]
    return levels, 1 + 2 * n_sweeps, pairs


def graph_layout(src: np.ndarray, dst: np.ndarray, n: int) -> dict:
    """The layout step of :meth:`BfsWorkload.prepare`: the edge list and
    CSR adjacency in the winning labeling, the source, and the level
    trace (:func:`_level_trace`) that all counters read."""
    # BerryBees preprocessing: reorder vertices so edges concentrate in
    # few dense bit tiles.  Degree-descending relabeling packs power-law
    # graphs; lexicographic (natural) order preserves host locality in web
    # graphs — keep whichever yields fewer tiles.
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    order = np.argsort(-deg, kind="stable")
    relabel = np.empty(n, dtype=np.int64)
    relabel[order] = np.arange(n)
    # The bitmap stores A^T: row v, column u for edge u -> v, so the
    # AND+POPC against the frontier (in columns) discovers v's whose
    # in-neighbors are on the frontier — push semantics, pull dataflow.
    candidates = [(relabel[src], relabel[dst]), (src, dst)]
    patterns = [tile_pattern(d, s, n) for s, d in candidates]
    best = int(np.argmin([len(p) for p in patterns]))
    src_r, dst_r = candidates[best]
    adj = CsrMatrix.from_coo(src_r, dst_r, np.ones(len(src_r)), (n, n))
    adj.data[:] = 1.0
    # start from the highest out-degree vertex (deterministic, and the
    # traversal covers the giant component)
    source = int(np.argmax(np.bincount(src_r, minlength=n)))
    return {"n": n, "edges": (src_r, dst_r), "adj": adj, "source": source,
            "n_edges": len(src_r),
            "trace": _level_trace(_csr_levels(adj, source), patterns[best],
                                  n)}


def with_bitmap(layout: dict) -> dict:
    """The fill step: a copy of a :func:`graph_layout` that also holds the
    bitmap of ``A^T``, the operand of the bit-MMA traversal."""
    src, dst = layout["edges"]
    return {**layout,
            "bitmap": BitmapGraph.from_edges(dst, src, layout["n"])}


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
        self._layouts: dict[tuple[str, int], dict] = {}
        self._prepared: dict[tuple[str, int], dict] = {}

    def _memo_state(self) -> dict:
        # BFS has no configuration attributes; exposing the lazily filled
        # ``_layouts``/``_prepared`` caches would change the analytic-stats
        # memo key on every fill and force a full graph recompute per
        # variant.
        return {}

    # ------------------------------------------------------------------
    def cases(self) -> list[WorkloadCase]:
        return [WorkloadCase(label=g.name, params={"graph": g.name})
                for g in BFS_GRAPHS]

    # ------------------------------------------------------------------
    def _layout(self, case: WorkloadCase, seed: int = 1325) -> dict:
        """:func:`graph_layout` of the case's graph, cached per (graph,
        seed)."""
        key = (case["graph"], seed)
        layout = self._layouts.get(key)
        if layout is None:
            layout = graph_layout(*generate_graph(case["graph"], seed=seed))
            self._layouts[key] = layout
        return layout

    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        """The layout step, then the fill step (:func:`with_bitmap`)."""
        key = (case["graph"], seed)
        if key not in self._prepared:
            self._prepared[key] = with_bitmap(self._layout(case, seed))
        return self._prepared[key]

    def reference(self, data: dict) -> np.ndarray:
        """Level-synchronous BFS on the CSR adjacency (serial semantics)."""
        return _csr_levels(data["adj"], data["source"])

    # ------------------------------------------------------------------
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        if variant is Variant.BASELINE:
            # push BFS expands the frontier's adjacency lists level by level
            levels = _csr_levels(data["adj"], data["source"])
            stats = self._push_stats(data)
        else:
            levels = self._bitmap_levels(data)
            stats = self._bitmap_stats(data, variant)
        return device.resolve(stats, output=levels)

    # ------------------------------------------------------------------
    @staticmethod
    def _push_stats(data: dict) -> KernelStats:
        """Gunrock's push BFS, level by level over the trace's levels: each
        sweep streams the frontier's adjacency lists (out-degrees) and
        probes the status array once per inspected edge."""
        levels = data["trace"][0]
        adj: CsrMatrix = data["adj"]
        reached = levels >= 0
        n_sweeps = int(levels.max()) + 1
        level_size = np.bincount(levels[reached], minlength=n_sweeps + 1)
        level_edges = np.bincount(levels[reached],
                                  weights=adj.row_lengths()[reached],
                                  minlength=n_sweeps + 1)
        st = KernelStats()
        st.cc_efficiency = 0.5
        # push BFS resolves every discovery through atomicCAS on the
        # status array; contention on hot vertices serializes warps beyond
        # the generic irregular-baseline MLP
        st.mlp = MLP_IRREGULAR * 0.75
        for level in range(1, n_sweeps + 1):
            frontier = int(level_size[level - 1])
            inspected = int(level_edges[level - 1])
            # adjacency lists stream in per-row runs of 4-byte indices
            avg_run = 4.0 * max(inspected / max(frontier, 1), 1.0)
            st.read_dram(4.0 * inspected, segment_bytes=avg_run)
            # status probe + atomic update per inspected edge: scattered
            st.read_dram(4.0 * inspected, segment_bytes=4)
            st.write_dram(4.0 * inspected, segment_bytes=4)
            st.write_dram(4.0 * int(level_size[level]), segment_bytes=4)
            st.add_int_ops(3.0 * inspected)
            st.add_l1(8.0 * inspected)
        # setup, then an advance kernel + filter kernel per level
        st.serial_stages = 1 + 2 * n_sweeps
        return st

    def _bitmap_stats(self, data: dict, variant: Variant) -> KernelStats:
        """TC/CC/CC-E share one level trace; only the counter attribution
        differs."""
        _, stages, level_counts = data["trace"]
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
        return st

    def _bitmap_levels(self, data: dict) -> np.ndarray:
        """TC/CC/CC-E run one identical traversal, so its levels are
        computed once per prepared case.  Under the warp sanitizer every
        variant re-traverses so its MMA traffic is actually sampled."""
        audited = warp_events.TRACER is not None
        levels = None if audited else data.get("_bitmap_levels")
        if levels is None:
            levels = self._bitmap_traverse(data)[0]
            if not audited:
                data["_bitmap_levels"] = levels
        return levels

    def _bitmap_traverse(self, data: dict) -> LevelTrace:
        """The BerryBees traversal: per level, AND+POPC MMAs of the live
        tiles against the frontier bits.  Returns its own level trace,
        which tests pin to the layout's (:func:`_level_trace`)."""
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
        data = self._layout(case)
        if variant is Variant.BASELINE:
            return self._push_stats(data)
        return self._bitmap_stats(data, variant)
