//! Memory-trace generation: walking a mapping into per-core thread-block
//! instruction streams.
//!
//! "Since a mapping by definition is a hierarchy of nested loops mapped
//! to either the spatial or temporal domain, it can be translated to
//! memory traces simply by iterating through it" (Section 5). One thread
//! block is one L1-level tile: it loads the Q row for its (h, g) pair,
//! streams the K rows of its L tile (with amortized compute cycles for
//! the dot products), synchronizes, and stores its output scores.

use serde::{Deserialize, Serialize};

use llamcat_sim::prog::{traffic, Instr, Program};

use crate::mapping::{Dim, Level, LoopKind, Mapping, TbOrder};
use crate::workload::{LogitOp, ELEM_BYTES};

/// Trace-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceGenConfig {
    /// Vector memory access width in bytes (Table 5: 128 B).
    pub vector_len_bytes: u64,
    /// Compute cycles modelled per K row (vector FMA work of one
    /// dot-product row).
    pub compute_cycles_per_row: u32,
    /// Rows between flushed `Compute` instructions (amortization).
    pub compute_flush_rows: usize,
    /// Cores the blocks are distributed over.
    pub num_cores: usize,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            vector_len_bytes: 128,
            compute_cycles_per_row: 1,
            compute_flush_rows: 4,
            num_cores: 16,
        }
    }
}

/// Summary of a generated trace (used by tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    pub num_blocks: usize,
    pub total_load_bytes: u64,
    pub total_store_bytes: u64,
    pub max_block_instrs: usize,
}

/// Generates the executable Logit program for `op` under `mapping`.
///
/// Panics if the mapping is invalid for the operator (call
/// [`Mapping::validate`] first for a graceful error).
pub fn generate(op: &LogitOp, mapping: &Mapping, cfg: &TraceGenConfig) -> (Program, TraceMeta) {
    generate_with(op, mapping, cfg, |h, g, lt, l_tile, out| {
        logit_block(op, cfg, h, g, lt, l_tile, out)
    })
}

/// Generates a program for any workload sharing the {H, G, L, D}
/// iteration space: the mapping decides thread-block enumeration order
/// and core assignment, `build` appends each block's instruction
/// stream (`(h, g, l_tile_index, l_tile_extent, out)`).
///
/// This is the open extension point behind
/// [`Workload::generate`](crate::workloads::Workload::generate):
/// enumeration logic is written once, per-operator memory behavior is
/// plugged in.
///
/// Panics if the mapping is invalid for the iteration space (call
/// [`Mapping::validate`] first for a graceful error).
pub fn generate_with<F>(
    op: &LogitOp,
    mapping: &Mapping,
    cfg: &TraceGenConfig,
    build: F,
) -> (Program, TraceMeta)
where
    F: Fn(usize, usize, usize, usize, &mut Vec<Instr>),
{
    let mut program = Program::default();
    let meta = generate_into(op, mapping, cfg, &mut program, build);
    (program, meta)
}

/// [`generate_with`], appending to an existing program: the blocks go
/// onto the end of `program`'s instruction table and their home cores
/// onto its assignment, without a copy. Request tags and arrivals are
/// left to the caller (the multi-tenant composers in [`crate::mix`]).
/// Returns the metadata of the appended blocks alone.
pub fn generate_into<F>(
    op: &LogitOp,
    mapping: &Mapping,
    cfg: &TraceGenConfig,
    program: &mut Program,
    build: F,
) -> TraceMeta
where
    F: Fn(usize, usize, usize, usize, &mut Vec<Instr>),
{
    mapping
        .validate(op)
        .expect("mapping must be valid for the operator");
    let l_tile = mapping.l1_l_tile();
    let n_ltiles = op.seq_len / l_tile;
    let mut out = Emitter {
        program,
        build,
        l_tile,
        expected: op.heads * op.group_size * n_ltiles,
        meta: TraceMeta::default(),
    };

    let spatial_h = mapping
        .level(Level::L2)
        .iter()
        .any(|l| l.dim == Dim::H && l.kind == LoopKind::Spatial);
    if spatial_h {
        generate_pair_stream(op, cfg, n_ltiles, &mut out);
    } else if mapping.is_spatial() {
        generate_spatial(op, mapping, cfg, n_ltiles, &mut out);
    } else {
        // Round-robin: thread-block enumeration order from the L2-level
        // temporal loops, consecutive blocks on consecutive cores.
        let l2 = mapping.level(Level::L2);
        let order: Vec<Dim> = l2
            .iter()
            .filter(|l| l.kind == LoopKind::Temporal)
            .map(|l| l.dim)
            .collect();
        iterate(&order, op, n_ltiles, &mut |h, g, lt| {
            let core = out.meta.num_blocks % cfg.num_cores;
            out.emit(h, g, lt, core);
        });
    }
    out.meta
}

/// Appends blocks to a program's table as the layouts enumerate them,
/// accumulating their [`TraceMeta`].
struct Emitter<'a, F> {
    program: &'a mut Program,
    build: F,
    l_tile: usize,
    /// Blocks the layout will emit (sizes the table after the first).
    expected: usize,
    meta: TraceMeta,
}

impl<F: Fn(usize, usize, usize, usize, &mut Vec<Instr>)> Emitter<'_, F> {
    fn emit(&mut self, h: usize, g: usize, lt: usize, core: usize) {
        let (build, l_tile) = (&self.build, self.l_tile);
        let block = self
            .program
            .blocks
            .push_with(|out| build(h, g, lt, l_tile, out));
        let (load, store) = traffic(block);
        let len = block.len();
        self.program.assignment.push(core);
        let meta = &mut self.meta;
        if meta.num_blocks == 0 {
            // Blocks of one workload are (near-)uniform: size the table
            // from the first so it is written once, without regrowth.
            let rest = self.expected.saturating_sub(1);
            self.program.blocks.reserve(rest, rest * len);
            self.program.assignment.reserve(rest);
        }
        meta.num_blocks += 1;
        meta.total_load_bytes += load;
        meta.total_store_bytes += store;
        meta.max_block_instrs = meta.max_block_instrs.max(len);
    }
}

/// Pair-stream dataflow: (h, g) output pairs round-robin over cores,
/// each pair an independent full-K[h] temporal stream (see
/// [`crate::mapping::logit_mapping_pair_stream`]). Blocks are emitted
/// pair-major so each core's queue holds its pairs' tiles contiguously —
/// the window-strided scheduler then runs one pair per window.
fn generate_pair_stream<F>(
    op: &LogitOp,
    cfg: &TraceGenConfig,
    n_ltiles: usize,
    out: &mut Emitter<'_, F>,
) where
    F: Fn(usize, usize, usize, usize, &mut Vec<Instr>),
{
    for p in 0..op.heads * op.group_size {
        let (h, g) = (p / op.group_size, p % op.group_size);
        let core = p % cfg.num_cores;
        for lt in 0..n_ltiles {
            out.emit(h, g, lt, core);
        }
    }
}

/// Spatial dataflow: query heads (and L segments) pinned to cores; all
/// cores stream the shared K[h] concurrently. Blocks are emitted in
/// `(h, l-tile, sharers)` order so that each core's subsequence — which
/// is what its scheduler queue preserves — is its own `(h, l-tile)`
/// temporal stream.
fn generate_spatial<F>(
    op: &LogitOp,
    mapping: &Mapping,
    cfg: &TraceGenConfig,
    n_ltiles: usize,
    out: &mut Emitter<'_, F>,
) where
    F: Fn(usize, usize, usize, usize, &mut Vec<Instr>),
{
    let gs = mapping.spatial_g();
    let gt = op.group_size / gs;
    let segments = mapping.spatial_l_segments();
    let tiles_per_seg = n_ltiles / segments;
    for h in 0..op.heads {
        for gi in 0..gt {
            for t in 0..tiles_per_seg {
                // All sharers of tile t (across g-spatial and segments)
                // are emitted adjacently; their home cores differ.
                for gsi in 0..gs {
                    for seg in 0..segments {
                        let g = gsi * gt + gi;
                        let lt = seg * tiles_per_seg + t;
                        let core = (gsi * segments + seg) % cfg.num_cores;
                        out.emit(h, g, lt, core);
                    }
                }
            }
        }
    }
}

/// Convenience: generate with the paper's default spatial mapping.
pub fn generate_default(op: &LogitOp, cfg: &TraceGenConfig) -> (Program, TraceMeta) {
    let mapping = crate::mapping::logit_mapping_spatial(op, 32, cfg.num_cores);
    generate(op, &mapping, cfg)
}

/// Generate with the round-robin GInner mapping (the non-spatial
/// alternative dataflow).
pub fn generate_round_robin(op: &LogitOp, cfg: &TraceGenConfig) -> (Program, TraceMeta) {
    let mapping = crate::mapping::logit_mapping(op, 32, TbOrder::GInner);
    generate(op, &mapping, cfg)
}

/// Walks the (H, G, L-tile) iteration space in the order given by the
/// L2-level loop list.
fn iterate(
    order: &[Dim],
    op: &LogitOp,
    n_ltiles: usize,
    emit: &mut dyn FnMut(usize, usize, usize),
) {
    let extent = |d: Dim| match d {
        Dim::H => op.heads,
        Dim::G => op.group_size,
        Dim::L => n_ltiles,
        Dim::D => 1,
    };
    let dims: Vec<Dim> = order.iter().copied().filter(|d| *d != Dim::D).collect();
    assert_eq!(dims.len(), 3, "L2 level must order H, G and L");
    let (d0, d1, d2) = (dims[0], dims[1], dims[2]);
    let mut idx = [0usize; 3];
    for i0 in 0..extent(d0) {
        idx[0] = i0;
        for i1 in 0..extent(d1) {
            idx[1] = i1;
            for i2 in 0..extent(d2) {
                idx[2] = i2;
                let get = |dim: Dim| {
                    dims.iter()
                        .position(|d| *d == dim)
                        .map(|p| idx[p])
                        .unwrap_or(0)
                };
                emit(get(Dim::H), get(Dim::G), get(Dim::L));
            }
        }
    }
}

/// Appends the instruction stream of one decode-Logit thread block to
/// `out`: load the Q row, stream the K rows of the L tile with
/// amortized compute, barrier, store the tile's scores.
pub fn logit_block(
    op: &LogitOp,
    cfg: &TraceGenConfig,
    h: usize,
    g: usize,
    lt: usize,
    l_tile: usize,
    out: &mut Vec<Instr>,
) {
    let vlen = cfg.vector_len_bytes;
    let row_bytes = op.k_row_bytes();

    // Load the Q row for (h, g).
    push_vector_accesses(out, op.q_addr(h, g, 0), row_bytes, vlen, false);

    // Stream the K rows of the tile, interleaving amortized compute.
    let l0 = lt * l_tile;
    stream_rows(out, cfg, l_tile, cfg.compute_cycles_per_row, |li, out| {
        push_vector_accesses(out, op.k_addr(h, l0 + li, 0), row_bytes, vlen, false);
    });

    // Reduction barrier, then store the tile's scores.
    out.push(Instr::Barrier);
    let s0 = op.score_addr(h, g, l0);
    push_vector_accesses(out, s0, l_tile as u64 * ELEM_BYTES, vlen, true);
}

/// Appends `rows` streamed rows (`row(li, out)` appends row `li`'s
/// accesses) with their compute amortized: `cycles_per_row` cycles per
/// row, flushed as one `Compute` every `cfg.compute_flush_rows` rows and
/// once more for any remainder (shared by all workload block builders).
pub fn stream_rows(
    out: &mut Vec<Instr>,
    cfg: &TraceGenConfig,
    rows: usize,
    cycles_per_row: u32,
    mut row: impl FnMut(usize, &mut Vec<Instr>),
) {
    let mut pending_compute = 0u32;
    for li in 0..rows {
        row(li, out);
        pending_compute += cycles_per_row;
        if (li + 1) % cfg.compute_flush_rows == 0 && pending_compute > 0 {
            out.push(Instr::Compute {
                cycles: pending_compute,
            });
            pending_compute = 0;
        }
    }
    if pending_compute > 0 {
        out.push(Instr::Compute {
            cycles: pending_compute,
        });
    }
}

/// Splits a contiguous `bytes`-long access at `base` into vector-width
/// loads or stores (shared by all workload block builders).
pub fn push_vector_accesses(
    instrs: &mut Vec<Instr>,
    base: u64,
    bytes: u64,
    vlen: u64,
    store: bool,
) {
    let mut off = 0;
    while off < bytes {
        let chunk = vlen.min(bytes - off) as u32;
        if store {
            instrs.push(Instr::Store {
                addr: base + off,
                bytes: chunk,
            });
        } else {
            instrs.push(Instr::Load {
                addr: base + off,
                bytes: chunk,
            });
        }
        off += chunk as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::logit_mapping;
    use llamcat_sim::types::LINE_BYTES;
    use std::collections::HashSet;

    fn small_op() -> LogitOp {
        LogitOp {
            heads: 2,
            group_size: 4,
            seq_len: 128,
            head_dim: 128,
        }
    }

    #[test]
    fn block_count_matches_mapping() {
        let op = small_op();
        let m = logit_mapping(&op, 32, TbOrder::GInner);
        let (p, meta) = generate(&op, &m, &TraceGenConfig::default());
        // 2 heads * 4 groups * (128/32) tiles = 32 blocks.
        assert_eq!(meta.num_blocks, 32);
        assert_eq!(p.num_blocks(), 32);
    }

    #[test]
    fn load_traffic_matches_analytical_model() {
        let op = small_op();
        let m = logit_mapping(&op, 32, TbOrder::GInner);
        let (_, meta) = generate(&op, &m, &TraceGenConfig::default());
        // Every (h, g) streams K[h] once (+ its Q row once per tile).
        let k_traffic = op.k_bytes() * op.group_size as u64;
        let q_traffic = (op.heads * op.group_size * (op.seq_len / 32)) as u64 * op.k_row_bytes();
        assert_eq!(meta.total_load_bytes, k_traffic + q_traffic);
        assert_eq!(meta.total_store_bytes, op.score_bytes());
    }

    #[test]
    fn blocks_fit_instruction_window() {
        let op = LogitOp::llama3_70b(4096);
        let (_, meta) = generate_default(&op, &TraceGenConfig::default());
        assert!(
            meta.max_block_instrs <= 128,
            "blocks must fit the 128-deep instruction window, got {}",
            meta.max_block_instrs
        );
    }

    #[test]
    fn g_inner_order_makes_sharers_adjacent() {
        let op = small_op();
        let m = logit_mapping(&op, 32, TbOrder::GInner);
        let (p, _) = generate(&op, &m, &TraceGenConfig::default());
        // Blocks 0..group_size must all read the same K lines.
        let k_lines = |tb: usize| -> HashSet<u64> {
            p.block(tb)
                .iter()
                .filter_map(|i| match i {
                    Instr::Load { addr, .. } if *addr >= crate::workload::K_BASE => {
                        Some(addr / LINE_BYTES)
                    }
                    _ => None,
                })
                .collect()
        };
        let first = k_lines(0);
        assert!(!first.is_empty());
        for g in 1..op.group_size {
            assert_eq!(k_lines(g), first, "block {g} shares block 0's K tile");
        }
        // The next tile's blocks read different lines.
        assert!(k_lines(op.group_size).is_disjoint(&first));
    }

    #[test]
    fn l_inner_order_separates_sharers() {
        let op = small_op();
        let m = logit_mapping(&op, 32, TbOrder::LInner);
        let (p, _) = generate(&op, &m, &TraceGenConfig::default());
        // Adjacent blocks stream different K tiles.
        let k_addrs = |tb: usize| -> Vec<u64> {
            p.block(tb)
                .iter()
                .filter_map(|i| match i {
                    Instr::Load { addr, .. } if *addr >= crate::workload::K_BASE => Some(*addr),
                    _ => None,
                })
                .collect()
        };
        assert_ne!(k_addrs(0), k_addrs(1));
    }

    #[test]
    fn store_addresses_cover_output_exactly_once() {
        let op = small_op();
        let m = logit_mapping(&op, 32, TbOrder::GInner);
        let (p, _) = generate(&op, &m, &TraceGenConfig::default());
        let mut lines = HashSet::new();
        for b in p.blocks.iter() {
            for i in b {
                if let Instr::Store { addr, bytes } = i {
                    let mut a = *addr;
                    while a < addr + *bytes as u64 {
                        assert!(lines.insert(a / LINE_BYTES), "output line stored twice");
                        a += LINE_BYTES;
                    }
                }
            }
        }
        assert_eq!(lines.len() as u64, op.score_bytes() / LINE_BYTES);
    }

    #[test]
    fn compute_cycles_scale_with_rows() {
        let op = small_op();
        let m = logit_mapping(&op, 32, TbOrder::GInner);
        let cfg = TraceGenConfig {
            compute_cycles_per_row: 2,
            ..Default::default()
        };
        let (p, _) = generate(&op, &m, &cfg);
        let total: u32 = p
            .block(0)
            .iter()
            .map(|i| match i {
                Instr::Compute { cycles } => *cycles,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 64, "32 rows * 2 cycles");
    }
}
