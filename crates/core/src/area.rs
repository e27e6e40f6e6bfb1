//! Hardware cost model for the added structures (Section 6.1).
//!
//! The paper implements the arbiter and hit buffer in Chisel and
//! synthesizes them with Synopsys Design Compiler against the 15 nm
//! NanGate-style open cell library at 1.96 GHz, reporting
//! 7312.93 µm² for the arbiter (including the request queue, "logically
//! an indivisible unit") and 3088.61 µm² for the hit buffer.
//!
//! Proprietary synthesis is unavailable here, so this module substitutes
//! an analytical gate/bit counting model: storage flops, CAM comparator
//! bits and mux bits, each weighted by a 15 nm area constant. The two
//! constants that dominate (flop area, comparator-bit area) are
//! **calibrated against the paper's two reported data points**, so the
//! model reproduces them exactly for the Table 5 configuration and —
//! more usefully — extrapolates how cost scales with queue depths,
//! MSHR geometry and core count (the `area_cost` bench).

use serde::{Deserialize, Serialize};

/// Area constants in µm² per bit, 15 nm library at 1.96 GHz.
///
/// Calibrated so that [`arbiter_area`] and [`hit_buffer_area`] match the
/// paper's synthesis results for the Table 5 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaConstants {
    /// One storage flip-flop.
    pub flop: f64,
    /// One CAM / comparator bit (XNOR + wired-AND share).
    pub cmp_bit: f64,
    /// One mux/priority-encoder bit.
    pub mux_bit: f64,
}

impl Default for AreaConstants {
    fn default() -> Self {
        // Solved from the paper's two synthesis numbers (see module doc).
        AreaConstants {
            flop: 0.6630,
            cmp_bit: 0.8533,
            mux_bit: 0.6,
        }
    }
}

/// Structural parameters of the speculation/arbitration hardware that
/// determine its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArbiterGeometry {
    /// Request-queue entries (part of the arbiter).
    pub req_q_entries: usize,
    /// sent_reqs FIFO entries.
    pub sent_reqs_entries: usize,
    /// MSHR snapshot rows visible to the arbiter.
    pub mshr_entries: usize,
    /// Progress counters (one per core).
    pub num_cores: usize,
    /// Bits of a line address.
    pub addr_bits: usize,
    /// Bits of one progress counter.
    pub counter_bits: usize,
}

impl Default for ArbiterGeometry {
    fn default() -> Self {
        // Table 5: req_q_size 12, mshr entries 6, 16 cores; sent_reqs
        // sized to cover hit+mshr latency (8 cycles).
        ArbiterGeometry {
            req_q_entries: 12,
            sent_reqs_entries: 8,
            mshr_entries: 6,
            num_cores: 16,
            addr_bits: 42,
            counter_bits: 16,
        }
    }
}

/// Hit-buffer geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HitBufferGeometry {
    pub entries: usize,
    pub addr_bits: usize,
}

impl Default for HitBufferGeometry {
    fn default() -> Self {
        HitBufferGeometry {
            entries: crate::arbiter::mshr_aware::HIT_BUFFER_ENTRIES,
            addr_bits: 42,
        }
    }
}

/// Area of the hit buffer in µm²: an `entries`-deep FIFO of line
/// addresses with a fully associative (CAM) lookup port.
pub fn hit_buffer_area(g: &HitBufferGeometry, k: &AreaConstants) -> f64 {
    let storage_flops = g.entries * (g.addr_bits + 1); // +valid
    let cam_bits = g.entries * g.addr_bits;
    storage_flops as f64 * k.flop + cam_bits as f64 * k.cmp_bit
}

/// Area of the arbiter in µm², inclusive of the request queue (the paper
/// reports them as one unit).
pub fn arbiter_area(g: &ArbiterGeometry, k: &AreaConstants) -> f64 {
    // Request queue entries: address + core id + r/w + valid.
    let core_bits = usize::BITS as usize - (g.num_cores - 1).leading_zeros() as usize;
    let req_entry_bits = g.addr_bits + core_bits + 2;
    let req_q_flops = g.req_q_entries * req_entry_bits;
    // sent_reqs: address + spec bit + age counter (3 bits for <= 8).
    let sent_flops = g.sent_reqs_entries * (g.addr_bits + 1 + 3);
    // Progress counters.
    let counter_flops = g.num_cores * g.counter_bits;
    let flops = req_q_flops + sent_flops + counter_flops;

    // Comparators: each queue entry matched against MSHR snapshot rows
    // and sent_reqs rows (Fig 5 combination step).
    let match_bits = g.req_q_entries * (g.mshr_entries + g.sent_reqs_entries) * g.addr_bits;
    // Counter-ranking tree (req_q - 1 pairwise comparisons).
    let rank_bits = (g.req_q_entries - 1) * g.counter_bits;
    let cmp_bits = match_bits + rank_bits;

    // Selection mux: queue width muxed down to one entry.
    let mux_bits = g.req_q_entries * req_entry_bits;

    flops as f64 * k.flop + cmp_bits as f64 * k.cmp_bit + mux_bits as f64 * k.mux_bit
}

/// Convenience report for the §6.1 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaReport {
    pub arbiter_um2: f64,
    pub hit_buffer_um2: f64,
}

/// Computes the default-geometry report (Table 5 system).
pub fn default_report() -> AreaReport {
    let k = AreaConstants::default();
    AreaReport {
        arbiter_um2: arbiter_area(&ArbiterGeometry::default(), &k),
        hit_buffer_um2: hit_buffer_area(&HitBufferGeometry::default(), &k),
    }
}

/// The paper's synthesis results for reference.
pub const PAPER_ARBITER_UM2: f64 = 7312.93;
pub const PAPER_HIT_BUFFER_UM2: f64 = 3088.61;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_to_paper_synthesis() {
        let r = default_report();
        let arb_err = (r.arbiter_um2 - PAPER_ARBITER_UM2).abs() / PAPER_ARBITER_UM2;
        let hb_err = (r.hit_buffer_um2 - PAPER_HIT_BUFFER_UM2).abs() / PAPER_HIT_BUFFER_UM2;
        assert!(
            arb_err < 0.02,
            "arbiter {} vs paper {}",
            r.arbiter_um2,
            PAPER_ARBITER_UM2
        );
        assert!(
            hb_err < 0.02,
            "hit buffer {} vs paper {}",
            r.hit_buffer_um2,
            PAPER_HIT_BUFFER_UM2
        );
    }

    #[test]
    fn area_scales_with_entries() {
        let k = AreaConstants::default();
        let small = hit_buffer_area(
            &HitBufferGeometry {
                entries: 16,
                addr_bits: 42,
            },
            &k,
        );
        let big = hit_buffer_area(&HitBufferGeometry::default(), &k);
        assert!(
            big > small * 2.5 && big < small * 3.5,
            "3x entries ≈ 3x area"
        );
    }

    #[test]
    fn arbiter_dominated_by_matching_logic() {
        let k = AreaConstants::default();
        let g = ArbiterGeometry::default();
        let total = arbiter_area(&g, &k);
        let mut no_cam = g;
        no_cam.mshr_entries = 0;
        no_cam.sent_reqs_entries = 0;
        let without = arbiter_area(&no_cam, &k);
        assert!(
            total - without > total * 0.5,
            "snapshot matching should dominate the arbiter cost"
        );
    }

    #[test]
    fn overhead_is_small_versus_slice() {
        // Sanity argument the paper makes: ~10k µm² per slice is
        // negligible against a 2 MB SRAM slice (~1 mm² class).
        let r = default_report();
        let added = r.arbiter_um2 + r.hit_buffer_um2;
        assert!(added < 15_000.0);
    }
}
