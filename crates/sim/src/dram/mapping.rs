//! Physical address to DRAM coordinate mapping.
//!
//! The mapping determines how a stream of line addresses spreads over
//! channels, banks and rows — and therefore how much bank-level
//! parallelism and row-buffer locality a workload sees. The bit order,
//! most-significant first, is Row : Bank(group+bank) : Rank : Column :
//! Channel (`RoBaRaCoCh` in Ramulator's naming): consecutive lines
//! interleave across channels first, then across columns of an open
//! row, which is what GPU-class memory subsystems use for streaming
//! bandwidth.

use crate::config::DramConfig;
use crate::types::{Addr, LINE_BYTES};

/// Decoded DRAM coordinates of a line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    pub channel: usize,
    pub rank: usize,
    pub bank_group: usize,
    pub bank: usize,
    pub row: u64,
    pub column: u64,
}

impl DramCoord {
    /// Flat bank index within the channel (rank-major).
    pub fn flat_bank(&self, cfg: &DramConfig) -> usize {
        (self.rank * cfg.bank_groups + self.bank_group) * cfg.banks_per_group + self.bank
    }
}

/// Address mapper for a fixed [`DramConfig`].
#[derive(Debug, Clone, Copy)]
pub struct AddressMapping {
    channels: usize,
    ranks: usize,
    bank_groups: usize,
    banks_per_group: usize,
    lines_per_row: u64,
}

impl AddressMapping {
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(cfg.channels.is_power_of_two());
        assert!(cfg.ranks.is_power_of_two());
        assert!(cfg.bank_groups.is_power_of_two());
        assert!(cfg.banks_per_group.is_power_of_two());
        let lines_per_row = cfg.row_bytes / LINE_BYTES;
        assert!(lines_per_row.is_power_of_two());
        AddressMapping {
            channels: cfg.channels,
            ranks: cfg.ranks,
            bank_groups: cfg.bank_groups,
            banks_per_group: cfg.banks_per_group,
            lines_per_row,
        }
    }

    /// Decodes a byte address (line-aligned or not) into DRAM coordinates.
    pub fn decode(&self, addr: Addr) -> DramCoord {
        let mut line = addr >> LINE_BYTES.trailing_zeros();
        let mut take = |n: u64| -> u64 {
            let v = line & (n - 1);
            line >>= n.trailing_zeros();
            v
        };
        // Channel bits lowest: consecutive lines stripe channels, and a
        // stream then walks the columns of one open row per channel.
        let channel = take(self.channels as u64) as usize;
        let column = take(self.lines_per_row);
        let rank = take(self.ranks as u64) as usize;
        let bank = take(self.banks_per_group as u64) as usize;
        let bank_group = take(self.bank_groups as u64) as usize;
        let row = line;
        DramCoord {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(&DramConfig::table5())
    }

    #[test]
    fn consecutive_lines_stripe_channels() {
        let m = mapping();
        let coords: Vec<_> = (0..8u64).map(|i| m.decode(i * LINE_BYTES)).collect();
        assert_eq!(
            coords.iter().map(|c| c.channel).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 0, 1, 2, 3]
        );
        // Lines 0 and 4 land in the same channel, consecutive columns.
        assert_eq!(coords[0].column + 1, coords[4].column);
        assert_eq!(coords[0].row, coords[4].row);
    }

    #[test]
    fn row_advances_after_all_columns() {
        let cfg = DramConfig::table5();
        let m = mapping();
        // One row holds 32 lines. Within one channel, after
        // lines_per_row lines the rank bit flips (Co is below Ra), and
        // the row advances only after exhausting rank/bank/bank-group
        // bits.
        let lines_per_row = cfg.row_bytes / LINE_BYTES;
        let a = m.decode(0);
        let b = m.decode(lines_per_row * 4 * LINE_BYTES); // same channel 0
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
        assert_ne!(
            (a.rank, a.bank_group, a.bank),
            (b.rank, b.bank_group, b.bank)
        );
    }

    #[test]
    fn decode_is_injective_over_a_window() {
        let m = mapping();
        let mut seen = std::collections::HashSet::new();
        for i in 0..(1u64 << 14) {
            let c = m.decode(i * LINE_BYTES);
            assert!(
                seen.insert((c.channel, c.rank, c.bank_group, c.bank, c.row, c.column)),
                "duplicate coordinate for line {i}"
            );
        }
    }

    #[test]
    fn flat_bank_is_dense() {
        let cfg = DramConfig::table5();
        let m = mapping();
        let mut banks = std::collections::HashSet::new();
        for i in 0..(1u64 << 14) {
            let c = m.decode(i * LINE_BYTES);
            let fb = c.flat_bank(&cfg);
            assert!(fb < cfg.banks_per_channel());
            banks.insert(fb);
        }
        assert_eq!(banks.len(), cfg.banks_per_channel());
    }
}
