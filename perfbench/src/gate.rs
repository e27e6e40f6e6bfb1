//! The correctness gate: every cell ends the way its workload expects,
//! its statistics are self-consistent, and repeated runs stream the
//! same bytes.

use llamcat_bench::{CampaignReport, CellRecord};
use llamcat_sim::stats::SimStats;

use crate::workloads::Expect;

/// Counts cells attempted and failed, keeping the first few reasons.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Each campaign's JSONL from the first run; later runs must
    /// repeat it.
    reference: Vec<String>,
}

impl Gate {
    /// Records one cell: `check` is its verdict.
    pub fn cell(&mut self, what: impl FnOnce() -> String, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{}: {e}", what()));
            }
        }
    }

    /// Checks every record of one `Campaign::run` of the workload's
    /// `k`-th campaign, and that its JSONL repeats the first run's line
    /// for line.
    pub fn campaign(&mut self, k: usize, report: &CampaignReport, jsonl: &str, expect: Expect) {
        if self.reference.len() == k {
            self.reference.push(jsonl.to_owned());
        }
        let reference = &self.reference[k];
        let (mut lines, mut first) = (jsonl.lines(), reference.lines());
        let checks: Vec<Result<(), String>> = report
            .records
            .iter()
            .map(|rec| {
                let repeated = lines.next().is_some_and(|l| first.next() == Some(l));
                let stats = rec
                    .report
                    .stats
                    .as_ref()
                    .ok_or("record carries no statistics")?;
                check_cell(expect, rec.report.completed, stats)?;
                if repeated {
                    Ok(())
                } else {
                    Err("JSONL record differs from the first run".into())
                }
            })
            .collect();
        for (rec, check) in report.records.iter().zip(checks) {
            self.cell(|| cell_label(rec), check);
        }
    }
}

/// `<workload> seq <n>, <policy>`.
pub fn cell_label(rec: &CellRecord) -> String {
    let r = &rec.report;
    format!("{} seq {}, {}", r.workload_label, r.seq_len, r.policy_label)
}

/// One cell's verdict: the expected ending, then
/// [`SimStats::check_consistency`].
pub fn check_cell(expect: Expect, completed: bool, stats: &SimStats) -> Result<(), String> {
    match expect {
        Expect::Complete if !completed => {
            return Err(format!("hit its budget at cycle {}", stats.cycles));
        }
        Expect::StopAt(budget) if completed || stats.cycles != budget => {
            return Err(format!(
                "expected to stop at its budget of {budget} cycles, ran {} (completed: {completed})",
                stats.cycles
            ));
        }
        _ => {}
    }
    stats.check_consistency()
}

/// 64-bit FNV-1a: a stable digest for printing, not for security.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
