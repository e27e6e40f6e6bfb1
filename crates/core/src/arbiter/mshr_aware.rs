//! MSHR-aware arbitration — policies "MA" and "BMA" (Section 4.3).
//!
//! Two observations drive the policy: (1) cache hits never stall the
//! pipeline, and (2) the MSHR lookup of an *MSHR hit* (merge) overlaps
//! DRAM latency — so hits of both kinds should be let into the cache
//! ahead of entry-allocating misses, keeping the pipeline flowing and
//! the MSHR entries working. The arbiter predicts request type using the
//! hit buffer (recent hits + fills) and the combination of the real-time
//! MSHR snapshot with `sent_reqs` (Fig 5):
//!
//! 1. inferred cache hit → highest priority;
//! 2. inferred MSHR hit → second priority;
//! 3. tie-break: FIFO ("MA") or the balanced pick ("BMA").

use llamcat_sim::arb::{ArbiterCtx, RequestArbiter};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::types::Addr;

use super::balanced::balanced_pick;
use super::hit_buffer::HitBuffer;
use super::sent_reqs::SentReqs;

/// Tie-breaking rule when speculation ranks requests equally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Default request arbitration (FIFO) — policy "MA".
    Fifo,
    /// Balanced progress-counter arbitration — policy "BMA".
    Balanced,
}

/// Hit-buffer entries (each one line address) of the speculation
/// hardware; the area model sizes the hit buffer from this too.
pub const HIT_BUFFER_ENTRIES: usize = 48;

/// The MA / BMA arbiter.
#[derive(Clone)]
pub struct MshrAwareArbiter {
    tie: TieBreak,
    hit_buffer: HitBuffer,
    sent: SentReqs,
    scratch: Vec<usize>,
}

impl MshrAwareArbiter {
    /// An arbiter sized for the Table 5 machine: `sent_reqs` residency
    /// is the LLC's tag-pipeline plus MSHR-lookup latency.
    pub fn new(tie: TieBreak) -> Self {
        let l2 = SystemConfig::table5().l2;
        MshrAwareArbiter {
            hit_buffer: HitBuffer::new(HIT_BUFFER_ENTRIES),
            sent: SentReqs::new(l2.hit_latency, l2.mshr_latency),
            tie,
            scratch: Vec::new(),
        }
    }

    /// Policy MA with default (FIFO) tie-breaking.
    pub fn ma() -> Self {
        Self::new(TieBreak::Fifo)
    }

    /// Policy BMA: MA with balanced tie-breaking.
    pub fn bma() -> Self {
        Self::new(TieBreak::Balanced)
    }

    /// Step 2 of Fig 5: speculate whether `line` is a cache hit.
    fn spec_hit(&self, line: Addr) -> bool {
        self.hit_buffer.contains(line)
    }

    /// Step 3 of Fig 5: speculate whether `line` will merge into the
    /// MSHR. True when the combined MSHR ∪ sent_reqs view shows the line
    /// pending *and* its target list still has room (merging into a full
    /// entry stalls, which is what we are trying to avoid).
    fn spec_mshr_hit(&self, ctx: &ArbiterCtx<'_>, line: Addr) -> bool {
        if let Some(free) = ctx.mshr.free_targets(line) {
            return free > 0;
        }
        self.sent.pending_miss(line)
    }
}

impl RequestArbiter for MshrAwareArbiter {
    fn select(&mut self, ctx: &ArbiterCtx<'_>) -> Option<usize> {
        if ctx.is_empty() {
            return None;
        }
        // Rank: 0 = inferred cache hit, 1 = inferred MSHR hit, 2 = rest.
        let mut best_rank = u8::MAX;
        self.scratch.clear();
        for (i, req) in ctx.iter().enumerate() {
            let line = req.line_addr;
            let rank = if self.spec_hit(line) {
                0
            } else if self.spec_mshr_hit(ctx, line) {
                1
            } else {
                2
            };
            match rank.cmp(&best_rank) {
                std::cmp::Ordering::Less => {
                    best_rank = rank;
                    self.scratch.clear();
                    self.scratch.push(i);
                }
                std::cmp::Ordering::Equal => self.scratch.push(i),
                std::cmp::Ordering::Greater => {}
            }
        }
        let choice = match self.tie {
            TieBreak::Fifo => self.scratch.first().copied(),
            TieBreak::Balanced => balanced_pick(ctx, &self.scratch),
        }?;
        // Step 4 of Fig 5: the chosen request enters sent_reqs with its
        // spec_hit_result bit.
        let line = ctx.req(choice).line_addr;
        self.sent.push(line, best_rank == 0);
        Some(choice)
    }

    fn note_hit(&mut self, line_addr: u64) {
        self.hit_buffer.record(line_addr);
    }

    fn note_fill(&mut self, line_addr: u64) {
        // DRAM fills are predicted future hits (the `inform` path of
        // Fig 4).
        self.hit_buffer.record(line_addr);
    }

    fn tick(&mut self) {
        self.sent.tick();
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        // The only autonomous state is sent_reqs aging, which `skip`
        // fast-forwards exactly — so skipping never needs to wake us.
        None
    }

    fn skip(&mut self, cycles: u64) {
        self.sent.skip(cycles);
    }

    fn reset(&mut self) {
        self.hit_buffer.clear();
        self.sent.clear();
    }

    fn name(&self) -> &'static str {
        match self.tie {
            TieBreak::Fifo => "MA",
            TieBreak::Balanced => "BMA",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamcat_sim::mshr::{MshrFile, MshrSnapshot, MshrTarget};
    use llamcat_sim::pool::{ReqHandle, ReqPool};
    use llamcat_sim::types::MemReq;

    fn pool_with(reqs: &[(usize, u64)]) -> (ReqPool, Vec<ReqHandle>) {
        let mut pool = ReqPool::default();
        let handles = reqs
            .iter()
            .map(|&(core, addr)| {
                pool.alloc(MemReq {
                    id: addr,
                    core,
                    request: 0,
                    line_addr: addr,
                    is_write: false,
                    issued_at: 0,
                })
            })
            .collect();
        (pool, handles)
    }

    fn snapshot_with(lines: &[(u64, usize)], targets: usize) -> MshrSnapshot {
        let mut f = MshrFile::new(8, targets);
        for &(line, n) in lines {
            for k in 0..n {
                f.register(
                    line,
                    MshrTarget {
                        req_id: k as u64,
                        core: 0,
                        is_write: false,
                    },
                );
            }
        }
        let mut s = MshrSnapshot::default();
        f.snapshot_into(&mut s);
        s
    }

    fn ctx<'a>(
        queue: &'a [ReqHandle],
        pool: &'a ReqPool,
        snap: &'a MshrSnapshot,
        served: &'a [u64],
    ) -> ArbiterCtx<'a> {
        ArbiterCtx {
            queue,
            pool,
            mshr: snap,
            served,
            kv_busy: &[],
            cycle: 0,
        }
    }

    #[test]
    fn prefers_inferred_cache_hit() {
        let mut a = MshrAwareArbiter::ma();
        a.note_hit(0xc0);
        let snap = MshrSnapshot::default();
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80), (2, 0xc0)]);
        let served = vec![0, 0, 0];
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(2));
    }

    #[test]
    fn prefers_mshr_hit_over_plain_miss() {
        let mut a = MshrAwareArbiter::ma();
        let snap = snapshot_with(&[(0x80, 1)], 8);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80)]);
        let served = vec![0, 0];
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(1));
    }

    #[test]
    fn full_target_entry_not_preferred() {
        let mut a = MshrAwareArbiter::ma();
        // Entry with all 4 targets used: merging would stall.
        let snap = snapshot_with(&[(0x80, 4)], 4);
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80)]);
        let served = vec![0, 0];
        assert_eq!(
            a.select(&ctx(&queue, &pool, &snap, &served)),
            Some(0),
            "FIFO among plain requests when merge would stall"
        );
    }

    #[test]
    fn sent_reqs_predicts_mshr_hit_before_snapshot_updates() {
        let mut a = MshrAwareArbiter::ma();
        let snap = MshrSnapshot::default();
        let served = vec![0, 0];
        // First selection: plain miss to 0x40 goes into sent_reqs.
        let (pool, queue) = pool_with(&[(0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(0));
        // Second selection: another request to 0x40 is predicted to merge
        // even though the snapshot is still empty.
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        assert_eq!(
            a.select(&ctx(&queue, &pool, &snap, &served)),
            Some(1 /* 0x40 */)
        );
    }

    #[test]
    fn spec_hit_masks_sent_reqs() {
        let mut a = MshrAwareArbiter::ma();
        a.note_hit(0x40);
        let snap = MshrSnapshot::default();
        let served = vec![0, 0];
        // 0x40 chosen as a speculated hit: it must NOT count as a pending
        // miss afterwards.
        let (pool, queue) = pool_with(&[(0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(0));
        // A plain miss to 0x80 vs a second 0x40 (still predicted hit via
        // the hit buffer): 0x40 wins by rank 0, not by pending-miss.
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(1));
    }

    #[test]
    fn bma_tie_breaks_by_progress() {
        let mut a = MshrAwareArbiter::bma();
        let snap = MshrSnapshot::default();
        // No speculation info: all requests tie at rank 2.
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80), (2, 0xc0)]);
        let served = vec![9, 1, 5];
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(1));
    }

    #[test]
    fn ma_tie_breaks_fifo() {
        let mut a = MshrAwareArbiter::ma();
        let snap = MshrSnapshot::default();
        let (pool, queue) = pool_with(&[(0, 0x40), (1, 0x80)]);
        let served = vec![9, 1];
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(0));
    }

    #[test]
    fn sent_reqs_ages_out() {
        let mut a = MshrAwareArbiter::ma();
        let snap = MshrSnapshot::default();
        let served = vec![0, 0];
        let (pool, queue) = pool_with(&[(0, 0x40)]);
        a.select(&ctx(&queue, &pool, &snap, &served));
        for _ in 0..8 {
            a.tick();
        }
        // After hit+mshr latency the prediction expires; 0x40 no longer
        // preferred.
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        assert_eq!(a.select(&ctx(&queue, &pool, &snap, &served)), Some(0));
    }

    #[test]
    fn reset_clears_speculation() {
        let mut a = MshrAwareArbiter::bma();
        a.note_hit(0x40);
        a.reset();
        let snap = MshrSnapshot::default();
        let (pool, queue) = pool_with(&[(1, 0x80), (0, 0x40)]);
        let served = vec![0, 0];
        assert_eq!(
            a.select(&ctx(&queue, &pool, &snap, &served)),
            Some(0),
            "FIFO"
        );
    }

    #[test]
    fn names() {
        assert_eq!(MshrAwareArbiter::ma().name(), "MA");
        assert_eq!(MshrAwareArbiter::bma().name(), "BMA");
    }
}
