//! Batched multi-cell execution: advance N forked [`System`]s in
//! lockstep through one shared scenario.
//!
//! A policy study runs the *same* scenario — same trace, same program
//! mapping, same arrival schedule — once per policy cell. Straight-line
//! campaigns pay the scenario's immutable state once per cell in both
//! time (decode, mapping, preallocation) and cache footprint (each cell
//! streams its own copy of the instruction stream). A [`SystemBatch`]
//! instead holds N forks of one pre-tick base system: the `Arc`-shared
//! scenario state ([`crate::prog::Program`] with its flat instruction
//! table, the injector's arrival schedule and inject plans) is built
//! once, and the batch advances
//! every live cell through the same cycle window before moving to the
//! next, so the shared read-only data a window touches is pulled into
//! cache once and reused by every cell instead of streamed N times.
//!
//! ## The lockstep contract
//!
//! Lockstep is a *scheduling* choice, not a semantic one. Each cell is
//! advanced with [`System::advance_with_mode`] — the plain run loop
//! minus per-chunk stats assembly — against monotonically increasing
//! horizons; no state is shared between cells except the immutable
//! `Arc`s, and nothing a cell does can reorder or perturb another
//! cell's events. Pausing at an arbitrary cycle `T` and resuming is
//! byte-identical to an uninterrupted run in **both** step modes
//! (`tests/snapshot_equiv.rs` pins the engine property;
//! `tests/batch_equiv.rs` pins the batch on top of it). In particular
//! the Skip engine re-derives every per-component wake bound from live
//! component state at each entry, so chunking can never make a
//! never-late bound late — bounds are recomputed, not carried across
//! chunks, and certainly not merged across cells.
//!
//! Cells retire from the batch the moment they complete or exhaust
//! their own budget: a finished cell's stats are assembled exactly once
//! and its lane simply stops being advanced, leaving the remaining
//! cells' schedules untouched.

use crate::arb::{RequestArbiter, ThrottleController};
use crate::stats::SimStats;
use crate::system::{RunOutcome, StepMode, System};
use crate::types::Cycle;

/// How many cycles each lockstep window spans.
///
/// Small windows maximize shared-state cache reuse across cells but pay
/// the Skip engine's wake-bound re-derivation per window; large windows
/// amortize that at the cost of streaming the shared trace window more
/// than once. The default is a compromise measured on the 20-cell fig7
/// matrix; callers with unusual cell counts can tune it.
pub const DEFAULT_STRIDE: Cycle = 131_072;

/// Advances N forked [`System`]s in lockstep over one shared scenario.
///
/// Build one via [`SystemBatch::new`], [`SystemBatch::push`] each
/// pre-forked cell with its own budget and [`StepMode`], then
/// [`SystemBatch::run`]. Results come back in push order and are
/// byte-identical to each cell's straight-line
/// [`System::run_with_mode`] run.
pub struct SystemBatch<A, T>
where
    A: RequestArbiter,
    T: ThrottleController,
{
    /// Per-lane mutable machine state, indexed by lane id (push
    /// order). SoA with the arrays below: the lockstep loop walks one
    /// array per concern instead of one struct per lane.
    lanes: Vec<System<A, T>>,
    /// Per-lane cycle budget (the `max_cycles` of a straight-line run).
    budgets: Vec<Cycle>,
    /// Per-lane step mode — lanes of one batch may mix `Cycle` and
    /// `Skip`.
    modes: Vec<StepMode>,
    /// Per-lane final result, filled in the moment a lane retires.
    results: Vec<Option<(SimStats, RunOutcome)>>,
    stride: Cycle,
}

impl<A, T> Default for SystemBatch<A, T>
where
    A: RequestArbiter,
    T: ThrottleController,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<A, T> SystemBatch<A, T>
where
    A: RequestArbiter,
    T: ThrottleController,
{
    /// An empty batch with the default lockstep stride.
    pub fn new() -> Self {
        Self::with_stride(DEFAULT_STRIDE)
    }

    /// An empty batch advancing `stride` cycles per lockstep window.
    pub fn with_stride(stride: Cycle) -> Self {
        assert!(stride > 0, "lockstep stride must be positive");
        SystemBatch {
            lanes: Vec::new(),
            budgets: Vec::new(),
            modes: Vec::new(),
            results: Vec::new(),
            stride,
        }
    }

    /// Adds a cell to the batch and returns its lane id (results come
    /// back in push order). The system is typically a fork of one
    /// shared pre-tick base with this cell's policies swapped in via
    /// [`System::replace_policies`], but any independent system works —
    /// lanes never interact.
    pub fn push(&mut self, system: System<A, T>, budget: Cycle, mode: StepMode) -> usize {
        self.lanes.push(system);
        self.budgets.push(budget);
        self.modes.push(mode);
        self.results.push(None);
        self.lanes.len() - 1
    }

    /// Number of cells in the batch (retired lanes included).
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Runs every lane to completion or its budget, in lockstep, and
    /// returns `(stats, outcome)` per lane in push order.
    ///
    /// Each window advances every live lane to the same horizon (the
    /// minimum live-lane cycle plus the stride, clamped per lane to its
    /// own budget); lanes that complete or exhaust their budget retire
    /// from the batch immediately. The per-lane results are
    /// byte-identical to `system.run_with_mode(budget, mode)` on the
    /// same starting state.
    pub fn run(mut self) -> Vec<(SimStats, RunOutcome)> {
        let mut live: Vec<usize> = (0..self.lanes.len()).collect();
        while !live.is_empty() {
            // Shared horizon: the slowest live lane plus one stride.
            // Lanes paused mid-window by an earlier, smaller horizon
            // catch up before anyone moves on — that is the lockstep.
            let base = live
                .iter()
                .map(|&i| self.lanes[i].cycle())
                .min()
                .expect("live is non-empty");
            let horizon = base.saturating_add(self.stride);
            let budgets = &self.budgets;
            let modes = &self.modes;
            let lanes = &mut self.lanes;
            let results = &mut self.results;
            live.retain(|&i| {
                let target = horizon.min(budgets[i]);
                let outcome = lanes[i].advance_with_mode(target, modes[i]);
                // `CycleLimit` against a mid-run horizon only means
                // "window over"; against the lane's own budget it is
                // the straight-line run's terminal outcome.
                let done = outcome == RunOutcome::Completed || target == budgets[i];
                if done {
                    results[i] = Some((lanes[i].collect_stats(), outcome));
                }
                !done
            });
        }
        self.results
            .into_iter()
            .map(|r| r.expect("every lane retired"))
            .collect()
    }
}
