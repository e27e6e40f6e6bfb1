//! Differential suite: `StepMode::Skip` must be *observationally
//! equivalent* to the cycle-accurate `StepMode::Cycle` reference — not
//! merely "same cycle count" but byte-identical `SimStats` and the same
//! `RunOutcome` — across the entire policy grid the paper evaluates
//! (every arbiter × throttle cell of the golden table) and
//! across cycle-budget boundaries.
//!
//! This is the headline guarantee of the fast-forward engine: any
//! component whose `next_event` bound is ever *late* (claims quiescence
//! past a real state change) or whose `skip` accrual diverges from its
//! per-cycle tick shows up here as a counter mismatch.

use llamcat::experiment::Experiment;
use llamcat::spec::PolicySpec;
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

fn experiment(policy: &PolicySpec, mode: StepMode) -> Experiment {
    Experiment::new(&WorkloadSpec::llama3_70b(), 128)
        .policy(policy.clone())
        .step_mode(mode)
}

/// Runs one policy cell in both modes and asserts full observational
/// equivalence: outcome, serialized report, serialized `SimStats`.
fn assert_cell_equivalent(policy: &PolicySpec, budget: Option<u64>) {
    let run = |mode| {
        let mut e = experiment(policy, mode);
        e.max_cycles = budget;
        e.run()
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        cycle.completed,
        skip.completed,
        "{}: RunOutcome diverged (budget {budget:?})",
        policy.label()
    );
    assert_eq!(
        cycle.cycles,
        skip.cycles,
        "{}: cycle count diverged (budget {budget:?})",
        policy.label()
    );
    assert_eq!(
        serde_json::to_string(&cycle).unwrap(),
        serde_json::to_string(&skip).unwrap(),
        "{}: RunReport diverged (budget {budget:?})",
        policy.label()
    );
    assert_eq!(
        serde_json::to_string(cycle.stats.as_ref().unwrap()).unwrap(),
        serde_json::to_string(skip.stats.as_ref().unwrap()).unwrap(),
        "{}: SimStats diverged (budget {budget:?})",
        policy.label()
    );
}

/// The full 20-cell grid of the golden table, run to completion in both
/// step modes.
#[test]
fn all_golden_cells_are_mode_equivalent() {
    for arb in ["fifo", "B", "MA", "BMA", "cobrra"] {
        for thr in ["none", "dyncta", "lcs", "dynmg"] {
            let policy = PolicySpec::from_name(&format!("{thr}+{arb}")).expect("matrix name");
            assert_cell_equivalent(&policy, None);
        }
    }
}

/// Regression for the cycle-budget edge: in Skip mode a jump must never
/// overshoot `max_cycles`, and a budget-limited run must report
/// `CycleLimit` at exactly the cycle count the cycle-accurate run
/// reports — including budgets that land mid-stall, mid-skip-window and
/// right at the completion cycle.
#[test]
fn budget_exhaustion_is_mode_equivalent() {
    // Completion cycle of this cell (golden table: 12269 for the
    // unoptimized baseline, but derive it so the test survives
    // intentional golden updates).
    let completed = experiment(&PolicySpec::unoptimized(), StepMode::Cycle).run();
    let full = completed.cycles;
    for policy in [PolicySpec::unoptimized(), PolicySpec::dynmg_bma()] {
        for budget in [
            1,
            2,
            97,
            1_000,
            full / 2,
            full - 1,
            full,
            full + 1,
            full + 10_000,
        ] {
            assert_cell_equivalent(&policy, Some(budget));
        }
    }
    // And the budget is a hard ceiling in skip mode.
    let limited = experiment(&PolicySpec::unoptimized(), StepMode::Skip)
        .max_cycles(full / 2)
        .run();
    assert!(!limited.completed);
    assert_eq!(limited.cycles, full / 2, "skip ran past the budget");
}

/// A longer sequence length exercises deeper queue/stall regimes
/// (multiple DynMg gear shifts, DRAM write drains, refresh windows).
#[test]
fn longer_run_is_mode_equivalent() {
    let run = |mode| {
        Experiment::new(&WorkloadSpec::llama3_405b(), 256)
            .policy(PolicySpec::dynmg_bma())
            .step_mode(mode)
            .run()
    };
    let cycle = run(StepMode::Cycle);
    let skip = run(StepMode::Skip);
    assert_eq!(
        serde_json::to_string(cycle.stats.as_ref().unwrap()).unwrap(),
        serde_json::to_string(skip.stats.as_ref().unwrap()).unwrap(),
        "dynmg+BMA @405b/256 diverged between step modes"
    );
}
