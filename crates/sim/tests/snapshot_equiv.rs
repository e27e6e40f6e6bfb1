//! Differential suite for the snapshot/fork layer.
//!
//! The contract: a system forked (or restored) from a snapshot taken at
//! any cycle T and then run to its budget is **byte-identical** — same
//! serialized `SimStats` including per-request admission/TTFT/KV
//! counters, same `RunOutcome` — to the straight-line run that never
//! paused, in both step modes. Every component a snapshot must capture
//! is exercised: stateful arbiters and throttles (BMA + DynMg), the
//! MSHR files, DRAM timing registers mid-refresh, the KV tier
//! mid-promotion, and the request injector mid-queue.
//!
//! One level up, `Experiment::run_forked` on a pre-tick scenario
//! snapshot must reproduce `Experiment::try_run` byte for byte for
//! every policy cell: the 20-cell golden matrix and the mix, serve
//! (overload shedding included) and KV-tier scenarios, in both step
//! modes. And pausing is free: `advance_with_mode` driven in arbitrary
//! chunks up to a budget lands on exactly what one `run_with_mode` to
//! that budget reports.
//!
//! This is the guarantee the resumable campaign runner
//! (`llamcat-bench`) and its warm-up-and-fork path build on, and what
//! makes bisection debugging (snapshot, run, rewind, re-run)
//! trustworthy.

use proptest::prelude::*;

use llamcat::experiment::{Experiment, RunReport};
use llamcat::spec::{ArrivalSpec, KvSpec, MixSpec, PolicySpec, ServePolicySpec, ServeSpec};
use llamcat_sim::arb::{FifoArbiter, NoThrottle, RequestArbiter, ThrottleController};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::kv::{KvEviction, KvTierConfig};
use llamcat_sim::prog::{Instr, Program, ThreadBlock};
use llamcat_sim::serve::{RequestInjector, ServePolicy};
use llamcat_sim::stats::SimStats;
use llamcat_sim::system::{RunOutcome, StepMode, System};
use llamcat_trace::workloads::WorkloadSpec;

const BUDGET: u64 = 50_000_000;

fn stats_json(stats: &SimStats) -> String {
    serde_json::to_string(stats).expect("stats serialize")
}

// ---------------------------------------------------------------------
// Closed-set workload under the paper's stateful policy pair.
// ---------------------------------------------------------------------

/// The paper's final policy (BMA arbiter + DynMg throttle) on a real
/// generated trace: both policies carry history that the snapshot must
/// capture exactly.
fn rich_system() -> System<llamcat::arbiter::ArbiterKind, llamcat::throttle::ThrottleKind> {
    let e = Experiment::new(&WorkloadSpec::llama3_70b(), 128).policy(PolicySpec::dynmg_bma());
    let program = e.build_program();
    let arb = e.policy.arb.clone();
    System::new(
        e.config,
        program,
        &move |_| arb.build_kind(),
        e.policy.throttle.build_kind(),
    )
}

/// Fork-at-T ≡ straight-line, and restore-after-overrun ≡ straight-line,
/// at several cut points, in one step mode.
fn assert_fork_equivalent(mode: StepMode) {
    let mut reference = rich_system();
    let (stats_ref, out_ref) = reference.run_with_mode(BUDGET, mode);
    assert_eq!(out_ref, RunOutcome::Completed);
    let total = stats_ref.cycles;
    let json_ref = stats_json(&stats_ref);

    for frac in [1u64, 2, 3] {
        let t = total * frac / 4;
        let mut sys = rich_system();
        sys.run_with_mode(t, mode);
        assert_eq!(sys.cycle(), t, "paused exactly at the cut point");
        let snap = sys.snapshot();
        assert_eq!(snap.cycle(), t);

        // Fork an independent continuation.
        let mut fork = snap.fork();
        let (stats_f, out_f) = fork.run_with_mode(BUDGET, mode);
        assert_eq!(out_f, out_ref, "fork@{t} ({mode:?}): outcome diverged");
        assert_eq!(
            stats_json(&stats_f),
            json_ref,
            "fork@{t} ({mode:?}): SimStats diverged from straight line"
        );

        // Rewind the original after it ran past the cut point.
        sys.run_with_mode(BUDGET, mode);
        sys.restore(&snap);
        assert_eq!(sys.cycle(), t, "restore rewound to the snapshot cycle");
        let (stats_r, out_r) = sys.run_with_mode(BUDGET, mode);
        assert_eq!(out_r, out_ref, "restore@{t} ({mode:?}): outcome diverged");
        assert_eq!(
            stats_json(&stats_r),
            json_ref,
            "restore@{t} ({mode:?}): SimStats diverged from straight line"
        );
    }
}

#[test]
fn fork_at_cycle_t_matches_straight_line_cycle_mode() {
    assert_fork_equivalent(StepMode::Cycle);
}

#[test]
fn fork_at_cycle_t_matches_straight_line_skip_mode() {
    assert_fork_equivalent(StepMode::Skip);
}

/// A snapshot is mode-agnostic: pausing in one mode and resuming in the
/// other still lands on the straight-line Cycle-mode statistics (the
/// step-mode equivalence extends across the cut).
#[test]
fn cross_mode_fork_matches_straight_line() {
    let mut reference = rich_system();
    let (stats_ref, _) = reference.run_with_mode(BUDGET, StepMode::Cycle);
    let json_ref = stats_json(&stats_ref);
    let t = stats_ref.cycles / 2;
    for (pause, resume) in [
        (StepMode::Cycle, StepMode::Skip),
        (StepMode::Skip, StepMode::Cycle),
    ] {
        let mut sys = rich_system();
        sys.run_with_mode(t, pause);
        let mut fork = sys.snapshot().fork();
        let (stats, outcome) = fork.run_with_mode(BUDGET, resume);
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(
            stats_json(&stats),
            json_ref,
            "pause {pause:?} / resume {resume:?} diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Open system with a KV tier: snapshot mid-queue and mid-promotion.
// ---------------------------------------------------------------------

fn small_cfg(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::table5();
    cfg.num_cores = cores;
    cfg
}

fn tight_kv() -> KvTierConfig {
    KvTierConfig {
        warm_capacity_blocks: 4,
        block_bytes: 256,
        slow_latency: 400,
        slow_bytes_per_cycle: 16,
        max_inflight: 2,
        eviction: KvEviction::Lru,
    }
}

/// Request-tagged blocks (`blocks_per_request[r]` for request `r`),
/// each mixing plain and KV-window loads inside the request's VA slot
/// (so the tier engages and keeps promotions in flight).
fn open_kv_program(blocks_per_request: &[usize]) -> Program {
    let mut blocks = Vec::new();
    let mut tags = Vec::new();
    for (r, &nblocks) in blocks_per_request.iter().enumerate() {
        let slot = (r as u64) << 40;
        for b in 0..nblocks {
            blocks.push(ThreadBlock {
                instrs: vec![
                    Instr::Load {
                        addr: slot + (b as u64) * 256,
                        bytes: 128,
                    },
                    Instr::Load {
                        addr: slot + (1 << 32) + (b as u64) * 256,
                        bytes: 128,
                    },
                    Instr::Barrier,
                ],
            });
            tags.push(r as u32);
        }
    }
    let assignment = vec![0; blocks.len()];
    Program::with_requests(blocks, assignment, tags, Vec::new())
}

fn open_kv_system(p: &Program, arrivals: Vec<u64>) -> System<FifoArbiter, NoThrottle> {
    let cfg = small_cfg(2);
    let injector = RequestInjector::new(
        p,
        arrivals,
        ServePolicy::ContinuousBatching { slots: 2 },
        2,
        cfg.core.num_inst_windows,
    )
    .expect("valid injector");
    let mut sys = System::new(cfg, p.clone(), &|_| FifoArbiter, NoThrottle);
    sys.attach_injector(injector);
    sys.attach_kv(tight_kv());
    sys
}

/// Snapshot between arrivals — admission queue populated, promotions in
/// flight — and resume: byte-identical to the straight line in both
/// modes, including per-request KV and latency counters.
#[test]
fn open_kv_fork_mid_injection_matches_straight_line() {
    let p = open_kv_program(&[3, 3, 3]);
    let arrivals = vec![0, 1_000, 2_500];
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let mut reference = open_kv_system(&p, arrivals.clone());
        let (stats_ref, out_ref) = reference.run_with_mode(BUDGET, mode);
        assert_eq!(out_ref, RunOutcome::Completed);
        let json_ref = stats_json(&stats_ref);
        assert!(
            stats_ref.kv.as_ref().is_some_and(|kv| kv.promotions > 0),
            "scenario must exercise the slow tier"
        );

        for t in [500, 1_500, 2_600, stats_ref.cycles / 2] {
            let mut sys = open_kv_system(&p, arrivals.clone());
            sys.run_with_mode(t, mode);
            let snap = sys.snapshot();
            let mut fork = snap.fork();
            let (stats_f, out_f) = fork.run_with_mode(BUDGET, mode);
            assert_eq!(out_f, out_ref);
            assert_eq!(
                stats_json(&stats_f),
                json_ref,
                "open+KV fork@{t} ({mode:?}) diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pausing is free: advance in chunks ≡ one straight run to the budget.
// ---------------------------------------------------------------------

/// Drives `sys` to `budget` through `advance_with_mode`, pausing every
/// `stride` cycles, then assembles its statistics once.
fn run_in_chunks<A: RequestArbiter, T: ThrottleController>(
    sys: &mut System<A, T>,
    budget: u64,
    stride: u64,
    mode: StepMode,
) -> (SimStats, RunOutcome) {
    loop {
        let horizon = sys.cycle().saturating_add(stride).min(budget);
        let outcome = sys.advance_with_mode(horizon, mode);
        // `CycleLimit` at a pause point only means "chunk over".
        if outcome == RunOutcome::Completed || horizon == budget {
            return (sys.collect_stats(), outcome);
        }
    }
}

/// Budgets straddling the exact completion cycle, each reached in
/// chunks: early budgets stop mid-run, generous ones complete, and
/// every result is byte-identical to one straight run to that budget.
#[test]
fn budget_edges_chunked_match_straight_line() {
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let (stats_ref, out_ref) = rich_system().run_with_mode(BUDGET, mode);
        assert_eq!(out_ref, RunOutcome::Completed);
        let full = stats_ref.cycles;
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
            let (stats_s, out_s) = rich_system().run_with_mode(budget, mode);
            for stride in [997, 131] {
                let (stats, outcome) = run_in_chunks(&mut rich_system(), budget, stride, mode);
                assert_eq!(
                    outcome, out_s,
                    "budget {budget} ({mode:?}, stride {stride}): outcome diverged"
                );
                assert_eq!(
                    stats_json(&stats),
                    stats_json(&stats_s),
                    "budget {budget} ({mode:?}, stride {stride}): SimStats diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Experiment level: run_forked on a scenario snapshot ≡ try_run.
// ---------------------------------------------------------------------

fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Asserts that every cell (all sharing one scenario) run on a fork of
/// one pre-tick scenario snapshot reproduces its own straight-line
/// `try_run` byte for byte: the report and the full `SimStats`.
fn assert_forks_match_straight_line(cells: &[Experiment], label: &str) {
    let snap = cells[0].snapshot_scenario().expect("scenario builds");
    for (i, cell) in cells.iter().enumerate() {
        let straight = cell.try_run().expect("cell runs");
        let forked = cell.run_forked(&snap).expect("fork runs");
        assert_eq!(
            report_json(&forked),
            report_json(&straight),
            "{label}: cell {i} report diverged from its straight-line run"
        );
        assert_eq!(
            stats_json(forked.stats.as_ref().expect("stats recorded")),
            stats_json(straight.stats.as_ref().expect("stats recorded")),
            "{label}: cell {i} SimStats diverged from its straight-line run"
        );
    }
}

/// The 5 × 4 golden policy matrix, compositional registry names.
fn policy_matrix() -> Vec<PolicySpec> {
    let mut out = Vec::with_capacity(20);
    for arb in ["fifo", "B", "MA", "BMA", "cobrra"] {
        for thr in ["none", "dyncta", "lcs", "dynmg"] {
            out.push(PolicySpec::from_name(&format!("{thr}+{arb}")).expect("matrix name"));
        }
    }
    out
}

/// `make()` once per named policy, in `mode`.
fn cells(names: &[&str], mode: StepMode, make: impl Fn() -> Experiment) -> Vec<Experiment> {
    names
        .iter()
        .map(|n| {
            make()
                .policy(PolicySpec::from_name(n).expect("policy"))
                .step_mode(mode)
        })
        .collect()
}

const GRID: [&str; 4] = ["none+fifo", "dynmg+BMA", "lcs+MA", "dyncta+B"];

#[test]
fn golden_matrix_forks_match_straight_line_in_both_modes() {
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells: Vec<Experiment> = policy_matrix()
            .into_iter()
            .map(|p| {
                Experiment::new(&WorkloadSpec::llama3_70b(), 128)
                    .policy(p)
                    .step_mode(mode)
            })
            .collect();
        assert_forks_match_straight_line(&cells, &format!("matrix/{mode:?}"));
    }
}

#[test]
fn mix_forks_match_straight_line() {
    let mix = MixSpec::interleaved()
        .request(WorkloadSpec::llama3_70b(), 128, 0)
        .request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4,
            },
            128,
            0,
        );
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells = cells(&GRID, mode, || {
            Experiment::from_mix_spec(&mix).expect("valid mix")
        });
        assert_forks_match_straight_line(&cells, &format!("mix/{mode:?}"));
    }
}

#[test]
fn serve_forks_match_straight_line() {
    let spec = ServeSpec::new(
        WorkloadSpec::llama3_70b(),
        128,
        3,
        ArrivalSpec::Poisson {
            mean_gap: 4_000,
            seed: 11,
        },
    )
    .scheduler(ServePolicySpec::ContinuousBatching { slots: 2 });
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells = cells(&GRID, mode, || {
            Experiment::from_serve_spec(&spec).expect("valid serve")
        });
        assert_forks_match_straight_line(&cells, &format!("serve/{mode:?}"));
    }
}

/// Overload shedding on a fork: rejected and deadline-dropped requests'
/// blocks never retire, so this pins the forked completion accounting
/// along with the per-request rejection ledger. The overlapping-burst
/// storm from `serve_equiv.rs` saturates the machine when the second
/// burst slams in.
#[test]
fn overload_serve_forks_match_straight_line() {
    let storm = ArrivalSpec::Bursty {
        burst: 3,
        gap_in_burst: 6_000,
        burst_gap: 2,
        seed: 13,
    };
    for scheduler in [
        ServePolicySpec::RejectAboveQueue { slots: 2, depth: 1 },
        ServePolicySpec::DeadlineDrop {
            slots: 2,
            ttft_deadline: 9_000,
        },
    ] {
        let spec =
            ServeSpec::new(WorkloadSpec::llama3_70b(), 128, 4, storm.clone()).scheduler(scheduler);
        for mode in [StepMode::Cycle, StepMode::Skip] {
            let cells = cells(&["none+fifo", "dynmg+BMA"], mode, || {
                Experiment::from_serve_spec(&spec).expect("valid serve")
            });
            let probe = cells[0].try_run().expect("cell runs");
            assert!(
                probe.requests.iter().any(|r| r.rejected.is_some()),
                "scenario must actually shed requests"
            );
            assert_forks_match_straight_line(&cells, &format!("overload/{mode:?}"));
        }
    }
}

#[test]
fn kv_tier_forks_match_straight_line() {
    let mut mix = MixSpec::interleaved();
    for _ in 0..3 {
        mix = mix.request(
            WorkloadSpec::SharedPrefix {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                prefix_len: 64,
            },
            128,
            0,
        );
    }
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let cells = cells(&["none+fifo", "dynmg+BMA", "none+PFA"], mode, || {
            Experiment::with_mix(mix.instantiate()).kv(KvSpec::prefix_pin(16))
        });
        assert_forks_match_straight_line(&cells, &format!("kv/{mode:?}"));
    }
}

// ---------------------------------------------------------------------
// Proptest: restore(snapshot()) at a random cycle of a random open
// program (KV tier + injector attached) resumes byte-identically.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn snapshot_restore_at_random_cycle_resumes_identically(
        shape in proptest::collection::vec((1usize..4, any::<bool>()), 2..5),
        gaps in proptest::collection::vec(0u64..2_000, 2..5),
        t_frac in 0u64..100,
        skip_mode in any::<bool>(),
    ) {
        let mode = if skip_mode { StepMode::Skip } else { StepMode::Cycle };
        // One request per `shape` entry: 1–3 blocks, optionally KV-heavy.
        let mut blocks = Vec::new();
        let mut tags = Vec::new();
        for (r, &(nblocks, kv_heavy)) in shape.iter().enumerate() {
            let slot = (r as u64) << 40;
            for b in 0..nblocks {
                let kv_base = if kv_heavy { 1u64 << 32 } else { 1u64 << 36 };
                blocks.push(ThreadBlock {
                    instrs: vec![
                        Instr::Load { addr: slot + (b as u64) * 512, bytes: 128 },
                        Instr::Load {
                            addr: slot + kv_base + (b as u64) * 256,
                            bytes: 128,
                        },
                        Instr::Barrier,
                    ],
                });
                tags.push(r as u32);
            }
        }
        let assignment = vec![0; blocks.len()];
        let p = Program::with_requests(blocks, assignment, tags, Vec::new());
        let arrivals: Vec<u64> = gaps
            .iter()
            .take(shape.len())
            .chain(std::iter::repeat(&0))
            .take(shape.len())
            .scan(0u64, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();

        let mut sys = open_kv_system(&p, arrivals.clone());
        let (stats_ref, out_ref) = sys.run_with_mode(BUDGET, mode);
        prop_assert_eq!(out_ref, RunOutcome::Completed);
        let json_ref = stats_json(&stats_ref);
        let t = stats_ref.cycles * t_frac / 100;

        // Fresh run paused at T, snapshotted, run to completion …
        let mut sys = open_kv_system(&p, arrivals);
        sys.run_with_mode(t, mode);
        let snap = sys.snapshot();
        let (stats_a, out_a) = sys.run_with_mode(BUDGET, mode);
        prop_assert_eq!(out_a, out_ref);
        prop_assert_eq!(&stats_json(&stats_a), &json_ref, "paused run diverged");

        // … then rewound to T and re-run: byte-identical again.
        sys.restore(&snap);
        prop_assert_eq!(sys.cycle(), t);
        let (stats_b, out_b) = sys.run_with_mode(BUDGET, mode);
        prop_assert_eq!(out_b, out_ref);
        prop_assert_eq!(&stats_json(&stats_b), &json_ref, "restored run diverged");
    }
}

// Random open KV programs, random budget cut points (so runs stop at
// arbitrary mid-flight cycles), random step modes and a random pause
// stride: every chunked run is byte-identical to one straight run to
// the same budget.
proptest! {
    #[test]
    fn random_chunked_runs_match_straight_line(
        shape in proptest::collection::vec(1usize..4, 2..5),
        gaps in proptest::collection::vec(0u64..2_000, 4),
        cuts in proptest::collection::vec((0u64..110, any::<bool>()), 1..6),
        stride in 17u64..8_192,
    ) {
        let p = open_kv_program(&shape);
        let arrivals: Vec<u64> = gaps
            .iter()
            .take(shape.len())
            .scan(0u64, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();

        let (stats_ref, out_ref) =
            open_kv_system(&p, arrivals.clone()).run_with_mode(BUDGET, StepMode::Cycle);
        prop_assert_eq!(out_ref, RunOutcome::Completed);
        let full = stats_ref.cycles;

        // Budget at cut% of the full run: past-the-end budgets complete,
        // tiny ones stop almost immediately.
        for &(frac, skip) in &cuts {
            let budget = (full * frac / 100).max(1);
            let mode = if skip { StepMode::Skip } else { StepMode::Cycle };
            let (stats_s, out_s) = open_kv_system(&p, arrivals.clone()).run_with_mode(budget, mode);
            let mut sys = open_kv_system(&p, arrivals.clone());
            let (stats, outcome) = run_in_chunks(&mut sys, budget, stride, mode);
            prop_assert_eq!(outcome, out_s);
            prop_assert_eq!(
                stats_json(&stats),
                stats_json(&stats_s),
                "budget {} mode {:?} stride {} diverged",
                budget,
                mode,
                stride
            );
        }
    }
}
