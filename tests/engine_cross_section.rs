//! Engine cross-section: one small cell per execution engine the
//! simulator's fast paths rest on, each compared byte for byte with
//! its reference. The full differential suites (`step_mode_equiv`,
//! `snapshot_equiv`, `serve_equiv`, `kv_equiv` in `llamcat-sim`) cover
//! the policy grid and the edge cases, and `llamcat-bench`'s campaign
//! suite covers the campaign executor; this file keeps one cell of each
//! in the root test run, so a broken engine fails here too.
//!
//! Every cell runs at seq 128 or less to keep the debug build fast.

use llamcat::experiment::{Experiment, RunReport};
use llamcat::spec::{ArrivalSpec, KvSpec, MixSpec, PolicySpec, ServePolicySpec, ServeSpec};
use llamcat_bench::{Campaign, CampaignCell};
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

/// The report and the full `SimStats`, serialized.
fn bytes(report: &RunReport) -> (String, String) {
    let stats = report.stats.as_ref().expect("stats recorded");
    (
        serde_json::to_string(report).expect("report serializes"),
        serde_json::to_string(stats).expect("stats serialize"),
    )
}

/// Runs `exp` in both step modes and asserts they agree byte for byte.
fn assert_skip_matches_cycle(exp: Experiment, label: &str) -> RunReport {
    let cycle = exp.clone().step_mode(StepMode::Cycle).run();
    let skip = exp.step_mode(StepMode::Skip).run();
    assert!(cycle.completed, "{label}: reference run must complete");
    assert_eq!(
        bytes(&skip),
        bytes(&cycle),
        "{label}: Skip diverged from Cycle"
    );
    cycle
}

#[test]
fn skip_matches_cycle_under_the_full_policy_stack() {
    let exp = Experiment::new(&WorkloadSpec::llama3_70b(), 128).policy(PolicySpec::dynmg_bma());
    assert_skip_matches_cycle(exp, "dynmg+BMA");
}

#[test]
fn forked_scenario_matches_straight_line_run() {
    let exp = Experiment::new(&WorkloadSpec::llama3_405b(), 128);
    // The snapshot is policy neutral; the fork swaps in a stateful pair.
    let base = exp.snapshot_scenario().expect("scenario builds");
    let cell = exp.policy(PolicySpec::from_name("dyncta+MA").expect("matrix name"));
    let forked = cell.run_forked(&base).expect("fork runs");
    let straight = cell.try_run().expect("cell runs");
    assert!(straight.completed);
    assert_eq!(bytes(&forked), bytes(&straight), "fork diverged");
}

#[test]
fn serve_cell_skip_matches_cycle() {
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
    let exp = Experiment::from_serve_spec(&spec)
        .expect("valid serve")
        .policy(PolicySpec::dynmg_bma());
    let report = assert_skip_matches_cycle(exp, "serve");
    assert_eq!(report.requests.len(), 3);
    assert!(report.requests.iter().all(|r| r.ttft.is_some()));
}

#[test]
fn kv_cell_skip_matches_cycle() {
    let exp = Experiment::new(&WorkloadSpec::llama3_70b(), 128)
        .policy(PolicySpec::dynmg_bma())
        .kv(KvSpec::lru(16));
    let report = assert_skip_matches_cycle(exp, "kv");
    let kv = report.kv.expect("tier totals present");
    assert!(kv.promotions > 0, "the warm tier must promote");
}

/// The campaign executor (warm-up-and-fork) on a grid that puts
/// support runs in its batch: a baseline outside the policy list (one
/// extra baseline run per scenario) and a partitioned mix (solo
/// fairness references). Every record, speedup and fairness reference
/// must match straight-line `try_run`s of the cells involved.
#[test]
fn campaign_records_match_per_cell_try_run() {
    let campaign = Campaign::new("cross-section")
        .workload(WorkloadSpec::llama3_70b())
        .seq_lens([64, 128])
        .mix(
            MixSpec::partitioned()
                .request(WorkloadSpec::llama3_70b(), 128, 0)
                .request(WorkloadSpec::llama3_70b(), 64, 0),
        )
        .policy(PolicySpec::dynmg_bma())
        .policy(PolicySpec::from_name("dyncta+MA").expect("matrix name"))
        .baseline(PolicySpec::unoptimized());
    let report = campaign.run().expect("campaign runs");
    assert_eq!(report.records.len(), 6, "(2 seq lens + 1 mix) x 2 policies");
    let straight = |cell: &CampaignCell| -> RunReport {
        cell.experiment(&campaign).try_run().expect("cell runs")
    };
    for rec in &report.records {
        let reference = straight(&rec.cell);
        assert!(reference.completed);
        assert_eq!(bytes(&rec.report), bytes(&reference), "record diverged");
        let baseline = straight(&CampaignCell {
            policy: PolicySpec::unoptimized(),
            ..rec.cell.clone()
        });
        assert_eq!(
            rec.speedup,
            Some(baseline.cycles as f64 / reference.cycles as f64),
            "baseline support run diverged"
        );
        if let Some(mix) = &rec.cell.mix {
            let fairness = rec.fairness.as_ref().expect("mix cells carry fairness");
            assert_eq!(fairness.per_request.len(), mix.requests.len());
            for (entry, req) in fairness.per_request.iter().zip(&mix.requests) {
                let solo = straight(&CampaignCell {
                    workload: req.workload,
                    seq_len: req.seq_len,
                    mix: None,
                    ..rec.cell.clone()
                });
                assert_eq!(
                    entry.solo_cycles, solo.requests[0].cycles,
                    "solo support run"
                );
            }
        }
    }
}
