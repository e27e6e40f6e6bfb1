//! The benchmark's three workloads, each one or more [`Campaign`]s built
//! through the public API, plus what every cell of them must end in.
//!
//! Every campaign sets an explicit cycle budget so the traced run's
//! scenario build (which calls the layer functions one by one) uses the
//! same budget as `Campaign::run` without re-deriving it.

use llamcat::spec::{ArrivalSpec, KvSpec, PolicySpec, ServePolicySpec, ServeSpec, SloSpec};
use llamcat_bench::Campaign;
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

/// Names accepted by `--workload`, in the order `BENCHMARK.json` lists
/// them.
pub const NAMES: [&str; 3] = ["decode-grid", "triage-sweep", "serve-kv"];

/// How every cell of a workload must end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every cell drains before its budget.
    Complete,
    /// Every cell stops exactly at this cycle budget, unfinished.
    StopAt(u64),
}

/// One benchmark workload: its campaigns run one after another.
pub struct Workload {
    pub name: &'static str,
    pub campaigns: Vec<Campaign>,
    pub expect: Expect,
    /// Whether `--seed` changes the generated inputs.
    pub seeded: bool,
    /// What `sim_speedup` means on this workload.
    pub speedup_note: &'static str,
}

/// The fig7 policy ladder (Fig 7 (a)–(c) union, ladder order).
fn fig7_ladder() -> Vec<PolicySpec> {
    vec![
        PolicySpec::unoptimized(),
        PolicySpec::dyncta(),
        PolicySpec::lcs(),
        PolicySpec::dynmg(),
        PolicySpec::dynmg_cobrra(),
        PolicySpec::dynmg_b(),
        PolicySpec::dynmg_ma(),
        PolicySpec::dynmg_bma(),
    ]
}

/// Builds the named workload; `tiny` shrinks every dimension so the
/// smoke test runs in seconds.
pub fn build(name: &str, seed: u64, tiny: bool) -> Result<Workload, String> {
    let models = [WorkloadSpec::llama3_70b(), WorkloadSpec::llama3_405b()];
    let w = match name {
        // The paper's experiment: Logit decode over the fig7 ladder, in
        // the busy regime where the cycle-accurate tick loop dominates.
        // One campaign per model, as the fig7 bench runs them.
        "decode-grid" => Workload {
            name: "decode-grid",
            campaigns: models
                .into_iter()
                .map(|model| {
                    Campaign::new("perfbench-decode-grid")
                        .workload(model)
                        .seq_lens([if tiny { 128 } else { 512 }])
                        .policies(fig7_ladder())
                        .baseline(PolicySpec::unoptimized())
                        .max_cycles(50_000_000)
                        .fork_scenarios(true)
                })
                .collect(),
            expect: Expect::Complete,
            seeded: false,
            speedup_note: "Paper (Fig 7, Llama3 70b/405b Logit, seq 4K-16K): 1.15-1.54x, \
                           geomean 1.26x. This benchmark runs seq 512, a smaller scale \
                           than the paper's; the model is unvalidated at this scale, so \
                           no error figure is given.",
        },
        // Sweep pruning: the 20-cell arbiter x throttle matrix over four
        // scenarios, each cell cut off after a few hundred cycles, so
        // scenario build and fork dominate and ticking barely shows.
        "triage-sweep" => {
            let budget = 256;
            let mut c = Campaign::new("perfbench-triage-sweep")
                .workloads(models)
                .seq_lens(if tiny { [128, 256] } else { [4096, 16384] })
                .baseline(PolicySpec::unoptimized())
                .max_cycles(budget)
                .fork_scenarios(true);
            for arb in ["fifo", "B", "MA", "BMA", "cobrra"] {
                for thr in ["none", "dyncta", "lcs", "dynmg"] {
                    c = c.policy_named(&format!("{thr}+{arb}"))?;
                }
            }
            Workload {
                name: "triage-sweep",
                campaigns: vec![c],
                expect: Expect::StopAt(budget),
                seeded: false,
                speedup_note: "Every cell stops at the same budget, so this reads 1 by \
                               construction; it is not the paper's comparison.",
            }
        }
        // Open-system serving at light load in simulated time: the Skip
        // engine jumps the idle gaps between arrivals, the injector
        // admits requests into continuous-batching slots and the KV
        // tier promotes and pins the shared prefix.
        "serve-kv" => {
            let (seq_len, requests, mean_gap) = if tiny {
                (128, 4, 100_000)
            } else {
                (512, 8, 600_000)
            };
            let spec = ServeSpec::new(
                WorkloadSpec::SharedPrefix {
                    heads: 8,
                    group_size: 8,
                    head_dim: 128,
                    prefix_len: seq_len * 3 / 4,
                },
                seq_len,
                requests,
                ArrivalSpec::Trace {
                    cycles: poisson_arrivals(seed, requests, mean_gap),
                },
            )
            .scheduler(ServePolicySpec::ContinuousBatching { slots: 4 })
            .slo(SloSpec::ttft(4096));
            Workload {
                name: "serve-kv",
                campaigns: vec![Campaign::new("perfbench-serve-kv")
                    .serve(spec)
                    .kv(KvSpec::prefix_pin(if tiny { 16 } else { 64 }))
                    .policies([PolicySpec::unoptimized(), PolicySpec::dynmg_bma()])
                    .baseline(PolicySpec::unoptimized())
                    .step_mode(StepMode::Skip)
                    .max_cycles(100_000_000)
                    .fork_scenarios(true)],
                expect: Expect::Complete,
                seeded: true,
                speedup_note: "Ratio of serving drain times at light load, where arrivals \
                               set the span; it is not the paper's comparison.",
            }
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                NAMES.join(", ")
            ))
        }
    };
    for c in &w.campaigns {
        c.validate()?;
    }
    Ok(w)
}

/// Poisson arrivals of `n` requests at mean gap `mean_gap`, conditioned
/// on the last one arriving at cycle `n * mean_gap`: given that, the
/// other `n - 1` arrival times of a Poisson process are independent
/// uniform draws over the window, sorted. Conditioning fixes the
/// simulated span, so the seed moves when requests overlap but not how
/// many cycles the run covers.
pub fn poisson_arrivals(seed: u64, n: usize, mean_gap: u64) -> Vec<u64> {
    let window = n as u64 * mean_gap;
    let mut state = seed;
    let mut arrivals: Vec<u64> = (1..n)
        .map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % window
        })
        .collect();
    arrivals.sort_unstable();
    arrivals.push(window);
    arrivals
}
