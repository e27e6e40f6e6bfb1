//! Wall-clock probe of simulator throughput (cycles simulated per
//! second) on the ISSUE-5 benchmark cells: fig7-shaped decode, prefill,
//! and one PR-4 serving mix, in both step modes.
//!
//! A lighter-weight dev companion to `cargo bench --bench sim_speed`
//! (which emits the machine-readable report); `decode-cycle` mode
//! repeats one cell for profilers.
//!
//! Usage: `sim_speed_probe [seq_len] [decode-cycle]` (default 2048).

use std::time::Instant;

use llamcat::experiment::Experiment;
use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_sim::system::StepMode;
use llamcat_trace::workloads::WorkloadSpec;

fn run(label: &str, e: &Experiment) {
    for mode in [StepMode::Cycle, StepMode::Skip] {
        let exp = e.clone().step_mode(mode);
        let mut best = f64::MAX;
        let mut cycles = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = exp.run();
            best = best.min(t0.elapsed().as_secs_f64());
            cycles = r.cycles;
        }
        println!(
            "{label:<28} {mode:?}: {:>12} cycles  {best:>7.3}s  {:>12.0} cyc/s",
            cycles,
            cycles as f64 / best
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seq_len: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(2048);

    let decode =
        Experiment::new(&WorkloadSpec::llama3_70b(), seq_len).policy(PolicySpec::unoptimized());
    if args.get(2).map(|s| s.as_str()) == Some("decode-cycle") {
        // Profiling target: repeat only the fig7 decode Cycle cell.
        for _ in 0..4 {
            let exp = decode.clone().step_mode(StepMode::Cycle);
            let t0 = Instant::now();
            let r = exp.run();
            println!("{} cycles {:.3}s", r.cycles, t0.elapsed().as_secs_f64());
        }
        return;
    }
    run("fig7 decode unoptimized", &decode);

    let decode_bma =
        Experiment::new(&WorkloadSpec::llama3_70b(), seq_len).policy(PolicySpec::dynmg_bma());
    run("fig7 decode dynmg+BMA", &decode_bma);

    let prefill = Experiment::new(
        &WorkloadSpec::PrefillLogit {
            heads: 8,
            group_size: 8,
            head_dim: 128,
            query_tokens: 16,
        },
        seq_len,
    )
    .policy(PolicySpec::unoptimized());
    run("prefill unoptimized", &prefill);

    let mix = MixSpec::partitioned()
        .request(WorkloadSpec::llama3_70b(), seq_len, 0)
        .request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4,
            },
            seq_len / 2,
            0,
        );
    let mix_exp = Experiment::from_mix_spec(&mix)
        .unwrap()
        .policy(PolicySpec::dynmg_bma());
    run("mix decode+prefill dynmg+BMA", &mix_exp);
}
