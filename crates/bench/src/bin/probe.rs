//! Calibration probe: quick policy comparison on one workload.
//!
//! Usage: `probe [seq_len] [model=70b|405b] [l2_mb]`

use llamcat::experiment::Experiment;
use llamcat::spec::PolicySpec;
use llamcat_trace::workloads::WorkloadSpec;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seq_len: usize = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(2048);
    let (model_name, model) = match args.get(2).map(|s| s.as_str()) {
        Some("405b") => ("405b", WorkloadSpec::llama3_405b()),
        _ => ("70b", WorkloadSpec::llama3_70b()),
    };
    let l2_mb: u64 = args.get(3).map(|s| s.parse().unwrap()).unwrap_or(16);
    let l1_entries: usize = args.get(4).map(|s| s.parse().unwrap()).unwrap_or(16);
    let l1_targets: usize = args.get(5).map(|s| s.parse().unwrap()).unwrap_or(8);
    let hit_occ: u64 = args.get(6).map(|s| s.parse().unwrap()).unwrap_or(25);

    let policies = [
        PolicySpec::unoptimized(),
        PolicySpec::dyncta(),
        PolicySpec::lcs(),
        PolicySpec::cobrra(),
        PolicySpec::dynmg(),
        PolicySpec::dynmg_b(),
        PolicySpec::dynmg_ma(),
        PolicySpec::dynmg_bma(),
        PolicySpec::dynmg_cobrra(),
    ];
    println!("model={model_name} seq_len={seq_len} l2={l2_mb}MB");
    println!(
        "{:<14} {:>12} {:>8} {:>7} {:>7} {:>7} {:>7} {:>9} {:>7} {:>8} {:>9} {:>9} {:>6}",
        "policy",
        "cycles",
        "speedup",
        "l2hit",
        "mshrhit",
        "entutil",
        "t_cs",
        "dram(GB/s)",
        "rowhit",
        "dramacc",
        "stallE",
        "stallT",
        "wall_s"
    );
    let mut base_cycles = None;
    for p in policies {
        let t0 = Instant::now();
        let mut e = Experiment::new(&model, seq_len).l2_mb(l2_mb).policy(p);
        e.config.l1.miss_entries = l1_entries;
        e.config.l1.miss_targets = l1_targets;
        e.config.l2.hit_occupancy = hit_occ;
        let r = e.run();
        let wall = t0.elapsed().as_secs_f64();
        let base = *base_cycles.get_or_insert(r.cycles);
        let st = r.stats.as_ref().unwrap();
        let entry_stall: u64 = st.slices.iter().map(|x| x.stall_entry_full).sum();
        let target_stall: u64 = st.slices.iter().map(|x| x.stall_target_full).sum();
        println!(
            "{:<14} {:>12} {:>7.3}x {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>9.2} {:>7.3} {:>8} {:>9} {:>9} {:>6.1}{}",
            r.policy_label,
            r.cycles,
            base as f64 / r.cycles as f64,
            r.l2_hit_rate,
            r.mshr_hit_rate,
            r.mshr_entry_util,
            r.t_cs,
            r.dram_bandwidth_gbs,
            r.row_hit_rate,
            r.dram_accesses,
            entry_stall,
            target_stall,
            wall,
            if r.completed { "" } else { "  [CYCLE LIMIT]" }
        );
    }
}
