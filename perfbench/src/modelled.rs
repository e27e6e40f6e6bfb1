//! Counters of the simulated machine, pooled over a workload's cells of
//! one policy. Simulated quantities: deterministic for a given input.

use llamcat::spec::{PolicySpec, SloSpec};
use llamcat_sim::config::SystemConfig;
use llamcat_sim::stats::{SimStats, SloOutcome};

use crate::Metric;

/// The two policies every modelled metric is reported for, with the
/// suffix their metric names carry (`+` is not allowed in names).
pub fn policies() -> [(PolicySpec, &'static str); 2] {
    [
        (PolicySpec::unoptimized(), "unoptimized"),
        (PolicySpec::dynmg_bma(), "dynmg-BMA"),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Appends the modelled metrics of the cells running `policy`, each
/// named `<metric>.<suffix>`. `slo` is the serve scenario's objective,
/// if any (attainment reads 0 without one).
pub fn push(
    out: &mut Vec<Metric>,
    cells: &[(PolicySpec, &SimStats)],
    policy: &PolicySpec,
    suffix: &str,
    slo: Option<SloSpec>,
) {
    let runs: Vec<&SimStats> = cells
        .iter()
        .filter(|(p, _)| p == policy)
        .map(|(_, s)| *s)
        .collect();
    let sum = |f: &dyn Fn(&SimStats) -> u64| runs.iter().map(|s| f(s)).sum::<u64>();
    let slices = |f: fn(&llamcat_sim::stats::SliceStats) -> u64| {
        sum(&|s: &SimStats| s.slices.iter().map(f).sum())
    };
    let cores = |f: fn(&llamcat_sim::stats::CoreStats) -> u64| {
        sum(&|s: &SimStats| s.cores.iter().map(f).sum())
    };
    let channels = |f: fn(&llamcat_sim::stats::ChannelStats) -> u64| {
        sum(&|s: &SimStats| s.channels.iter().map(f).sum())
    };
    let core_cycles = sum(&|s| s.cycles * s.cores.len() as u64);
    let slice_cycles = sum(&|s| s.cycles * s.slices.len() as u64);
    let mshr_entries = SystemConfig::table5().l2.mshr_entries as u64;
    let dram_bytes = sum(&|s| s.dram_bytes());
    let seconds: f64 = runs
        .iter()
        .map(|s| s.cycles as f64 / (s.freq_ghz * 1e9))
        .sum();
    let kv = |f: fn(&llamcat_sim::stats::KvTierStats) -> u64| {
        sum(&|s: &SimStats| s.kv.as_ref().map_or(0, f))
    };
    let requests: Vec<_> = runs.iter().flat_map(|s| &s.requests).collect();
    let mut ttft: Vec<u64> = requests.iter().filter_map(|r| r.ttft()).collect();
    ttft.sort_unstable();
    let mut queue: Vec<u64> = requests.iter().filter_map(|r| r.queue_delay()).collect();
    queue.sort_unstable();
    let met = slo.map_or(0, |s| {
        requests
            .iter()
            .filter(|r| r.slo_outcome(s.ttft_deadline, s.tbt_deadline) == SloOutcome::Met)
            .count() as u64
    });

    let values: [(&str, f64, &'static str); 24] = [
        (
            "core.mem_stall_frac",
            ratio(cores(|c| c.mem_stall_cycles), core_cycles),
            "frac",
        ),
        (
            "core.idle_frac",
            ratio(cores(|c| c.idle_cycles), core_cycles),
            "frac",
        ),
        (
            "core.load_latency",
            ratio(cores(|c| c.load_latency_sum), cores(|c| c.load_count)),
            "cycles",
        ),
        (
            "sched.tb_migrations",
            sum(&|s| s.tb_migrations) as f64,
            "count",
        ),
        (
            "l1.hit_rate",
            ratio(cores(|c| c.l1_hits), cores(|c| c.l1_lookups)),
            "frac",
        ),
        ("llc.lookups", slices(|s| s.lookups) as f64, "count"),
        (
            "llc.hit_rate",
            ratio(slices(|s| s.hits), slices(|s| s.lookups)),
            "frac",
        ),
        (
            "llc.t_cs",
            ratio(slices(|s| s.stall_cycles), slice_cycles),
            "frac",
        ),
        (
            "llc.req_q_rejects",
            slices(|s| s.req_q_rejects) as f64,
            "count",
        ),
        (
            "mshr.hit_rate",
            ratio(slices(|s| s.mshr_merges), slices(|s| s.misses)),
            "frac",
        ),
        (
            "mshr.entry_util",
            ratio(
                slices(|s| s.mshr_occupancy_integral),
                slice_cycles * mshr_entries,
            ),
            "frac",
        ),
        (
            "mshr.stall_entry_full",
            slices(|s| s.stall_entry_full) as f64,
            "count",
        ),
        (
            "mshr.stall_target_full",
            slices(|s| s.stall_target_full) as f64,
            "count",
        ),
        ("dram.bytes", dram_bytes as f64, "bytes"),
        (
            "dram.bw_gbs",
            if seconds > 0.0 {
                dram_bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        (
            "dram.row_hit_rate",
            ratio(
                channels(|c| c.row_hits),
                channels(|c| c.row_hits + c.row_misses + c.row_conflicts),
            ),
            "frac",
        ),
        (
            "kv.hit_rate",
            ratio(kv(|k| k.hits), kv(|k| k.lookups)),
            "frac",
        ),
        ("kv.merges", kv(|k| k.merges) as f64, "count"),
        ("kv.promotions", kv(|k| k.promotions) as f64, "count"),
        ("kv.evictions", kv(|k| k.evictions) as f64, "count"),
        (
            "serve.ttft_p50_cycles",
            nearest_rank(&ttft, 0.5) as f64,
            "cycles",
        ),
        (
            "serve.ttft_max_cycles",
            ttft.last().copied().unwrap_or(0) as f64,
            "cycles",
        ),
        (
            "serve.queue_delay_p50_cycles",
            nearest_rank(&queue, 0.5) as f64,
            "cycles",
        ),
        (
            "serve.slo_attainment",
            ratio(met, requests.len() as u64),
            "frac",
        ),
    ];
    for (name, value, unit) in values {
        out.push(Metric::new(format!("{name}.{suffix}"), value, unit));
    }
}
