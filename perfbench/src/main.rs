//! The repository benchmark. Runs one named workload through the public
//! campaign API, checks every result, and prints its metrics by name and
//! unit; the last line of stdout is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes a traced run and reports per-layer metrics instead.
//! Workloads, metrics and the recorded baseline are described in
//! `perfbench/DESIGN.md`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode-grid --seed 1 --seconds 30 --trace 0 [--tiny]
//! ```

mod gate;
mod modelled;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use llamcat::experiment::geomean;
use llamcat::spec::PolicySpec;
use llamcat_bench::{Campaign, CampaignReport};

use gate::Gate;
use workloads::Workload;

/// Fewest timed campaign runs, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = workloads::build(&args.workload, args.seed, args.tiny)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = header(&args, &w, threads);
    println!(
        "# perfbench {} ({} campaign(s) per run)",
        w.name,
        w.campaigns.len()
    );
    println!("header: {header}");
    if !w.seeded {
        println!(
            "inputs: deterministic; --seed {} does not change them",
            args.seed
        );
    }

    let mut gate = Gate::default();
    let metrics = if args.trace {
        per_layer(&w, &args, threads, &mut gate)?
    } else {
        end_to_end(&w, &args, &mut gate)?
    };

    for m in &metrics {
        println!("{:<40} {:>16} {}", m.name, fmt_value(m.value), m.unit);
    }
    for e in &gate.errors {
        println!("FAILED {e}");
    }
    println!(
        "correctness: {} of {} cells failed",
        gate.failed, gate.attempted
    );
    let json = result_json(&gate, &metrics);
    record_history(&header, &json, &w, args.trace);
    println!("{json}");
    Ok(gate.failed == 0)
}

/// Shortest round-trip digits, so the printed value is the measured one.
fn fmt_value(v: f64) -> String {
    format!("{v}")
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs the workload's campaigns (`Campaign::run` then
/// `CampaignReport::jsonl` for each, as the figure benches do) until
/// `seconds` have passed and at least [`MIN_REPS`] runs are done,
/// gating every run. With `setup`, each run is preceded by one timed
/// build of every scenario with `Experiment::snapshot_scenario`;
/// interleaving spreads the set-up samples over the same stretch of
/// host noise as the campaign runs.
fn campaign_runs(w: &Workload, seconds: f64, setup: bool, gate: &mut Gate) -> Result<Runs, String> {
    let scenarios: Vec<_> = w.campaigns.iter().flat_map(scenario_experiments).collect();
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        if setup {
            let t = Instant::now();
            for e in &scenarios {
                std::hint::black_box(e.snapshot_scenario().map_err(|e| e.to_string())?);
            }
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let mut runs = Vec::with_capacity(w.campaigns.len());
        for c in &w.campaigns {
            let report = c.run()?;
            let jsonl = report.jsonl();
            runs.push((report, jsonl));
        }
        walls.push(t.elapsed().as_secs_f64());
        for (k, (report, jsonl)) in runs.iter().enumerate() {
            gate.campaign(k, report, jsonl, w.expect);
        }
        if walls.len() == 1 {
            // The peak over one set-up and one campaign run. Later runs
            // repeat the same work; what the allocator keeps between
            // them would only add noise.
            peak_rss_mib = peak_rss()?;
        }
        if walls.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= seconds {
            let (reports, jsonl) = runs.into_iter().unzip();
            return Ok(Runs {
                setups,
                scenarios: scenarios.len(),
                walls,
                reports,
                jsonl,
                peak_rss_mib,
            });
        }
    }
}

/// The timed campaign runs of one benchmark run.
struct Runs {
    /// Set-up time before each run (empty without set-up timing).
    setups: Vec<f64>,
    scenarios: usize,
    /// Wall time of each run.
    walls: Vec<f64>,
    /// The last run's reports and their JSONL, one per campaign.
    reports: Vec<CampaignReport>,
    jsonl: Vec<String>,
    peak_rss_mib: f64,
}

/// Geomean over scenarios of `cycles(unoptimized) / cycles(dynmg+BMA)`.
fn sim_speedup(reports: &[CampaignReport]) -> Result<f64, String> {
    let mut ratios = Vec::new();
    for report in reports {
        let column = |p: PolicySpec| {
            report
                .campaign
                .policies
                .iter()
                .position(|q| *q == p)
                .map(|i| report.policy_records(i))
                .ok_or_else(|| format!("campaign has no {} column", p.label()))
        };
        let base = column(PolicySpec::unoptimized())?;
        let best = column(PolicySpec::dynmg_bma())?;
        ratios.extend(
            base.iter()
                .zip(&best)
                .map(|(b, o)| b.report.cycles as f64 / o.report.cycles.max(1) as f64),
        );
    }
    Ok(geomean(&ratios))
}

/// The policy-free scenarios of a campaign, one experiment each.
fn scenario_experiments(c: &Campaign) -> Vec<llamcat::experiment::Experiment> {
    c.cells()
        .iter()
        .step_by(c.policies.len())
        .map(|cell| cell.experiment(c))
        .collect()
}

fn print_digest(jsonl: &[String]) {
    for j in jsonl {
        println!(
            "jsonl: {} records, {} bytes, fnv1a64 {:016x}",
            j.lines().count(),
            j.len(),
            gate::fnv1a(j.as_bytes())
        );
    }
}

fn end_to_end(w: &Workload, args: &Args, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let Runs {
        setups,
        scenarios,
        walls,
        reports,
        jsonl,
        peak_rss_mib,
    } = campaign_runs(w, args.seconds, true, gate)?;
    let wall = median(&walls);
    let records: Vec<_> = reports.iter().flat_map(|r| &r.records).collect();
    let cells = records.len() as f64;
    let cycles: u64 = records.iter().map(|r| r.report.cycles).sum();
    let speedup = sim_speedup(&reports)?;
    print_digest(&jsonl);
    println!(
        "runs: {} campaign runs of {} cells; wall_s is their median (min {:.4}, max {:.4}); \
         setup_s is the median of {} builds of {} scenario(s)",
        walls.len(),
        records.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        setups.len(),
        scenarios
    );
    println!(
        "sim_speedup: {speedup:.4}x dynmg+BMA over unoptimized (simulated cycles, geomean \
         over {} scenario(s)). {}",
        scenarios, w.speedup_note
    );
    Ok(vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("cells_per_s", cells / wall, "1/s"),
        Metric::new("sim_mcps", cycles as f64 / 1e6 / wall, "Mcycles/s"),
        Metric::new("peak_rss_mb", peak_rss_mib, "MiB"),
        Metric::new("sim_speedup", speedup, "x"),
    ])
}

fn per_layer(
    w: &Workload,
    args: &Args,
    threads: usize,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    // Untraced reference runs, then traced runs, half the time each.
    let Runs {
        walls,
        reports,
        jsonl,
        ..
    } = campaign_runs(w, args.seconds / 2.0, false, gate)?;
    print_digest(&jsonl);
    let records: Vec<_> = reports.iter().flat_map(|r| &r.records).collect();
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        runs.push(traced::run(&w.campaigns, &reports, threads));
    }

    // Every traced cell must pass the gate and reproduce the untraced
    // run's statistics exactly: the JSONL records are derived from
    // those statistics and the cell spec alone.
    let stats_json =
        |s: &llamcat_sim::stats::SimStats| serde_json::to_string(s).expect("statistics serialize");
    let mut traced_cells = 0;
    let mut traced_failed = 0;
    for run in &runs {
        for (i, cell) in run.cells.iter().enumerate() {
            let untraced = records[i].report.stats.as_ref().map(stats_json);
            let check = gate::check_cell(w.expect, cell.completed, &cell.stats).and_then(|()| {
                if untraced == Some(stats_json(&cell.stats)) {
                    Ok(())
                } else {
                    Err("traced statistics differ from the untraced run".into())
                }
            });
            traced_cells += 1;
            traced_failed += usize::from(check.is_err());
            gate.cell(|| format!("traced {}", gate::cell_label(records[i])), check);
        }
    }
    let stats_jsonl: String = runs[0]
        .cells
        .iter()
        .map(|c| stats_json(&c.stats) + "\n")
        .collect();
    println!(
        "traced stats jsonl: {} records, fnv1a64 {:016x}; {traced_failed} of {traced_cells} traced \
         cells differ from the untraced run or fail the gate",
        runs[0].cells.len(),
        gate::fnv1a(stats_jsonl.as_bytes()),
    );

    // Per-layer numbers come from the traced run of median wall time.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&i| runs[i].wall_ns);
    let run = &runs[order[order.len() / 2]];
    let traced_walls: Vec<f64> = runs.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let untraced_wall = median(&walls);
    let traced_wall = median(&traced_walls);

    let layer_ns = run.layer_self_ns();
    let layer = |name: &str| {
        layer_ns[traced::LAYERS
            .iter()
            .position(|&l| l == name)
            .expect("known layer")]
    };
    let busy: u64 = layer_ns.iter().sum();
    let capacity = run.wall_ns * run.threads as u64;
    let unattributed = capacity.saturating_sub(busy);

    let sum = |f: &dyn Fn(&traced::CellRun) -> u64| run.cells.iter().map(f).sum::<u64>();
    let cycles = sum(&|c| c.stats.cycles);
    let ticks = sum(&|c| c.ticks);
    let lookups = sum(&|c| c.stats.l2_lookups());
    let tick_ns = layer("tick.run_s") as f64;
    let mut cell_ns: Vec<u64> = run
        .spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.dur())
        .collect();
    cell_ns.sort_unstable();
    let n = cell_ns.len();
    // The highest percentile with at least ten cells beyond it; the
    // median when the workload has fewer than twenty cells.
    let tail_pct = (100.0 - 1000.0 / n.max(1) as f64).floor().max(50.0);
    let forks = run.spans.iter().filter(|s| s.name == "fork").count();

    println!(
        "layer shares of traced capacity ({} thread(s) x {:.4} s traced wall; thread-seconds):",
        run.threads,
        run.wall_ns as f64 / 1e9
    );
    for (k, &ns) in traced::LAYERS.iter().zip(&layer_ns) {
        println!(
            "  {k:<18} {:>10.4} s  {:>6.2}%",
            ns as f64 / 1e9,
            100.0 * ns as f64 / capacity as f64
        );
    }
    println!(
        "  {:<18} {:>10.4} s  {:>6.2}%  (idle workers, thread start-up)",
        "unattributed",
        unattributed as f64 / 1e9,
        100.0 * unattributed as f64 / capacity as f64
    );
    println!(
        "  self times + unattributed = {:.4} s = threads x traced wall",
        (busy + unattributed) as f64 / 1e9
    );
    println!(
        "cells: {n}; campaign.cell_tail_s is the p{tail_pct} cell time, the highest percentile \
         with at least ten cells beyond it (the median below twenty cells)"
    );
    println!(
        "tracing overhead: traced wall {traced_wall:.4} s (median of {}) vs untraced {untraced_wall:.4} s (median of {})",
        runs.len(),
        walls.len()
    );

    let s = |ns: u64| ns as f64 / 1e9;
    let mut out = vec![
        Metric::new("trace.gen_s", s(layer("trace.gen_s")), "s"),
        Metric::new("trace.blocks", run.blocks as f64, "count"),
        Metric::new("trace.load_mb", run.load_bytes as f64 / 1048576.0, "MiB"),
        Metric::new("build.flat_s", s(layer("build.flat_s")), "s"),
        Metric::new("build.system_s", s(layer("build.system_s")), "s"),
        Metric::new("build.attach_s", s(layer("build.attach_s")), "s"),
        Metric::new("fork.s", s(layer("fork.s")), "s"),
        Metric::new("fork.count", forks as f64, "count"),
        Metric::new("tick.run_s", s(layer("tick.run_s")), "s"),
        Metric::new("tick.ns_per_cycle", tick_ns / cycles.max(1) as f64, "ns"),
        Metric::new(
            "tick.ns_per_llc_lookup",
            tick_ns / lookups.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "tick.executed_frac",
            ticks as f64 / cycles.max(1) as f64,
            "frac",
        ),
        Metric::new(
            "tick.ns_per_executed_cycle",
            tick_ns / ticks.max(1) as f64,
            "ns",
        ),
        Metric::new("stats.collect_s", s(layer("stats.collect_s")), "s"),
        Metric::new("campaign.self_s", s(layer("campaign.self_s")), "s"),
        Metric::new("campaign.jsonl_s", s(layer("campaign.jsonl_s")), "s"),
        Metric::new(
            "campaign.parallel_eff",
            busy as f64 / capacity as f64,
            "frac",
        ),
        Metric::new(
            "campaign.cell_p50_s",
            s(modelled::nearest_rank(&cell_ns, 0.5)),
            "s",
        ),
        Metric::new(
            "campaign.cell_tail_s",
            s(modelled::nearest_rank(&cell_ns, tail_pct / 100.0)),
            "s",
        ),
        Metric::new("campaign.cells", traced_cells as f64, "count"),
        Metric::new("campaign.cells_failed", traced_failed as f64, "count"),
        Metric::new("traced.wall_s", s(run.wall_ns), "s"),
        Metric::new("traced.threads", run.threads as f64, "count"),
        Metric::new("unattributed_s", s(unattributed), "s"),
        Metric::new(
            "tracing.overhead",
            traced_wall / untraced_wall - 1.0,
            "frac",
        ),
    ];

    let cells: Vec<_> = records
        .iter()
        .zip(&run.cells)
        .map(|(rec, r)| (rec.cell.policy.clone(), &r.stats))
        .collect();
    let slo = w
        .campaigns
        .iter()
        .find_map(|c| c.serves.first().and_then(|s| s.slo));
    for (policy, suffix) in modelled::policies() {
        modelled::push(&mut out, &cells, &policy, suffix, slo);
    }

    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced::chrome_json(&run.spans, w.name)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "chrome trace: {} ({} spans)",
        path.display(),
        run.spans.len()
    );
    Ok(out)
}

/// Peak resident set of this process so far, in MiB, from
/// `/proc/self/status`.
fn peak_rss() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where traces and the result history go (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Digest of the sources the benchmark was built from: identifies the
/// code under test where there is no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && name != "out" {
                    walk(&p, files);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"] {
        let p = root.join(top);
        if p.is_dir() {
            walk(&p, &mut files);
        } else if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.push(0);
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", gate::fnv1a(&bytes))
}

/// The commit under test, when the sources are a git checkout.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Fields that must match for two results to be comparable.
const LIKE_FOR_LIKE: [&str; 6] = ["workload", "trace", "tiny", "profile", "host", "threads"];

/// The like-for-like header every result carries, as a JSON object.
fn header(args: &Args, w: &Workload, threads: usize) -> String {
    let root = repo_root();
    let fields = [
        ("workload", format!("\"{}\"", w.name)),
        ("trace", u8::from(args.trace).to_string()),
        ("tiny", args.tiny.to_string()),
        ("profile", format!("\"{}\"", llamcat_bench::bench_profile())),
        ("host", format!("\"{}\"", llamcat_bench::host_note())),
        ("threads", threads.to_string()),
        ("seed", args.seed.to_string()),
        ("seeded", w.seeded.to_string()),
        ("seconds", fmt_value(args.seconds)),
        ("commit", format!("\"{}\"", commit(&root))),
        ("source", format!("\"{}\"", source_digest(&root))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Value of a flat `"key": value` field in a header line.
fn header_field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    let start = header.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &header[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Appends this result to `perfbench/out/results.jsonl` and says
/// whether it is comparable with the previous result of the same
/// workload and mode: results whose like-for-like fields differ are
/// flagged, not compared.
fn record_history(header: &str, result: &str, w: &Workload, trace: bool) {
    let dir = out_dir();
    let path = dir.join("results.jsonl");
    let previous = std::fs::read_to_string(&path).unwrap_or_default();
    let mode = u8::from(trace).to_string();
    let prev = previous.lines().rev().find_map(|l| {
        let h = l.strip_prefix("{\"header\": ")?;
        (header_field(h, "workload") == Some(&format!("\"{}\"", w.name))
            && header_field(h, "trace") == Some(mode.as_str()))
        .then_some(h)
    });
    match prev {
        None => println!("comparable: no previous result of this workload and mode"),
        Some(p) => {
            let differ: Vec<&str> = LIKE_FOR_LIKE
                .iter()
                .copied()
                .filter(|k| header_field(p, k) != header_field(header, k))
                .collect();
            if differ.is_empty() {
                println!(
                    "comparable: yes, with the previous result in {}",
                    path.display()
                );
            } else {
                println!(
                    "comparable: NO, the previous result in {} differs in {}",
                    path.display(),
                    differ.join(", ")
                );
            }
        }
    }
    let line = format!("{{\"header\": {header}, \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(line.as_bytes())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not append to {}: {e}", path.display());
    }
}

/// The final stdout line.
fn result_json(gate: &Gate, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failed == 0,
        gate.attempted,
        gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            if m.value.is_finite() {
                fmt_value(m.value)
            } else {
                "null".into()
            },
            m.unit
        );
    }
    out.push_str("}}");
    out
}
