//! The traced run: the campaign's warm-up-and-fork execution rebuilt
//! from the public functions of each layer, with a span around every
//! call, so host time can be split by layer.
//!
//! It mirrors what `Campaign::run` does for these workloads (all run
//! with `fork_scenarios`): scenarios build in parallel, then every cell
//! forks its scenario's snapshot in parallel, on the same contiguous
//! per-thread chunks as the campaign's rayon stand-in. Spans are kept in
//! memory and written out once, as Chrome trace-event JSON.
//!
//! Accounting is in thread-seconds. The executor never runs more than
//! `threads` threads at once, so the traced wall time times `threads`
//! is the capacity; each span's self time is its duration minus its
//! same-thread children, and whatever capacity no span claims (idle
//! workers, thread start-up) is `unattributed`.

use std::fmt::Write as _;
use std::time::Instant;

use llamcat::experiment::Experiment;
use llamcat::spec::{ArbSpec, ThrottleSpec};
use llamcat_bench::{Campaign, CampaignReport};
use llamcat_sim::prog::FlatProgram;
use llamcat_sim::serve::RequestInjector;
use llamcat_sim::stats::SimStats;
use llamcat_sim::system::{System, SystemState};

/// One timed call. Times are nanoseconds since the run's epoch.
pub struct Span {
    pub name: &'static str,
    pub tid: usize,
    pub start: u64,
    pub end: u64,
    /// The span that caused this one (across threads for a worker's
    /// root spans: the main thread's wait on the fan-out).
    pub parent: Option<usize>,
    /// The campaign cell (or, for scenario-build spans, the scenario)
    /// the span worked for.
    pub cell: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-thread span recorder.
struct Recorder {
    epoch: Instant,
    tid: usize,
    /// Parent of this thread's root spans, as a global span index.
    root_parent: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new(epoch: Instant, tid: usize, root_parent: Option<usize>) -> Self {
        Recorder {
            epoch,
            tid,
            root_parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            tid: self.tid,
            start,
            end: start,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Appends this recorder's spans to `all`, rebasing local parent
    /// indices onto global ones.
    fn merge_into(self, all: &mut Vec<Span>) {
        let offset = all.len();
        for mut s in self.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => self.root_parent,
            };
            all.push(s);
        }
    }
}

/// Runs `f` over `items` the way the campaign executor's rayon
/// stand-in does: one contiguous chunk per thread, at most `threads`
/// threads, inline on the calling thread when only one is needed.
/// Worker spans are returned in `workers`, their roots parented under
/// a `campaign.wait` span on `main`.
fn fan_out<T: Sync, R: Send>(
    main: &mut Recorder,
    workers: &mut Vec<Recorder>,
    items: &[T],
    threads: usize,
    f: impl Fn(&mut Recorder, usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| f(main, i, x))
            .collect();
    }
    let chunk = items.len().div_ceil(threads);
    let epoch = main.epoch;
    let wait = main.spans.len();
    main.span("campaign.wait", None, |_| {
        std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(c, part)| {
                    let f = &f;
                    s.spawn(move || {
                        let mut rec = Recorder::new(epoch, c + 1, Some(wait));
                        let out: Vec<R> = part
                            .iter()
                            .enumerate()
                            .map(|(j, x)| f(&mut rec, c * chunk + j, x))
                            .collect();
                        (out, rec)
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(items.len());
            for h in handles {
                let (out, rec) = h.join().expect("traced worker panicked");
                results.extend(out);
                workers.push(rec);
            }
            results
        })
    })
}

/// A built scenario: the pre-tick snapshot every cell forks.
struct Scenario {
    state: SystemState<llamcat::arbiter::ArbiterKind, llamcat::throttle::ThrottleKind>,
    budget: u64,
    blocks: usize,
    load_bytes: u64,
}

/// One cell's simulated outcome.
pub struct CellRun {
    pub stats: SimStats,
    pub completed: bool,
    /// Ticks executed (`System::step_counts`); the rest of the cell's
    /// cycles were fast-forwarded.
    pub ticks: u64,
}

/// Everything one traced run produced.
pub struct TracedRun {
    pub spans: Vec<Span>,
    pub cells: Vec<CellRun>,
    /// Thread blocks and load bytes over the workload's distinct
    /// scenarios.
    pub blocks: u64,
    pub load_bytes: u64,
    pub wall_ns: u64,
    pub threads: usize,
}

/// Builds one scenario through the layer functions, in the order
/// `Experiment::snapshot_scenario` calls them.
fn build_scenario(rec: &mut Recorder, s: usize, exp: &Experiment) -> Scenario {
    let cell = Some(s);
    let program = rec.span("trace.gen", cell, |_| exp.build_program());
    let (blocks, load_bytes) = (program.num_blocks(), program.total_load_bytes());
    // `System::new` builds its own flat program; this separate build
    // only times that step.
    rec.span("build.flat", cell, |_| {
        std::hint::black_box(FlatProgram::new(&program));
    });
    // The injector needs the program, which `System::new` consumes, so
    // attaching is timed in two parts: building it here, attaching below.
    let injector = rec.span("build.attach", cell, |_| {
        exp.serve.as_ref().map(|spec| {
            RequestInjector::new(
                &program,
                spec.request_arrivals(),
                spec.scheduler.to_sim(),
                exp.config.num_cores,
                exp.config.core.num_inst_windows,
            )
            .expect("validated serve scenario")
        })
    });
    let mut system = rec.span("build.system", cell, |_| {
        System::new(
            exp.config,
            program,
            &|_slice| ArbSpec::Fifo.build_kind(),
            ThrottleSpec::None.build_kind(),
        )
    });
    rec.span("build.attach", cell, |_| {
        if let Some(injector) = injector {
            system.attach_injector(injector);
        }
        if let Some(kv) = &exp.kv {
            system.attach_kv(kv.to_config());
        }
    });
    Scenario {
        state: SystemState::from(system),
        budget: exp
            .max_cycles
            .expect("benchmark campaigns set an explicit budget"),
        blocks,
        load_bytes,
    }
}

/// Runs the workload's campaigns once, in order, under tracing.
/// `reports` are untraced runs of the same campaigns; each campaign's
/// traced timeline ends with its `CampaignReport::jsonl`, the call users
/// make after `Campaign::run`.
pub fn run(campaigns: &[Campaign], reports: &[CampaignReport], threads: usize) -> TracedRun {
    let epoch = Instant::now();
    let mut main = Recorder::new(epoch, 0, None);
    let mut workers = Vec::new();
    let mut cells = Vec::new();
    let (mut blocks, mut load_bytes, mut n_scenarios) = (0, 0, 0);
    main.span("campaign.run", None, |main| {
        for (campaign, report) in campaigns.iter().zip(reports) {
            // Span cell ids count across the workload's campaigns.
            let (first_cell, first_scenario) = (cells.len(), n_scenarios);
            let (specs, reps) = main.span("campaign.plan", None, |_| {
                let specs = campaign.cells();
                let n_pol = campaign.policies.len();
                let reps: Vec<Experiment> = specs
                    .iter()
                    .step_by(n_pol)
                    .map(|c| c.experiment(campaign))
                    .collect();
                (specs, reps)
            });
            let scenarios = fan_out(main, &mut workers, &reps, threads, |rec, s, exp| {
                let s = first_scenario + s;
                rec.span("scenario", Some(s), |rec| build_scenario(rec, s, exp))
            });
            let n_pol = campaign.policies.len();
            let runs = fan_out(main, &mut workers, &specs, threads, |rec, i, cell| {
                rec.span("cell", Some(first_cell + i), |rec| {
                    let id = Some(first_cell + i);
                    let exp = cell.experiment(campaign);
                    let base = &scenarios[i / n_pol];
                    let mut system = rec.span("fork", id, |_| {
                        let mut system = base.state.fork();
                        let arb = exp.policy.arb.clone();
                        system.replace_policies(
                            &move |_slice| arb.build_kind(),
                            exp.policy.throttle.build_kind(),
                        );
                        system
                    });
                    let outcome = rec.span("tick", id, |_| {
                        system.advance_with_mode(base.budget, exp.step_mode)
                    });
                    let stats = rec.span("stats", id, |_| system.collect_stats());
                    let (ticks, _skipped) = system.step_counts();
                    CellRun {
                        stats,
                        completed: outcome.is_complete(),
                        ticks,
                    }
                })
            });
            main.span("campaign.jsonl", None, |_| {
                std::hint::black_box(report.jsonl());
            });
            n_scenarios += scenarios.len();
            blocks += scenarios.iter().map(|s| s.blocks as u64).sum::<u64>();
            load_bytes += scenarios.iter().map(|s| s.load_bytes).sum::<u64>();
            cells.extend(runs);
        }
    });
    let wall_ns = main.spans[0].dur();
    let mut spans = Vec::new();
    main.merge_into(&mut spans);
    for w in workers {
        w.merge_into(&mut spans);
    }
    TracedRun {
        spans,
        cells,
        blocks,
        load_bytes,
        wall_ns,
        threads,
    }
}

/// The layers host time is charged to, named as their per-layer
/// metrics.
pub const LAYERS: [&str; 9] = [
    "trace.gen_s",
    "build.flat_s",
    "build.system_s",
    "build.attach_s",
    "fork.s",
    "tick.run_s",
    "stats.collect_s",
    "campaign.self_s",
    "campaign.jsonl_s",
];

/// The layer a span's self time is charged to; `None` for idle time.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "trace.gen" => "trace.gen_s",
        "build.flat" => "build.flat_s",
        "build.system" => "build.system_s",
        "build.attach" => "build.attach_s",
        "fork" => "fork.s",
        "tick" => "tick.run_s",
        "stats" => "stats.collect_s",
        "campaign.jsonl" => "campaign.jsonl_s",
        // Waiting for workers is idle capacity, not work.
        "campaign.wait" => return None,
        // The executor's own work: planning, per-scenario and per-cell
        // bookkeeping outside the timed layer calls.
        _ => "campaign.self_s",
    })
}

impl TracedRun {
    /// Self time (ns) charged to each of [`LAYERS`]. A span's self time
    /// is its duration minus its same-thread children's.
    pub fn layer_self_ns(&self) -> [u64; LAYERS.len()] {
        let spans = &self.spans;
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| spans[p].tid == s.tid) {
                child[p] += s.dur();
            }
        }
        let mut out = [0; LAYERS.len()];
        for (s, c) in spans.iter().zip(child) {
            if let Some(layer) = layer_of(s.name) {
                let k = LAYERS
                    .iter()
                    .position(|&l| l == layer)
                    .expect("listed layer");
                out[k] += s.dur().saturating_sub(c);
            }
        }
        out
    }
}

/// The spans as Chrome trace-event JSON (opens in Perfetto).
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"perfbench {workload}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"cell\":{}}}}}",
            s.name,
            layer_of(s.name).unwrap_or("idle"),
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            opt(s.parent),
            opt(s.cell),
        );
    }
    out.push_str("\n]}\n");
    out
}
