//! Golden-baseline regression test.
//!
//! One small configuration (Llama3 70b, seq_len 128, 16 MB L2) per
//! arbiter × throttle cell, with the cycle count and the
//! headline rates recorded from the seed implementation. Future
//! performance PRs diff against this table instead of merely checking
//! "it still completes"; an intentional behavior change must update the
//! table in the same commit and justify the delta.
//!
//! Regenerate the table after an intentional change with:
//! ```text
//! cargo test --test golden -- --ignored --nocapture
//! ```
//! and paste the printed rows over `GOLDEN`.

use llamcat::experiment::Experiment;
use llamcat::spec::{MixSpec, PolicySpec};
use llamcat_trace::workloads::WorkloadSpec;

const SEQ_LEN: usize = 128;

/// Arbiter and throttle component names of the 5 × 4 policy matrix;
/// cell `"<throttle>+<arb>"` resolves through [`PolicySpec::from_name`].
const ARBS: [&str; 5] = ["fifo", "B", "MA", "BMA", "cobrra"];
const THROTTLES: [&str; 4] = ["none", "dyncta", "lcs", "dynmg"];

/// Every matrix cell name, arbiter-major (the order of the tables).
fn matrix_names() -> Vec<String> {
    ARBS.iter()
        .flat_map(|arb| THROTTLES.iter().map(move |thr| format!("{thr}+{arb}")))
        .collect()
}

fn policy(name: &str) -> PolicySpec {
    PolicySpec::from_name(name).unwrap_or_else(|| panic!("`{name}` names a matrix cell"))
}

/// Recorded seed behavior: (`"<throttle>+<arb>"`, cycles, l2_hit_rate,
/// mshr_hit_rate). Rates are exact f64 values as printed by `{:?}`;
/// the simulator is deterministic, so equality is exact.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, f64, f64)] = &[
    ("none+fifo", 12269, 0.004743889989791629, 0.8609870882104501),
    ("dyncta+fifo", 12269, 0.004743889989791629, 0.8609870882104501),
    ("lcs+fifo", 12269, 0.004743889989791629, 0.8609870882104501),
    ("dynmg+fifo", 12668, 0.13891220916286878, 0.83947909049758),
    ("none+B", 12786, 0.2341198366954851, 0.8187590640065848),
    ("dyncta+B", 12786, 0.2341198366954851, 0.8187590640065848),
    ("lcs+B", 12786, 0.2341198366954851, 0.8187590640065848),
    ("dynmg+B", 14691, 0.3732421816437288, 0.7785485337032961),
    ("none+MA", 12376, 0.012585778070780018, 0.8600345968255895),
    ("dyncta+MA", 12376, 0.012585778070780018, 0.8600345968255895),
    ("lcs+MA", 12376, 0.012585778070780018, 0.8600345968255895),
    ("dynmg+MA", 12756, 0.1283430494621071, 0.8411417933602234),
    ("none+BMA", 12688, 0.008498753716327818, 0.8604313060334383),
    ("dyncta+BMA", 12688, 0.008498753716327818, 0.8604313060334383),
    ("lcs+BMA", 12688, 0.008498753716327818, 0.8604313060334383),
    ("dynmg+BMA", 12874, 0.12300717566877833, 0.8422458062307429),
    ("none+cobrra", 11966, 0.005396006954853408, 0.8609922237627343),
    ("dyncta+cobrra", 11966, 0.005396006954853408, 0.8609922237627343),
    ("lcs+cobrra", 11966, 0.005396006954853408, 0.8609922237627343),
    ("dynmg+cobrra", 12872, 0.17450769138684383, 0.8319254613348802),
];

fn run_cell(name: &str) -> (u64, f64, f64) {
    let report = Experiment::new(&WorkloadSpec::llama3_70b(), SEQ_LEN)
        .policy(policy(name))
        .run();
    assert!(report.completed, "golden cell {name} did not complete");
    (report.cycles, report.l2_hit_rate, report.mshr_hit_rate)
}

#[test]
fn golden_baselines_match_recorded_seed_behavior() {
    let names: Vec<&str> = GOLDEN.iter().map(|row| row.0).collect();
    assert_eq!(
        names,
        matrix_names(),
        "golden table must cover every policy cell"
    );
    for &(name, cycles, l2_hit, mshr_hit) in GOLDEN {
        let (got_cycles, got_l2, got_mshr) = run_cell(name);
        assert_eq!(
            got_cycles, cycles,
            "{name}: cycles changed (recorded {cycles}, got {got_cycles})"
        );
        assert_eq!(got_l2, l2_hit, "{name}: L2 hit rate changed");
        assert_eq!(got_mshr, mshr_hit, "{name}: MSHR hit rate changed");
    }
}

/// The policy registry's canonical names must match the paper-figure
/// labels this file pins — one name per named point of the ladder,
/// resolving to the same (arb, throttle) cell the golden table records.
#[test]
fn registry_labels_match_paper_figure_labels() {
    let figure_policies = [
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
    let names = PolicySpec::registry_names();
    assert_eq!(
        names.len(),
        figure_policies.len(),
        "registry must cover exactly the named figure points"
    );
    for (name, expected) in names.iter().zip(figure_policies) {
        assert_eq!(
            *name,
            expected.label(),
            "registry order must follow the figure ladder"
        );
        let spec = PolicySpec::from_name(name)
            .unwrap_or_else(|| panic!("registry name `{name}` must resolve"));
        assert_eq!(spec, expected, "`{name}` resolves to the wrong cell");
        assert_eq!(spec.label(), *name, "label/name round trip for `{name}`");
        // The golden table covers this cell: the registry points into
        // the pinned 5 × 4 matrix, not outside it.
        assert!(
            GOLDEN.iter().any(|&(cell, ..)| policy(cell) == spec),
            "registry name `{name}` must map into the golden matrix"
        );
    }
}

/// Prints the current table in `GOLDEN` literal syntax.
#[test]
#[ignore = "regenerates the golden table; run with --ignored --nocapture"]
fn print_golden_table() {
    for name in matrix_names() {
        let (cycles, l2, mshr) = run_cell(&name);
        println!("    ({name:?}, {cycles}, {l2:?}, {mshr:?}),");
    }
}

// ---------------------------------------------------------------------
// Serving-mix golden table: the multi-tenant analogue of `GOLDEN`.
// ---------------------------------------------------------------------

/// The canonical 2-request serving mix: the paper's decode Logit
/// co-scheduled (interleaved) with a chunked-prefill request on the
/// same machine — the smallest scenario where requests contend for
/// cores, MSHRs and the LLC at once.
fn canonical_mix() -> MixSpec {
    MixSpec::interleaved()
        .request(WorkloadSpec::llama3_70b(), SEQ_LEN, 0)
        .request(
            WorkloadSpec::PrefillLogit {
                heads: 8,
                group_size: 8,
                head_dim: 128,
                query_tokens: 4,
            },
            SEQ_LEN,
            0,
        )
}

/// Recorded mix behavior per policy cell: (`"<throttle>+<arb>"`, machine
/// cycles, decode-request cycles-to-completion, prefill-request
/// cycles-to-completion, l2_hit_rate). Exact values — the simulator is
/// deterministic and both step modes are byte-identical.
#[rustfmt::skip]
const GOLDEN_MIX: &[(&str, u64, u64, u64, f64)] = &[
    ("none+fifo", 37906, 37509, 37819, 0.5032210855560497),
    ("dyncta+fifo", 37906, 37509, 37819, 0.5032210855560497),
    ("lcs+fifo", 37906, 37509, 37819, 0.5032210855560497),
    ("dynmg+fifo", 37644, 36303, 37393, 0.39732885751994035),
    ("none+B", 39751, 39158, 39671, 0.6325438609074868),
    ("dyncta+B", 39751, 39158, 39671, 0.6325438609074868),
    ("lcs+B", 39751, 39158, 39671, 0.6325438609074868),
    ("dynmg+B", 40172, 39613, 39924, 0.5130677747528299),
    ("none+MA", 39055, 38349, 38786, 0.5695312836876374),
    ("dyncta+MA", 39055, 38349, 38786, 0.5695312836876374),
    ("lcs+MA", 39055, 38349, 38786, 0.5695312836876374),
    ("dynmg+MA", 38460, 37336, 38321, 0.5467932877420838),
    ("none+BMA", 36184, 35688, 36084, 0.4770563143608083),
    ("dyncta+BMA", 36184, 35688, 36084, 0.4770563143608083),
    ("lcs+BMA", 36184, 35688, 36084, 0.4770563143608083),
    ("dynmg+BMA", 39831, 37178, 39492, 0.5042102248317342),
    ("none+cobrra", 38918, 37849, 38321, 0.45194224178723524),
    ("dyncta+cobrra", 38918, 37849, 38321, 0.45194224178723524),
    ("lcs+cobrra", 38918, 37849, 38321, 0.45194224178723524),
    ("dynmg+cobrra", 39796, 39145, 39332, 0.46688846186938937),
];

fn run_mix_cell(name: &str) -> (u64, u64, u64, f64) {
    let report = Experiment::from_mix_spec(&canonical_mix())
        .expect("canonical mix is valid")
        .policy(policy(name))
        .run();
    assert!(report.completed, "golden mix cell {name} did not complete");
    assert_eq!(report.requests.len(), 2);
    assert!(report.requests.iter().all(|r| r.completed));
    report.stats.as_ref().unwrap().check_consistency().unwrap();
    (
        report.cycles,
        report.requests[0].cycles,
        report.requests[1].cycles,
        report.l2_hit_rate,
    )
}

#[test]
fn golden_mix_baselines_match_recorded_behavior() {
    let names: Vec<&str> = GOLDEN_MIX.iter().map(|row| row.0).collect();
    assert_eq!(
        names,
        matrix_names(),
        "golden mix table must cover every policy cell"
    );
    for &(name, cycles, decode_cycles, prefill_cycles, l2_hit) in GOLDEN_MIX {
        let (got_cycles, got_decode, got_prefill, got_l2) = run_mix_cell(name);
        assert_eq!(
            got_cycles, cycles,
            "{name}: mix cycles changed (recorded {cycles}, got {got_cycles})"
        );
        assert_eq!(
            got_decode, decode_cycles,
            "{name}: decode request completion changed"
        );
        assert_eq!(
            got_prefill, prefill_cycles,
            "{name}: prefill request completion changed"
        );
        assert_eq!(got_l2, l2_hit, "{name}: L2 hit rate changed");
    }
}

/// A single-request partitioned mix IS the solo experiment: it must
/// reproduce the recorded solo golden table bit-for-bit — the
/// no-behavioural-drift guarantee for every legacy experiment.
#[test]
fn single_request_mix_reproduces_solo_golden_table() {
    for &(name, cycles, l2_hit, mshr_hit) in GOLDEN {
        let spec = MixSpec::partitioned().request(WorkloadSpec::llama3_70b(), SEQ_LEN, 0);
        let report = Experiment::from_mix_spec(&spec)
            .expect("solo mix is valid")
            .policy(policy(name))
            .run();
        assert!(report.completed);
        assert_eq!(
            report.cycles, cycles,
            "{name}: single-request mix drifted from the solo golden cycles"
        );
        assert_eq!(report.l2_hit_rate, l2_hit);
        assert_eq!(report.mshr_hit_rate, mshr_hit);
        assert_eq!(report.requests.len(), 1);
        assert!(report.requests[0].completed);
    }
}

/// Prints the current mix table in `GOLDEN_MIX` literal syntax.
#[test]
#[ignore = "regenerates the golden mix table; run with --ignored --nocapture"]
fn print_golden_mix_table() {
    for name in matrix_names() {
        let (cycles, decode, prefill, l2) = run_mix_cell(&name);
        println!("    ({name:?}, {cycles}, {decode}, {prefill}, {l2:?}),");
    }
}
