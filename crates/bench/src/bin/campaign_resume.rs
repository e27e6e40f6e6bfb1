//! Resumable campaign runner: executes a JSON-defined [`Campaign`]
//! against a JSONL archive, skipping cells whose content address
//! ([`llamcat_bench::cell_spec_hash`]) is already archived and
//! appending the rest once all of them have finished. Cells archived
//! by an earlier invocation are never re-simulated, and the merged
//! stream is byte-identical to an uninterrupted run. A kill during
//! simulation loses every fresh cell of the invocation; a kill during
//! the append loses at most the torn last line. To checkpoint a long
//! grid, run it shard by shard with `--shard`.
//!
//! Usage:
//!
//! ```text
//! campaign_resume <campaign.json> <archive.jsonl> [--shard I/N] [--out FILE]
//! ```
//!
//! `--shard I/N` runs only cells with `index % N == I` (0-based),
//! letting N invocations split one grid — sequentially against one
//! archive, or independently against per-shard archives concatenated
//! before a final merge run. The merged JSONL goes to `--out` (or
//! stdout); warnings and a summary go to stderr.

use llamcat_bench::Campaign;

fn usage() -> ! {
    eprintln!("usage: campaign_resume <campaign.json> <archive.jsonl> [--shard I/N] [--out FILE]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut shard = (0usize, 1usize);
    let mut out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shard" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (i, n) = spec.split_once('/').unwrap_or_else(|| usage());
                shard = match (i.parse(), n.parse()) {
                    (Ok(i), Ok(n)) => (i, n),
                    _ => usage(),
                };
            }
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => positional.push(arg),
        }
    }
    let [campaign_path, archive_path] = positional.as_slice() else {
        usage();
    };

    let json = std::fs::read_to_string(campaign_path).unwrap_or_else(|e| {
        eprintln!("campaign_resume: read {campaign_path}: {e}");
        std::process::exit(1);
    });
    let campaign: Campaign = serde_json::from_str(&json).unwrap_or_else(|e| {
        eprintln!("campaign_resume: parse {campaign_path}: {e}");
        std::process::exit(1);
    });

    let report = campaign
        .run_resumable_shard(archive_path, shard.0, shard.1)
        .unwrap_or_else(|e| {
            eprintln!("campaign_resume: {e}");
            std::process::exit(1);
        });
    for w in &report.warnings {
        eprintln!("campaign_resume: {w}");
    }
    eprintln!(
        "campaign_resume: campaign `{}`: {} of {} cell record(s) merged",
        campaign.name,
        report.records.len(),
        campaign.cells().len()
    );

    match out {
        Some(path) => {
            let f = std::fs::File::create(&path).unwrap_or_else(|e| {
                eprintln!("campaign_resume: create {path}: {e}");
                std::process::exit(1);
            });
            report.write_jsonl(std::io::BufWriter::new(f))
        }
        None => report.write_jsonl(std::io::stdout().lock()),
    }
    .unwrap_or_else(|e| {
        eprintln!("campaign_resume: write merged JSONL: {e}");
        std::process::exit(1);
    });
}
