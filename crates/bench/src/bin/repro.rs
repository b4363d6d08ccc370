//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--json DIR] [--check DIR] [--no-coalescing]
//!       [--seed N] [--workers N] [--list] [IDS...]
//!
//!   IDS       experiment ids to run ("table1", "fig5a", ...; default: all)
//!   --full    use the Full fidelity (the EXPERIMENTS.md numbers); default
//!             is Quick
//!   --json DIR   additionally write each figure as DIR/<id>.json, stamped
//!             with a provenance block (config digest, seed, engine mode,
//!             wall time, engine counters)
//!   --check DIR  regenerate and diff against recorded goldens DIR/<id>.json;
//!             exit nonzero with a per-series report on any mismatch
//!   --no-coalescing  force the per-fragment wire path (A/B harness for the
//!             fragment-train fast path; outputs must be bit-identical)
//!   --seed N  offset every experiment's canonical seed by N (robustness
//!             sweeps; N=0 reproduces the recorded goldens)
//!   --workers N  cap the experiment-scheduler worker pool
//!   --list    print machine-readable `id<TAB>description` lines and exit
//! ```
//!
//! All flags are parsed into one [`RunConfig`] before anything runs, so
//! flag order never matters. Unknown or duplicate flags exit 2.

use bench::catalog;
use ibwan_core::runner::{self, RunOutcome};
use ibwan_core::{Fidelity, RunConfig};
use std::io::Write as _;

/// Everything the command line resolves to, before any experiment runs.
struct Cli {
    cfg: RunConfig,
    json_dir: Option<String>,
    check_dir: Option<String>,
    list: bool,
    ids: Vec<String>,
}

fn usage_line() -> &'static str {
    "usage: repro [--full] [--json DIR] [--check DIR] [--no-coalescing]\n\
     \x20            [--seed N] [--workers N] [--list] [IDS...]"
}

/// Exit 2 with a parse error — bad usage, not a failed experiment.
fn bad_usage(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage_line());
    std::process::exit(2);
}

/// Stdout write guard: a closed pipe (`repro --help | head`) means the
/// reader has everything it wants — exit quietly instead of panicking.
fn pipe_ok(result: std::io::Result<()>) {
    if result.is_err() {
        std::process::exit(0);
    }
}

fn parse_cli(args: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli {
        cfg: RunConfig::default(),
        json_dir: None,
        check_dir: None,
        list: false,
        ids: Vec::new(),
    };
    let mut seen: Vec<String> = Vec::new();
    let mut args = args.peekable();
    let once = |seen: &mut Vec<String>, flag: &str| {
        if seen.iter().any(|s| s == flag) {
            bad_usage(&format!("duplicate flag {flag}"));
        }
        seen.push(flag.to_string());
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => {
                once(&mut seen, "--full");
                cli.cfg.fidelity = Fidelity::Full;
            }
            "--json" => {
                once(&mut seen, "--json");
                cli.json_dir = Some(
                    args.next()
                        .unwrap_or_else(|| bad_usage("--json needs a directory")),
                );
            }
            "--check" => {
                once(&mut seen, "--check");
                cli.check_dir = Some(
                    args.next()
                        .unwrap_or_else(|| bad_usage("--check needs a directory")),
                );
            }
            "--no-coalescing" => {
                once(&mut seen, "--no-coalescing");
                cli.cfg.coalescing = false;
            }
            "--seed" => {
                once(&mut seen, "--seed");
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--seed needs a number"));
                cli.cfg.seed = v
                    .parse()
                    .unwrap_or_else(|_| bad_usage(&format!("--seed: not a number: {v:?}")));
            }
            "--workers" => {
                once(&mut seen, "--workers");
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--workers needs a count"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| bad_usage(&format!("--workers: not a count: {v:?}")));
                if n == 0 {
                    bad_usage("--workers must be at least 1");
                }
                cli.cfg.workers = Some(n);
            }
            "--list" => {
                once(&mut seen, "--list");
                cli.list = true;
            }
            "--help" | "-h" => {
                // Help goes to stdout: `repro --help | grep fig` must work.
                let stdout = std::io::stdout();
                let mut out = stdout.lock();
                pipe_ok(writeln!(out, "{}", usage_line()));
                pipe_ok(writeln!(out, "experiments:"));
                for e in catalog() {
                    pipe_ok(writeln!(
                        out,
                        "  {:8} {:9} {}",
                        e.id,
                        format!("[{}]", e.paper_ref),
                        e.description
                    ));
                }
                std::process::exit(0);
            }
            other if other.starts_with('-') => bad_usage(&format!("unknown flag {other:?}")),
            other => cli.ids.push(other.to_string()),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli(std::env::args().skip(1));

    if cli.list {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for e in catalog() {
            pipe_ok(writeln!(out, "{}\t{}", e.id, e.description));
        }
        return;
    }

    let experiments = catalog();
    for id in &cli.ids {
        if !experiments.iter().any(|e| e.id == id) {
            eprintln!("repro: unknown experiment id {id:?} (see --help)");
            std::process::exit(2);
        }
    }
    let selected: Vec<_> = experiments
        .into_iter()
        .filter(|e| cli.ids.is_empty() || cli.ids.iter().any(|i| i == e.id))
        .collect();

    if let Some(dir) = &cli.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    // Progress streams to stderr so stdout stays pipeable table output.
    let outcomes = runner::run_jobs(selected, &cli.cfg, |line| eprintln!("{line}"));

    if let Some(dir) = &cli.check_dir {
        check_goldens(dir, &outcomes, &cli.cfg);
        return;
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // All JSON files land before any table output: a closed stdout pipe
    // (`repro --json out/ | head`) must not drop requested files.
    if let Some(dir) = &cli.json_dir {
        for o in &outcomes {
            let json = runner::stamped_value(&o.figure, &o.provenance).to_pretty();
            std::fs::write(format!("{dir}/{}.json", o.figure.id), json).expect("write json");
        }
    }
    for o in &outcomes {
        pipe_ok(writeln!(out, "{}", o.figure.to_table()));
        pipe_ok(writeln!(
            out,
            "# regenerated in {:.1}s wall clock at {} fidelity (config {})\n",
            o.provenance.wall_secs, o.provenance.fidelity, o.provenance.config_digest
        ));
    }
}

/// `--check DIR`: diff every outcome against its recorded golden; exit 1
/// with per-series detail on any mismatch.
fn check_goldens(dir: &str, outcomes: &[RunOutcome], cfg: &RunConfig) {
    let dir = std::path::Path::new(dir);
    // Ignore stdout pipe errors here (unlike `pipe_ok`): the exit code is
    // the contract, and an early exit 0 would mask a golden failure.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failed = 0usize;
    for o in outcomes {
        let diffs = runner::check_against(dir, o);
        if diffs.is_empty() {
            let _ = writeln!(out, "OK   {}", o.id);
        } else {
            failed += 1;
            let _ = writeln!(out, "FAIL {} ({} discrepancies)", o.id, diffs.len());
            for d in &diffs {
                let _ = writeln!(out, "     {d}");
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "repro --check: {failed}/{} figures diverged from {} (config {})",
            outcomes.len(),
            dir.display(),
            cfg.digest()
        );
        std::process::exit(1);
    }
    let _ = writeln!(
        out,
        "repro --check: all {} figures bit-identical to {}",
        outcomes.len(),
        dir.display()
    );
}
