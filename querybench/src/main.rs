//! `querybench` — what-if query benchmark.
//!
//! Generates a seeded stream of `Scenario` JSON queries for one workload and
//! feeds them, one at a time from one client thread (a closed loop), to
//! `Scenario::from_json` and `Scenario::run(&RunConfig::default())` — the
//! path `ibwan-sim` takes, Auto partitioning and coalescing on. Every layer
//! is measured from outside: host time around those two calls and the
//! engine's per-thread run tally around each query.
//!
//! ```text
//! querybench --workload NAME --seed N --seconds S --trace 0|1
//!            [--spans PATH] [--fault digest|bit]
//! querybench --workload NAME --seed N --dry-run [--rounds R]
//!
//!   --workload   verbs-sweep | mpi-apps | sockets-storage
//!   --seed       stream seed: the same seed issues the same queries
//!   --seconds    measure whole rounds until this much wall time has passed
//!   --trace 1    run every round untraced and then traced, record spans,
//!                write them to PATH (default out/spans-<workload>-<seed>.jsonl
//!                beside this package), and report per-layer metrics
//!   --fault      self-test of the correctness gate: perturb the reference
//!                digest, or flip one bit of one checked answer
//!   --dry-run    print the stream's queries as JSON lines and exit; each
//!                line is a scenario file `ibwan-sim` runs alone
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). Lines before it are a readable report.

mod exec;
mod gen;
mod layers;
mod probe;

use exec::{issue, reference_config, same_answer, Sample, CANONICAL_SEED};
use gen::{stream, Mix, Query};
use ibwan_core::calibration::run_calibration;
use ibwan_core::RunConfig;
use minijson::{obj, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Setup is repeated this many times per run; its median is `setup_s`.
const SETUP_REPS: usize = 15;

/// Inside a round, the host-speed probe runs again once this much time has
/// passed since its last run.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Serial reference re-runs get this share of the measured seconds.
const CHECK_SHARE: f64 = 0.1;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Fault {
    Digest,
    Bit,
}

struct Args {
    mix: Mix,
    seed: u64,
    seconds: u64,
    trace: bool,
    dry_run: bool,
    rounds: Option<usize>,
    spans: Option<PathBuf>,
    fault: Option<Fault>,
}

fn usage(msg: &str) -> ! {
    eprintln!("querybench: {msg}");
    eprintln!(
        "usage: querybench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH] [--fault digest|bit]"
    );
    eprintln!("       querybench --workload NAME --seed N --dry-run [--rounds R]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut mix = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dry_run = false;
    let mut rounds = None;
    let mut spans = None;
    let mut fault = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--dry-run" {
            dry_run = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, got {v:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                mix = Some(
                    Mix::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(number(&value)),
            "--seconds" => seconds = Some(number(&value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--rounds" => rounds = Some(number(&value) as usize),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--fault" => {
                fault = Some(match value.as_str() {
                    "digest" => Fault::Digest,
                    "bit" => Fault::Bit,
                    _ => usage("--fault takes digest or bit"),
                })
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    let mix = mix.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    if dry_run {
        return Args {
            mix,
            seed,
            seconds: 0,
            trace: false,
            dry_run,
            rounds,
            spans,
            fault,
        };
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Args {
        mix,
        seed,
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        dry_run,
        rounds,
        spans,
        fault,
    }
}

/// Rounds to generate for a run of `seconds`: comfortably more than the
/// loop can issue today, so a faster program still measures the full time.
fn rounds_for(mix: Mix, seconds: u64) -> usize {
    let per_second = match mix {
        Mix::VerbsSweep => 4,
        Mix::MpiApps => 2,
        Mix::SocketsStorage => 16,
    };
    (seconds as usize * per_second).clamp(1, mix.max_rounds())
}

/// Build the stream and check it: the same seed must yield byte-identical
/// queries, and every query must survive `to_json` → `from_json` → `to_json`
/// unchanged. Returns the stream or the first violation.
fn setup(mix: Mix, seed: u64, rounds: usize) -> Result<Vec<Query>, String> {
    let queries = stream(mix, seed, rounds);
    let again = stream(mix, seed, rounds);
    if queries
        .iter()
        .map(|q| &q.json)
        .ne(again.iter().map(|q| &q.json))
    {
        return Err("the same seed generated two different streams".into());
    }
    for (i, q) in queries.iter().enumerate() {
        let s = ibwan_core::scenario::Scenario::from_json(&q.json)
            .map_err(|e| format!("query {i} does not parse: {e}"))?;
        if s.to_json() != q.json {
            return Err(format!("query {i} changed across a JSON round trip"));
        }
    }
    Ok(queries)
}

/// Process CPU time (all threads), from `CLOCK_PROCESS_CPUTIME_ID`.
fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of the process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// What the timed loop measured.
struct Timed {
    samples: Vec<Sample>,
    /// Wall time of the untraced queries, probe runs left out.
    busy: Duration,
    /// Process CPU time (all threads) over the same stretches.
    cpu: Duration,
    wall: Duration,
    peak_rss_mb: f64,
    probe: probe::Probe,
}

/// Issue whole rounds until `seconds` have passed or the stream ends.
/// With `tracer`, each round runs untraced first and then again traced.
/// The host-speed probe runs before every round and every `PROBE_EVERY`
/// inside one; its time is left out of `busy` and `cpu`.
fn timed_loop(
    queries: &[Query],
    seconds: u64,
    epoch: Instant,
    mut tracer: Option<&mut layers::Tracer>,
) -> Timed {
    let cfg = RunConfig::default();
    let budget = Duration::from_secs(seconds);
    let mut samples = Vec::new();
    let mut probe = probe::Probe::default();
    let (mut busy, mut cpu) = (Duration::ZERO, Duration::ZERO);
    let t0 = Instant::now();
    let mut i = 0;
    while i < queries.len() && t0.elapsed() < budget {
        let round = queries[i].round;
        let end = queries[i..]
            .iter()
            .position(|q| q.round != round)
            .map_or(queries.len(), |n| i + n);
        probe.sample(process_cpu);
        let mut round_wall = Duration::ZERO;
        let (mut wall0, mut cpu0) = (Instant::now(), process_cpu());
        for (k, q) in queries[i..end].iter().enumerate() {
            if wall0.elapsed() >= PROBE_EVERY {
                round_wall += wall0.elapsed();
                cpu += process_cpu() - cpu0;
                probe.sample(process_cpu);
                (wall0, cpu0) = (Instant::now(), process_cpu());
            }
            samples.push(issue(q, i + k, &cfg));
        }
        round_wall += wall0.elapsed();
        cpu += process_cpu() - cpu0;
        busy += round_wall;
        if let Some(t) = tracer.as_deref_mut() {
            t.untraced += round_wall;
            let traced_start = Instant::now();
            for (k, q) in queries[i..end].iter().enumerate() {
                t.record(q, i + k, &cfg, epoch);
            }
            t.traced += traced_start.elapsed();
        }
        i = end;
    }
    probe.sample(process_cpu);
    Timed {
        samples,
        busy,
        cpu,
        wall: t0.elapsed(),
        peak_rss_mb: peak_rss_mb(),
        probe,
    }
}

/// Outcome of the correctness gate.
struct Verdict {
    attempted: u64,
    failed: u64,
    checked: usize,
    problems: Vec<String>,
}

/// Count failed queries, re-run a sample on the reference engine, check
/// that repeats answer exactly like their originals, and check the
/// canonical-seed digest.
fn verify(
    mix: Mix,
    queries: &[Query],
    samples: &mut [Sample],
    budget: Duration,
    fault: Option<Fault>,
) -> Verdict {
    let mut problems = Vec::new();
    let mut failed_queries = std::collections::BTreeSet::new();
    for s in samples.iter() {
        if let Err(e) = &s.outcome {
            failed_queries.insert(s.query);
            problems.push(format!("query {}: {e}", s.query));
        }
    }
    // Repeats must answer bit-identically to the query they copy.
    for s in samples.iter() {
        let Some(src) = queries[s.query].repeat_of else {
            continue;
        };
        // Queries are issued in stream order, so sample `src` is query `src`.
        if let (Some(o), Ok(r)) = (samples.get(src), &s.outcome) {
            if !o.outcome.as_ref().is_ok_and(|a| same_answer(a, r)) {
                failed_queries.insert(s.query);
                problems.push(format!(
                    "query {} answered unlike query {src} it repeats",
                    s.query
                ));
            }
        }
    }
    // Seeded sample of distinct queries, re-run on the reference engine.
    let mut order: Vec<usize> = (0..samples.len())
        .filter(|&k| queries[samples[k].query].repeat_of.is_none() && samples[k].outcome.is_ok())
        .collect();
    gen::Rng::new(queries.len() as u64).shuffle(&mut order);
    if fault == Some(Fault::Bit) {
        if let Some(Ok(r)) = order.first().map(|&k| &mut samples[k].outcome) {
            r.value = f64::from_bits(r.value.to_bits() ^ 1);
        }
    }
    let reference = reference_config();
    let start = Instant::now();
    let mut checked = 0;
    for k in order {
        if checked > 0 && start.elapsed() >= budget {
            break;
        }
        let s = &samples[k];
        let again = issue(&queries[s.query], s.query, &reference);
        checked += 1;
        let agrees = match (&s.outcome, &again.outcome) {
            (Ok(a), Ok(b)) => same_answer(a, b),
            _ => false,
        };
        if !agrees {
            failed_queries.insert(s.query);
            problems.push(format!(
                "query {} differs on the reference engine: {:?} vs {:?}",
                s.query, s.outcome, again.outcome
            ));
        }
    }
    // The canonical seed's first round must reproduce the recorded digest.
    let canon = stream(mix, CANONICAL_SEED, 1);
    let answers: Vec<_> = canon
        .iter()
        .enumerate()
        .map(|(i, q)| issue(q, i, &RunConfig::default()).outcome)
        .collect();
    let got = exec::digest(&answers);
    let mut want = exec::reference_digest(mix);
    if fault == Some(Fault::Digest) {
        want ^= 1;
    }
    let mut failed = failed_queries.len() as u64;
    if got != want {
        failed += 1;
        problems.push(format!(
            "canonical digest {got:016x} != recorded {want:016x} ({} queries at seed {CANONICAL_SEED})",
            canon.len()
        ));
    }
    Verdict {
        attempted: samples.len() as u64 + canon.len() as u64,
        failed,
        checked,
        problems,
    }
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", Value::Num(value)), ("unit", Value::from(unit))])
}

fn main() {
    // A failing query is counted and reported, not a crash: keep its
    // panic to one line.
    std::panic::set_hook(Box::new(|info| eprintln!("querybench: {info}")));
    let args = parse_args();
    if args.dry_run {
        let rounds = args.rounds.unwrap_or(1).clamp(1, args.mix.max_rounds());
        for q in stream(args.mix, args.seed, rounds) {
            let v = Value::parse(&q.json).expect("generated queries are valid JSON");
            println!("{}", v.to_compact());
        }
        return;
    }
    let rounds = rounds_for(args.mix, args.seconds);

    // Setup, repeated so `setup_s` is a median, with the host-speed probe
    // run before and after every repetition.
    let mut setup_secs = Vec::new();
    let mut queries = Vec::new();
    let mut setup_probe = probe::Probe::default();
    setup_probe.sample(process_cpu);
    for _ in 0..SETUP_REPS {
        let setup_start = Instant::now();
        match setup(args.mix, args.seed, rounds) {
            Ok(q) => queries = q,
            Err(e) => {
                eprintln!("querybench: generator self-test failed: {e}");
                std::process::exit(1);
            }
        }
        setup_secs.push(setup_start.elapsed().as_secs_f64());
        setup_probe.sample(process_cpu);
    }
    let setup_host_s = median(&mut setup_secs);

    let epoch = Instant::now();
    let mut tracer = args.trace.then(layers::Tracer::default);
    let mut timed = timed_loop(&queries, args.seconds, epoch, tracer.as_mut());
    let issued = timed.samples.len();

    let budget = Duration::from_secs_f64(args.seconds as f64 * CHECK_SHARE);
    let verdict = verify(args.mix, &queries, &mut timed.samples, budget, args.fault);

    let checks = run_calibration(&RunConfig::default());
    let paper_err_pct = checks
        .iter()
        .filter(|c| c.paper != 0.0)
        .map(|c| ((c.measured - c.paper) / c.paper).abs() * 100.0)
        .fold(0.0, f64::max);
    let calibrated = checks.iter().all(|c| c.ok());

    // Every host time is read twice: as measured, and at the probe's
    // reference speed, scaled by the probe runs of the same phase.
    let wall_scale = timed.probe.wall_scale();
    let mut lat_ms: Vec<f64> = timed
        .samples
        .iter()
        .map(|s| s.total_ns() as f64 / 1e6)
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let wall = timed.wall.as_secs_f64();
    let queries_per_s = issued as f64 / timed.busy.as_secs_f64();
    let cpu_ms_per_query = timed.cpu.as_secs_f64() * 1e3 / issued as f64;
    let error_rate = verdict.failed as f64 / verdict.attempted as f64;

    println!(
        "querybench {} seed={} seconds={} trace={} cores={}",
        args.mix.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let rounds_run = timed
        .samples
        .last()
        .map_or(0, |s| queries[s.query].round + 1);
    println!(
        "  {issued} queries in {rounds_run} rounds over {wall:.3} s (one client, closed loop)"
    );
    println!(
        "  host-speed probe: mean {:.4} ms wall, {:.4} ms CPU over {} runs in the loop, \
         {:.4} ms wall over {} in setup; reference {} ms",
        probe::REFERENCE_MS / wall_scale,
        probe::REFERENCE_MS / timed.probe.cpu_scale(),
        timed.probe.len(),
        probe::REFERENCE_MS / setup_probe.wall_scale(),
        setup_probe.len(),
        probe::REFERENCE_MS,
    );
    for p in &verdict.problems {
        println!("  FAILED {p}");
    }
    println!(
        "  correctness: {} failed of {} attempted; {} answers re-run on the serial per-fragment engine",
        verdict.failed, verdict.attempted, verdict.checked
    );
    for c in &checks {
        println!("  calibration {}", c.render());
    }

    let correct = verdict.failed == 0 && calibrated;
    let metrics = if let Some(tracer) = tracer {
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-{}.jsonl", args.mix.name(), args.seed))
        });
        if let Err(e) = tracer.write(&path) {
            eprintln!("querybench: cannot write spans to {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("  spans: {} written to {}", tracer.len(), path.display());
        let report = tracer.report();
        for (name, value, unit, n) in &report {
            println!("  {name:<28} {value:>14.4} {unit:<6} (n={n})");
        }
        Value::Obj(
            report
                .into_iter()
                .filter(|(name, ..)| layers::PER_LAYER.contains(name))
                .map(|(name, value, unit, _)| (name.to_string(), metric(value, unit)))
                .collect(),
        )
    } else {
        // (name, value at reference speed, value as measured, unit, n);
        // the two values differ only for host times.
        let rows = [
            (
                "queries_per_s",
                queries_per_s / wall_scale,
                queries_per_s,
                "1/s",
                issued,
            ),
            (
                "query_p50_ms",
                percentile(&lat_ms, 50.0) * wall_scale,
                percentile(&lat_ms, 50.0),
                "ms",
                issued,
            ),
            (
                "query_p90_ms",
                percentile(&lat_ms, 90.0) * wall_scale,
                percentile(&lat_ms, 90.0),
                "ms",
                issued,
            ),
            (
                "cpu_ms_per_query",
                cpu_ms_per_query * timed.probe.cpu_scale(),
                cpu_ms_per_query,
                "ms",
                issued,
            ),
            (
                "setup_s",
                setup_host_s * setup_probe.wall_scale(),
                setup_host_s,
                "s",
                SETUP_REPS,
            ),
            (
                "peak_rss_mb",
                timed.peak_rss_mb,
                timed.peak_rss_mb,
                "MiB",
                1,
            ),
            (
                "error_rate",
                error_rate,
                error_rate,
                "ratio",
                verdict.attempted as usize,
            ),
            (
                "paper_err_pct",
                paper_err_pct,
                paper_err_pct,
                "%",
                checks.len(),
            ),
        ];
        println!("  {:<18} {:>14} {:>14}", "", "ref. speed", "as measured");
        for (name, value, host, unit, n) in rows {
            println!("  {name:<18} {value:>14.4} {host:>14.4} {unit:<6} (n={n})");
        }
        Value::Obj(
            rows.into_iter()
                .filter(|(name, ..)| *name != "error_rate")
                .map(|(name, value, _, unit, _)| (name.to_string(), metric(value, unit)))
                .collect(),
        )
    };
    let result = obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(verdict.attempted)),
        ("failed", Value::from(verdict.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_compact());
}
