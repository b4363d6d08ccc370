//! `perf` — wall-clock performance harness for the event-engine hot path.
//!
//! Times a fixed repro subset (fig5a verbs-RC, fig8a MPI, fig13a NFS, fig12
//! NAS) at Quick and Full fidelity and emits `BENCH_engine.json`, so every
//! PR has a perf trajectory against the previous baseline.
//!
//! ```text
//! perf [--quick] [--json PATH] [--baseline PATH] [--repeat N]
//!      [--assert-parallel MIN] [--assert-serial MIN]
//!
//!   --quick          time only the Quick-fidelity subset (CI smoke)
//!   --json PATH      write the result document (default BENCH_engine.json)
//!   --baseline PATH  prior BENCH_engine.json to compare against; its
//!                    timings are embedded, a full-fidelity speedup is
//!                    computed, and the run exits nonzero if any subset
//!                    entry regresses >10% (plus 50 ms absolute slack)
//!   --repeat N       median-of-N timing per experiment (default 3 quick / 1 full)
//!   --assert-parallel MIN
//!                    exit nonzero unless every partitioned subset entry
//!                    reaches `parallel_speedup >= MIN`; skips cleanly (with
//!                    a message) when fewer than 2 cores are available, so
//!                    CI can invoke it unconditionally
//!   --assert-serial MIN
//!                    exit nonzero unless the serial subset total at the
//!                    run's top fidelity reaches `baseline_total / total >=
//!                    MIN` — the serial analogue of --assert-parallel;
//!                    requires --baseline
//! ```
//!
//! Every experiment is timed twice through [`ibwan_core::runner::run_one`]:
//! once on the serial engine (the default [`RunConfig`], `PartitionMode::Off`) and
//! once with WAN-boundary partitioning forced (`PartitionMode::Force`, one
//! sweep worker, so every point gets all cores as stealers) — two config
//! values, no process-global engine state. The serial median is the
//! `secs` field the baseline gate compares — it isolates single-thread
//! engine regressions from scheduling noise — while `secs_parallel` and
//! `parallel_speedup` track what the domain engine's own parallelism buys on
//! this machine against the serial engine's sweep parallelism (nothing on a
//! 1-core box, where the forced run has a single stealer).
//! Per-experiment domain stats (`domains`, `sync_rounds`,
//! `events_per_domain`) and the fragment-coalescing tally (trains emitted,
//! fragments that rode inside a train, the event-reduction ratio) come from
//! the provenance each `run_one` captures.

use bench::catalog;
use ibwan_core::runner::run_one;
use ibwan_core::{Fidelity, PartitionMode, RunConfig};
use minijson::{obj, Value};
use simcore::stats::median;

/// The fixed subset: one verbs, one MPI, one NFS and one NAS experiment —
/// together they cover the RC data path, the rendezvous protocol stack, the
/// RPC/ULP layers, and the deep collective queues (NAS graduates to the
/// calendar layout and fills its live bucket in same-instant bursts) that
/// dominate `repro --full` wall time.
const SUBSET: [&str; 4] = ["fig5a", "fig8a", "fig13a", "fig12"];

struct Timing {
    id: &'static str,
    fidelity: Fidelity,
    /// Serial-engine median — the number the baseline gate compares.
    secs: f64,
    /// Median with partitioning forced at WAN boundaries.
    secs_parallel: f64,
    /// `secs / secs_parallel` (1.0 when the experiment never partitions).
    parallel_speedup: f64,
    /// Endpoint count of the largest fabric the experiment built — with
    /// `domains`, the scale column: how many hosts the sweep simulates and
    /// how wide the engine split them.
    hosts: u64,
    /// Widest domain split the forced run produced (0 = no plan, ran serial).
    domains: u64,
    /// Stealer waits (nothing runnable) across one forced run.
    sync_rounds: u64,
    /// Windows a stealer took without waiting first, across one forced run.
    sync_rounds_saved: u64,
    /// Nanoseconds stealers spent waiting for a runnable domain.
    barrier_ns: u64,
    /// Events dispatched per domain index in one forced run.
    events_per_domain: Vec<u64>,
    /// Coalescing tally for one run of this experiment (deterministic, so
    /// identical across repeats): data-path trains emitted and fragments
    /// coalesced, plus the control-path (cumulative-ACK run) equivalents.
    trains_emitted: u64,
    fragments_coalesced: u64,
    control_trains: u64,
    control_coalesced: u64,
    /// Fraction of would-be hop events that rode inside a train:
    /// `(fragments + control) coalesced / (events_processed + both)`.
    coalescing_ratio: f64,
    /// Events one serial run dispatched (deterministic across repeats).
    events_processed: u64,
    /// Serial wall nanoseconds per dispatched event — the per-queue-op cost
    /// column: one pop, one dispatch, and the pushes it causes, amortized.
    ns_per_event: f64,
    /// Share of serial pops the calendar queue served from its exact
    /// fallback heap instead of a bucket (0 = pure bucket operation).
    cal_fallback_share: f64,
}

const USAGE: &str = "usage: perf [--quick] [--json PATH] [--baseline PATH] [--repeat N] \
     [--assert-parallel MIN] [--assert-serial MIN]";

fn bad_usage(msg: &str) -> ! {
    eprintln!("perf: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick_only = false;
    let mut json_path = "BENCH_engine.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut repeat: Option<usize> = None;
    let mut assert_parallel: Option<f64> = None;
    let mut assert_serial: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick_only = true,
            "--json" => {
                json_path = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--json needs a path"))
            }
            "--baseline" => {
                baseline_path = Some(
                    args.next()
                        .unwrap_or_else(|| bad_usage("--baseline needs a path")),
                )
            }
            "--repeat" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--repeat needs a count"));
                repeat = Some(
                    v.parse()
                        .unwrap_or_else(|_| bad_usage("--repeat needs an integer")),
                );
            }
            "--assert-parallel" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--assert-parallel needs a minimum speedup"));
                let min: f64 = v
                    .parse()
                    .unwrap_or_else(|_| bad_usage("--assert-parallel needs a number"));
                if !min.is_finite() || min <= 0.0 {
                    bad_usage("--assert-parallel needs a positive speedup");
                }
                assert_parallel = Some(min);
            }
            "--assert-serial" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| bad_usage("--assert-serial needs a minimum speedup"));
                let min: f64 = v
                    .parse()
                    .unwrap_or_else(|_| bad_usage("--assert-serial needs a number"));
                if !min.is_finite() || min <= 0.0 {
                    bad_usage("--assert-serial needs a positive speedup");
                }
                assert_serial = Some(min);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => bad_usage(&format!("unknown argument {other:?}")),
        }
    }

    let experiments = catalog();
    let subset: Vec<_> = SUBSET
        .iter()
        .map(|id| {
            experiments
                .iter()
                .find(|e| e.id == *id)
                .unwrap_or_else(|| panic!("experiment {id} missing from catalog"))
        })
        .collect();

    let fidelities: &[Fidelity] = if quick_only {
        &[Fidelity::Quick]
    } else {
        &[Fidelity::Quick, Fidelity::Full]
    };

    let mut timings = Vec::new();
    for &fidelity in fidelities {
        let serial_cfg = RunConfig {
            fidelity,
            ..RunConfig::default()
        };
        // One sweep worker, so each forced point gets every core as a
        // stealer: the parallel column measures the domain executor's own
        // parallelism against the serial engine's sweep parallelism.
        let forced_cfg = RunConfig {
            fidelity,
            partition: PartitionMode::Force,
            workers: Some(1),
            ..RunConfig::default()
        };
        let reps = repeat.unwrap_or(match fidelity {
            Fidelity::Quick => 3,
            Fidelity::Full => 1,
        });
        // Serial columns first, for the whole subset: these are the
        // baseline-gated numbers, and keeping the forced-partition reps (and
        // any helper threads they spawn) out of their way keeps the serial
        // samples clean.
        let mut serial_cols = Vec::new();
        for e in &subset {
            let mut serial_samples = Vec::new();
            let mut tally = ibfabric::fabric::RunTally::default();
            for _ in 0..reps.max(1) {
                let out = run_one(e, &serial_cfg);
                serial_samples.push(out.provenance.wall_secs);
                tally = out.provenance.tally;
            }
            serial_cols.push((median(&mut serial_samples), tally));
        }

        for (e, (secs, tally)) in subset.iter().zip(serial_cols) {
            // Parallel column: partition wherever a domain plan exists. An
            // experiment with no WAN cut (or a lossy Longbow) still runs
            // serially under Force; its tally then shows 0 domains.
            let mut parallel_samples = Vec::new();
            let mut parts = ibfabric::fabric::RunTally::default();
            for _ in 0..reps.max(1) {
                let out = run_one(e, &forced_cfg);
                parallel_samples.push(out.provenance.wall_secs);
                parts = out.provenance.tally;
            }
            let secs_parallel = median(&mut parallel_samples);
            let parallel_speedup = if secs_parallel > 0.0 {
                secs / secs_parallel
            } else {
                1.0
            };

            let trains = tally.counters.trains_emitted;
            let frags = tally.counters.fragments_coalesced;
            let ctl_trains = tally.counters.control_trains;
            let ctl_frags = tally.counters.control_coalesced;
            let ratio = tally.coalescing_ratio();
            let events = tally.counters.events_processed;
            let ns_per_event = if events > 0 {
                secs * 1e9 / events as f64
            } else {
                0.0
            };
            let cal_fallback_share = if events > 0 {
                tally.counters.cal_fallback_hits as f64 / events as f64
            } else {
                0.0
            };
            eprintln!(
                "{:8} {fidelity:?}: serial {secs:.3}s, parallel {secs_parallel:.3}s \
                 ({parallel_speedup:.2}x, median of {reps}), hosts={} domains={} \
                 sync_rounds={} (saved {}, {:.1} ms waited), \
                 coalescing {:.1}% ({trains}+{ctl_trains} trains, \
                 {frags}+{ctl_frags} frags), \
                 {ns_per_event:.0} ns/event over {events} events \
                 (fallback pops {:.1}%)",
                e.id,
                tally.max_nodes,
                parts.max_domains,
                parts.sync_rounds,
                parts.counters.sync_rounds_saved,
                parts.counters.barrier_ns as f64 / 1e6,
                ratio * 100.0,
                cal_fallback_share * 100.0
            );
            timings.push(Timing {
                id: e.id,
                fidelity,
                secs,
                secs_parallel,
                parallel_speedup,
                hosts: tally.max_nodes,
                domains: parts.max_domains,
                sync_rounds: parts.sync_rounds,
                sync_rounds_saved: parts.counters.sync_rounds_saved,
                barrier_ns: parts.counters.barrier_ns,
                events_per_domain: parts.events_per_domain,
                trains_emitted: trains,
                fragments_coalesced: frags,
                control_trains: ctl_trains,
                control_coalesced: ctl_frags,
                coalescing_ratio: ratio,
                events_processed: events,
                ns_per_event,
                cal_fallback_share,
            });
        }
    }

    // The counter probe runs serial: merged partitioned counters match
    // except `peak_queue_len`, which is a max over per-domain queues and
    // would drift from the baseline's whole-fabric peak.
    let counters = engine_counters();
    eprintln!(
        "engine counters (8 MiB WAN RC stream): events_processed={} \
         events_allocated={} peak_queue_len={} pool_hit_rate={:.4} \
         trains_emitted={} fragments_coalesced={} coalescing_ratio={:.4}",
        counters.events_processed,
        counters.events_allocated,
        counters.peak_queue_len,
        counters.pool_hit_rate(),
        counters.trains_emitted,
        counters.fragments_coalesced,
        counters.coalescing_ratio()
    );

    let baseline = baseline_path.as_deref().map(|p| {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}"));
        Value::parse(&text).unwrap_or_else(|e| panic!("cannot parse baseline {p}: {e}"))
    });

    let full_total: f64 = timings
        .iter()
        .filter(|t| t.fidelity == Fidelity::Full)
        .map(|t| t.secs)
        .sum();
    let speedup = baseline.as_ref().and_then(|b| {
        let base_total = baseline_subset_total(b, Fidelity::Full)?;
        (full_total > 0.0).then(|| base_total / full_total)
    });
    if let Some(s) = speedup {
        eprintln!("full-fidelity subset speedup vs baseline: {s:.2}x");
    }

    // --assert-serial compares subset serial totals at the run's top
    // fidelity; resolve the baseline side before the document assembly
    // below consumes the parsed baseline.
    let top_fidelity = if quick_only {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let serial_gate = assert_serial.map(|min| {
        let b = baseline
            .as_ref()
            .unwrap_or_else(|| bad_usage("--assert-serial needs --baseline"));
        (min, baseline_subset_total(b, top_fidelity))
    });

    // Regression gate: every current subset entry is matched against the
    // baseline entry with the same (id, fidelity); a regression is >10%
    // slower AND >50 ms absolute (the slack keeps sub-100 ms Quick timings
    // from tripping on scheduler noise).
    let mut regressions = Vec::new();
    if let Some(b) = &baseline {
        for t in &timings {
            if let Some(base) = baseline_entry_secs(b, t.id, t.fidelity) {
                if t.secs > base * 1.10 && t.secs > base + 0.05 {
                    regressions.push(format!(
                        "{} {:?}: {:.3}s vs baseline {:.3}s (+{:.0}%)",
                        t.id,
                        t.fidelity,
                        t.secs,
                        base,
                        (t.secs / base - 1.0) * 100.0
                    ));
                }
            }
        }
    }

    let timing_values: Vec<Value> = timings
        .iter()
        .map(|t| {
            obj([
                ("id", Value::from(t.id)),
                ("fidelity", Value::from(t.fidelity.name())),
                ("secs", Value::Num(t.secs)),
                ("secs_parallel", Value::Num(t.secs_parallel)),
                ("parallel_speedup", Value::Num(t.parallel_speedup)),
                ("hosts", Value::from(t.hosts)),
                ("domains", Value::from(t.domains)),
                ("sync_rounds", Value::from(t.sync_rounds)),
                ("sync_rounds_saved", Value::from(t.sync_rounds_saved)),
                ("barrier_ns", Value::from(t.barrier_ns)),
                (
                    "events_per_domain",
                    Value::Arr(
                        t.events_per_domain
                            .iter()
                            .map(|&e| Value::from(e))
                            .collect(),
                    ),
                ),
                ("trains_emitted", Value::from(t.trains_emitted)),
                ("fragments_coalesced", Value::from(t.fragments_coalesced)),
                ("control_trains", Value::from(t.control_trains)),
                ("control_coalesced", Value::from(t.control_coalesced)),
                ("coalescing_ratio", Value::Num(t.coalescing_ratio)),
                ("events_processed", Value::from(t.events_processed)),
                ("ns_per_event", Value::Num(t.ns_per_event)),
                ("cal_fallback_share", Value::Num(t.cal_fallback_share)),
            ])
        })
        .collect();

    let mut doc = vec![
        ("benchmark", Value::from("engine-hotpath")),
        (
            "subset",
            Value::Arr(SUBSET.iter().map(|&s| Value::from(s)).collect()),
        ),
        ("timings", Value::Arr(timing_values)),
        (
            "engine_counters",
            obj([
                ("events_processed", Value::from(counters.events_processed)),
                ("events_allocated", Value::from(counters.events_allocated)),
                ("peak_queue_len", Value::from(counters.peak_queue_len)),
                ("pool_hit_rate", Value::Num(counters.pool_hit_rate())),
                ("trains_emitted", Value::from(counters.trains_emitted)),
                (
                    "fragments_coalesced",
                    Value::from(counters.fragments_coalesced),
                ),
                ("control_trains", Value::from(counters.control_trains)),
                ("control_coalesced", Value::from(counters.control_coalesced)),
                ("cal_fallback_hits", Value::from(counters.cal_fallback_hits)),
                (
                    "cal_bucket_occupancy",
                    Value::Arr(
                        counters
                            .cal_bucket_occupancy
                            .iter()
                            .map(|&b| Value::from(b))
                            .collect(),
                    ),
                ),
                ("coalescing_ratio", Value::Num(counters.coalescing_ratio())),
            ]),
        ),
    ];
    if let Some(b) = baseline {
        if let Some(s) = speedup {
            doc.push(("speedup_full_vs_baseline", Value::Num(s)));
        }
        doc.push(("baseline", b));
    }
    std::fs::write(&json_path, obj(doc).to_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    eprintln!("wrote {json_path}");

    if !regressions.is_empty() {
        eprintln!("PERF REGRESSION vs {}:", baseline_path.as_deref().unwrap());
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }

    if let Some(min) = assert_parallel {
        assert_parallel_gate(&timings, min);
    }

    if let Some((min, base_total)) = serial_gate {
        assert_serial_gate(&timings, top_fidelity, base_total, min);
    }
}

/// `--assert-serial` gate: the serial subset total at the run's top
/// fidelity must beat the baseline's matching total by at least `min`.
/// A baseline without a complete subset at that fidelity skips with a
/// message (nothing sound to compare), mirroring --assert-parallel's
/// skip-don't-lie behavior.
fn assert_serial_gate(timings: &[Timing], fidelity: Fidelity, base_total: Option<f64>, min: f64) {
    let total: f64 = timings
        .iter()
        .filter(|t| t.fidelity == fidelity)
        .map(|t| t.secs)
        .sum();
    let Some(base) = base_total else {
        eprintln!(
            "--assert-serial {min}: skipped (baseline lacks a complete {} subset)",
            fidelity.name()
        );
        return;
    };
    if total <= 0.0 {
        eprintln!(
            "--assert-serial {min}: skipped (no {} timings)",
            fidelity.name()
        );
        return;
    }
    let speedup = base / total;
    if speedup >= min {
        eprintln!(
            "--assert-serial {min}: ok ({} subset {total:.3}s vs baseline {base:.3}s, \
             {speedup:.2}x)",
            fidelity.name()
        );
        return;
    }
    eprintln!(
        "--assert-serial {min}: FAILED — {} subset {total:.3}s vs baseline {base:.3}s \
         ({speedup:.2}x < {min})",
        fidelity.name()
    );
    std::process::exit(1);
}

/// `--assert-parallel` gate: every subset entry that actually partitioned
/// must reach `parallel_speedup >= min`. With fewer than 2 cores free the
/// forced run has a single stealer, so the assertion is skipped with a
/// message rather than failed — CI can invoke the flag unconditionally.
fn assert_parallel_gate(timings: &[Timing], min: f64) {
    let budget = simcore::domain::spawn_budget();
    if budget < 2 {
        eprintln!(
            "--assert-parallel {min}: skipped (thread budget {budget} < 2; \
             a forced run would have one stealer)"
        );
        return;
    }
    let partitioned: Vec<_> = timings.iter().filter(|t| t.domains >= 2).collect();
    if partitioned.is_empty() {
        eprintln!("--assert-parallel {min}: FAILED — no subset entry partitioned");
        std::process::exit(1);
    }
    let slow: Vec<_> = partitioned
        .iter()
        .filter(|t| t.parallel_speedup < min)
        .collect();
    if slow.is_empty() {
        eprintln!(
            "--assert-parallel {min}: ok ({} partitioned entr{})",
            partitioned.len(),
            if partitioned.len() == 1 { "y" } else { "ies" }
        );
        return;
    }
    eprintln!("--assert-parallel {min}: FAILED");
    for t in slow {
        eprintln!(
            "  {} {:?}: parallel_speedup {:.2} < {min} (serial {:.3}s, parallel {:.3}s)",
            t.id, t.fidelity, t.parallel_speedup, t.secs, t.secs_parallel
        );
    }
    std::process::exit(1);
}

/// The baseline document's timing (secs) for a given (id, fidelity) pair.
fn baseline_entry_secs(doc: &Value, id: &str, fidelity: Fidelity) -> Option<f64> {
    for t in doc.get("timings")?.as_array()? {
        if t.get("id")?.as_str()? == id && t.get("fidelity")?.as_str()? == fidelity.name() {
            return t.get("secs")?.as_f64();
        }
    }
    None
}

/// Sum of the baseline document's subset timings at one fidelity; `None`
/// unless every subset entry is present.
fn baseline_subset_total(doc: &Value, fidelity: Fidelity) -> Option<f64> {
    let timings = doc.get("timings")?.as_array()?;
    let mut total = 0.0;
    let mut seen = 0;
    for t in timings {
        if t.get("fidelity")?.as_str()? == fidelity.name()
            && SUBSET.contains(&t.get("id")?.as_str()?)
        {
            total += t.get("secs")?.as_f64()?;
            seen += 1;
        }
    }
    (seen == SUBSET.len()).then_some(total)
}

/// Counter-verified allocation behavior: stream an 8 MiB WAN RC transfer
/// through one fabric and read the engine's event-pool counters out of the
/// report.
fn engine_counters() -> simcore::EngineCounters {
    use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
    use ibfabric::qp::QpConfig;
    use ibwan_core::topo::build_pair;
    use ibwan_core::TopoSpec;
    use simcore::Dur;

    let cfg = RunConfig::default();
    // 8 MiB in 64 KiB messages: enough fragments (~4k) to reach steady
    // state while keeping the probe itself sub-second.
    let msgs = 128;
    let (mut f, a, b) = build_pair(
        &cfg,
        42,
        &TopoSpec::two_site(Dur::from_us(100)),
        Box::new(BwPeer::sender(BwConfig::new(65536, msgs))),
        Box::new(BwPeer::receiver()),
    );
    let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
    f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
    f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
    f.run();
    f.report().engine_counters
}
