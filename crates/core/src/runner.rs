//! The unified experiment runner: schedules registry entries across a
//! bounded worker pool, stamps every result with provenance, and checks
//! regenerated figures against recorded goldens.
//!
//! All three binaries (`repro`, `ibwan_sim`, `perf`) go through this module
//! instead of rolling their own loops, so progress reporting, worker
//! budgeting, shape checks, and the provenance block are identical
//! everywhere. The pool budget composes with the per-experiment sweeps in
//! [`crate::sweep`]: runner workers register themselves via
//! [`simcore::domain::register_external_workers`], so nested
//! `parallel_map` calls (and `Fabric::run` auto-partition decisions) see
//! how much of the machine the runner already claims.

use crate::config::{partition_name, RunConfig};
use crate::registry::Experiment;
use crate::results::Figure;
use ibfabric::fabric::{self, RunTally};
use minijson::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where one figure came from: the run context and engine evidence stamped
/// into every emitted JSON document.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// [`RunConfig::digest`] of the producing config.
    pub config_digest: String,
    /// [`RunConfig::describe`] — the digest preimage, human-readable.
    pub config: String,
    /// The config's seed offset (0 = canonical golden trajectory).
    pub seed: u64,
    /// Requested engine mode ("auto" / "off" / "force").
    pub engine_mode: &'static str,
    /// Fidelity name ("quick" / "full").
    pub fidelity: &'static str,
    /// Wall-clock seconds spent regenerating the figure.
    pub wall_secs: f64,
    /// Engine statistics accumulated while the figure ran (merged across
    /// every sweep worker and domain thread the experiment used).
    pub tally: RunTally,
}

impl Provenance {
    /// Capture provenance for a run that just finished under `cfg`.
    pub fn capture(cfg: &RunConfig, wall_secs: f64, tally: RunTally) -> Self {
        Provenance {
            config_digest: cfg.digest(),
            config: cfg.describe(),
            seed: cfg.seed,
            engine_mode: partition_name(cfg.partition),
            fidelity: cfg.fidelity.name(),
            wall_secs,
            tally,
        }
    }

    /// The JSON block `stamped_value` appends under the `"provenance"` key.
    pub fn to_value(&self) -> Value {
        let c = &self.tally.counters;
        let num = |n: u64| Value::Num(n as f64);
        Value::Obj(vec![
            (
                "config_digest".into(),
                Value::from(self.config_digest.clone()),
            ),
            ("config".into(), Value::from(self.config.clone())),
            ("seed".into(), num(self.seed)),
            ("engine_mode".into(), Value::from(self.engine_mode)),
            ("fidelity".into(), Value::from(self.fidelity)),
            ("wall_secs".into(), Value::Num(self.wall_secs)),
            (
                "engine".into(),
                Value::Obj(vec![
                    ("events_processed".into(), num(c.events_processed)),
                    ("events_allocated".into(), num(c.events_allocated)),
                    ("pool_hits".into(), num(c.pool_hits)),
                    ("peak_queue_len".into(), num(c.peak_queue_len)),
                    ("timers_cancelled".into(), num(c.timers_cancelled)),
                    ("trains_emitted".into(), num(c.trains_emitted)),
                    ("fragments_coalesced".into(), num(c.fragments_coalesced)),
                    ("control_trains".into(), num(c.control_trains)),
                    ("control_coalesced".into(), num(c.control_coalesced)),
                    ("cal_fallback_hits".into(), num(c.cal_fallback_hits)),
                    (
                        "cal_bucket_occupancy".into(),
                        Value::Arr(c.cal_bucket_occupancy.iter().map(|&b| num(b)).collect()),
                    ),
                    ("sync_rounds_saved".into(), num(c.sync_rounds_saved)),
                    ("barrier_ns".into(), num(c.barrier_ns)),
                    (
                        "round_events".into(),
                        Value::Arr(c.round_events.iter().map(|&b| num(b)).collect()),
                    ),
                    ("serial_runs".into(), num(self.tally.serial_runs)),
                    ("partitioned_runs".into(), num(self.tally.partitioned_runs)),
                    ("sync_rounds".into(), num(self.tally.sync_rounds)),
                    ("max_domains".into(), num(self.tally.max_domains)),
                    ("topos_built".into(), num(self.tally.topos_built)),
                    // 16-hex-digit string: u64 digests overflow f64 precision.
                    (
                        "topo_digest".into(),
                        Value::from(format!("{:016x}", self.tally.topo_digest)),
                    ),
                    ("max_nodes".into(), num(self.tally.max_nodes)),
                ]),
            ),
        ])
    }
}

/// One regenerated figure plus the evidence of how it was produced.
pub struct RunOutcome {
    /// The experiment's catalog id.
    pub id: &'static str,
    /// The regenerated figure.
    pub figure: Figure,
    /// How it was produced.
    pub provenance: Provenance,
}

/// The figure's JSON tree with the provenance block appended. Readers that
/// predate provenance ([`Figure::from_json`]) ignore the extra key, so
/// stamped documents still round-trip.
pub fn stamped_value(figure: &Figure, prov: &Provenance) -> Value {
    let mut v = figure.to_value();
    if let Value::Obj(members) = &mut v {
        members.push(("provenance".into(), prov.to_value()));
    }
    v
}

/// Run one experiment under `cfg`: reset the engine tally, regenerate the
/// figure, verify its shape check, and capture provenance.
///
/// Panics if the experiment's shape check fails — a malformed figure means
/// a bug in the experiment, not bad user input.
pub fn run_one(e: &Experiment, cfg: &RunConfig) -> RunOutcome {
    fabric::reset_run_tally();
    let t0 = Instant::now();
    let figure = (e.run)(cfg);
    let wall_secs = t0.elapsed().as_secs_f64();
    let tally = fabric::take_run_tally();
    if let Some(check) = e.check {
        if let Err(msg) = check(&figure) {
            panic!("{}: shape check failed: {msg}", e.id);
        }
    }
    RunOutcome {
        id: e.id,
        figure,
        provenance: Provenance::capture(cfg, wall_secs, tally),
    }
}

/// Run one declarative [`crate::scenario::Scenario`] with the same tally
/// capture and provenance stamp as catalog experiments — `ibwan_sim` goes
/// through here so scenario JSON output is auditable exactly like
/// `repro --json` output.
pub fn run_scenario(
    s: &crate::scenario::Scenario,
    cfg: &RunConfig,
) -> (crate::scenario::ScenarioResult, Provenance) {
    fabric::reset_run_tally();
    let t0 = Instant::now();
    let result = s.run(cfg);
    let prov = Provenance::capture(cfg, t0.elapsed().as_secs_f64(), fabric::take_run_tally());
    (result, prov)
}

/// Run a set of experiments across a bounded worker pool.
///
/// Scheduling is cost-descending (the slowest experiment never starts
/// last), but results come back in input order. `progress` is called once
/// per completed experiment with a one-line summary — binaries stream it
/// to stderr so `--json`/stdout output stays machine-readable. The pool is
/// budgeted exactly like [`crate::sweep::parallel_map`]: one worker per
/// available core, shrunk by any enclosing pool's claim and capped by
/// `cfg.workers`. Worker panics re-raise the first payload
/// in the caller after every worker joins.
pub fn run_jobs<F>(jobs: Vec<Experiment>, cfg: &RunConfig, progress: F) -> Vec<RunOutcome>
where
    F: Fn(&str) + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    // Claim order: indices sorted by declared cost, most expensive first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cost));

    let avail = simcore::domain::available_cores()
        .saturating_sub(simcore::domain::external_workers())
        .max(1);
    // One worker per core: a partitioned job runs on any number of stealers,
    // so it only gets what the pool leaves spare.
    let mut workers = avail.min(n);
    if let Some(cap) = cfg.workers {
        workers = workers.min(cap.max(1));
    }
    let _external = simcore::domain::register_external_workers(workers);
    // Each worker owns an equal share of the claimed cores; granting the
    // share as a thread allowance makes nested partition decisions
    // (`simcore::domain::spawn_budget`) see it instead of the whole
    // machine. With at least as many jobs as cores the share is 1, so a
    // partitioned job runs on its worker thread alone.
    let allowance = (avail / workers).max(1);

    let results: Vec<Mutex<Option<RunOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let first_panic = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let _allow = simcore::domain::set_thread_allowance(allowance);
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= n {
                            break;
                        }
                        let i = order[slot];
                        let out = run_one(&jobs[i], cfg);
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        let points: usize = out.figure.series.iter().map(|s| s.points.len()).sum();
                        progress(&format!(
                            "[{finished}/{n}] {id}: {ns} series, {points} points in {secs:.2}s",
                            id = out.id,
                            ns = out.figure.series.len(),
                            secs = out.provenance.wall_secs,
                        ));
                        *results[i].lock().unwrap() = Some(out);
                    }
                })
            })
            .collect();
        let mut first = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing outcome"))
        .collect()
}

/// Compare a regenerated figure against a recorded golden, returning one
/// human-readable line per discrepancy (empty = bit-identical data).
///
/// Comparison is exact: the JSON number printer is round-trip exact, and
/// the simulation is deterministic, so any difference at all means the
/// config or code changed. Metadata (title, axis labels) is compared too —
/// a renamed series or relabeled axis is a golden change even if the
/// numbers agree.
pub fn diff_figures(expected: &Figure, got: &Figure) -> Vec<String> {
    let mut diffs = Vec::new();
    let id = &expected.id;
    if expected.id != got.id {
        diffs.push(format!("id: expected {:?}, got {:?}", expected.id, got.id));
    }
    if expected.title != got.title {
        diffs.push(format!(
            "{id}: title: expected {:?}, got {:?}",
            expected.title, got.title
        ));
    }
    if expected.x_label != got.x_label {
        diffs.push(format!(
            "{id}: x_label: expected {:?}, got {:?}",
            expected.x_label, got.x_label
        ));
    }
    if expected.y_label != got.y_label {
        diffs.push(format!(
            "{id}: y_label: expected {:?}, got {:?}",
            expected.y_label, got.y_label
        ));
    }
    for e in &expected.series {
        let Some(g) = got.series(&e.label) else {
            diffs.push(format!("{id}/{}: series missing from result", e.label));
            continue;
        };
        if e.points.len() != g.points.len() {
            diffs.push(format!(
                "{id}/{}: expected {} points, got {}",
                e.label,
                e.points.len(),
                g.points.len()
            ));
        }
        for (&(ex, ey), &(gx, gy)) in e.points.iter().zip(&g.points) {
            if ex != gx {
                diffs.push(format!(
                    "{id}/{}: x grid diverges: expected x={ex}, got x={gx}",
                    e.label
                ));
                break; // every later point would repeat the same story
            }
            if ey != gy {
                diffs.push(format!(
                    "{id}/{}: at x={ex}: expected {ey}, got {gy}",
                    e.label
                ));
            }
        }
    }
    for g in &got.series {
        if expected.series(&g.label).is_none() {
            diffs.push(format!("{id}/{}: unexpected extra series", g.label));
        }
    }
    diffs
}

/// Golden-check one outcome against `dir/<figure id>.json` — the same
/// filename `repro --json` writes (the figure id, which for extension
/// experiments is longer than the catalog id).
///
/// Returns the discrepancy lines (empty = pass). A missing or unparsable
/// golden file is itself a discrepancy, not a panic — `repro --check`
/// reports it and exits nonzero.
pub fn check_against(dir: &std::path::Path, outcome: &RunOutcome) -> Vec<String> {
    let path = dir.join(format!("{}.json", outcome.figure.id));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return vec![format!(
                "{}: cannot read golden {}: {e}",
                outcome.id,
                path.display()
            )]
        }
    };
    let expected = match Figure::from_json(&text) {
        Ok(f) => f,
        Err(e) => {
            return vec![format!(
                "{}: golden {} is malformed: {e}",
                outcome.id,
                path.display()
            )]
        }
    };
    diff_figures(&expected, &outcome.figure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::results::Series;

    fn fig(id: &str, points: &[(f64, f64)]) -> Figure {
        let mut f = Figure::new(id, "t", "x", "y");
        let mut s = Series::new("s");
        for &(x, y) in points {
            s.push(x, y);
        }
        f.series.push(s);
        f
    }

    #[test]
    fn identical_figures_diff_clean() {
        let a = fig("f", &[(1.0, 2.0), (2.0, 4.0)]);
        assert!(diff_figures(&a, &a.clone()).is_empty());
    }

    #[test]
    fn perturbed_point_is_named_with_series_and_x() {
        let a = fig("f", &[(1.0, 2.0), (2.0, 4.0)]);
        let mut b = a.clone();
        b.series[0].points[1].1 = 4.5;
        let d = diff_figures(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("f/s"), "{d:?}");
        assert!(d[0].contains("x=2"), "{d:?}");
        assert!(d[0].contains("expected 4"), "{d:?}");
        assert!(d[0].contains("got 4.5"), "{d:?}");
    }

    #[test]
    fn missing_and_extra_series_are_reported() {
        let a = fig("f", &[(1.0, 2.0)]);
        let mut b = a.clone();
        b.series[0].label = "renamed".into();
        let d = diff_figures(&a, &b);
        assert!(d.iter().any(|l| l.contains("f/s") && l.contains("missing")));
        assert!(d
            .iter()
            .any(|l| l.contains("renamed") && l.contains("extra")));
    }

    #[test]
    fn metadata_changes_are_diffs() {
        let a = fig("f", &[(1.0, 2.0)]);
        let mut b = a.clone();
        b.y_label = "GB/s".into();
        let d = diff_figures(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("y_label"), "{d:?}");
    }

    #[test]
    fn run_one_captures_provenance_and_stamps_round_trippable_json() {
        let cfg = RunConfig::default();
        let e = registry::find("table1").unwrap();
        let out = run_one(&e, &cfg);
        assert_eq!(out.id, "table1");
        assert_eq!(out.provenance.config_digest, cfg.digest());
        assert_eq!(out.provenance.fidelity, "quick");
        assert_eq!(out.provenance.engine_mode, "off");
        let json = stamped_value(&out.figure, &out.provenance).to_pretty();
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"config_digest\""));
        // Pre-provenance readers ignore the extra key.
        let back = Figure::from_json(&json).unwrap();
        assert!(diff_figures(&out.figure, &back).is_empty());
    }

    #[test]
    fn check_against_passes_on_identical_and_fails_on_perturbed_golden() {
        let cfg = RunConfig::default();
        let e = registry::find("table1").unwrap();
        let out = run_one(&e, &cfg);
        let dir = std::env::temp_dir().join("ibwan-runner-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table1.json");

        // Bit-identical golden (with provenance stamped) passes.
        let json = stamped_value(&out.figure, &out.provenance).to_pretty();
        std::fs::write(&path, &json).unwrap();
        assert!(check_against(&dir, &out).is_empty());

        // Perturb one y value: the check must fail with a readable line.
        let mut golden = out.figure.clone();
        golden.series[0].points[0].1 += 1.0;
        std::fs::write(&path, golden.to_json()).unwrap();
        let d = check_against(&dir, &out);
        assert!(!d.is_empty());
        assert!(d[0].contains("table1/"), "{d:?}");

        // Missing golden is a reported discrepancy, not a panic.
        std::fs::remove_file(&path).unwrap();
        let d = check_against(&dir, &out);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("cannot read golden"), "{d:?}");
    }

    #[test]
    fn run_jobs_returns_input_order_and_streams_progress() {
        let cfg = RunConfig::default();
        // Two cheap real catalog entries; input order must survive the
        // cost-descending schedule (fig3 costs more than table1).
        let jobs: Vec<Experiment> = ["table1", "fig3"]
            .iter()
            .map(|id| registry::find(id).unwrap())
            .collect();
        let lines = Mutex::new(Vec::new());
        let outs = run_jobs(jobs, &cfg, |l| lines.lock().unwrap().push(l.to_string()));
        assert_eq!(outs[0].id, "table1");
        assert_eq!(outs[1].id, "fig3");
        let lines = lines.into_inner().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains("table1")), "{lines:?}");
        assert!(lines.iter().all(|l| l.contains("series")), "{lines:?}");
    }
}
