//! The traced run: spans recorded around each call into the program, and
//! the per-layer metrics derived from them.
//!
//! Each query gets a root `query` span whose trace id is the query index,
//! with children `scenario.parse`, `scenario.run` (carrying the query's
//! run-tally delta), and a `topo.build` probe that lowers the query's
//! topology once more and drops it. Actor layers inside `Fabric::run`
//! (mpisim, tcpstack, obsidian) get counts and query-class times here, not
//! self time: spans inside the program are out of this benchmark's reach.

use crate::gen::{Class, Query};
use ibfabric::fabric::{self, EngineProfile, RunTally};
use ibfabric::hca::HcaConfig;
use ibfabric::ulp::NullUlp;
use ibtopo::TopoSpec;
use ibwan_core::scenario::{Scenario, Workload};
use ibwan_core::RunConfig;
use minijson::{obj, Value};
use simcore::Dur;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metrics the benchmark's JSON result carries in a traced run:
/// those defined on every workload. Query-class host times (and the
/// per-class ns/event) are zero where a workload has no such query, so
/// they appear only in the printed report and the span file.
pub const PER_LAYER: [&str; 16] = [
    "simcore.events",
    "simcore.ns_per_event",
    "simcore.peak_queue_len",
    "simcore.cal_fallback_share",
    "simcore.pool_hit_rate",
    "simcore.timers_cancelled",
    "ibfabric.coalescing_ratio",
    "ibfabric.trains",
    "ibfabric.control_trains",
    "domain.partitioned_share",
    "domain.sync_rounds",
    "topo.fabrics_built",
    "topo.max_nodes",
    "topo.build_ms",
    "scenario.parse_us",
    "trace.overhead_ratio",
];

/// One recorded span.
struct Span {
    /// Query index: every span of one query shares it.
    trace: usize,
    /// The query's class, shared the same way.
    class: Class,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// `scenario.run` only: the engine work the call did.
    tally: Option<RunTally>,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder plus the wall clock of the traced and untraced passes.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    /// Wall time of the untraced passes over the traced rounds.
    pub untraced: Duration,
    /// Wall time of the traced passes over the same rounds.
    pub traced: Duration,
}

/// The topology a query's workload lowers (what `Scenario::run` builds).
fn topo_of(s: &Scenario) -> TopoSpec {
    let delay = Dur::from_us(s.topology.delay_us);
    match &s.workload {
        Workload::VerbsLatency { .. } | Workload::VerbsBandwidth { .. } => {
            TopoSpec::two_site_lossy(delay, s.topology.loss_ppm)
        }
        Workload::Ipoib { .. } | Workload::Nfs { .. } => TopoSpec::two_site(delay),
        Workload::MpiLatency { .. } | Workload::MpiBandwidth { .. } => {
            TopoSpec::clusters(1, 1, delay)
        }
        Workload::MpiBcast {
            ranks_per_cluster: n,
            ..
        }
        | Workload::Nas {
            ranks_per_cluster: n,
            ..
        }
        | Workload::MpiPattern {
            ranks_per_cluster: n,
            ..
        }
        | Workload::MessageRate { pairs: n, .. } => TopoSpec::clusters(*n, *n, delay),
    }
}

impl Tracer {
    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn push(
        &mut self,
        (trace, class): (usize, Class),
        parent: Option<u64>,
        name: &'static str,
        (start, end): (Instant, Instant),
        epoch: Instant,
        tally: Option<RunTally>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            trace,
            class,
            id,
            parent,
            name,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            tally,
        });
        id
    }

    /// Issue query `index` with spans around each call. Failures are the
    /// untraced pass's to report; here they only end the query early.
    pub fn record(&mut self, q: &Query, index: usize, cfg: &RunConfig, epoch: Instant) {
        fabric::reset_run_tally();
        let t0 = Instant::now();
        let parsed = Scenario::from_json(&q.json);
        let t1 = Instant::now();
        let mut children = vec![("scenario.parse", (t0, t1), None)];
        if let Ok(s) = parsed {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| s.run(cfg)));
            let t2 = Instant::now();
            children.push(("scenario.run", (t1, t2), Some(fabric::take_run_tally())));
            let spec = topo_of(&s);
            drop(spec.build(
                s.seed,
                EngineProfile::default(),
                HcaConfig::default(),
                |_| Box::new(NullUlp),
            ));
            children.push(("topo.build", (t2, Instant::now()), None));
            fabric::reset_run_tally();
        }
        let end = children.last().expect("parse span").1 .1;
        let query = (index, q.class);
        let root = self.push(query, None, "query", (t0, end), epoch, None);
        for (name, span, tally) in children {
            self.push(query, Some(root), name, span, epoch, tally);
        }
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut fields = vec![
                ("trace", Value::from(s.trace)),
                ("class", Value::from(format!("{:?}", s.class))),
                ("id", Value::from(s.id)),
                ("parent", s.parent.map_or(Value::Null, Value::from)),
                ("name", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
            ];
            if let Some(t) = &s.tally {
                let c = &t.counters;
                fields.push((
                    "tally",
                    obj([
                        ("events", Value::from(c.events_processed)),
                        ("trains", Value::from(c.trains_emitted)),
                        ("fragments_coalesced", Value::from(c.fragments_coalesced)),
                        ("control_trains", Value::from(c.control_trains)),
                        ("control_coalesced", Value::from(c.control_coalesced)),
                        ("peak_queue_len", Value::from(c.peak_queue_len)),
                        ("timers_cancelled", Value::from(c.timers_cancelled)),
                        ("cal_fallback_hits", Value::from(c.cal_fallback_hits)),
                        ("pool_hits", Value::from(c.pool_hits)),
                        ("events_allocated", Value::from(c.events_allocated)),
                        ("barrier_ns", Value::from(c.barrier_ns)),
                        ("partitioned_runs", Value::from(t.partitioned_runs)),
                        ("serial_runs", Value::from(t.serial_runs)),
                        ("sync_rounds", Value::from(t.sync_rounds)),
                        ("topos_built", Value::from(t.topos_built)),
                        ("max_nodes", Value::from(t.max_nodes)),
                    ]),
                ));
            }
            writeln!(out, "{}", obj(fields).to_compact())?;
        }
        out.flush()
    }

    /// Per-layer metrics derived from the spans: `(name, value, unit,
    /// samples)`. Counts are per query; `*.ms` are host ms per query of
    /// that class; self time is a span's duration minus its children's.
    pub fn report(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let mut runs: Vec<(&Span, Class)> = Vec::new();
        let mut parse_ns = Vec::new();
        let mut build_ns = Vec::new();
        // Spans below the root have no children of their own, so each
        // one's self time is its duration.
        for s in &self.spans {
            match s.name {
                "scenario.parse" => parse_ns.push(s.ns() as f64),
                "scenario.run" => runs.push((s, s.class)),
                "topo.build" => build_ns.push(s.ns() as f64),
                _ => {}
            }
        }
        let mean = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64;
        let n = runs.len();
        let mut total = RunTally::default();
        for (s, _) in &runs {
            total.merge(s.tally.as_ref().expect("run spans carry a tally"));
        }
        let c = &total.counters;
        let per_query = |x: u64| x as f64 / n.max(1) as f64;
        let ns_per_event = |pick: &dyn Fn(Class) -> bool| {
            let (ns, ev) =
                runs.iter()
                    .filter(|(_, c)| pick(*c))
                    .fold((0u64, 0u64), |(ns, ev), (s, _)| {
                        let t = s.tally.as_ref().expect("run spans carry a tally");
                        (ns + s.ns(), ev + t.counters.events_processed)
                    });
            ns as f64 / ev.max(1) as f64
        };
        let partitioned: Vec<f64> = runs
            .iter()
            .filter(|(s, _)| s.tally.as_ref().is_some_and(|t| t.partitioned_runs > 0))
            .map(|(s, _)| s.ns() as f64 / 1e6)
            .collect();
        let pops = c.events_processed + c.timers_cancelled;
        let mut rows = vec![
            ("simcore.events", per_query(c.events_processed), "count", n),
            ("simcore.ns_per_event", ns_per_event(&|_| true), "ns", n),
            (
                "simcore.peak_queue_len",
                c.peak_queue_len as f64,
                "count",
                n,
            ),
            (
                "simcore.cal_fallback_share",
                c.cal_fallback_hits as f64 / pops.max(1) as f64,
                "ratio",
                n,
            ),
            ("simcore.pool_hit_rate", c.pool_hit_rate(), "ratio", n),
            (
                "simcore.timers_cancelled",
                per_query(c.timers_cancelled),
                "count",
                n,
            ),
            (
                "ibfabric.coalescing_ratio",
                total.coalescing_ratio(),
                "ratio",
                n,
            ),
            ("ibfabric.trains", per_query(c.trains_emitted), "count", n),
            (
                "ibfabric.control_trains",
                per_query(c.control_trains),
                "count",
                n,
            ),
            (
                "mpisim.ns_per_event",
                ns_per_event(&|c| c == Class::Mpi || c == Class::Nas),
                "ns",
                n,
            ),
            (
                "nasbench.ns_per_event",
                ns_per_event(&|c| c == Class::Nas),
                "ns",
                n,
            ),
            (
                "domain.partitioned_share",
                partitioned.len() as f64 / n.max(1) as f64,
                "ratio",
                n,
            ),
            (
                "domain.sync_rounds",
                per_query(total.sync_rounds),
                "count",
                n,
            ),
            ("domain.barrier_ms", per_query(c.barrier_ns) / 1e6, "ms", n),
            (
                "domain.partitioned_query_ms",
                mean(&partitioned),
                "ms",
                partitioned.len(),
            ),
            (
                "topo.fabrics_built",
                per_query(total.topos_built),
                "count",
                n,
            ),
            ("topo.max_nodes", total.max_nodes as f64, "count", n),
            ("topo.build_ms", mean(&build_ns) / 1e6, "ms", build_ns.len()),
            (
                "scenario.parse_us",
                mean(&parse_ns) / 1e3,
                "us",
                parse_ns.len(),
            ),
        ];
        for class in Class::ALL {
            let ms: Vec<f64> = runs
                .iter()
                .filter(|(_, c)| *c == class)
                .map(|(s, _)| s.ns() as f64 / 1e6)
                .collect();
            rows.push((class.metric(), mean(&ms), "ms", ms.len()));
        }
        let probe: f64 = build_ns.iter().sum::<f64>() / 1e9;
        let overhead = (self.traced.as_secs_f64() - probe) / self.untraced.as_secs_f64();
        rows.push(("trace.overhead_ratio", overhead, "ratio", n));
        rows
    }
}
