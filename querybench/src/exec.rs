//! Issuing queries and checking their answers.

use crate::gen::{Mix, Query};
use ibwan_core::scenario::{Scenario, ScenarioResult, Workload};
use ibwan_core::{PartitionMode, RunConfig};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// One issued query, timed from outside the program.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the query in its stream.
    pub query: usize,
    /// `Scenario::from_json` host time.
    pub parse_ns: u64,
    /// `Scenario::run` host time.
    pub run_ns: u64,
    /// The answer, or why there is none.
    pub outcome: Result<ScenarioResult, String>,
}

impl Sample {
    /// Host time from issue to answer.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.run_ns
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// The unit each workload kind answers in.
pub fn expected_unit(w: &Workload) -> &'static str {
    match w {
        Workload::VerbsLatency { .. } | Workload::MpiLatency { .. } | Workload::MpiBcast { .. } => {
            "us"
        }
        Workload::VerbsBandwidth { .. }
        | Workload::Ipoib { .. }
        | Workload::MpiBandwidth { .. }
        | Workload::Nfs { .. } => "MB/s",
        Workload::MessageRate { .. } => "Mmsg/s",
        Workload::Nas { .. } | Workload::MpiPattern { .. } => "s",
    }
}

/// Parse and run one query the way a user's `ibwan-sim` invocation does.
/// A panic, a non-finite answer, or an answer in the wrong unit is an
/// `Err`.
pub fn issue(q: &Query, index: usize, cfg: &RunConfig) -> Sample {
    let t0 = Instant::now();
    let parsed = panic::catch_unwind(|| Scenario::from_json(&q.json));
    let t1 = Instant::now();
    let (outcome, t2) = match parsed {
        Ok(Ok(s)) => {
            let r = panic::catch_unwind(AssertUnwindSafe(|| s.run(cfg)));
            let t2 = Instant::now();
            let outcome = match r {
                Ok(r) if !r.value.is_finite() => Err(format!("non-finite answer {}", r.value)),
                Ok(r) if r.unit != expected_unit(&s.workload) => Err(format!(
                    "answer in {:?}, expected {:?}",
                    r.unit,
                    expected_unit(&s.workload)
                )),
                Ok(r) => Ok(r),
                Err(p) => Err(format!("panicked: {}", panic_text(p))),
            };
            (outcome, t2)
        }
        Ok(Err(e)) => (Err(format!("rejected: {e}")), t1),
        Err(p) => (Err(format!("parser panicked: {}", panic_text(p))), t1),
    };
    Sample {
        query: index,
        parse_ns: t1.duration_since(t0).as_nanos() as u64,
        run_ns: t2.duration_since(t1).as_nanos() as u64,
        outcome,
    }
}

/// The repository's reference engine: serial and per-fragment, so neither
/// domain partitioning nor train coalescing can hide a divergence.
pub fn reference_config() -> RunConfig {
    RunConfig {
        partition: PartitionMode::Off,
        coalescing: false,
        ..RunConfig::default()
    }
}

/// Exact identity of two answers: metric, unit, and every bit of the value.
pub fn same_answer(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    a.metric == b.metric && a.unit == b.unit && a.value.to_bits() == b.value.to_bits()
}

/// FNV-1a over every answer in order: metric, unit, and value bits. A
/// failed query folds in a marker, so the digest of a run with failures
/// never matches a clean one.
pub fn digest(answers: &[Result<ScenarioResult, String>]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for a in answers {
        match a {
            Ok(r) => {
                eat(r.metric.as_bytes());
                eat(r.unit.as_bytes());
                eat(&r.value.to_bits().to_le_bytes());
            }
            Err(_) => eat(b"\xfffailed"),
        }
    }
    h
}

/// The seed whose first round's answers are recorded in
/// [`reference_digest`].
pub const CANONICAL_SEED: u64 = 1;

/// Digest of the answers to the first round of each workload's stream at
/// [`CANONICAL_SEED`], recorded from a clean run. A change that moves any
/// simulated result moves it.
pub fn reference_digest(mix: Mix) -> u64 {
    match mix {
        Mix::VerbsSweep => 0x96e5_c837_22d7_efdb,
        Mix::MpiApps => 0x68d6_5160_b014_f997,
        Mix::SocketsStorage => 0xa7e2_e983_cff9_188d,
    }
}
