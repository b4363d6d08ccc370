//! Parallel parameter sweeps: simulations are deterministic and independent
//! per configuration, so sweeps fan out across a bounded worker pool.
//!
//! A single configuration may itself run on the partitioned domain engine,
//! whose work-stealing executor runs any number of domains on any number of
//! threads. Independent points scale better than domains do, so the pool
//! takes one worker per core first and grants each job only its share of
//! what is left: workers × threads-per-job ≤ available cores.

use crate::config::RunConfig;
use ibfabric::fabric::{self, RunTally};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `inputs` in parallel, preserving order.
///
/// Runs on a bounded pool of scoped worker threads that self-schedule
/// inputs from a shared index — large sweeps no longer spawn one OS thread
/// per configuration. The pool takes one worker per available core (never
/// more than there are inputs), whatever the config's `PartitionMode`: a
/// partitioned job needs no threads of its own, so each worker's job is
/// granted its equal share of the cores as a thread allowance, which is
/// one stealer whenever the sweep is at least as wide as the machine;
/// `cfg.workers` caps the pool further. The workers register themselves via
/// [`simcore::domain::register_external_workers`] so nested `Fabric::run`
/// auto-partition decisions see how much of the machine the sweep already
/// claims, and workers already claimed by an *enclosing* pool (the
/// experiment runner) shrink this pool's budget the same way. Each worker
/// accumulates engine stats into its own thread-local
/// [`ibfabric::fabric::RunTally`]; the pool merges them back into the
/// calling thread on join, so per-experiment tallies survive the fan-out.
/// Results come back in input order. If any worker panics, the first panic
/// payload is re-raised in the caller once the scope joins, so the original
/// assertion message (not a generic wrapper) reaches the user.
pub fn parallel_map<I, T, F>(cfg: &RunConfig, inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    // The machine's cores, or the calling thread's test override of them.
    let avail = simcore::domain::available_cores();
    // Cores not already claimed by an enclosing pool (floor of one so
    // narrow machines still make progress).
    let avail = avail
        .saturating_sub(simcore::domain::external_workers())
        .max(1);
    // One worker per core: independent points scale perfectly, while a
    // partitioned job runs on any number of stealers (one included), so it
    // only gets the cores the sweep leaves spare.
    let mut workers = worker_budget(avail, n);
    if let Some(cap) = cfg.workers {
        workers = workers.min(cap.max(1));
    }
    let _external = simcore::domain::register_external_workers(workers);
    // Each worker's equal share of the claimed cores, granted as a thread
    // allowance so nested partition decisions (`spawn_budget`) see the
    // share, not the machine. With at least as many points as cores the
    // share is 1: partitioned jobs run on their calling thread alone.
    let allowance = (avail / workers).max(1);

    // Each input slot is claimed exactly once via the shared counter; the
    // Mutex<Option<I>> wrappers hand inputs to whichever worker claims them.
    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(RunTally::default());
    let first_panic = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let _allow = simcore::domain::set_thread_allowance(allowance);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let input = slots[i].lock().unwrap().take().expect("slot claimed once");
                        let out = f(input);
                        *results[i].lock().unwrap() = Some(out);
                    }
                    // Hand this worker's engine stats to the caller. Runs
                    // even after earlier iterations' panics unwound past the
                    // loop? No — a panic skips this, which only under-counts
                    // the already-doomed sweep.
                    let tally = fabric::take_run_tally();
                    merged.lock().unwrap().merge(&tally);
                })
            })
            .collect();
        // Join every handle (a dropped panicked handle would make the scope
        // itself panic with a generic message), keeping the first payload.
        let mut first = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = first_panic {
        // Surface the worker's own panic message to the caller.
        std::panic::resume_unwind(payload);
    }
    fabric::merge_run_tally(&merged.into_inner().unwrap());
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result"))
        .collect()
}

/// Sweep workers for a machine with `avail` cores and `n` inputs: one per
/// core, never more than there are inputs, with a floor of one worker so
/// narrow machines still make progress.
fn worker_budget(avail: usize, n: usize) -> usize {
    avail.min(n).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_takes_one_worker_per_core() {
        assert_eq!(worker_budget(8, 100), 8, "every core sweeps");
        assert_eq!(worker_budget(1, 100), 1, "floor of one worker");
        assert_eq!(worker_budget(16, 3), 3, "never more workers than jobs");
    }

    #[test]
    fn workers_register_as_external_while_sweeping() {
        // Release-on-drop is covered in simcore (guard tests); sibling tests
        // may sweep concurrently, so only the in-flight claim is asserted.
        let cfg = RunConfig::default();
        let seen = parallel_map(&cfg, vec![(), (), ()], |_| {
            simcore::domain::external_workers()
        });
        assert!(
            seen.iter().all(|&w| w >= 1),
            "jobs must see the sweep's claim: {seen:?}"
        );
    }

    #[test]
    fn workers_run_jobs_under_a_thread_allowance() {
        let cfg = RunConfig::default();
        let seen = parallel_map(&cfg, vec![(), (), ()], |_| simcore::domain::spawn_budget());
        // Each worker owns an equal share of the machine, granted as its
        // thread allowance: a job's budget is never zero and never wider
        // than the whole machine (which would oversubscribe once every
        // worker partitions).
        let avail = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert!(seen.iter().all(|&b| b >= 1 && b <= avail), "{seen:?}");
    }

    #[test]
    fn config_caps_worker_budget() {
        let cfg = RunConfig {
            workers: Some(1),
            ..RunConfig::default()
        };
        // With a single worker the pool is one thread claiming each input in
        // turn; correctness (order, completeness) must be unaffected.
        let out = parallel_map(&cfg, (0..16).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_tallies_merge_into_caller() {
        // Each job runs a tiny fabric on a worker thread; its engine stats
        // must land in the caller's thread-local tally after the join.
        fn probe_run() {
            let mut b = ibfabric::fabric::FabricBuilder::new(7);
            let _n = b.add_hca(
                ibfabric::hca::HcaConfig::default(),
                Box::new(ibfabric::ulp::NullUlp),
            );
            b.finish().run();
        }
        let cfg = RunConfig::default();
        ibfabric::fabric::reset_run_tally();
        parallel_map(&cfg, vec![(), ()], |_| probe_run());
        let tally = ibfabric::fabric::run_tally();
        assert_eq!(
            tally.serial_runs, 2,
            "both workers' runs must merge back: {tally:?}"
        );
    }

    #[test]
    fn preserves_order() {
        let cfg = RunConfig::default();
        let out = parallel_map(&cfg, (0..32).collect(), |x: i32| x * x);
        assert_eq!(out, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_more_inputs_than_workers() {
        // Far more inputs than any realistic core count: exercises the
        // self-scheduling loop rather than one-thread-per-input.
        let cfg = RunConfig::default();
        let out = parallel_map(&cfg, (0..1000).collect(), |x: i32| x + 1);
        assert_eq!(out, (1..1001).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let cfg = RunConfig::default();
        let out: Vec<i32> = parallel_map(&cfg, Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        let cfg = RunConfig::default();
        parallel_map(&cfg, vec![1], |_: i32| -> i32 { panic!("boom") });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics_from_pooled_workers() {
        let cfg = RunConfig::default();
        parallel_map(&cfg, (0..64).collect(), |x: i32| {
            if x == 33 {
                panic!("boom");
            }
            x
        });
    }
}
