//! Serial-vs-partitioned A/B for the MPI stack: the domain engine must be
//! invisible in every result, across the paper's full delay sweep (the d=0
//! point has the narrowest lookahead and stresses the window protocol most).
//!
//! The engine choice rides on each `JobSpec`'s [`EngineProfile`] — no
//! process-global mode, so the A/B legs cannot interfere with each other or
//! with concurrently running tests. Every partitioned leg runs at 1, 2, and
//! 4 stealers (a thread-local core override) with the executor's start
//! jitter on, so window boundaries and thread interleavings differ between
//! legs while the results may not.

use ibfabric::fabric::EngineProfile;
use mpisim::bench::{osu_bw, wan_pair_with};
use mpisim::patterns::Pattern;
use mpisim::proto::MpiConfig;
use mpisim::world::{JobSpec, MpiJob};
use simcore::domain::{set_test_assume_cores, set_test_start_jitter_us};
use simcore::Dur;

/// Run `f` once per stealer count with a jitter knob derived from it.
fn at_every_stealer_count<T>(mut f: impl FnMut(usize) -> T) -> Vec<T> {
    [1usize, 2, 4]
        .into_iter()
        .map(|stealers| {
            set_test_assume_cores(stealers);
            set_test_start_jitter_us(37 * stealers as u64);
            let out = f(stealers);
            set_test_start_jitter_us(0);
            set_test_assume_cores(0);
            out
        })
        .collect()
}

fn bw(delay_us: u64, size: u32, profile: EngineProfile) -> f64 {
    let spec = wan_pair_with(Dur::from_us(delay_us), MpiConfig::default()).with_profile(profile);
    osu_bw(spec, size, 8, 2)
}

#[test]
fn osu_bw_matches_serial_across_delays() {
    for d in [0, 10, 100, 1000, 10000] {
        let serial = bw(d, 4096, EngineProfile::default());
        for (i, partitioned) in at_every_stealer_count(|_| bw(d, 4096, EngineProfile::forced()))
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                serial, partitioned,
                "osu_bw diverged at {d}us delay (leg {i})"
            );
        }
    }
}

/// Master-worker with results above the 8 KiB eager threshold: every worker
/// answers over rendezvous, and the master's inbound transfers from
/// different workers carry the same per-sender rendezvous ids. Returns the
/// pattern's span and the job's finish time.
fn master_worker(delay_us: u64, result_bytes: u32, profile: EngineProfile) -> (u64, u64) {
    let pattern = Pattern::MasterWorker {
        task_bytes: 1024,
        result_bytes,
        tasks_per_worker: 3,
        compute_us: 20,
    };
    let spec = JobSpec::two_clusters(3, 3, Dur::from_us(delay_us)).with_profile(profile);
    let mut job = MpiJob::build(spec, |rank, n| pattern.ops(rank, n));
    let end = job.run();
    let t0 = (0..6)
        .filter_map(|r| job.process(r).runner.mark(0))
        .min()
        .expect("pattern records marks");
    let t1 = (0..6)
        .filter_map(|r| job.process(r).runner.mark(1))
        .max()
        .expect("pattern records marks");
    (t1.since(t0).as_ns(), end.as_ns())
}

#[test]
fn master_worker_rendezvous_results_match_serial() {
    for result_bytes in [16 << 10, 64 << 10] {
        for d in [0, 1000] {
            let serial = master_worker(d, result_bytes, EngineProfile::default());
            assert!(serial.0 > 0, "pattern must take time");
            for (i, partitioned) in
                at_every_stealer_count(|_| master_worker(d, result_bytes, EngineProfile::forced()))
                    .into_iter()
                    .enumerate()
            {
                assert_eq!(
                    serial, partitioned,
                    "master-worker {result_bytes}B results diverged at {d}us (leg {i})"
                );
            }
        }
    }
}

#[test]
fn osu_bw_rendezvous_sizes_match_serial() {
    for (d, size, window) in [
        (0, 65536, 64),
        (10000, 65536, 64),
        (10000, 1 << 20, 8),
        (10000, 4 << 20, 2),
    ] {
        let spec = wan_pair_with(Dur::from_us(d), MpiConfig::default())
            .with_profile(EngineProfile::default());
        let serial = osu_bw(spec, size, window, 3);
        let legs = at_every_stealer_count(|_| {
            let spec = wan_pair_with(Dur::from_us(d), MpiConfig::default())
                .with_profile(EngineProfile::forced());
            osu_bw(spec, size, window, 3)
        });
        for (i, partitioned) in legs.into_iter().enumerate() {
            assert_eq!(
                serial, partitioned,
                "osu_bw diverged at {d}us/{size}B (leg {i})"
            );
        }
    }
}
