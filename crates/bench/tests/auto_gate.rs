//! Regression tests for `PartitionMode::Auto`'s density-probe gate.
//!
//! The probe decides serial vs. partitioned from a short serial prefix:
//! cross-domain traffic share, per-domain load balance, and event density
//! per lookahead window. These tests pin the decision for the fig13a
//! event profile — a point-to-point WAN stream that crosses the cut on
//! roughly one event in five, coalesced or per-fragment, and ran slower
//! partitioned — and for NAS collectives, whose ranks mostly talk inside
//! their own cluster and which ran faster partitioned. Each leg runs on the
//! test thread under a pretend 8-core budget so the probe itself — not the
//! machine — makes the call.

use ibfabric::fabric::{reset_run_tally, run_tally, EngineProfile, RunTally};
use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
use ibfabric::qp::QpConfig;
use ibwan_core::topo::build_pair;
use ibwan_core::{RunConfig, TopoSpec};
use mpisim::world::JobSpec;
use nasbench::NasBenchmark;
use nfssim::{run_read_experiment, NfsSetup, Transport};
use simcore::domain::set_test_assume_cores;
use simcore::Dur;

/// Restore the real core count even if an assertion unwinds.
struct CoresGuard;
impl Drop for CoresGuard {
    fn drop(&mut self) {
        set_test_assume_cores(0);
    }
}

/// One fig13a point (NFS/RDMA read, 1 ms Longbow delay) on the calling
/// thread, returning the engine-choice tally for the run.
fn nfs_wan_tally(threads: usize, coalescing: bool) -> RunTally {
    reset_run_tally();
    let mut s = NfsSetup::scaled(Transport::Rdma, threads, Some(Dur::from_us(1000)));
    s.file_size = 16 << 20; // Quick fidelity, same as the fig13a sweep
    s.profile = EngineProfile {
        coalescing,
        ..EngineProfile::default()
    };
    let _ = run_read_experiment(s);
    run_tally()
}

/// Coalesced fig13a points must run serially: the single-stream point is
/// lopsided (the server fans RDMA writes to a thin client — Amdahl's bound
/// caps the win below the handoff cost) and both cross the cut too often.
#[test]
fn auto_declines_partitioning_for_coalesced_nfs_wan_points() {
    let _cores = CoresGuard;
    set_test_assume_cores(8);
    for threads in [1, 8] {
        let t = nfs_wan_tally(threads, true);
        assert_eq!(
            (t.serial_runs, t.partitioned_runs),
            (1, 0),
            "fig13a point (threads={threads}) must decline partitioning: {t:?}"
        );
    }
}

/// The same workload per-fragment is dense and balanced, but every fifth
/// event still crosses the cut: the cross-share ceiling declines it too,
/// so the decline keys on the traffic shape, not on coalescing.
#[test]
fn auto_declines_partitioning_for_per_fragment_nfs_wan_point() {
    let _cores = CoresGuard;
    set_test_assume_cores(8);
    let t = nfs_wan_tally(8, false);
    assert_eq!(
        (t.serial_runs, t.partitioned_runs),
        (1, 0),
        "per-fragment fig13a point must decline partitioning: {t:?}"
    );
}

/// NAS IS at 8+8 ranks over a 10 ms WAN: a deep, balanced, mostly
/// cluster-local all-to-all — the profile partitioning wins on — so the
/// gate must accept it, proving the declines above key on the event
/// profile, not the topology.
#[test]
fn auto_accepts_partitioning_for_nas_collectives() {
    let _cores = CoresGuard;
    set_test_assume_cores(8);
    reset_run_tally();
    let spec = JobSpec::two_clusters(8, 8, Dur::from_ms(10));
    let r = nasbench::run_spec(NasBenchmark::Is, spec);
    assert!(r.time_secs > 0.0);
    let t = run_tally();
    assert!(
        t.partitioned_runs >= 1 && t.serial_runs == 0,
        "NAS IS 8+8 at 10 ms must partition: {t:?}"
    );
}

/// One RC stream of `msgs` 64 KiB messages over a 1 ms two-site WAN under
/// `PartitionMode::Auto`, returning the engine-choice tally.
fn rc_stream_tally(msgs: u64) -> RunTally {
    reset_run_tally();
    let (mut f, a, b) = build_pair(
        &RunConfig::default(),
        47,
        &TopoSpec::two_site(Dur::from_ms(1)),
        Box::new(BwPeer::sender(BwConfig::new(65536, msgs))),
        Box::new(BwPeer::receiver()),
    );
    let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
    f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
    f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
    f.run();
    run_tally()
}

/// A Quick-fidelity-sized stream finishes inside the probe's serial prefix:
/// there is nothing left for domain threads to speed up, so the gate must
/// decline instead of paying thread spawns and window syncs for a measured
/// 0.9× "speedup". (Before the multi-slice probe, an all-at-t=0 prefix
/// measured zero elapsed virtual time and defaulted to *accept*.)
#[test]
fn auto_declines_partitioning_for_probe_sized_quick_streams() {
    let _cores = CoresGuard;
    set_test_assume_cores(8);
    let t = rc_stream_tally(4);
    assert_eq!(
        (t.serial_runs, t.partitioned_runs),
        (1, 0),
        "a probe-sized stream must decline partitioning: {t:?}"
    );
}

/// With no spare cores the gate never reaches the probe: a 1-core box must
/// run serially no matter how favorable the event profile looks.
#[test]
fn auto_stays_serial_without_spare_cores() {
    let _cores = CoresGuard;
    set_test_assume_cores(1);
    let t = nfs_wan_tally(8, false);
    assert_eq!(
        (t.serial_runs, t.partitioned_runs),
        (1, 0),
        "1-core box must never spawn domain threads: {t:?}"
    );
}
