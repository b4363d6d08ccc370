//! Conservative partitioned parallel execution: split one engine's actor
//! graph into domains and run their event loops on a work-stealing executor
//! that maps any number of domains onto any number of threads.
//!
//! ## Why this is safe on a WAN topology
//!
//! The paper's entire setup is two InfiniBand clusters joined by Obsidian
//! Longbow routers whose injected WAN delay (5 µs–10 ms) dwarfs
//! intra-cluster event spacing. Every message between the clusters crosses
//! the Longbow–Longbow cable and therefore arrives at least the cable's
//! minimum propagation delay — the **lookahead** `L[s][d]` — after the event
//! that sent it. That is exactly the structure conservative parallel
//! discrete-event simulation (Chandy–Misra style) exploits.
//!
//! ## The work-stealing executor
//!
//! The split engines sit in per-domain slots. All scheduler state — which
//! domains are checked out, each domain's effective next-event time `nvt`,
//! per-destination inboxes, wire tails, and per-direction arrival counters —
//! lives under one `Mutex`. A **stealer** is any thread running the loop:
//!
//! 1. under the lock, compute every domain's floor
//!    `floor_s = min over r of nvt_r + P0[r][s]` (the zero-diagonal
//!    lookahead path closure, so transit chains count) and, per parked
//!    domain, its horizon
//!
//!    ```text
//!    H_d = min over inbound s of  max(floor_s + L[s][d], wire_tail[s][d])
//!    ```
//!
//!    and check out a domain with `nvt_d < H_d` (lowest `nvt` first);
//! 2. outside the lock, process **every** event strictly below `H_d` in one
//!    `run_until` call;
//! 3. under the lock again, deliver its outbox — straight into a parked
//!    receiver's queue, or into a checked-out receiver's inbox — then insert
//!    whatever landed in its own inbox meanwhile and return it to its slot.
//!
//! A checked-out domain keeps its checkout `nvt` as its floor: nothing its
//! window dispatches lies below it, so peers may run concurrently against
//! that bound. The calling thread is stealer 0. Up to
//! `min(spawn_budget(), domains) - 1` helpers are spawned lazily, and a
//! helper is woken (or spawned) only when a checkout leaves another domain
//! runnable. A stealer with nothing runnable waits on a `Condvar` — never
//! on a timer — and `DomainReport::sync_rounds` counts those waits
//! (`EngineCounters::barrier_ns` their wall time, `sync_rounds_saved` the
//! windows a stealer took without waiting first). Under strictly
//! alternating traffic the stealer that finished A's window finds B
//! runnable and runs it itself: no handoff, no wakeup. With a budget of one
//! the calling thread runs every window itself; the single-thread case
//! needs no code path of its own.
//!
//! ## Train-aware lookahead widening
//!
//! `wire_tail[s][d]` is the arrival time of the *last fragment* of the most
//! recent coalesced train staged from `s` to `d`. On directions the fabric
//! marks `tail_safe` — all traffic crosses exactly one serialized cut cable
//! — the cable's rate limiter makes staged arrival times monotone: any
//! message staged later arrives no earlier than the previous train's tail.
//! The horizon may therefore run past the static `floor + L` bound right up
//! to the tail of a long in-flight train. When no promise is available
//! (`tail_safe` false, or nothing staged yet) the conservative static
//! lookahead bound is the fallback.
//!
//! ## Deterministic arrival ordering (window-size independence)
//!
//! Arrivals are inserted with sequence keys from the reserved upper half of
//! the sequence space: `(1 << 63) | (src << 40) | per-src counter`. The key
//! depends only on the sender and that sender's FIFO position — never on
//! *when* or *by which thread* the receiver's inbox was drained — so the
//! final processing order of every queue is the pure `(time, seq)` heap
//! order, identical for any window boundaries, stealer count, or thread
//! interleaving. That theorem is what makes every schedule bit-identical to
//! the serial engine.
//!
//! ## Termination
//!
//! Everything is decided under the lock: when no domain is checked out and
//! nothing is runnable, every `nvt` must be `u64::MAX` (inboxes count toward
//! `nvt`), and the run is over. A stop request, the event budget, or a panic
//! inside a window set `exit` and wake every idle stealer; the calling
//! thread re-raises a panic once every helper has returned its domain.
//!
//! RNG note: per-domain engines derive their own seeds, so a partitioned
//! run is only bit-identical to the serial one when the simulation draws no
//! randomness mid-run. The one RNG consumer in the workload (lossy Longbow
//! WAN loss) disables partitioning at build time, mirroring how it already
//! disables fragment-train coalescing.

use crate::engine::{Actor, ActorId, Ctx, Engine, EventKind, Msg, Partition, Staged};
use crate::time::{Dur, Time};
use ibwire::Packet;
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// How a fabric is split into domains, produced by the fabric builder from
/// the topology (domains = connected components after cutting every
/// bridge–bridge cable).
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Number of domains (≥ 2 for a useful split).
    pub domains: usize,
    /// For every actor id, the domain that owns it.
    pub domain_of: Vec<u32>,
    /// `lookahead_ns[s][d]`: minimum virtual-time delay, in nanoseconds, of
    /// any message a domain-`s` actor can schedule onto a domain-`d` actor.
    /// `u64::MAX` marks pairs with no connecting cut edge (no traffic).
    pub lookahead_ns: Vec<Vec<u64>>,
    /// `tail_safe[s][d]`: every `s → d` message crosses exactly one
    /// serialized cut cable, so the arrival times of staged messages are
    /// monotone in staging order and a coalesced train's tail is a valid
    /// promise that nothing later arrives before it (the train-aware
    /// lookahead widening). An empty matrix means "no promises anywhere".
    pub tail_safe: Vec<Vec<bool>>,
}

impl DomainSpec {
    /// The smallest finite lookahead — the window the protocol can sustain.
    pub fn min_lookahead(&self) -> Option<Dur> {
        self.lookahead_ns
            .iter()
            .flatten()
            .copied()
            .filter(|&l| l != u64::MAX)
            .min()
            .map(Dur::from_ns)
    }

    /// All-pairs lookahead path closure: `P[s][d]` is the minimum
    /// accumulated lookahead along any causal chain of **at least one** cut
    /// crossing from `s` to `d`; for `s == d` that is the cheapest cycle
    /// through `d`. Floyd–Warshall over the direct-edge matrix (the
    /// all-infinite diagonal keeps every relaxation a ≥ 1-edge walk);
    /// `u64::MAX` = no such chain. The executor's floors use this closure
    /// (with a zero diagonal), and `compute_plan` tests pin its bounds on
    /// 2-domain, ring, and star cuts.
    pub fn path_closure(&self) -> Vec<Vec<u64>> {
        let n = self.domains;
        let mut p = self.lookahead_ns.clone();
        for k in 0..n {
            for i in 0..n {
                if p[i][k] == u64::MAX {
                    continue;
                }
                for j in 0..n {
                    if p[k][j] == u64::MAX {
                        continue;
                    }
                    let via = p[i][k].saturating_add(p[k][j]);
                    if via < p[i][j] {
                        p[i][j] = via;
                    }
                }
            }
        }
        p
    }

    /// Whether the `s → d` direction carries a wire-tail promise.
    pub fn tail_safe_dir(&self, s: usize, d: usize) -> bool {
        self.tail_safe
            .get(s)
            .and_then(|row| row.get(d))
            .copied()
            .unwrap_or(false)
    }

    /// A spec is runnable when it has ≥ 2 domains, every lookahead is
    /// positive, every domain that can be sent to has a finite lookahead
    /// from each of its senders (which is how the matrix is built: one
    /// entry per cut-edge direction), and the tail-safe matrix — if present
    /// — matches the domain count.
    pub fn is_runnable(&self) -> bool {
        let n = self.domains;
        n >= 2
            && self.lookahead_ns.iter().flatten().all(|&l| l > 0)
            && (0..n).all(|d| (0..n).any(|s| s != d && self.lookahead_ns[s][d] != u64::MAX))
            && (self.tail_safe.is_empty()
                || (self.tail_safe.len() == n && self.tail_safe.iter().all(|r| r.len() == n)))
    }
}

/// What a partitioned run did, for `Fabric::report()` and the perf harness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DomainReport {
    /// Domains the run was split into.
    pub domains: usize,
    /// Condvar waits: the number of times a stealer found no runnable
    /// domain and slept until a peer's window returned. Always zero with
    /// one stealer, and under strictly alternating traffic.
    pub sync_rounds: u64,
    /// Helper wakeups: condvar notifications plus helper spawns, each issued
    /// only when a checkout left a second domain runnable.
    pub helper_wakeups: u64,
    /// Events dispatched by each domain (sums to the serial event count).
    pub events_per_domain: Vec<u64>,
}

/// Worker threads claimed by an enclosing parameter sweep or job runner.
/// `spawn_budget` subtracts these from `available_cores` so a saturating
/// sweep doesn't oversubscribe cores with domain threads.
static EXTERNAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Test-only schedule perturbation: before its first steal, stealer `i`
/// sleeps `((i+1) * knob) % 5000` microseconds, and every pick rotates among
/// the runnable domains instead of taking the lowest `nvt`. Determinism
/// tests sweep the knob to randomize window boundaries and thread
/// interleaving; results must not move.
static START_JITTER_US: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Test override for [`available_cores`] (0 = unset). Thread-local so
    /// concurrently running tests cannot race each other's knobs.
    static ASSUME_CORES: Cell<usize> = const { Cell::new(0) };
    /// Per-job thread allowance granted by an enclosing worker pool
    /// (0 = none granted): the share of cores this job may spend on domain
    /// threads, already debited from the pool's budget. Takes precedence
    /// over the global `cores - external_workers` heuristic, which cannot
    /// tell "claimed for me" from "claimed by a sibling".
    static THREAD_ALLOWANCE: Cell<usize> = const { Cell::new(0) };
}

/// Register `n` pool worker threads for the duration of the returned
/// guard. Nested fabric runs see them via [`external_workers`].
pub fn register_external_workers(n: usize) -> ExternalWorkersGuard {
    EXTERNAL_WORKERS.fetch_add(n, Ordering::SeqCst);
    ExternalWorkersGuard(n)
}

/// Currently registered pool workers.
pub fn external_workers() -> usize {
    EXTERNAL_WORKERS.load(Ordering::SeqCst)
}

/// RAII handle from [`register_external_workers`]; deregisters on drop
/// (including during a panic unwind, so a failed sweep can't poison the
/// heuristic for the rest of the process).
pub struct ExternalWorkersGuard(usize);

impl Drop for ExternalWorkersGuard {
    fn drop(&mut self) {
        EXTERNAL_WORKERS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// Set the test-only start-jitter knob (0 disables). See [`START_JITTER_US`].
pub fn set_test_start_jitter_us(us: u64) {
    START_JITTER_US.store(us, Ordering::SeqCst);
}

/// Pretend this machine has `n` cores for partitioning decisions made on
/// the current thread (0 restores the real count). Partitioned runs started
/// on this thread then use `n` stealers at most, so tests can exercise any
/// stealer count on any machine.
pub fn set_test_assume_cores(n: usize) {
    ASSUME_CORES.with(|c| c.set(n));
}

/// Cores available to this process, honoring the test override.
pub fn available_cores() -> usize {
    let assumed = ASSUME_CORES.with(|c| c.get());
    if assumed > 0 {
        return assumed;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Grant the current thread's jobs an explicit domain-thread allowance for
/// the guard's lifetime (how a worker pool passes each job its pre-debited
/// share of the core budget). Nests; the guard restores the previous value.
pub fn set_thread_allowance(n: usize) -> ThreadAllowanceGuard {
    ThreadAllowanceGuard(THREAD_ALLOWANCE.with(|c| c.replace(n)))
}

/// RAII handle from [`set_thread_allowance`].
pub struct ThreadAllowanceGuard(usize);

impl Drop for ThreadAllowanceGuard {
    fn drop(&mut self) {
        THREAD_ALLOWANCE.with(|c| c.set(self.0));
    }
}

/// How many stealer threads a partitioned run started on this thread may
/// use: the pool-granted allowance if one is set, otherwise whatever the
/// machine has left after registered external workers. Never below 1 (the
/// calling thread itself, which always steals).
pub fn spawn_budget() -> usize {
    let allowance = THREAD_ALLOWANCE.with(|c| c.get());
    if allowance > 0 {
        return allowance;
    }
    available_cores().saturating_sub(external_workers()).max(1)
}

/// Deterministic sequence key for a cross-domain arrival: upper half of the
/// sequence space (arrivals sort after every same-nanosecond local event),
/// then sender domain, then the sender's FIFO position. A pure function of
/// the simulation — independent of drain timing — which is what makes event
/// order independent of window boundaries.
pub(crate) fn arrival_seq(src: usize, counter: u64) -> u64 {
    debug_assert!(src < (1 << 23), "domain id overflows arrival seq");
    debug_assert!(counter < (1 << 40), "per-domain arrival counter overflow");
    (1 << 63) | ((src as u64) << 40) | counter
}

/// Placeholder occupying a foreign actor's slot in a domain engine so actor
/// ids stay globally stable. Dispatching to it means the partition map or
/// the lookahead protocol is wrong — fail loudly.
struct Foreign;

impl Actor for Foreign {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
        panic!("event dispatched to an actor owned by another domain");
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _pkt: Packet) {
        panic!("packet dispatched to an actor owned by another domain");
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {
        panic!("timer dispatched to an actor owned by another domain");
    }
}

/// Run `engine` to quiescence split across `spec.domains` on the
/// work-stealing executor — the calling thread plus up to
/// `min(spawn_budget(), domains) - 1` lazily spawned helpers — then merge
/// everything (actors, clocks, counters, any leftover events) back so the
/// caller sees the same `Engine` API surface as a serial run. Every stealer
/// count and schedule produces a bit-identical simulation.
///
/// Requirements: `spec.is_runnable()`, one `domain_of` entry per actor, and
/// tracing disabled (a single bounded trace cannot interleave two threads'
/// dispatch records meaningfully).
pub fn run_partitioned(engine: &mut Engine, spec: &DomainSpec) -> DomainReport {
    assert!(spec.is_runnable(), "domain spec is not runnable: {spec:?}");
    assert_eq!(
        spec.domain_of.len(),
        engine.actors.len(),
        "domain map must cover every actor"
    );
    assert!(
        engine.trace.is_none(),
        "partitioned runs do not support tracing; run serially instead"
    );

    let domain_of: Arc<[u32]> = spec.domain_of.clone().into();
    let subs = split_engine(engine, spec, &domain_of);
    let (results, sched) = run_stealing(subs, spec, &domain_of);

    let mut report = DomainReport {
        domains: spec.domains,
        sync_rounds: sched.waits,
        helper_wakeups: sched.wakeups,
        events_per_domain: results
            .iter()
            .map(|e| e.core.counters.events_processed)
            .collect(),
    };
    report.events_per_domain.shrink_to_fit();

    merge_results(engine, results, &domain_of, sched.stopped);
    engine.core.counters.barrier_ns += sched.wait_ns;
    report
}

/// Split the caller's engine into one engine per domain: actor ids
/// preserved via `Foreign` stubs, queued events redistributed in pop order,
/// deterministic per-domain seeds and disjoint timer-id ranges.
fn split_engine(engine: &mut Engine, spec: &DomainSpec, domain_of: &Arc<[u32]>) -> Vec<Engine> {
    let n = spec.domains;
    let mut subs: Vec<Engine> = (0..n as u64)
        .map(|d| {
            // Distinct deterministic per-domain seeds (never drawn from in
            // figure workloads — lossy fabrics run serially — but the
            // engines need *a* generator).
            let mut e = Engine::new(
                engine
                    .seed
                    .wrapping_add((d + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            e.now = engine.now;
            e.core.queue = engine.core.queue.empty_like(engine.now);
            e.event_limit = engine.event_limit;
            // Disjoint timer-id ranges: domain d allocates above a high-bits
            // tag so post-split TimerIds never collide across domains.
            e.core.next_timer_id = engine.core.next_timer_id + ((d + 1) << 48);
            e.core.cancelled = engine.core.cancelled.clone();
            e.core.partition = Some(Partition {
                domain: d as u32,
                domain_of: Arc::clone(domain_of),
                outbox: Vec::new(),
            });
            e
        })
        .collect();

    // Actors move to their owner; every other domain gets a Foreign stub at
    // the same index so ActorIds remain valid everywhere.
    for (id, actor) in std::mem::take(&mut engine.actors).into_iter().enumerate() {
        let owner = domain_of[id] as usize;
        for (d, sub) in subs.iter_mut().enumerate() {
            if d == owner {
                sub.actors.push(actor_slot_placeholder());
            } else {
                sub.actors.push(Box::new(Foreign));
            }
        }
        let _ = std::mem::replace(&mut subs[owner].actors[id], actor);
    }

    // Already-queued events redistribute in (time, seq) pop order, so each
    // domain's queue preserves the global relative order of its events.
    while let Some(key) = engine.core.queue.pop_untracked() {
        let kind = engine.core.nodes[key.idx as usize]
            .take()
            .expect("heap key points at an empty slab slot");
        let owner = match &kind {
            EventKind::Message { to, .. } => domain_of[*to] as usize,
            EventKind::Timer { actor, .. } => domain_of[*actor] as usize,
        };
        subs[owner].core.push_event(key.at(), kind);
    }
    engine.core.nodes.clear();
    engine.core.free.clear();
    subs
}

/// Merge per-domain engines back into the caller's engine.
fn merge_results(
    engine: &mut Engine,
    mut results: Vec<Engine>,
    domain_of: &Arc<[u32]>,
    stopped: bool,
) {
    engine.now = results.iter().map(|e| e.now).max().unwrap_or(engine.now);
    engine.core.stop = stopped;

    // Actors return home in id order.
    let actor_count = domain_of.len();
    engine.actors.reserve(actor_count);
    for id in 0..actor_count {
        let owner = domain_of[id] as usize;
        let slot = std::mem::replace(&mut results[owner].actors[id], Box::new(Foreign));
        engine.actors.push(slot);
    }

    let mut leftovers: Vec<(u64, usize, u64, EventKind)> = Vec::new();
    for (d, sub) in results.iter_mut().enumerate() {
        engine.core.counters += sub.core.counters;
        engine.core.next_timer_id = engine.core.next_timer_id.max(sub.core.next_timer_id);
        engine.core.cancelled.extend(sub.core.cancelled.drain());
        // A stop request can strand events in domain queues; pull them back
        // so the merged engine's queue matches "stopped mid-run" serial
        // state as closely as a parallel run can (ordered by time, then
        // domain, then per-domain scheduling order).
        let mut order = 0u64;
        while let Some(key) = sub.core.queue.pop_untracked() {
            let kind = sub.core.nodes[key.idx as usize]
                .take()
                .expect("heap key points at an empty slab slot");
            leftovers.push((key.at().as_ns(), d, order, kind));
            order += 1;
        }
    }
    leftovers.sort_by_key(|&(at, d, ord, _)| (at, d, ord));
    for (at, _, _, kind) in leftovers {
        engine.core.push_event(Time::from_ns(at), kind);
    }
}

/// Fresh placeholder box used while threading actors into domain vectors.
fn actor_slot_placeholder() -> Box<dyn Actor> {
    Box::new(Foreign)
}

/// Arrival time of the last fragment a staged message puts on the wire: the
/// analytic train tail for coalesced packet trains, the delivery time
/// itself for everything else.
fn staged_tail(staged: &Staged) -> u64 {
    let base = staged.at.as_ns();
    match &staged.msg {
        Msg::Packet(p) if p.count > 1 && (p.gap_ns > 0 || p.msgs > 1) => {
            base.saturating_add(p.train_tail_offset_ns())
        }
        _ => base,
    }
}

/// A cross-domain message waiting in its receiver's inbox, already carrying
/// its deterministic arrival key.
struct Arrival {
    staged: Staged,
    seq: u64,
}

/// Everything the stealers share, guarded by [`Executor::state`].
struct Sched {
    /// Parked domain engines; `None` while a stealer has the domain checked
    /// out.
    slots: Vec<Option<Box<Engine>>>,
    /// Effective next-event time per domain (`u64::MAX` = idle): for a
    /// parked domain the minimum over its queue and its inbox; for a
    /// checked-out one its checkout `nvt` (the floor of everything the
    /// running window can dispatch) lowered by whatever has arrived since.
    nvt: Vec<u64>,
    /// Arrivals for checked-out domains (a parked receiver takes them
    /// straight into its queue). The stealer returning the domain inserts
    /// them, outside the lock, before its next window.
    inbox: Vec<Vec<Arrival>>,
    /// `wire_tails[src * n + dst]`: latest staged train-tail arrival promise.
    wire_tails: Vec<u64>,
    /// `arrival_ctr[dst * n + src]`: per-direction FIFO position, the low
    /// bits of every arrival key.
    arrival_ctr: Vec<u64>,
    /// Scratch for the per-source floors [`Sched::pick`] computes.
    floors: Vec<u64>,
    /// Domains currently checked out.
    running: usize,
    /// Stealers blocked on the condvar.
    idle: usize,
    /// Wakeups issued to idle stealers that none has consumed yet.
    notified: usize,
    /// Helper threads spawned so far (the calling thread is not counted).
    helpers: usize,
    /// Every stealer leaves: quiescence, a stop, the event budget, or a panic.
    exit: bool,
    /// An actor requested a stop.
    stopped: bool,
    /// First panic payload from a window (or the stall detector), re-raised
    /// on the calling thread once every helper has returned its domain.
    panic: Option<Box<dyn Any + Send>>,
    /// Condvar waits (the report's `sync_rounds`).
    waits: u64,
    /// Wall nanoseconds stealers spent in those waits.
    wait_ns: u64,
    /// Helper wakeups: condvar notifications plus helper spawns.
    wakeups: u64,
    /// Rotates the pick among runnable domains under the test jitter knob.
    jitter_cursor: u64,
}

/// What [`Sched::pick`] found.
struct Pick {
    domain: usize,
    horizon: u64,
    /// Another parked domain is runnable too: work for a second stealer.
    helper_work: bool,
}

impl Sched {
    /// Choose a parked domain whose effective next-event time lies below its
    /// horizon. Floors come from the live effective next-event times through
    /// the zero-diagonal path closure `p0`, so a checked-out domain bounds
    /// its peers by its checkout `nvt` and every transit chain through it.
    /// Prefers the lowest `nvt` (it is always runnable when nothing is
    /// checked out — the progress theorem); the test jitter knob rotates the
    /// choice instead.
    fn pick(&mut self, links: &Links, jitter: u64) -> Option<Pick> {
        let n = self.nvt.len();
        for src in 0..n {
            let mut floor = u64::MAX;
            for (r, &nvt) in self.nvt.iter().enumerate() {
                floor = floor.min(nvt.saturating_add(links.p0[r * n + src]));
            }
            self.floors[src] = floor;
        }
        let mut best: Option<(usize, u64)> = None;
        let mut runnable = 0u64;
        for me in 0..n {
            let my_nvt = self.nvt[me];
            if my_nvt == u64::MAX || self.slots[me].is_none() {
                continue;
            }
            let mut horizon = u64::MAX;
            for e in &links.inbound[me] {
                let mut bound = self.floors[e.src].saturating_add(e.lookahead);
                if e.tail_safe {
                    bound = bound.max(self.wire_tails[e.src * n + me]);
                }
                horizon = horizon.min(bound);
            }
            if my_nvt >= horizon {
                continue;
            }
            runnable += 1;
            let take = match best {
                None => true,
                Some(_) if jitter > 0 => (self.jitter_cursor + jitter).is_multiple_of(runnable),
                Some((b, _)) => my_nvt < self.nvt[b],
            };
            if take {
                best = Some((me, horizon));
            }
        }
        self.jitter_cursor = self.jitter_cursor.wrapping_add(1);
        let (domain, horizon) = best?;
        Some(Pick {
            domain,
            horizon,
            helper_work: runnable >= 2,
        })
    }

    /// Hand a returned window's outbox to the receivers' inboxes under the
    /// sender's arrival keys, maintaining wire-tail promises and the
    /// receivers' effective next-event times.
    fn deliver(&mut self, links: &Links, me: usize, outbox: &mut Vec<Staged>) {
        let n = self.nvt.len();
        for staged in outbox.drain(..) {
            let dst = links.domain_of[staged.to] as usize;
            if links.tail_safe[me * n + dst] {
                debug_assert!(
                    staged.msg.is_packet(),
                    "control message on a tail-safe direction voids the wire-tail promise"
                );
                let wt = &mut self.wire_tails[me * n + dst];
                *wt = (*wt).max(staged_tail(&staged));
            }
            let ctr = &mut self.arrival_ctr[dst * n + me];
            let seq = arrival_seq(me, *ctr);
            *ctr += 1;
            let at = staged.at.as_ns();
            if at < self.nvt[dst] {
                self.nvt[dst] = at;
            }
            match self.slots[dst].as_mut() {
                // Parked: straight into the receiver's queue.
                Some(eng) => {
                    let Staged { at, from, to, msg } = staged;
                    eng.core
                        .push_event_arrival(at, EventKind::Message { from, to, msg }, seq);
                }
                None => self.inbox[dst].push(Arrival { staged, seq }),
            }
        }
    }

    /// Leave: wake every idle stealer so it sees `exit` too.
    fn shut_down(&mut self, wake: &Condvar) {
        self.exit = true;
        wake.notify_all();
    }
}

/// One inbound cut direction of a domain, as the horizon needs it.
struct Inbound {
    src: usize,
    lookahead: u64,
    tail_safe: bool,
}

/// The spec's matrices flattened for the scheduler's hot path.
struct Links {
    domain_of: Arc<[u32]>,
    /// `p0[r * n + s]`: zero-diagonal lookahead path closure, so floors
    /// bound a domain's own queue too.
    p0: Vec<u64>,
    /// `tail_safe[s * n + d]`, all false when the spec carries no promises.
    tail_safe: Vec<bool>,
    /// Per domain, every sender with a finite lookahead onto it.
    inbound: Vec<Vec<Inbound>>,
}

impl Links {
    fn new(spec: &DomainSpec, domain_of: &Arc<[u32]>) -> Links {
        let n = spec.domains;
        let closure = spec.path_closure();
        let p0 = (0..n * n)
            .map(|i| {
                if i / n == i % n {
                    0
                } else {
                    closure[i / n][i % n]
                }
            })
            .collect();
        let tail_safe = (0..n * n)
            .map(|i| spec.tail_safe_dir(i / n, i % n))
            .collect();
        let inbound = (0..n)
            .map(|me| {
                (0..n)
                    .filter(|&src| src != me && spec.lookahead_ns[src][me] != u64::MAX)
                    .map(|src| Inbound {
                        src,
                        lookahead: spec.lookahead_ns[src][me],
                        tail_safe: spec.tail_safe_dir(src, me),
                    })
                    .collect()
            })
            .collect();
        Links {
            domain_of: Arc::clone(domain_of),
            p0,
            tail_safe,
            inbound,
        }
    }
}

/// Immutable run parameters plus the scheduler lock and its condvar.
struct Executor {
    links: Links,
    /// Helpers the run may spawn: `min(spawn_budget(), domains) - 1`.
    max_helpers: usize,
    /// Test-only schedule perturbation (see [`START_JITTER_US`]).
    jitter_us: u64,
    state: Mutex<Sched>,
    wake: Condvar,
}

impl Executor {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Run the split engines on the work-stealing executor. Returns the engines
/// (in domain order) and the final scheduler state, whose counters and stop
/// flag feed the report.
fn run_stealing(
    subs: Vec<Engine>,
    spec: &DomainSpec,
    domain_of: &Arc<[u32]>,
) -> (Vec<Engine>, Sched) {
    let n = spec.domains;
    let exec = Executor {
        links: Links::new(spec, domain_of),
        max_helpers: spawn_budget().min(n) - 1,
        jitter_us: START_JITTER_US.load(Ordering::SeqCst),
        state: Mutex::new(Sched {
            nvt: subs
                .iter()
                .map(|e| e.next_event_time().map_or(u64::MAX, |t| t.as_ns()))
                .collect(),
            slots: subs.into_iter().map(|e| Some(Box::new(e))).collect(),
            inbox: (0..n).map(|_| Vec::new()).collect(),
            wire_tails: vec![0; n * n],
            arrival_ctr: vec![0; n * n],
            floors: vec![0; n],
            running: 0,
            idle: 0,
            notified: 0,
            helpers: 0,
            exit: false,
            stopped: false,
            panic: None,
            waits: 0,
            wait_ns: 0,
            wakeups: 0,
            jitter_cursor: 0,
        }),
        wake: Condvar::new(),
    };
    // The calling thread is stealer 0; helpers join the scope lazily.
    std::thread::scope(|scope| steal(0, &exec, scope));

    let mut sched = exec.state.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(payload) = sched.panic.take() {
        std::panic::resume_unwind(payload);
    }
    // A stop or budget exit can strand arrivals in inboxes; queue them in
    // their owner so they merge back as leftovers.
    let mut engines: Vec<Engine> = sched
        .slots
        .iter_mut()
        .map(|s| *s.take().expect("every stealer returns its domain"))
        .collect();
    for (eng, inbox) in engines.iter_mut().zip(sched.inbox.iter_mut()) {
        insert_arrivals(eng, inbox);
    }
    (engines, sched)
}

/// Queue a domain's pending arrivals under their precomputed keys.
fn insert_arrivals(eng: &mut Engine, inbox: &mut Vec<Arrival>) {
    for Arrival { staged, seq } in inbox.drain(..) {
        let Staged { at, from, to, msg } = staged;
        eng.core
            .push_event_arrival(at, EventKind::Message { from, to, msg }, seq);
    }
}

/// One stealer's loop: check out a runnable domain, run its window outside
/// the lock, return it and deliver its outbox; wait on the condvar only when
/// nothing is runnable. Spawns (or wakes) a helper whenever a checkout
/// leaves another domain runnable and the thread budget allows one.
fn steal<'scope>(id: usize, exec: &'scope Executor, scope: &'scope Scope<'scope, '_>) {
    if exec.jitter_us > 0 {
        // Deterministic per-stealer skew, purely to shake the OS schedule.
        std::thread::sleep(Duration::from_micros(
            (id as u64 + 1).wrapping_mul(exec.jitter_us) % 5000,
        ));
    }
    let mut inbox: Vec<Arrival> = Vec::new();
    let mut outbox: Vec<Staged> = Vec::new();
    let mut waited = false;
    let mut s = exec.lock();
    loop {
        if s.exit {
            return;
        }
        let Some(pick) = s.pick(&exec.links, exec.jitter_us) else {
            if s.running == 0 {
                // Progress theorem: with nothing checked out, the domain
                // holding the globally minimal nvt always clears its horizon,
                // so an empty pick means quiescence — anything else is a
                // scheduler bug.
                if s.nvt.iter().any(|&t| t != u64::MAX) {
                    s.panic.get_or_insert_with(|| {
                        Box::new("partitioned engine stalled with pending events")
                    });
                }
                s.shut_down(&exec.wake);
                return;
            }
            s.idle += 1;
            s.waits += 1;
            let t0 = Instant::now();
            s = exec
                .wake
                .wait_while(s, |s| s.notified == 0 && !s.exit)
                .unwrap_or_else(|e| e.into_inner());
            s.notified = s.notified.saturating_sub(1);
            s.idle -= 1;
            s.wait_ns += t0.elapsed().as_nanos() as u64;
            waited = true;
            continue;
        };
        let d = pick.domain;
        let mut eng = s.slots[d].take().expect("picked a parked domain");
        s.running += 1;
        let mut spawn = None;
        if pick.helper_work {
            if s.idle > s.notified {
                s.notified += 1;
                s.wakeups += 1;
                exec.wake.notify_one();
            } else if s.helpers < exec.max_helpers {
                s.helpers += 1;
                s.wakeups += 1;
                spawn = Some(s.helpers);
            }
        }
        drop(s);
        if let Some(helper) = spawn {
            scope.spawn(move || steal(helper, exec, scope));
        }

        let before = eng.core.counters.events_processed;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.run_until(Time::from_ns(pick.horizon - 1));
        }));
        let delta = eng.core.counters.events_processed - before;
        eng.core.counters.record_window(delta);
        if !waited {
            eng.core.counters.sync_rounds_saved += 1;
        }
        waited = false;
        if let Some(p) = eng.core.partition.as_mut() {
            std::mem::swap(&mut outbox, &mut p.outbox);
        }
        let stop_hit = eng.core.stop;
        let limit_hit = eng.core.counters.events_processed >= eng.event_limit;

        s = exec.lock();
        s.deliver(&exec.links, d, &mut outbox);
        while !s.inbox[d].is_empty() {
            // Peers delivered while the window ran: queue those arrivals
            // outside the lock (more may land meanwhile), then park.
            std::mem::swap(&mut inbox, &mut s.inbox[d]);
            drop(s);
            insert_arrivals(&mut eng, &mut inbox);
            s = exec.lock();
        }
        s.nvt[d] = eng.next_event_time().map_or(u64::MAX, |t| t.as_ns());
        s.slots[d] = Some(eng);
        s.running -= 1;
        if let Err(payload) = run {
            s.panic.get_or_insert(payload);
            s.stopped = true;
            s.shut_down(&exec.wake);
        } else if stop_hit {
            s.stopped = true;
            s.shut_down(&exec.wake);
        } else if limit_hit {
            s.shut_down(&exec.wake);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineCounters;

    /// Echo actor mirroring the engine tests, usable across domains.
    struct Pong {
        peer: ActorId,
        delay: Dur,
        count: u32,
        limit: u32,
    }

    impl Actor for Pong {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            self.count += 1;
            if self.count < self.limit {
                ctx.send(self.peer, Box::new(0u8), self.delay);
            }
        }
    }

    fn two_domain_spec() -> DomainSpec {
        DomainSpec {
            domains: 2,
            domain_of: vec![0, 1],
            lookahead_ns: vec![
                vec![u64::MAX, Dur::from_us(100).as_ns()],
                vec![Dur::from_us(100).as_ns(), u64::MAX],
            ],
            tail_safe: Vec::new(),
        }
    }

    fn ping_pong_engine(limit: u32) -> Engine {
        let mut e = Engine::new(7);
        let a = e.add_actor(Box::new(Pong {
            peer: 1,
            delay: Dur::from_us(100),
            count: 0,
            limit,
        }));
        let b = e.add_actor(Box::new(Pong {
            peer: 0,
            delay: Dur::from_us(100),
            count: 0,
            limit,
        }));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        e
    }

    /// Run `f` with a pretended core count, restoring the real one after.
    fn with_cores<T>(n: usize, f: impl FnOnce() -> T) -> T {
        set_test_assume_cores(n);
        let r = f();
        set_test_assume_cores(0);
        r
    }

    /// Stealer counts every executor test sweeps: the single-thread loop,
    /// one helper, and more stealers than domains.
    const STEALERS: [usize; 3] = [1, 2, 4];

    /// Every stealer count, same workload, same serial golden.
    #[test]
    fn partitioned_ping_pong_matches_serial_at_every_stealer_count() {
        let mut serial = ping_pong_engine(50);
        let end_serial = serial.run();

        for cores in STEALERS {
            let (par, report) = with_cores(cores, || {
                let mut par = ping_pong_engine(50);
                let report = run_partitioned(&mut par, &two_domain_spec());
                (par, report)
            });
            assert_eq!(par.now(), end_serial, "cores={cores}");
            assert_eq!(par.events_processed(), serial.events_processed());
            assert_eq!(report.domains, 2);
            assert_eq!(
                report.events_per_domain.iter().sum::<u64>(),
                serial.events_processed()
            );
            // The batched windows must be visible in the counters.
            assert!(par.counters().windows_recorded() > 0, "cores={cores}");
            // Actors merged back with state intact and ids preserved.
            assert_eq!(par.actor::<Pong>(0).count, serial.actor::<Pong>(0).count);
            assert_eq!(par.actor::<Pong>(1).count, serial.actor::<Pong>(1).count);
        }
    }

    #[test]
    fn partitioned_counters_consolidate() {
        let mut serial = ping_pong_engine(40);
        serial.run();
        let mut par = ping_pong_engine(40);
        run_partitioned(&mut par, &two_domain_spec());
        let c: EngineCounters = par.counters();
        assert_eq!(c.events_processed, serial.counters().events_processed);
        assert!(c.pool_hits + c.events_allocated >= c.events_processed);
        assert!(c.sync_rounds_saved > 0, "windows should amortize: {c:?}");
    }

    #[test]
    fn jitter_does_not_change_outcome() {
        let mut serial = ping_pong_engine(30);
        let end = serial.run();
        for cores in STEALERS {
            for knob in [1u64, 137, 991] {
                set_test_start_jitter_us(knob);
                let mut e = ping_pong_engine(30);
                with_cores(cores, || run_partitioned(&mut e, &two_domain_spec()));
                set_test_start_jitter_us(0);
                assert_eq!(
                    e.now(),
                    end,
                    "jitter {knob} at {cores} stealers moved the clock"
                );
                assert_eq!(e.events_processed(), serial.events_processed());
            }
        }
    }

    /// Strictly alternating traffic never leaves two domains runnable at
    /// once, so the stealer that finished one side's window runs the other
    /// itself: no helper is ever woken or spawned, and nobody waits.
    #[test]
    fn alternating_ping_pong_needs_no_helper() {
        let mut serial = ping_pong_engine(200);
        let end = serial.run();
        let mut e = ping_pong_engine(200);
        let report = with_cores(2, || run_partitioned(&mut e, &two_domain_spec()));
        assert_eq!(report.helper_wakeups, 0, "{report:?}");
        assert_eq!(report.sync_rounds, 0, "{report:?}");
        assert_eq!(e.now(), end);
        assert_eq!(e.events_processed(), serial.events_processed());
    }

    /// Echo actor that burns host time per message, so two domains' windows
    /// really overlap on two stealers.
    struct Grind {
        peer: ActorId,
        count: u32,
    }

    impl Actor for Grind {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            self.count += 1;
            if self.count < 30 {
                ctx.send(self.peer, Box::new(0u8), Dur::from_us(10));
            }
        }
    }

    /// One ping-pong inside each domain keeps both runnable at once: with
    /// two or more stealers the executor must bring in a helper, and the
    /// result must still match serial.
    #[test]
    fn concurrent_domains_wake_a_helper_and_match_serial() {
        let build = || {
            let mut e = Engine::new(9);
            for peer in [1usize, 0, 3, 2] {
                e.add_actor(Box::new(Grind { peer, count: 0 }));
            }
            e.schedule_message(Time::ZERO, 1, 0, Box::new(0u8));
            e.schedule_message(Time::from_ns(1), 3, 2, Box::new(0u8));
            e
        };
        let mut spec = two_domain_spec();
        spec.domain_of = vec![0, 0, 1, 1];
        let mut serial = build();
        let end = serial.run();
        for cores in STEALERS {
            let mut e = build();
            let report = with_cores(cores, || run_partitioned(&mut e, &spec));
            assert_eq!(e.now(), end, "cores={cores}");
            assert_eq!(e.events_processed(), serial.events_processed());
            for id in 0..4 {
                assert_eq!(e.actor::<Grind>(id).count, serial.actor::<Grind>(id).count);
            }
            if cores == 1 {
                assert_eq!(report.helper_wakeups, 0, "one stealer has no helpers");
            } else {
                assert!(report.helper_wakeups > 0, "cores={cores}: {report:?}");
            }
        }
    }

    #[test]
    fn external_worker_guard_is_panic_safe() {
        assert_eq!(external_workers(), 0);
        {
            let _g = register_external_workers(3);
            assert_eq!(external_workers(), 3);
            let r = std::panic::catch_unwind(|| {
                let _inner = register_external_workers(2);
                panic!("boom");
            });
            assert!(r.is_err());
        }
        assert_eq!(external_workers(), 0, "guards must release on unwind");
    }

    #[test]
    fn thread_allowance_overrides_global_budget() {
        assert_eq!(spawn_budget(), with_cores(0, available_cores));
        {
            let _g = set_thread_allowance(3);
            assert_eq!(spawn_budget(), 3);
            {
                let _inner = set_thread_allowance(1);
                assert_eq!(spawn_budget(), 1);
            }
            assert_eq!(spawn_budget(), 3, "allowance guard must restore nesting");
        }
    }

    #[test]
    fn path_closure_finds_cycles_and_transit() {
        // Ring of three: 0 → 1 → 2 → 0, each hop 10 us.
        let hop = Dur::from_us(10).as_ns();
        let spec = DomainSpec {
            domains: 3,
            domain_of: vec![0, 1, 2],
            lookahead_ns: vec![
                vec![u64::MAX, hop, u64::MAX],
                vec![u64::MAX, u64::MAX, hop],
                vec![hop, u64::MAX, u64::MAX],
            ],
            tail_safe: Vec::new(),
        };
        let p = spec.path_closure();
        assert_eq!(p[0][1], hop, "direct edge survives");
        assert_eq!(p[0][2], 2 * hop, "transit path composes");
        assert_eq!(p[0][0], 3 * hop, "own cheapest cycle bounds self");
        assert_eq!(p[1][0], 2 * hop);
    }

    #[test]
    fn path_closure_star_cut() {
        // Star: hub 0 exchanges with leaves 1 and 2; leaves only reach each
        // other through the hub.
        let spoke = Dur::from_us(20).as_ns();
        let spec = DomainSpec {
            domains: 3,
            domain_of: vec![0, 1, 2],
            lookahead_ns: vec![
                vec![u64::MAX, spoke, spoke],
                vec![spoke, u64::MAX, u64::MAX],
                vec![spoke, u64::MAX, u64::MAX],
            ],
            tail_safe: Vec::new(),
        };
        assert!(spec.is_runnable());
        let p = spec.path_closure();
        assert_eq!(p[1][2], 2 * spoke, "leaf to leaf transits the hub");
        assert_eq!(p[1][1], 2 * spoke, "leaf cycle is out and back");
        assert_eq!(p[0][0], 2 * spoke, "hub cycle via nearest leaf");
        assert_eq!(spec.min_lookahead(), Some(Dur::from_us(20)));
    }

    #[test]
    fn unrunnable_specs_are_rejected() {
        let mut s = two_domain_spec();
        s.lookahead_ns[0][1] = 0;
        assert!(!s.is_runnable(), "zero lookahead breaks progress");
        let mut t = two_domain_spec();
        t.domains = 1;
        assert!(!t.is_runnable());
        let mut u = two_domain_spec();
        u.tail_safe = vec![vec![false]]; // wrong shape
        assert!(!u.is_runnable());
    }

    #[test]
    fn arrival_seqs_sort_after_locals_and_by_sender() {
        assert!(arrival_seq(0, 0) > u64::MAX / 2, "upper half reserved");
        assert!(arrival_seq(0, 1) > arrival_seq(0, 0), "FIFO within sender");
        assert!(
            arrival_seq(1, 0) > arrival_seq(0, 999),
            "sender-major order"
        );
    }

    /// A three-domain ring where only one message circulates: two domains
    /// are always quiet. The quiet domains must neither spin forever nor
    /// mis-declare termination while the token is in flight.
    #[test]
    fn quiet_domains_terminate_cleanly() {
        fn ring_engine() -> Engine {
            let mut e = Engine::new(11);
            for id in 0..3usize {
                e.add_actor(Box::new(Pong {
                    peer: (id + 1) % 3,
                    delay: Dur::from_us(50),
                    count: 0,
                    limit: 30,
                }));
            }
            e.schedule_message(Time::ZERO, 0, 1, Box::new(0u8));
            e
        }
        let hop = Dur::from_us(50).as_ns();
        let spec = DomainSpec {
            domains: 3,
            domain_of: vec![0, 1, 2],
            lookahead_ns: vec![
                vec![u64::MAX, hop, u64::MAX],
                vec![u64::MAX, u64::MAX, hop],
                vec![hop, u64::MAX, u64::MAX],
            ],
            tail_safe: Vec::new(),
        };
        let mut serial = ring_engine();
        let end = serial.run();
        for cores in STEALERS {
            let mut par = ring_engine();
            with_cores(cores, || run_partitioned(&mut par, &spec));
            assert_eq!(par.now(), end, "cores={cores}");
            assert_eq!(par.events_processed(), serial.events_processed());
        }
    }

    /// Same-nanosecond tie between a local timer and a cross-domain arrival:
    /// the reserved upper-half sequence keys put the arrival after the local
    /// event at every stealer count, for any thread interleaving.
    struct TieRecorder {
        order: Vec<&'static str>,
    }

    impl Actor for TieRecorder {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            self.order.push("arrival");
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {
            self.order.push("timer");
        }
    }

    struct OneShot {
        peer: ActorId,
        delay: Dur,
    }

    impl Actor for OneShot {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            ctx.send(self.peer, Box::new(0u8), self.delay);
        }
    }

    #[test]
    fn same_ns_arrival_sorts_after_local_event_at_every_stealer_count() {
        let build = || {
            let mut e = Engine::new(5);
            let a = e.add_actor(Box::new(OneShot {
                peer: 1,
                delay: Dur::from_us(100),
            }));
            let b = e.add_actor(Box::new(TieRecorder { order: vec![] }));
            // The cross message leaves domain 0 at t=0 and arrives at b at
            // exactly t=100us — the same instant as b's local timer.
            e.schedule_message(Time::ZERO, a, a, Box::new(0u8));
            e.schedule_timer(Time::from_us(100), b, 1);
            e
        };
        for cores in STEALERS {
            let mut e = build();
            with_cores(cores, || run_partitioned(&mut e, &two_domain_spec()));
            assert_eq!(
                e.actor::<TieRecorder>(1).order,
                vec!["timer", "arrival"],
                "cores={cores}"
            );
        }
    }

    /// Packet-train traffic over a tail-safe direction: the wire-tail
    /// promise path must stay bit-identical to serial at every stealer
    /// count.
    struct TrainSource {
        peer: ActorId,
        sent: u32,
        limit: u32,
    }

    fn train_packet(psn: u32) -> Packet {
        use ibwire::{Lid, Opcode, Qpn};
        Packet {
            dst_lid: Lid(2),
            src_lid: Lid(1),
            dst_qpn: Qpn(0),
            src_qpn: Qpn(0),
            opcode: Opcode::UdSend,
            psn,
            payload: 2048,
            msg_id: 0,
            msg_len: 8192,
            offset: 0,
            imm: 0,
            count: 4,
            stride: 2048,
            gap_ns: 10_000,
            msgs: 1,
            msg_gap_ns: 0,
            data: None,
        }
    }

    impl Actor for TrainSource {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.limit {
                // One train every 200us, arriving 100us later with a 30us
                // tail: staged arrival times stay monotone, as a serialized
                // cable would make them.
                ctx.send(self.peer, train_packet(self.sent), Dur::from_us(100));
                self.sent += 1;
                ctx.timer(Dur::from_us(200), 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {}
    }

    struct TrainSink {
        fragments: u64,
    }

    impl Actor for TrainSink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, pkt: Packet) {
            self.fragments += pkt.count as u64;
        }
    }

    #[test]
    fn train_tail_promises_preserve_serial_results() {
        let build = || {
            let mut e = Engine::new(13);
            let src = e.add_actor(Box::new(TrainSource {
                peer: 1,
                sent: 0,
                limit: 25,
            }));
            e.add_actor(Box::new(TrainSink { fragments: 0 }));
            e.schedule_timer(Time::ZERO, src, 0);
            e
        };
        let mut spec = two_domain_spec();
        spec.tail_safe = vec![vec![false, true], vec![false, false]];
        let mut serial = build();
        let end = serial.run();
        for cores in STEALERS {
            let mut par = build();
            with_cores(cores, || run_partitioned(&mut par, &spec));
            assert_eq!(par.now(), end, "cores={cores}");
            assert_eq!(par.events_processed(), serial.events_processed());
            assert_eq!(
                par.actor::<TrainSink>(1).fragments,
                serial.actor::<TrainSink>(1).fragments
            );
            assert_eq!(
                par.counters().trains_emitted,
                serial.counters().trains_emitted
            );
        }
    }

    /// A stop request mid-run must halt every stealer without hanging and
    /// surface through `Engine::stopped`.
    struct Stopper {
        after: u32,
        seen: u32,
        peer: ActorId,
    }

    impl Actor for Stopper {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            self.seen += 1;
            if self.seen >= self.after {
                ctx.stop();
            } else {
                ctx.send(self.peer, Box::new(0u8), Dur::from_us(100));
            }
        }
    }

    #[test]
    fn stop_requests_halt_every_stealer_count() {
        for cores in STEALERS {
            let mut e = Engine::new(17);
            e.add_actor(Box::new(Stopper {
                after: 5,
                seen: 0,
                peer: 1,
            }));
            e.add_actor(Box::new(Stopper {
                after: u32::MAX,
                seen: 0,
                peer: 0,
            }));
            e.schedule_message(Time::ZERO, 1, 0, Box::new(0u8));
            with_cores(cores, || run_partitioned(&mut e, &two_domain_spec()));
            assert!(e.stopped(), "cores={cores}");
            assert_eq!(e.actor::<Stopper>(0).seen, 5);
        }
    }

    /// Exhausting the event budget must not hang any stealer count.
    #[test]
    fn event_limit_halts_partitioned_run() {
        for cores in STEALERS {
            let mut e = ping_pong_engine(u32::MAX);
            e.set_event_limit(64);
            with_cores(cores, || run_partitioned(&mut e, &two_domain_spec()));
            assert!(e.events_processed() >= 64, "cores={cores}");
            assert!(!e.stopped(), "budget exhaustion is not an actor stop");
        }
    }

    #[test]
    fn foreign_stub_panics_loudly() {
        // The Foreign placeholder exists to turn partition-map bugs into
        // immediate, named failures instead of silent state corruption.
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Foreign));
        e.schedule_message(Time::ZERO, a, a, Box::new(0u8));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run();
        }));
        let err = r.expect_err("dispatch to a Foreign stub must panic");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("another domain"),
            "panic should name the routing bug: {msg}"
        );
    }

    /// An actor panicking inside a window must not deadlock the other
    /// stealers; the payload re-raises on the caller. The test completing
    /// (rather than hanging) is half the assertion.
    struct Bomb;

    impl Actor for Bomb {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            panic!("bomb actor detonated");
        }
    }

    #[test]
    fn domain_panic_propagates_without_deadlock_at_every_stealer_count() {
        for cores in STEALERS {
            let mut e = Engine::new(3);
            let a = e.add_actor(Box::new(Bomb));
            let b = e.add_actor(Box::new(Bomb));
            e.schedule_message(Time::from_us(1), a, b, Box::new(0u8));
            let spec = two_domain_spec();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_cores(cores, || run_partitioned(&mut e, &spec));
            }));
            let err = r.expect_err("domain panic must surface to the caller");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("detonated"), "payload should survive: {msg}");
        }
    }
}
