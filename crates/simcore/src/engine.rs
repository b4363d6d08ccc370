//! The discrete-event engine and actor model.
//!
//! Network entities (HCAs, switches, WAN routers, benchmark drivers) are
//! [`Actor`]s owned by the [`Engine`]. Actors communicate exclusively through
//! scheduled message deliveries and timers; the engine pops events in strict
//! `(time, sequence)` order, so simulations are fully deterministic.
//!
//! ## The two message lanes
//!
//! Fabric traffic dominates event volume: a single large RC message becomes
//! thousands of MTU fragments, each crossing several hops (HCA → switch →
//! Longbow → Longbow → switch → HCA), and every hop is one event. The engine
//! therefore carries messages as a [`Msg`] with two lanes:
//!
//! * **Packet lane** — [`Msg::Packet`] holds an [`ibwire::Packet`] *by value*
//!   inside the pooled event node and dispatches to [`Actor::on_packet`]. No
//!   allocation, no `dyn Any` downcast per fragment.
//! * **Control lane** — [`Msg::Ctrl`] is the classic `Box<dyn Any>` for
//!   everything else (completions, credits, ULP user messages), dispatched to
//!   [`Actor::on_message`]. Zero-sized control messages (e.g. link credits)
//!   don't allocate either: `Box::new` of a ZST is allocation-free.
//!
//! `Ctx::send`/`Engine::schedule_message` accept `impl Into<Msg>`, so existing
//! `Box::new(value)` call sites keep working while fabric code passes a bare
//! `Packet`.
//!
//! ## Event pooling
//!
//! Event payloads live in a slab (`Vec<Option<EventKind>>` plus a free list);
//! the binary heap orders only compact 24-byte `(time, seq, index)` keys.
//! Steady-state simulation allocates nothing per event: nodes are recycled
//! through the free list ([`EngineCounters::pool_hits`]) and the slab only
//! grows while the in-flight event population reaches a new high
//! ([`EngineCounters::events_allocated`]).
//!
//! ## Same-timestamp ordering
//!
//! Ties in virtual time are broken by a monotonically increasing sequence
//! number assigned at *scheduling* time: two events at the same instant are
//! dispatched in the order they were scheduled. In particular, a zero-delay
//! self-send (`ctx.send(me, msg, Dur::ZERO)`) is delivered **after** every
//! event already queued for the current instant — effects of one handler
//! never jump ahead of previously scheduled work. See
//! `zero_delay_self_send_runs_after_queued_same_time_events` in the tests.

use crate::calqueue::EventQueue;
use crate::time::{Dur, Time};
use crate::trace::{Trace, TraceEvent};
use ibwire::Packet;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::HashSet;
use std::sync::Arc;

/// Index of an actor within an [`Engine`].
pub type ActorId = usize;

/// A message travelling between actors: the typed packet lane or the boxed
/// control lane. See the [module docs](self) for why the lanes exist.
///
/// Control payloads carry a `Send` bound so a whole [`Engine`] — including
/// its queued events — can move to another thread when the fabric is split
/// into partitioned domains (see [`crate::domain`]). Handlers still receive
/// a plain `Box<dyn Any>`; the bound only constrains construction.
pub enum Msg {
    /// A fabric packet, carried by value (fast path).
    Packet(Packet),
    /// Anything else, carried as `Box<dyn Any + Send>` (control path).
    Ctrl(Box<dyn Any + Send>),
}

impl Msg {
    /// Downcast a control-lane message to a concrete type. Packet-lane
    /// messages and control messages of a different type come back as `Err`.
    pub fn downcast<T: Any>(self) -> Result<Box<T>, Msg> {
        match self {
            Msg::Ctrl(b) => b.downcast::<T>().map_err(Msg::Ctrl),
            p => Err(p),
        }
    }

    /// Extract the packet, if this is a packet-lane message.
    pub fn into_packet(self) -> Result<Packet, Msg> {
        match self {
            Msg::Packet(p) => Ok(p),
            m => Err(m),
        }
    }

    /// True for packet-lane messages.
    pub fn is_packet(&self) -> bool {
        matches!(self, Msg::Packet(_))
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Packet(p) => f.debug_tuple("Packet").field(p).finish(),
            Msg::Ctrl(_) => f.write_str("Ctrl(..)"),
        }
    }
}

impl From<Packet> for Msg {
    fn from(p: Packet) -> Msg {
        Msg::Packet(p)
    }
}

impl From<Box<dyn Any + Send>> for Msg {
    fn from(b: Box<dyn Any + Send>) -> Msg {
        Msg::Ctrl(b)
    }
}

/// Any concretely-typed box rides the control lane; `Box::new(value)` call
/// sites convert implicitly. (No overlap with the other impls: `dyn Any` is
/// unsized and `Packet` converts by value, not boxed.)
impl<T: Any + Send> From<Box<T>> for Msg {
    fn from(b: Box<T>) -> Msg {
        Msg::Ctrl(b)
    }
}

/// Handle to a cancellable timer armed via [`Ctx::timer_cancellable`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A simulation entity driven by messages and timers.
///
/// Implementations must be `'static` (the `Any` supertrait) so the engine can
/// hand back concrete types via [`Engine::actor_mut`] during setup and result
/// collection, and `Send` so a partitioned run can move each domain's actors
/// onto its own thread (see [`crate::domain`]). Actors are plain state
/// machines — no interior sharing — so the bound is free in practice.
pub trait Actor: Any + Send {
    /// Deliver a control-lane message sent by `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>);

    /// Deliver a packet-lane message sent by `from`.
    ///
    /// Only fabric entities (HCAs, switches, bridges) receive packets; the
    /// default implementation treats a packet arriving anywhere else as a
    /// wiring bug.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _pkt: Packet) {
        panic!("actor received a fabric packet but does not handle the packet lane");
    }

    /// A timer armed via [`Ctx::timer`] has fired. `token` is the value the
    /// actor supplied when arming it.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

pub(crate) enum EventKind {
    Message {
        from: ActorId,
        to: ActorId,
        msg: Msg,
    },
    Timer {
        actor: ActorId,
        token: u64,
        /// `Some` for cancellable timers; checked against the tombstone set
        /// when popped.
        cancel_id: Option<TimerId>,
    },
}

/// A cross-domain message captured at scheduling time by a partitioned
/// engine: the absolute delivery time plus the message itself. The
/// work-stealing executor in [`crate::domain`] hands staged messages to the
/// receiving domain when the sender's window returns.
pub(crate) struct Staged {
    pub(crate) at: Time,
    pub(crate) from: ActorId,
    pub(crate) to: ActorId,
    pub(crate) msg: Msg,
}

/// Partition context installed on a domain's engine by
/// [`crate::domain::run_partitioned`]: which domain this engine is, the
/// global actor→domain map, and the outbox where messages addressed to
/// foreign actors are staged instead of entering the local queue.
pub(crate) struct Partition {
    pub(crate) domain: u32,
    pub(crate) domain_of: Arc<[u32]>,
    pub(crate) outbox: Vec<Staged>,
}

impl Partition {
    /// Stage a message addressed to another domain's actor in the outbox
    /// (its delivery time is already absolute, so the receiving domain can
    /// insert it directly).
    #[inline]
    fn stage(&mut self, at: Time, kind: EventKind) {
        if let EventKind::Message { from, to, msg } = kind {
            self.outbox.push(Staged { at, from, to, msg });
        }
    }
}

/// Compact queue entry: the event payload lives in the slab at `idx`, so
/// queue operations move 24 bytes instead of a full event node. `(time, seq)`
/// is packed into one `u128` so each ordering comparison is a single wide
/// integer compare.
#[derive(Debug)]
pub(crate) struct HeapKey {
    /// `(at.as_ns() << 64) | seq` — orders by time, then scheduling order.
    order: u128,
    pub(crate) idx: u32,
}

impl HeapKey {
    #[inline]
    pub(crate) fn new(at: Time, seq: u64, idx: u32) -> Self {
        HeapKey {
            order: ((at.as_ns() as u128) << 64) | seq as u128,
            idx,
        }
    }

    #[inline]
    pub(crate) fn at(&self) -> Time {
        Time::from_ns((self.order >> 64) as u64)
    }
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order.cmp(&other.order)
    }
}

/// Number of log2 buckets in [`EngineCounters::round_events`].
pub const ROUND_EVENT_BUCKETS: usize = 8;

/// Hot-path health counters maintained by the engine.
///
/// All fields are integers so reports embedding this struct can stay `Eq`
/// (and thus usable in exact-equality determinism tests); the derived ratio
/// is exposed as [`EngineCounters::pool_hit_rate`].
///
/// Equality compares only the *schedule-independent* fields (see the manual
/// `PartialEq` impl below): the pool/peak fields depend on how wide the
/// partitioned engine's synchronization windows happened to be, which is a
/// function of thread timing, while the simulation itself stays bit-exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// Events dispatched to actors (cancelled timers are not dispatched and
    /// are excluded).
    pub events_processed: u64,
    /// Event nodes that required a fresh heap allocation (slab growth). In
    /// steady state this should plateau while `pool_hits` keeps climbing.
    pub events_allocated: u64,
    /// Event nodes recycled from the free pool instead of allocated.
    pub pool_hits: u64,
    /// High-water mark of the event queue length.
    pub peak_queue_len: u64,
    /// Timers that were cancelled before firing and skipped on pop.
    pub timers_cancelled: u64,
    /// Fragment-train hop deliveries dispatched: packet-lane events whose
    /// packet carried `count > 1` fragments across a hop as one event.
    pub trains_emitted: u64,
    /// Fragment hop-deliveries that rode inside a train instead of costing
    /// their own event (`count - 1` per dispatched train).
    pub fragments_coalesced: u64,
    /// Control-path (ACK) train hop deliveries dispatched: packet-lane
    /// events whose packet carried `count > 1` acknowledgements as one
    /// event.
    pub control_trains: u64,
    /// Control-path hop-deliveries (cumulative-ACK runs) that rode inside a
    /// train instead of costing their own event (`count - 1` per dispatched
    /// control train).
    pub control_coalesced: u64,
    /// Log2 histogram of calendar-queue bucket occupancy, recorded each time
    /// the pop cursor arrives at a non-empty bucket: bucket `i` counts
    /// visits that found `[2^i, 2^(i+1))` queued events. All zero while the
    /// queue is still in its binary-heap warmup.
    pub cal_bucket_occupancy: [u64; ROUND_EVENT_BUCKETS],
    /// Pops served from the calendar queue's exact-fallback heap (events
    /// beyond the bucket horizon or behind an advanced cursor).
    pub cal_fallback_hits: u64,
    /// Partitioned windows a stealer checked out without waiting on the
    /// executor's condvar first (serial runs leave this zero).
    pub sync_rounds_saved: u64,
    /// Wall-clock nanoseconds a partitioned run's stealers spent waiting on
    /// the condvar for a runnable domain (serial runs leave this zero).
    pub barrier_ns: u64,
    /// Log2 histogram of events processed per synchronization window:
    /// bucket `i` counts windows that dispatched `[2^i, 2^(i+1))` events
    /// (the last bucket absorbs everything larger). Empty windows are not
    /// recorded.
    pub round_events: [u64; ROUND_EVENT_BUCKETS],
}

/// Equality over the schedule-independent subset: what the simulation *did*
/// (events dispatched, timers skipped, trains coalesced), not how the host
/// scheduler happened to slice it into windows or grow slabs. This is what
/// lets two runs of the same figure — serial vs. partitioned, or two
/// differently-jittered partitioned runs — compare reports with `==`.
impl PartialEq for EngineCounters {
    fn eq(&self, other: &Self) -> bool {
        self.events_processed == other.events_processed
            && self.timers_cancelled == other.timers_cancelled
            && self.trains_emitted == other.trains_emitted
            && self.fragments_coalesced == other.fragments_coalesced
            && self.control_trains == other.control_trains
            && self.control_coalesced == other.control_coalesced
    }
}
impl Eq for EngineCounters {}

impl EngineCounters {
    /// Fraction of event-node acquisitions served from the pool,
    /// `pool_hits / (pool_hits + events_allocated)`. Zero when nothing was
    /// scheduled.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.events_allocated;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Fraction of hop-deliveries that were coalesced into trains — data
    /// fragments *and* control-path acknowledgements:
    /// `(fragments_coalesced + control_coalesced) / (events_processed +
    /// fragments_coalesced + control_coalesced)` — i.e. the share of
    /// per-packet events the train paths made unnecessary. Zero when nothing
    /// coalesced.
    pub fn coalescing_ratio(&self) -> f64 {
        let saved = self.fragments_coalesced + self.control_coalesced;
        let total = self.events_processed + saved;
        if total == 0 {
            0.0
        } else {
            saved as f64 / total as f64
        }
    }

    /// Record one non-empty synchronization window that dispatched `events`
    /// events into the log2 histogram.
    pub(crate) fn record_window(&mut self, events: u64) {
        if events == 0 {
            return;
        }
        let bucket = (63 - events.leading_zeros() as usize).min(ROUND_EVENT_BUCKETS - 1);
        self.round_events[bucket] += 1;
    }

    /// Total non-empty synchronization windows recorded in
    /// [`EngineCounters::round_events`].
    pub fn windows_recorded(&self) -> u64 {
        self.round_events.iter().sum()
    }
}

/// Merge another engine's counters into this one — how a multi-domain run
/// consolidates its per-domain counter blocks into the single block surfaced
/// by `Fabric::report()`. Throughput-style fields add; `peak_queue_len` is a
/// high-water mark across *independent* queues, so it takes the max (the
/// domains' queues never coexist in one heap).
impl std::ops::AddAssign for EngineCounters {
    fn add_assign(&mut self, rhs: EngineCounters) {
        self.events_processed += rhs.events_processed;
        self.events_allocated += rhs.events_allocated;
        self.pool_hits += rhs.pool_hits;
        self.peak_queue_len = self.peak_queue_len.max(rhs.peak_queue_len);
        self.timers_cancelled += rhs.timers_cancelled;
        self.trains_emitted += rhs.trains_emitted;
        self.fragments_coalesced += rhs.fragments_coalesced;
        self.control_trains += rhs.control_trains;
        self.control_coalesced += rhs.control_coalesced;
        self.cal_fallback_hits += rhs.cal_fallback_hits;
        self.sync_rounds_saved += rhs.sync_rounds_saved;
        self.barrier_ns += rhs.barrier_ns;
        for (b, r) in self.round_events.iter_mut().zip(rhs.round_events) {
            *b += r;
        }
        for (b, r) in self
            .cal_bucket_occupancy
            .iter_mut()
            .zip(rhs.cal_bucket_occupancy)
        {
            *b += r;
        }
    }
}

/// Everything the engine owns except the actor table and trace, grouped so
/// [`Ctx`] can borrow it whole while one actor is borrowed out of the table
/// (disjoint struct fields split-borrow cleanly).
pub(crate) struct Core {
    pub(crate) seq: u64,
    /// Min-ordered compact keys (calendar queue with exact-fallback heap);
    /// payloads live in `nodes`.
    pub(crate) queue: EventQueue,
    /// Slab of event payloads, indexed by `HeapKey::idx`.
    pub(crate) nodes: Vec<Option<EventKind>>,
    /// Recycled slab indices.
    pub(crate) free: Vec<u32>,
    pub(crate) rng: SmallRng,
    pub(crate) stop: bool,
    pub(crate) next_timer_id: u64,
    /// Tombstones for cancelled-but-not-yet-popped timers.
    pub(crate) cancelled: HashSet<u64>,
    pub(crate) counters: EngineCounters,
    /// `Some` while this engine runs as one domain of a partitioned
    /// simulation; messages to foreign actors detour into its outbox.
    pub(crate) partition: Option<Partition>,
}

impl Core {
    /// Acquire a slab slot for `kind` — from the free pool when possible —
    /// and push its compact key onto the heap. Under a partition, a message
    /// addressed to an actor owned by another domain is staged in the outbox
    /// instead (its delivery time is already absolute, so the receiving
    /// domain can insert it directly).
    #[inline]
    pub(crate) fn push_event(&mut self, at: Time, kind: EventKind) {
        // Keep the serial fast path a single predicted-not-taken branch.
        if self.partition.is_some() {
            return self.push_event_partitioned(at, kind);
        }
        self.push_event_local(at, kind);
    }

    /// The detour taken while this engine runs as one partitioned domain:
    /// messages addressed to foreign actors are staged in the outbox,
    /// everything else falls through to the local queue. Out of line so the serial path above stays small; `kind` is
    /// inspected by reference and moves once, into the queue or the outbox.
    #[cold]
    fn push_event_partitioned(&mut self, at: Time, kind: EventKind) {
        let p = self.partition.as_mut().expect("checked by push_event");
        if let EventKind::Message { to, .. } = &kind {
            if p.domain_of[*to] != p.domain {
                return p.stage(at, kind);
            }
        }
        self.push_event_local(at, kind);
    }

    /// Slab + heap insertion shared by both paths above. `inline(always)`
    /// keeps `kind` (~100 bytes) from being copied across an outlined call
    /// on the serial fast path.
    #[inline(always)]
    fn push_event_local(&mut self, at: Time, kind: EventKind) {
        let idx = if let Some(idx) = self.free.pop() {
            self.counters.pool_hits += 1;
            debug_assert!(self.nodes[idx as usize].is_none(), "free-list slot in use");
            self.nodes[idx as usize] = Some(kind);
            idx
        } else {
            self.counters.events_allocated += 1;
            let idx = u32::try_from(self.nodes.len()).expect("event slab overflow");
            self.nodes.push(Some(kind));
            idx
        };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(HeapKey::new(at, seq, idx));
        let len = self.queue.len() as u64;
        if len > self.counters.peak_queue_len {
            self.counters.peak_queue_len = len;
        }
    }

    /// Insert a cross-domain arrival with an explicit, caller-chosen sequence
    /// key instead of the engine's own counter. The partitioned engine
    /// reserves the upper half of the sequence space for arrivals (see
    /// [`crate::domain::arrival_seq`]) so that same-nanosecond ties resolve
    /// identically no matter when or by which thread a domain's arrivals
    /// were delivered — the cornerstone of window-size independence.
    pub(crate) fn push_event_arrival(&mut self, at: Time, kind: EventKind, seq: u64) {
        debug_assert!(seq >= 1 << 63, "arrival seqs live in the upper half");
        let idx = if let Some(idx) = self.free.pop() {
            self.counters.pool_hits += 1;
            debug_assert!(self.nodes[idx as usize].is_none(), "free-list slot in use");
            self.nodes[idx as usize] = Some(kind);
            idx
        } else {
            self.counters.events_allocated += 1;
            let idx = u32::try_from(self.nodes.len()).expect("event slab overflow");
            self.nodes.push(Some(kind));
            idx
        };
        self.queue.push(HeapKey::new(at, seq, idx));
        let len = self.queue.len() as u64;
        if len > self.counters.peak_queue_len {
            self.counters.peak_queue_len = len;
        }
    }
}

/// Handle given to an actor while it processes an event.
///
/// All side effects an actor can have on the simulation flow through this
/// context: sending messages, arming timers, and requesting a halt. Scheduled
/// events go straight into the pooled event queue — sequence numbers are
/// assigned at scheduling time, so same-instant ordering follows emission
/// order (see the [module docs](self)).
pub struct Ctx<'a> {
    now: Time,
    self_id: ActorId,
    core: &'a mut Core,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the actor handling this event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedule `msg` for delivery to `to` after `delay`.
    ///
    /// With `delay == Dur::ZERO` the message is delivered at the current
    /// instant, but **after** every event already queued for this instant
    /// (ties break in scheduling order).
    pub fn send(&mut self, to: ActorId, msg: impl Into<Msg>, delay: Dur) {
        self.send_at(to, msg, self.now + delay);
    }

    /// Schedule `msg` for delivery to `to` at absolute time `at`.
    ///
    /// `at` must not be in the past; scheduling "now" is allowed and the
    /// message is delivered after all effects of the current event settle.
    #[inline]
    pub fn send_at(&mut self, to: ActorId, msg: impl Into<Msg>, at: Time) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Message {
                from: self.self_id,
                to,
                msg: msg.into(),
            },
        );
    }

    /// Arm a timer on the current actor that fires after `delay` with `token`.
    pub fn timer(&mut self, delay: Dur, token: u64) {
        self.timer_at(self.now + delay, token);
    }

    /// Arm a timer on the current actor at absolute time `at` with `token`.
    pub fn timer_at(&mut self, at: Time, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Timer {
                actor: self.self_id,
                token,
                cancel_id: None,
            },
        );
    }

    /// Arm a cancellable timer on the current actor; the returned [`TimerId`]
    /// can be passed to [`Ctx::cancel_timer`] before the timer fires.
    pub fn timer_cancellable(&mut self, delay: Dur, token: u64) -> TimerId {
        let at = self.now + delay;
        let id = TimerId(self.core.next_timer_id);
        self.core.next_timer_id += 1;
        self.core.push_event(
            at,
            EventKind::Timer {
                actor: self.self_id,
                token,
                cancel_id: Some(id),
            },
        );
        id
    }

    /// Cancel a timer armed with [`Ctx::timer_cancellable`].
    ///
    /// The timer's queue entry is skipped when popped: it is not dispatched,
    /// not traced, and not counted in `events_processed` (it shows up in
    /// [`EngineCounters::timers_cancelled`] instead). Cancelling a timer that
    /// has already fired leaves a permanent tombstone — only cancel timers
    /// you know are still armed.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled.insert(id.0);
    }

    /// Run `f` with the clock temporarily set to `at` (`at >= now`). Replay
    /// paths use this to re-enact per-member outcomes of a coalesced train
    /// at their original virtual instants within one event: everything `f`
    /// schedules is timed exactly as if it ran in a separate event at `at`.
    pub fn at_instant<R>(&mut self, at: Time, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        debug_assert!(at >= self.now, "cannot replay into the past");
        let saved = self.now;
        self.now = at;
        let r = f(self);
        self.now = saved;
        r
    }

    /// Record that a coalesced control-path run of `members` members was
    /// delivered as one event. The engine counts wire trains itself at
    /// dispatch (it can see `Packet` fields), but host-side runs — batched
    /// CQE deliveries — are opaque user messages, so their dispatcher
    /// reports them here to keep [`EngineCounters::coalescing_ratio`]
    /// honest about every event the batching saved.
    pub fn note_control_run(&mut self, members: u32) {
        debug_assert!(members > 1, "a run has at least two members");
        self.core.counters.control_trains += 1;
        self.core.counters.control_coalesced += (members - 1) as u64;
    }

    /// Deterministic random generator shared by the whole simulation.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Ask the engine to stop after the current event is fully processed.
    pub fn stop(&mut self) {
        self.core.stop = true;
    }
}

/// The discrete-event engine: owns all actors, the event queue, virtual time,
/// and the seeded random generator.
pub struct Engine {
    pub(crate) now: Time,
    pub(crate) actors: Vec<Box<dyn Actor>>,
    pub(crate) core: Core,
    /// Safety valve against runaway protocol loops in tests.
    pub(crate) event_limit: u64,
    pub(crate) trace: Option<Trace>,
    /// The seed this engine was created with; per-domain engines of a
    /// partitioned run derive their own deterministic seeds from it.
    pub(crate) seed: u64,
}

impl Engine {
    /// Create an engine with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: Time::ZERO,
            actors: Vec::new(),
            core: Core {
                seq: 0,
                queue: EventQueue::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                stop: false,
                next_timer_id: 0,
                cancelled: HashSet::new(),
                counters: EngineCounters::default(),
                partition: None,
            },
            event_limit: u64::MAX,
            trace: None,
            seed,
        }
    }

    /// Cap the number of events processed (a safety valve for tests; the
    /// engine stops once the cap is reached).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Record every dispatched event into a bounded [`Trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Mutable trace access (to name actors).
    pub fn trace_mut(&mut self) -> Option<&mut Trace> {
        self.trace.as_mut()
    }

    /// Register an actor and return its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Mutable access to a concrete actor, for setup and result collection.
    ///
    /// # Panics
    /// Panics if `id` is out of range or the concrete type does not match.
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> &mut T {
        let any: &mut dyn Any = &mut *self.actors[id];
        any.downcast_mut::<T>().expect("actor type mismatch")
    }

    /// Shared access to a concrete actor.
    ///
    /// # Panics
    /// Same conditions as [`Engine::actor_mut`].
    pub fn actor<T: Actor>(&self, id: ActorId) -> &T {
        let any: &dyn Any = &*self.actors[id];
        any.downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Timestamp of the earliest queued event, or `None` when the queue is
    /// empty. Cancelled-but-unpopped timers still count (their slot is only
    /// discovered on pop), which is conservative: the reported time is never
    /// later than the next dispatch — exactly what the partitioned engine's
    /// window computation needs.
    pub fn next_event_time(&self) -> Option<Time> {
        self.core.queue.peek_time()
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.core.counters.events_processed
    }

    /// Snapshot of the engine's hot-path counters.
    pub fn counters(&self) -> EngineCounters {
        self.core.counters
    }

    /// Schedule a message delivery from outside any actor (driver code).
    pub fn schedule_message(&mut self, at: Time, from: ActorId, to: ActorId, msg: impl Into<Msg>) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Message {
                from,
                to,
                msg: msg.into(),
            },
        );
    }

    /// Schedule a timer on `actor` from outside any actor (driver code).
    pub fn schedule_timer(&mut self, at: Time, actor: ActorId, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Timer {
                actor,
                token,
                cancel_id: None,
            },
        );
    }

    /// Cancel a timer from driver code (see [`Ctx::cancel_timer`]).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled.insert(id.0);
    }

    /// Process a single event. Returns `false` when the queue is empty or a
    /// stop was requested. Cancelled timers are skipped (virtual time still
    /// advances past them) and do not count as processed events.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// [`Engine::step`] with an optional time bound: an event after
    /// `deadline` is left in the queue and `false` is returned. The bound is
    /// re-checked after every skipped cancelled timer — without that, a run
    /// of cancelled timers below the bound would let the next *live* event
    /// dispatch arbitrarily far beyond it, which the partitioned engine's
    /// window protocol cannot tolerate (the horizon is a hard causality
    /// limit, not a hint).
    ///
    /// `inline(always)` so each caller gets a copy specialized for its
    /// constant `deadline` variant — [`Engine::step`] keeps the branch-free
    /// loop it had before bounded stepping existed.
    #[inline(always)]
    fn step_bounded(&mut self, deadline: Option<Time>) -> bool {
        loop {
            if self.core.stop || self.core.counters.events_processed >= self.event_limit {
                return false;
            }
            // Single-traversal bounded pop: the queue checks the deadline
            // against its minimum and declines without a separate peek.
            let key = {
                let Core {
                    queue, counters, ..
                } = &mut self.core;
                match deadline {
                    Some(d) => queue.pop_before(d, counters),
                    None => queue.pop(counters),
                }
            };
            let Some(key) = key else {
                return false;
            };
            debug_assert!(
                key.at() >= self.now,
                "time went backwards: popped event at {:?} behind now {:?}",
                key.at(),
                self.now
            );
            self.now = key.at();
            let kind = self.core.nodes[key.idx as usize]
                .take()
                .expect("heap key points at an empty slab slot");
            self.core.free.push(key.idx);

            if let EventKind::Timer {
                cancel_id: Some(id),
                ..
            } = &kind
            {
                if self.core.cancelled.remove(&id.0) {
                    self.core.counters.timers_cancelled += 1;
                    continue; // skipped: not dispatched, not traced, not counted
                }
            }
            self.core.counters.events_processed += 1;
            // Train accounting: a packet-lane delivery with `count > 1` and a
            // real arrival pattern moved `count` members across this hop in
            // one event — data fragments on the forward path, cumulative-ACK
            // runs on the return path. (`gap_ns == 0 && msgs <= 1` marks a
            // train's deferred tail self-delivery at the destination HCA —
            // the fragments were already counted when the train arrived, so
            // it is excluded.)
            if let EventKind::Message {
                msg: Msg::Packet(p),
                ..
            } = &kind
            {
                if p.count > 1 && (p.gap_ns > 0 || p.msgs > 1) {
                    if matches!(p.opcode, ibwire::Opcode::RcAck) {
                        self.core.counters.control_trains += 1;
                        self.core.counters.control_coalesced += (p.count - 1) as u64;
                    } else {
                        self.core.counters.trains_emitted += 1;
                        self.core.counters.fragments_coalesced += (p.count - 1) as u64;
                    }
                }
            }

            let actor_id = match &kind {
                EventKind::Message { to, .. } => *to,
                EventKind::Timer { actor, .. } => *actor,
            };
            if let Some(trace) = self.trace.as_mut() {
                let te = match &kind {
                    EventKind::Message { from, to, .. } => TraceEvent::Message {
                        from: *from,
                        to: *to,
                    },
                    EventKind::Timer { actor, token, .. } => TraceEvent::Timer {
                        actor: *actor,
                        token: *token,
                    },
                };
                trace.record(self.now, te);
            }
            // Split-borrow: the dispatched actor comes out of `self.actors`
            // while `Ctx` borrows `self.core` — disjoint fields, so handlers
            // schedule directly into the event queue with no intermediate
            // buffering (and no per-event take/put of the actor box).
            let mut ctx = Ctx {
                now: self.now,
                self_id: actor_id,
                core: &mut self.core,
            };
            let actor = &mut self.actors[actor_id];
            match kind {
                EventKind::Message { from, msg, .. } => match msg {
                    Msg::Packet(pkt) => actor.on_packet(&mut ctx, from, pkt),
                    Msg::Ctrl(b) => actor.on_message(&mut ctx, from, b),
                },
                EventKind::Timer { token, .. } => actor.on_timer(&mut ctx, token),
            }
            return true;
        }
    }

    /// Run until the queue drains or a stop is requested; returns the final
    /// virtual time.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.now
    }

    /// Run until virtual time would exceed `deadline` (events at exactly
    /// `deadline` are processed; everything later — including cancelled
    /// timers — stays queued). Returns the final virtual time.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        while self.step_bounded(Some(deadline)) {}
        self.now
    }

    /// True once a stop has been requested via [`Ctx::stop`].
    pub fn stopped(&self) -> bool {
        self.core.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibwire::{Lid, Opcode, Qpn};

    /// Echoes every message back to the sender after a fixed delay, counting
    /// deliveries.
    struct Echo {
        delay: Dur,
        count: u32,
        limit: u32,
        fired_timers: Vec<u64>,
    }

    impl Echo {
        fn new(delay: Dur, limit: u32) -> Self {
            Echo {
                delay,
                count: 0,
                limit,
                fired_timers: Vec::new(),
            }
        }
    }

    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
            self.count += 1;
            if self.count < self.limit {
                // Re-box the payload: the control lane requires `Send`
                // construction, which the received `Box<dyn Any>` erased.
                let v = *msg.downcast::<u8>().expect("echo payload is a u8");
                ctx.send(from, Box::new(v), self.delay);
            } else {
                ctx.stop();
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.fired_timers.push(token);
        }
    }

    fn test_packet(psn: u32) -> Packet {
        Packet {
            dst_lid: Lid(2),
            src_lid: Lid(1),
            dst_qpn: Qpn(0),
            src_qpn: Qpn(0),
            opcode: Opcode::UdSend,
            psn,
            payload: 256,
            msg_id: 0,
            msg_len: 256,
            offset: 0,
            imm: 0,
            count: 1,
            stride: 0,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            data: None,
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::from_us(10), 100)));
        let b = e.add_actor(Box::new(Echo::new(Dur::from_us(10), 3)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        let end = e.run();
        // b receives at 0, a at 10, b at 20 -> b stops (count==3? b received 2)
        // Sequence: b@0 (b.count=1), a@10 (a.count=1), b@20 (b.count=2),
        // a@30, b@40 (count=3, stop).
        assert_eq!(end, Time::from_us(40));
        assert_eq!(e.actor::<Echo>(b).count, 3);
        assert_eq!(e.actor::<Echo>(a).count, 2);
    }

    #[test]
    fn fifo_tie_break_is_schedule_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Actor for Recorder {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
                self.seen.push(*msg.downcast::<u32>().unwrap());
            }
        }
        let mut e = Engine::new(1);
        let r = e.add_actor(Box::new(Recorder { seen: vec![] }));
        for i in 0..10u32 {
            e.schedule_message(Time::from_us(5), r, r, Box::new(i));
        }
        e.run();
        assert_eq!(e.actor::<Recorder>(r).seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_delay_self_send_runs_after_queued_same_time_events() {
        // The documented same-timestamp contract: a Dur::ZERO self-send from
        // the first handler lands *behind* the events that were already
        // queued for the same instant.
        struct Chaser {
            order: Vec<&'static str>,
        }
        impl Actor for Chaser {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
                let tag = *msg.downcast::<&'static str>().unwrap();
                if tag == "first" {
                    ctx.send(ctx.self_id(), Box::new("chased"), Dur::ZERO);
                }
                self.order.push(tag);
            }
        }
        let mut e = Engine::new(1);
        let c = e.add_actor(Box::new(Chaser { order: vec![] }));
        e.schedule_message(Time::ZERO, c, c, Box::new("first"));
        e.schedule_message(Time::ZERO, c, c, Box::new("second"));
        e.run();
        assert_eq!(
            e.actor::<Chaser>(c).order,
            vec!["first", "second", "chased"]
        );
    }

    #[test]
    fn timers_fire_with_tokens() {
        struct T;
        impl Actor for T {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
                ctx.timer(Dur::from_us(1), 7);
                ctx.timer(Dur::from_us(2), 9);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                if token == 9 {
                    ctx.stop();
                }
            }
        }
        let mut e = Engine::new(1);
        let t = e.add_actor(Box::new(T));
        e.schedule_message(Time::ZERO, t, t, Box::new(()));
        let end = e.run();
        assert_eq!(end, Time::from_us(2));
        assert!(e.stopped());
    }

    #[test]
    fn cancellable_timer_is_skipped_and_counted() {
        struct T {
            armed: Option<TimerId>,
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
                match *msg.downcast::<&'static str>().unwrap() {
                    "arm" => {
                        self.armed = Some(ctx.timer_cancellable(Dur::from_us(50), 7));
                        // A second, uncancelled timer proves only the
                        // cancelled one is suppressed.
                        ctx.timer(Dur::from_us(60), 8);
                    }
                    "cancel" => ctx.cancel_timer(self.armed.take().unwrap()),
                    _ => unreachable!(),
                }
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut e = Engine::new(1);
        let t = e.add_actor(Box::new(T {
            armed: None,
            fired: vec![],
        }));
        e.schedule_message(Time::ZERO, t, t, Box::new("arm"));
        e.schedule_message(Time::from_us(10), t, t, Box::new("cancel"));
        let end = e.run();
        assert_eq!(
            e.actor::<T>(t).fired,
            vec![8],
            "cancelled timer must not fire"
        );
        assert_eq!(e.counters().timers_cancelled, 1);
        // 2 messages + 1 surviving timer; the skipped pop is not processed.
        assert_eq!(e.events_processed(), 3);
        // Virtual time still advances through the cancelled slot to the
        // surviving timer.
        assert_eq!(end, Time::from_us(60));
    }

    /// Regression: a cancelled timer sitting below the deadline must not
    /// let `run_until` dispatch the next live event beyond the deadline.
    /// (The partitioned engine's horizon is a hard causality limit; an
    /// overshoot here surfaced as "time went backwards" in domain runs.)
    #[test]
    fn run_until_stops_at_deadline_across_cancelled_timers() {
        struct T {
            armed: Option<TimerId>,
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
                let id = ctx.timer_cancellable(Dur::from_us(5), 7);
                ctx.cancel_timer(id);
                self.armed = Some(id);
                ctx.timer(Dur::from_us(100), 8); // live, far beyond the deadline
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut e = Engine::new(1);
        let t = e.add_actor(Box::new(T {
            armed: None,
            fired: vec![],
        }));
        e.schedule_message(Time::ZERO, t, t, Box::new("go"));
        let end = e.run_until(Time::from_us(10));
        assert!(
            end <= Time::from_us(10),
            "run_until overshot its deadline: {end:?}"
        );
        assert!(
            e.actor::<T>(t).fired.is_empty(),
            "the 100us timer fired inside a 10us window"
        );
        // The live timer is still pending and fires once the window allows.
        assert_eq!(e.run_until(Time::from_us(100)), Time::from_us(100));
        assert_eq!(e.actor::<T>(t).fired, vec![8]);
    }

    #[test]
    fn packet_lane_dispatches_to_on_packet() {
        struct PktSink {
            packets: Vec<u32>,
            ctrl: u32,
        }
        impl Actor for PktSink {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
                self.ctrl += 1;
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, pkt: Packet) {
                self.packets.push(pkt.psn);
            }
        }
        let mut e = Engine::new(1);
        let s = e.add_actor(Box::new(PktSink {
            packets: vec![],
            ctrl: 0,
        }));
        e.schedule_message(Time::ZERO, s, s, test_packet(11));
        e.schedule_message(Time::ZERO, s, s, Box::new(()));
        e.schedule_message(Time::from_us(1), s, s, test_packet(12));
        e.run();
        let sink = e.actor::<PktSink>(s);
        assert_eq!(sink.packets, vec![11, 12]);
        assert_eq!(sink.ctrl, 1);
    }

    #[test]
    #[should_panic(expected = "does not handle the packet lane")]
    fn packet_to_non_fabric_actor_panics() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, 1)));
        e.schedule_message(Time::ZERO, a, a, test_packet(0));
        e.run();
    }

    #[test]
    fn event_pool_recycles_nodes() {
        // A long ping-pong keeps at most a couple of events in flight, so
        // the slab plateaus immediately and everything else is a pool hit.
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::from_us(1), u32::MAX)));
        let b = e.add_actor(Box::new(Echo::new(Dur::from_us(1), 1000)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        e.run();
        let c = e.counters();
        assert!(c.events_processed > 1900, "{c:?}");
        assert!(c.events_allocated <= 4, "slab must plateau: {c:?}");
        assert_eq!(c.pool_hits + c.events_allocated, c.events_processed);
        assert!(c.pool_hit_rate() > 0.99, "{c:?}");
        assert!(c.peak_queue_len <= 4, "{c:?}");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::from_us(10), u32::MAX)));
        let b = e.add_actor(Box::new(Echo::new(Dur::from_us(10), u32::MAX)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        let t = e.run_until(Time::from_us(35));
        assert!(t <= Time::from_us(35));
        // Remaining events still queued; continuing works.
        let t2 = e.run_until(Time::from_us(55));
        assert!(t2 > t);
    }

    #[test]
    fn event_limit_halts_runaway() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, u32::MAX)));
        let b = e.add_actor(Box::new(Echo::new(Dur::ZERO, u32::MAX)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        e.set_event_limit(1000);
        e.run();
        assert_eq!(e.events_processed(), 1000);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace() -> (Time, u64) {
            let mut e = Engine::new(99);
            let a = e.add_actor(Box::new(Echo::new(Dur::from_ns(37), 500)));
            let b = e.add_actor(Box::new(Echo::new(Dur::from_ns(53), 500)));
            e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
            let end = e.run();
            (end, e.events_processed())
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn trace_records_dispatches() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::from_us(10), 3)));
        let b = e.add_actor(Box::new(Echo::new(Dur::from_us(10), 3)));
        e.enable_trace(16);
        e.trace_mut().unwrap().name_actor(a, "ping");
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        e.run();
        let trace = e.trace().unwrap();
        assert_eq!(trace.records().len() as u64, e.events_processed());
        assert!(trace.dump().contains("ping"));
    }

    #[test]
    fn downcast_accessors() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, 1)));
        e.actor_mut::<Echo>(a).count = 41;
        assert_eq!(e.actor::<Echo>(a).count, 41);
    }

    #[test]
    #[should_panic(expected = "actor type mismatch")]
    fn downcast_wrong_type_panics() {
        struct Other;
        impl Actor for Other {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Box<dyn Any>) {}
        }
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Other));
        let _ = e.actor::<Echo>(a);
    }

    #[test]
    fn next_event_time_peeks_without_popping() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, 1)));
        assert_eq!(e.next_event_time(), None);
        e.schedule_message(Time::from_us(7), a, a, Box::new(0u8));
        e.schedule_message(Time::from_us(3), a, a, Box::new(0u8));
        assert_eq!(e.next_event_time(), Some(Time::from_us(3)));
        assert_eq!(e.events_processed(), 0, "peeking must not dispatch");
    }

    #[test]
    fn counters_merge_sums_and_maxes() {
        let a = EngineCounters {
            events_processed: 10,
            events_allocated: 2,
            pool_hits: 8,
            peak_queue_len: 5,
            timers_cancelled: 1,
            trains_emitted: 3,
            fragments_coalesced: 30,
            control_trains: 2,
            control_coalesced: 20,
            cal_bucket_occupancy: [4, 0, 0, 0, 0, 0, 0, 1],
            cal_fallback_hits: 6,
            sync_rounds_saved: 2,
            barrier_ns: 100,
            round_events: [1, 0, 0, 0, 0, 0, 0, 2],
        };
        let b = EngineCounters {
            events_processed: 4,
            events_allocated: 1,
            pool_hits: 3,
            peak_queue_len: 9,
            timers_cancelled: 0,
            trains_emitted: 1,
            fragments_coalesced: 10,
            control_trains: 1,
            control_coalesced: 5,
            cal_bucket_occupancy: [0, 2, 0, 0, 0, 0, 0, 0],
            cal_fallback_hits: 1,
            sync_rounds_saved: 5,
            barrier_ns: 50,
            round_events: [0, 3, 0, 0, 0, 0, 0, 1],
        };
        let mut m = a;
        m += b;
        assert_eq!(m.events_processed, 14);
        assert_eq!(m.events_allocated, 3);
        assert_eq!(m.pool_hits, 11);
        assert_eq!(m.peak_queue_len, 9, "peak is a max across disjoint queues");
        assert_eq!(m.timers_cancelled, 1);
        assert_eq!(m.trains_emitted, 4);
        assert_eq!(m.fragments_coalesced, 40);
        assert_eq!(m.control_trains, 3);
        assert_eq!(m.control_coalesced, 25);
        assert_eq!(m.cal_bucket_occupancy, [4, 2, 0, 0, 0, 0, 0, 1]);
        assert_eq!(m.cal_fallback_hits, 7);
        assert_eq!(m.sync_rounds_saved, 7);
        assert_eq!(m.barrier_ns, 150);
        assert_eq!(m.round_events, [1, 3, 0, 0, 0, 0, 0, 3]);
        assert_eq!(m.windows_recorded(), 7);
    }

    #[test]
    fn counters_equality_ignores_schedule_dependent_fields() {
        let mut a = EngineCounters {
            events_processed: 10,
            trains_emitted: 3,
            fragments_coalesced: 30,
            ..Default::default()
        };
        let mut b = a;
        // Pool growth, queue peaks, window shapes, and calendar-layout
        // artifacts are host- or queue-schedule noise; equality must see
        // through them (serial and partitioned runs split warmup probes
        // differently).
        b.events_allocated = 99;
        b.peak_queue_len = 77;
        b.sync_rounds_saved = 5;
        b.barrier_ns = 12345;
        b.round_events = [9; super::ROUND_EVENT_BUCKETS];
        b.cal_bucket_occupancy = [3; super::ROUND_EVENT_BUCKETS];
        b.cal_fallback_hits = 41;
        assert_eq!(a, b);
        a.events_processed += 1;
        assert_ne!(a, b, "dispatched-event counts are load-bearing");
    }

    #[test]
    fn round_event_histogram_buckets_log2() {
        let mut c = EngineCounters::default();
        c.record_window(0); // empty windows are not recorded
        c.record_window(1);
        c.record_window(3);
        c.record_window(4);
        c.record_window(200); // beyond 2^7 clamps into the last bucket
        assert_eq!(c.round_events, [1, 1, 1, 0, 0, 0, 0, 1]);
        assert_eq!(c.windows_recorded(), 4);
    }

    #[test]
    fn msg_downcast_round_trips() {
        let m: Msg = Box::new(42u32).into();
        assert!(!m.is_packet());
        assert_eq!(*m.downcast::<u32>().unwrap(), 42);

        let m: Msg = test_packet(5).into();
        assert!(m.is_packet());
        let m = m.downcast::<u32>().unwrap_err(); // packets refuse downcast
        assert_eq!(m.into_packet().unwrap().psn, 5);
    }
}
