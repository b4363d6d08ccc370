//! Fabric construction: topology building, cable wiring, and subnet-manager
//! route computation.
//!
//! [`FabricBuilder`] accumulates HCAs, switches, bridges (e.g. the Obsidian
//! Longbow pair from the `obsidian` crate), and cables; [`FabricBuilder::finish`]
//! wires egress ports, runs the subnet manager (BFS shortest-path LID routing,
//! which is how a real SM programs linear forwarding tables), and schedules
//! every ULP's `start` callback at time zero.

use crate::hca::{HcaActor, HcaConfig, HcaCore, START_TOKEN};
use crate::link::{EgressPort, LinkConfig};
use crate::switch::Switch;
use crate::types::Lid;
use crate::ulp::Ulp;
use simcore::domain::{self, DomainReport, DomainSpec};
use simcore::{Actor, ActorId, Dur, Engine, EngineCounters, Time};
use std::cell::RefCell;
use std::collections::VecDeque;

/// How `Fabric::run` chooses between the serial and the partitioned engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// Always run serially. The default: with the calendar queue's live
    /// bucket kept sorted, the serial engine beats a partitioned run on
    /// every query class measured (DESIGN.md §9).
    Off,
    /// Partition whenever a domain plan exists, regardless of core count or
    /// window width — used by A/B determinism tests and the perf harness's
    /// parallel column.
    Force,
}

/// Engine execution knobs carried by every fabric, set at build time and
/// immutable afterwards. This replaces the old process-global
/// `set_default_coalescing`/`set_partition_mode` setters: harnesses thread a
/// profile (usually derived from `ibwan_core`'s `RunConfig`) down through
/// the experiment constructors instead of mutating statics. Both knobs are
/// A/B-invisible in every virtual-time observable — enforced by the
/// determinism suites — so a profile only changes wall-clock behaviour.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineProfile {
    /// Fragment-train coalescing on the wire path (topology safety checks
    /// still apply; see [`FabricBuilder::finish`]).
    pub coalescing: bool,
    /// Serial vs partitioned engine choice for [`Fabric::run`].
    pub partition: PartitionMode,
}

impl Default for EngineProfile {
    fn default() -> Self {
        EngineProfile {
            coalescing: true,
            partition: PartitionMode::Off,
        }
    }
}

impl EngineProfile {
    /// The default profile with partitioning forced wherever a domain plan
    /// exists (A/B harnesses, the perf parallel column).
    pub fn forced() -> Self {
        EngineProfile {
            partition: PartitionMode::Force,
            ..EngineProfile::default()
        }
    }

    /// The default profile with the per-fragment wire path
    /// (`repro --no-coalescing`).
    pub fn no_coalescing() -> Self {
        EngineProfile {
            coalescing: false,
            ..EngineProfile::default()
        }
    }
}

/// Events dispatched per domain index are folded into this many slots.
const DOMAIN_TALLY_SLOTS: usize = 8;

/// Engine work accumulated by every [`Fabric::run`] on the current thread
/// since the last [`reset_run_tally`]. Experiment constructors bury their
/// fabrics, so harnesses (the provenance-stamping runner, `perf`) read
/// per-experiment engine stats from here. The tally is **thread-local**:
/// sweep workers each accumulate their own and `sweep::parallel_map` merges
/// them back into the calling thread, so concurrent experiments never bleed
/// counters into each other the way the old process-wide atomics did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTally {
    /// Summed engine-counter deltas across runs (`peak_queue_len` is a max).
    pub counters: EngineCounters,
    /// `Fabric::run` calls that executed partitioned.
    pub partitioned_runs: u64,
    /// `Fabric::run` calls that executed serially.
    pub serial_runs: u64,
    /// Stealer condvar waits across all partitioned runs.
    pub sync_rounds: u64,
    /// Widest split seen (0 when everything ran serially).
    pub max_domains: u64,
    /// Events dispatched per domain index (capped at 8 slots; wider splits
    /// fold into the last slot), trimmed to the widest split observed.
    pub events_per_domain: Vec<u64>,
    /// Fabrics lowered from a declarative `TopoSpec` (via [`note_topo`]).
    pub topos_built: u64,
    /// XOR of every noted `TopoSpec` digest — order-independent, so sweep
    /// workers lowering the same specs in any schedule merge to the same
    /// fingerprint. 0 when no spec was noted.
    pub topo_digest: u64,
    /// Largest endpoint count across all runs (fabric scale for `perf`).
    pub max_nodes: u64,
}

impl RunTally {
    /// Fold another tally (e.g. a sweep worker's) into this one.
    pub fn merge(&mut self, other: &RunTally) {
        self.counters += other.counters;
        self.partitioned_runs += other.partitioned_runs;
        self.serial_runs += other.serial_runs;
        self.sync_rounds += other.sync_rounds;
        self.max_domains = self.max_domains.max(other.max_domains);
        self.topos_built += other.topos_built;
        self.topo_digest ^= other.topo_digest;
        self.max_nodes = self.max_nodes.max(other.max_nodes);
        if self.events_per_domain.len() < other.events_per_domain.len() {
            self.events_per_domain
                .resize(other.events_per_domain.len(), 0);
        }
        for (slot, &events) in other.events_per_domain.iter().enumerate() {
            self.events_per_domain[slot] += events;
        }
    }

    /// Fraction of would-be hop events that rode inside a train instead —
    /// data fragments plus control-path acknowledgements:
    /// `(fragments_coalesced + control_coalesced) / (events_processed +
    /// fragments_coalesced + control_coalesced)`.
    pub fn coalescing_ratio(&self) -> f64 {
        self.counters.coalescing_ratio()
    }
}

thread_local! {
    static RUN_TALLY: RefCell<RunTally> = RefCell::new(RunTally::default());
}

/// Reset the current thread's run tally (call before an experiment).
pub fn reset_run_tally() {
    RUN_TALLY.with(|t| *t.borrow_mut() = RunTally::default());
}

/// Take the current thread's run tally, leaving it reset.
pub fn take_run_tally() -> RunTally {
    RUN_TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// A snapshot of the current thread's run tally.
pub fn run_tally() -> RunTally {
    RUN_TALLY.with(|t| t.borrow().clone())
}

/// Fold a tally captured on another thread (a finished sweep worker) into
/// the current thread's tally.
pub fn merge_run_tally(other: &RunTally) {
    RUN_TALLY.with(|t| t.borrow_mut().merge(other));
}

/// Record that a fabric was lowered from a declarative `TopoSpec` with the
/// given digest. Called by the topology layer's lowering pass; the runner
/// reads the accumulated fingerprint back out of the run tally and threads
/// it into every figure's provenance block.
pub fn note_topo(digest: u64) {
    RUN_TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.topos_built += 1;
        t.topo_digest ^= digest;
    });
}

/// Per-run engine-counter delta: monotonic fields subtract; the queue
/// high-water mark is not differentiable, so the run inherits the engine's
/// lifetime peak.
fn counters_delta(after: &EngineCounters, before: &EngineCounters) -> EngineCounters {
    EngineCounters {
        events_processed: after.events_processed - before.events_processed,
        events_allocated: after.events_allocated - before.events_allocated,
        pool_hits: after.pool_hits - before.pool_hits,
        peak_queue_len: after.peak_queue_len,
        timers_cancelled: after.timers_cancelled - before.timers_cancelled,
        trains_emitted: after.trains_emitted - before.trains_emitted,
        fragments_coalesced: after.fragments_coalesced - before.fragments_coalesced,
        control_trains: after.control_trains - before.control_trains,
        control_coalesced: after.control_coalesced - before.control_coalesced,
        cal_bucket_occupancy: std::array::from_fn(|b| {
            after.cal_bucket_occupancy[b] - before.cal_bucket_occupancy[b]
        }),
        cal_fallback_hits: after.cal_fallback_hits - before.cal_fallback_hits,
        sync_rounds_saved: after.sync_rounds_saved - before.sync_rounds_saved,
        barrier_ns: after.barrier_ns - before.barrier_ns,
        round_events: std::array::from_fn(|b| after.round_events[b] - before.round_events[b]),
    }
}

/// Anything the builder can wire a cable into.
pub trait PortAttach: Actor {
    /// Attach `egress` as this entity's port `idx`.
    fn attach_port(&mut self, idx: usize, egress: EgressPort);

    /// Minimum extra virtual-time delay this entity adds between receiving a
    /// packet and emitting it onward — its contribution to cross-domain
    /// lookahead when it sits on a partition boundary. `None` (the default)
    /// means "unknown": a boundary through this entity cannot be partitioned.
    /// WAN extenders (the Obsidian Longbow) override this with their transit
    /// latency plus injected WAN delay.
    fn forward_lookahead(&self) -> Option<Dur> {
        None
    }
}

impl PortAttach for HcaActor {
    fn attach_port(&mut self, idx: usize, egress: EgressPort) {
        assert_eq!(idx, 0, "HCAs are single-ported in this model");
        self.core_mut().attach_port(egress);
    }
}

impl PortAttach for Switch {
    fn attach_port(&mut self, idx: usize, egress: EgressPort) {
        Switch::attach_port(self, idx, egress);
    }
}

/// A fabric endpoint: the actor id of its HCA and its assigned LID.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NodeHandle {
    /// Engine actor id of the [`HcaActor`].
    pub actor: ActorId,
    /// Subnet-manager-assigned LID.
    pub lid: Lid,
}

enum Kind {
    Endpoint(#[allow(dead_code)] Lid),
    Switch,
    /// Transparent two-port bridge (range extender); no routing table.
    Bridge,
    /// Non-fabric actor (benchmark drivers etc.).
    Other,
}

type AttachFn = Box<dyn Fn(&mut Engine, ActorId, usize, EgressPort)>;
type LookaheadFn = Box<dyn Fn(&Engine, ActorId) -> Option<Dur>>;

/// Builds a fabric on top of a fresh [`Engine`].
pub struct FabricBuilder {
    engine: Engine,
    kinds: Vec<Kind>,
    attachers: Vec<Option<AttachFn>>,
    lookaheads: Vec<Option<LookaheadFn>>,
    /// adjacency: for each actor, (peer actor, local port idx, link cfg,
    /// wan-marked). Marked cables are partition-plan cut points even when
    /// neither endpoint is a bridge (see [`FabricBuilder::link_wan`]).
    adj: Vec<Vec<(ActorId, usize, LinkConfig, bool)>>,
    ports_used: Vec<usize>,
    next_lid: u16,
    nodes: Vec<NodeHandle>,
    profile: EngineProfile,
    partitioning: bool,
}

impl FabricBuilder {
    /// Start building with a deterministic seed and the default
    /// [`EngineProfile`] (coalescing on, serial engine).
    pub fn new(seed: u64) -> Self {
        FabricBuilder::with_profile(seed, EngineProfile::default())
    }

    /// Start building with a deterministic seed and an explicit engine
    /// profile — the entry point for `RunConfig`-threaded harnesses.
    pub fn with_profile(seed: u64, profile: EngineProfile) -> Self {
        FabricBuilder {
            engine: Engine::new(seed),
            kinds: Vec::new(),
            attachers: Vec::new(),
            lookaheads: Vec::new(),
            adj: Vec::new(),
            ports_used: Vec::new(),
            next_lid: 1,
            nodes: Vec::new(),
            profile,
            partitioning: true,
        }
    }

    /// Explicitly enable/disable fragment-train coalescing for this fabric
    /// (overrides the profile; topology safety checks still apply).
    pub fn set_coalescing(&mut self, on: bool) {
        self.profile.coalescing = on;
    }

    /// Force the per-fragment path for this fabric — used by components that
    /// introduce per-fragment divergence trains cannot express (e.g. random
    /// per-fragment loss injection).
    pub fn disable_coalescing(&mut self) {
        self.profile.coalescing = false;
    }

    /// Force serial execution for this fabric — used by components whose
    /// behaviour depends on engine-global state the partitioned engine cannot
    /// replicate bit-identically (e.g. random loss drawing from the shared
    /// RNG: per-domain engines hold per-domain generators, so draw order
    /// would diverge from the serial run).
    pub fn disable_partitioning(&mut self) {
        self.partitioning = false;
    }

    fn register<T: PortAttach>(&mut self, actor: Box<T>, kind: Kind) -> ActorId {
        let id = self.engine.add_actor(actor);
        debug_assert_eq!(id, self.kinds.len());
        self.kinds.push(kind);
        self.attachers.push(Some(Box::new(
            |eng: &mut Engine, id: ActorId, idx: usize, eg: EgressPort| {
                eng.actor_mut::<T>(id).attach_port(idx, eg);
            },
        )));
        self.lookaheads
            .push(Some(Box::new(|eng: &Engine, id: ActorId| -> Option<Dur> {
                eng.actor::<T>(id).forward_lookahead()
            })));
        self.adj.push(Vec::new());
        self.ports_used.push(0);
        id
    }

    /// Add a compute node: an HCA running `ulp`. A LID is assigned.
    pub fn add_hca(&mut self, cfg: HcaConfig, ulp: Box<dyn Ulp>) -> NodeHandle {
        let lid = Lid(self.next_lid);
        self.next_lid += 1;
        let core = HcaCore::new(lid, cfg);
        let actor = self.register(Box::new(HcaActor::new(core, ulp)), Kind::Endpoint(lid));
        let handle = NodeHandle { actor, lid };
        self.nodes.push(handle);
        handle
    }

    /// Add a switch.
    pub fn add_switch(&mut self) -> ActorId {
        self.register(Box::new(Switch::new()), Kind::Switch)
    }

    /// Add a transparent two-port bridge (e.g. an Obsidian Longbow).
    pub fn add_bridge<T: PortAttach>(&mut self, bridge: Box<T>) -> ActorId {
        self.register(bridge, Kind::Bridge)
    }

    /// Add a non-fabric actor (driver, coordinator). It gets no ports. Such
    /// actors have no cables to infer a domain from, so their presence
    /// disables partitioning for the fabric.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = self.engine.add_actor(actor);
        self.kinds.push(Kind::Other);
        self.attachers.push(None);
        self.lookaheads.push(None);
        self.adj.push(Vec::new());
        self.ports_used.push(0);
        id
    }

    /// Mutable engine access during construction (e.g. to configure ULPs).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Cable two fabric entities together with symmetric link parameters.
    pub fn link(&mut self, a: ActorId, b: ActorId, cfg: LinkConfig) {
        self.link_inner(a, b, cfg, false);
    }

    /// Cable two fabric entities with a **WAN-marked** cable: the partition
    /// planner cuts the cable graph here even though no bridge sits on the
    /// cable (a bare switch-to-switch long-haul link). The cross-domain
    /// lookahead for such a cut is the cable's propagation latency alone —
    /// sound because the sending switch forwards without additional delay
    /// and the egress port serializes all traffic onto the cable.
    pub fn link_wan(&mut self, a: ActorId, b: ActorId, cfg: LinkConfig) {
        self.link_inner(a, b, cfg, true);
    }

    fn link_inner(&mut self, a: ActorId, b: ActorId, cfg: LinkConfig, wan: bool) {
        for &(id, peer) in &[(a, b), (b, a)] {
            assert!(
                !matches!(self.kinds[id], Kind::Other),
                "cannot cable a non-fabric actor"
            );
            let port = self.ports_used[id];
            if let Kind::Endpoint(_) = self.kinds[id] {
                assert_eq!(port, 0, "HCAs take exactly one cable");
            }
            self.ports_used[id] += 1;
            self.adj[id].push((peer, port, cfg, wan));
        }
    }

    /// Wire ports, run the subnet manager, schedule ULP starts, and return
    /// the runnable fabric.
    pub fn finish(mut self) -> Fabric {
        // Attach egress ports for every adjacency entry.
        for id in 0..self.adj.len() {
            let Some(attach) = self.attachers[id].as_ref() else {
                continue;
            };
            for &(peer, port, cfg, _) in &self.adj[id] {
                attach(&mut self.engine, id, port, EgressPort::new(peer, cfg));
            }
        }

        // Subnet manager: BFS from every endpoint; each switch routes the
        // endpoint's LID out the port it was discovered through.
        let n = self.adj.len();
        for &NodeHandle { actor: end, lid } in &self.nodes {
            let mut seen = vec![false; n];
            let mut queue = VecDeque::new();
            seen[end] = true;
            queue.push_back(end);
            while let Some(u) = queue.pop_front() {
                // Iterate copies to appease the borrow checker.
                let neighbors: Vec<(ActorId, usize)> =
                    self.adj[u].iter().map(|&(p, _, _, _)| (p, 0)).collect();
                for (v, _) in neighbors {
                    if seen[v] {
                        continue;
                    }
                    seen[v] = true;
                    // v was discovered via u: v's route to `lid` is its port
                    // facing u.
                    if matches!(self.kinds[v], Kind::Switch) {
                        let port_to_u = self.adj[v]
                            .iter()
                            .find(|&&(p, _, _, _)| p == u)
                            .map(|&(_, port, _, _)| port)
                            .expect("adjacency must be symmetric");
                        self.engine
                            .actor_mut::<Switch>(v)
                            .set_route(lid.0, port_to_u);
                    }
                    queue.push_back(v);
                }
            }
        }

        // Fragment trains are only exact when no switch can merge competing
        // flows onto one egress port mid-train: a >2-port switch may
        // interleave two flows' fragments on shared egress, which per-train
        // reservation cannot reproduce. Pipeline topologies (HCA–HCA,
        // HCA–switch–HCA, WAN bridges) are safe.
        let safe = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, Kind::Switch))
            .all(|(id, _)| self.ports_used[id] <= 2);
        let coalesce = self.profile.coalescing && safe;
        for &NodeHandle { actor, .. } in &self.nodes {
            self.engine
                .actor_mut::<HcaActor>(actor)
                .core_mut()
                .set_coalescing(coalesce);
        }

        // Kick every ULP at time zero.
        for &NodeHandle { actor, .. } in &self.nodes {
            self.engine.schedule_timer(Time::ZERO, actor, START_TOKEN);
        }

        let switches = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, Kind::Switch))
            .map(|(id, _)| id)
            .collect();
        let plan = self.compute_plan();
        Fabric {
            engine: self.engine,
            nodes: self.nodes,
            switches,
            plan,
            partition: self.profile.partition,
            last_domain_report: None,
        }
    }

    /// Derive the domain plan: cut the topology at every WAN cable — a
    /// bridge–bridge cable (the Longbow–Longbow long-haul links) or any
    /// cable wired with [`FabricBuilder::link_wan`] — make each remaining
    /// connected component a domain, and bound the cross-domain lookahead
    /// per cut-edge direction. The planner is N-way: an `n`-site chain or
    /// star of WAN cables yields one domain per site, and a site with
    /// several bridges still splits because every bridge-pair cable is a
    /// cut point independently. Returns `None` whenever the split would be
    /// unsound or useless, in which case the fabric always runs serially:
    ///
    /// * partitioning disabled (random loss needs the shared RNG order),
    /// * non-fabric actors present (no cables → no domain assignment),
    /// * fewer than two components after the cut,
    /// * a boundary bridge with unknown forward delay, or
    /// * a component no cut edge leads into (it could never be woken).
    fn compute_plan(&self) -> Option<DomainSpec> {
        if !self.partitioning {
            return None;
        }
        if self.kinds.iter().any(|k| matches!(k, Kind::Other)) {
            return None;
        }
        let n = self.adj.len();
        let is_cut = |a: ActorId, b: ActorId, wan: bool| {
            wan || (matches!(self.kinds[a], Kind::Bridge) && matches!(self.kinds[b], Kind::Bridge))
        };

        // Connected components of the cable graph minus cut edges.
        let mut domain_of = vec![u32::MAX; n];
        let mut domains = 0u32;
        for start in 0..n {
            if domain_of[start] != u32::MAX {
                continue;
            }
            domain_of[start] = domains;
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &(v, _, _, wan) in &self.adj[u] {
                    if domain_of[v] == u32::MAX && !is_cut(u, v, wan) {
                        domain_of[v] = domains;
                        queue.push_back(v);
                    }
                }
            }
            domains += 1;
        }
        if domains < 2 {
            return None;
        }

        // Lookahead per ordered domain pair: for a message crossing the cut
        // cable a→b, the minimum delay after the sending bridge's event is
        // the cable's propagation latency, plus — on uncredited cables —
        // the bridge's own forward delay (transit + injected WAN delay; the
        // bridge buffers before emitting). Credited cables return
        // `CreditMsg`s at bare cable latency, so the forward delay cannot be
        // counted for them.
        //
        // Alongside the static bound, classify each direction for the
        // train-aware wire-tail promise (`DomainSpec::tail_safe`): it holds
        // only when every `da → db` message is serialized through a single
        // physical path, i.e. exactly one cut cable connects the ordered
        // pair and nothing bypasses its port serialization. Credit returns
        // are scheduled at bare cable latency without riding the egress
        // port, so a credited cut cable voids the promise in both
        // directions it can carry credits.
        let d = domains as usize;
        let mut lookahead_ns = vec![vec![u64::MAX; d]; d];
        let mut cut_cables = vec![vec![0u32; d]; d];
        let mut serialized = vec![vec![true; d]; d];
        for a in 0..n {
            for &(b, _, cfg, wan) in &self.adj[a] {
                if !is_cut(a, b, wan) {
                    continue;
                }
                let (da, db) = (domain_of[a] as usize, domain_of[b] as usize);
                if da == db {
                    // A redundant bridge cable inside one domain: harmless.
                    continue;
                }
                let mut l = cfg.latency;
                if cfg.credit_packets.is_none() {
                    // A bridge buffers before emitting, so its forward delay
                    // adds to the bound — and a bridge that cannot state one
                    // aborts the plan. A WAN-marked cable between switches
                    // has no such store-and-forward stage: the cable latency
                    // alone is the sound bound (zero extra forward delay).
                    let fwd = if matches!(self.kinds[a], Kind::Bridge) {
                        self.lookaheads[a].as_ref()?(&self.engine, a)?
                    } else {
                        self.lookaheads[a]
                            .as_ref()
                            .and_then(|f| f(&self.engine, a))
                            .unwrap_or(Dur::ZERO)
                    };
                    l += fwd;
                } else {
                    serialized[da][db] = false;
                }
                cut_cables[da][db] += 1;
                let slot = &mut lookahead_ns[da][db];
                *slot = (*slot).min(l.as_ns());
            }
        }
        let mut tail_safe = vec![vec![false; d]; d];
        for s in 0..d {
            for t in 0..d {
                tail_safe[s][t] = cut_cables[s][t] == 1 && serialized[s][t];
            }
        }

        let spec = DomainSpec {
            domains: d,
            domain_of,
            lookahead_ns,
            tail_safe,
        };
        spec.is_runnable().then_some(spec)
    }
}

/// A wired, runnable fabric.
pub struct Fabric {
    /// The underlying engine; run it with [`Engine::run`] or step manually.
    pub engine: Engine,
    nodes: Vec<NodeHandle>,
    switches: Vec<ActorId>,
    /// Domain split derived at build time; `None` → always serial.
    plan: Option<DomainSpec>,
    /// Serial vs partitioned engine choice, fixed at build time from the
    /// builder's [`EngineProfile`].
    partition: PartitionMode,
    /// Stats from the most recent partitioned [`Fabric::run`] (cleared by a
    /// serial run).
    last_domain_report: Option<DomainReport>,
}

impl Fabric {
    /// All endpoints in creation order.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// Borrow a node's [`HcaActor`].
    pub fn hca(&self, node: NodeHandle) -> &HcaActor {
        self.engine.actor::<HcaActor>(node.actor)
    }

    /// Mutably borrow a node's [`HcaActor`].
    pub fn hca_mut(&mut self, node: NodeHandle) -> &mut HcaActor {
        self.engine.actor_mut::<HcaActor>(node.actor)
    }

    /// The domain split this fabric would run partitioned with, if any.
    pub fn domain_plan(&self) -> Option<&DomainSpec> {
        self.plan.as_ref()
    }

    /// Stats from the most recent [`Fabric::run`], if it ran partitioned.
    pub fn domain_report(&self) -> Option<&DomainReport> {
        self.last_domain_report.as_ref()
    }

    /// Whether `run` takes the partitioned path: a domain plan exists, the
    /// fabric was built with [`PartitionMode::Force`], and no trace is
    /// recording (one bounded trace cannot span two domains).
    fn should_partition(&self) -> bool {
        self.plan.is_some()
            && self.partition == PartitionMode::Force
            && self.engine.trace().is_none()
    }

    /// Run the simulation to quiescence; returns final virtual time.
    ///
    /// Chooses between the serial event loop and the partitioned engine
    /// ([`simcore::domain::run_partitioned`]) per [`Fabric::should_partition`].
    /// The serial and partitioned paths are bit-identical in every
    /// virtual-time observable, so the choice is invisible to experiments
    /// (enforced by the A/B determinism suite in `bench/tests/determinism.rs`).
    pub fn run(&mut self) -> Time {
        let before = self.engine.counters();
        let t = if self.should_partition() {
            let plan = self.plan.as_ref().expect("should_partition checked plan");
            let report = domain::run_partitioned(&mut self.engine, plan);
            RUN_TALLY.with(|tally| {
                let mut tally = tally.borrow_mut();
                tally.partitioned_runs += 1;
                tally.sync_rounds += report.sync_rounds;
                tally.max_domains = tally.max_domains.max(report.domains as u64);
                let slots = report.events_per_domain.len().min(DOMAIN_TALLY_SLOTS);
                if tally.events_per_domain.len() < slots {
                    tally.events_per_domain.resize(slots, 0);
                }
                for (d, &events) in report.events_per_domain.iter().enumerate() {
                    tally.events_per_domain[d.min(DOMAIN_TALLY_SLOTS - 1)] += events;
                }
            });
            self.last_domain_report = Some(report);
            self.engine.now()
        } else {
            RUN_TALLY.with(|tally| tally.borrow_mut().serial_runs += 1);
            self.last_domain_report = None;
            self.engine.run()
        };
        let after = self.engine.counters();
        RUN_TALLY.with(|tally| {
            let mut tally = tally.borrow_mut();
            tally.counters += counters_delta(&after, &before);
            tally.max_nodes = tally.max_nodes.max(self.nodes.len() as u64);
        });
        t
    }

    /// All switch actor ids (creation order).
    pub fn switches(&self) -> &[ActorId] {
        &self.switches
    }

    /// Aggregate traffic statistics across the fabric — post-run diagnosis
    /// of who moved what.
    pub fn report(&self) -> FabricReport {
        let mut r = FabricReport::default();
        for &node in &self.nodes {
            let core = self.hca(node).core();
            r.hca_packets_sent += core.packets_sent();
            r.hca_packets_received += core.packets_received();
        }
        for &sw in &self.switches {
            r.switch_packets_forwarded += self.engine.actor::<Switch>(sw).forwarded();
        }
        r.nodes = self.nodes.len();
        r.switches = self.switches.len();
        r.engine_counters = self.engine.counters();
        if let Some(d) = &self.last_domain_report {
            r.domains = d.domains;
            r.sync_rounds = d.sync_rounds;
        }
        r
    }
}

/// Fabric-wide traffic totals from [`Fabric::report`].
///
/// Equality deliberately skips `domains` and `sync_rounds`: they describe
/// *how* the engine executed (serial vs. partitioned, how often a stealer
/// waited), not what the simulated fabric did, and the A/B determinism
/// suites compare serial and partitioned reports with `==`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricReport {
    /// Endpoint count.
    pub nodes: usize,
    /// Switch count.
    pub switches: usize,
    /// Packets emitted by all HCAs (data + ACKs + retransmissions).
    pub hca_packets_sent: u64,
    /// Packets delivered to all HCAs.
    pub hca_packets_received: u64,
    /// Forwarding operations across all switches.
    pub switch_packets_forwarded: u64,
    /// Domains the most recent run was split into (0 = ran serially).
    pub domains: usize,
    /// Stealer condvar waits in the most recent partitioned run (0 = ran
    /// serially, or never waited).
    pub sync_rounds: u64,
    /// Event-engine hot-path counters (allocations, pool hits, queue depth).
    pub engine_counters: simcore::EngineCounters,
}

impl PartialEq for FabricReport {
    fn eq(&self, other: &Self) -> bool {
        // See the struct doc: execution-strategy fields are excluded.
        // `engine_counters` equality is itself the schedule-independent
        // subset defined in `simcore`.
        self.nodes == other.nodes
            && self.switches == other.switches
            && self.hca_packets_sent == other.hca_packets_sent
            && self.hca_packets_received == other.hca_packets_received
            && self.switch_packets_forwarded == other.switch_packets_forwarded
            && self.engine_counters == other.engine_counters
    }
}

impl Eq for FabricReport {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpConfig;
    use crate::ulp::NullUlp;
    use crate::verbs::{Completion, RecvWr, SendWr};
    use simcore::Ctx;

    /// ULP that sends one message to a peer on start and records receptions.
    struct OneShot {
        peer: Option<(Lid, crate::qp::Qpn)>,
        len: u32,
        got: Vec<(u32, u64)>,
        send_done_at: Option<Time>,
        recv_done_at: Option<Time>,
    }

    impl OneShot {
        fn new() -> Self {
            OneShot {
                peer: None,
                len: 0,
                got: vec![],
                send_done_at: None,
                recv_done_at: None,
            }
        }
    }

    impl Ulp for OneShot {
        fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
            // Both sides made QP 0 during setup (test harness below).
            if let Some(peer) = self.peer {
                let qpn = crate::qp::Qpn(0);
                hca.connect(qpn, peer);
                hca.post_send(ctx, qpn, SendWr::send(1, self.len, 99));
            }
        }
        fn on_completion(&mut self, _hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
            match c {
                Completion::SendDone { .. } => self.send_done_at = Some(ctx.now()),
                Completion::RecvDone { len, imm, .. } => {
                    self.got.push((len, imm));
                    self.recv_done_at = Some(ctx.now());
                }
                Completion::WriteArrived { .. } => {}
            }
        }
    }

    fn two_nodes_via_switch(len: u32) -> (Fabric, NodeHandle, NodeHandle) {
        let mut b = FabricBuilder::new(7);
        let n1 = b.add_hca(HcaConfig::default(), Box::new(OneShot::new()));
        let n2 = b.add_hca(HcaConfig::default(), Box::new(OneShot::new()));
        let sw = b.add_switch();
        b.link(n1.actor, sw, LinkConfig::ddr_lan());
        b.link(n2.actor, sw, LinkConfig::ddr_lan());
        let mut f = b.finish();
        // Create QPs and connect: sender n1 -> receiver n2.
        let q1 = f.hca_mut(n1).core_mut().create_qp(QpConfig::rc());
        let q2 = f.hca_mut(n2).core_mut().create_qp(QpConfig::rc());
        f.hca_mut(n2).core_mut().connect(q2, (n1.lid, q1));
        f.hca_mut(n2).core_mut().post_recv(q2, RecvWr { wr_id: 0 });
        let ulp = f.hca_mut(n1).ulp_mut::<OneShot>();
        ulp.peer = Some((n2.lid, q2));
        ulp.len = len;
        (f, n1, n2)
    }

    #[test]
    fn end_to_end_send_through_switch() {
        let (mut f, n1, n2) = two_nodes_via_switch(4096);
        f.run();
        let rx = f.hca(n2).ulp::<OneShot>();
        assert_eq!(rx.got, vec![(4096, 99)]);
        let tx = f.hca(n1).ulp::<OneShot>();
        // Sender completes only after the ACK returns: later than receiver.
        assert!(tx.send_done_at.unwrap() > rx.recv_done_at.unwrap() - simcore::Dur::from_us(1));
    }

    #[test]
    fn lids_are_unique_and_dense() {
        let mut b = FabricBuilder::new(1);
        let n1 = b.add_hca(HcaConfig::default(), Box::new(NullUlp));
        let n2 = b.add_hca(HcaConfig::default(), Box::new(NullUlp));
        let n3 = b.add_hca(HcaConfig::default(), Box::new(NullUlp));
        assert_eq!((n1.lid, n2.lid, n3.lid), (Lid(1), Lid(2), Lid(3)));
    }

    #[test]
    fn routing_across_two_switches() {
        // n1 - sw1 - sw2 - n2: the SM must install routes on both switches.
        let mut b = FabricBuilder::new(7);
        let n1 = b.add_hca(HcaConfig::default(), Box::new(OneShot::new()));
        let n2 = b.add_hca(HcaConfig::default(), Box::new(OneShot::new()));
        let sw1 = b.add_switch();
        let sw2 = b.add_switch();
        b.link(n1.actor, sw1, LinkConfig::ddr_lan());
        b.link(sw1, sw2, LinkConfig::ddr_lan());
        b.link(n2.actor, sw2, LinkConfig::ddr_lan());
        let mut f = b.finish();
        let q1 = f.hca_mut(n1).core_mut().create_qp(QpConfig::rc());
        let q2 = f.hca_mut(n2).core_mut().create_qp(QpConfig::rc());
        f.hca_mut(n2).core_mut().connect(q2, (n1.lid, q1));
        f.hca_mut(n2).core_mut().post_recv(q2, RecvWr { wr_id: 0 });
        let ulp = f.hca_mut(n1).ulp_mut::<OneShot>();
        ulp.peer = Some((n2.lid, q2));
        ulp.len = 100;
        f.run();
        assert_eq!(f.hca(n2).ulp::<OneShot>().got, vec![(100, 99)]);
    }

    #[test]
    fn report_counts_traffic() {
        let (mut f, _n1, _n2) = two_nodes_via_switch(4096);
        f.run();
        let r = f.report();
        assert_eq!(r.nodes, 2);
        assert_eq!(r.switches, 1);
        // 2 data fragments + 1 ACK, each crossing the switch once.
        assert_eq!(r.hca_packets_sent, 3);
        assert_eq!(r.hca_packets_received, 3);
        assert_eq!(r.switch_packets_forwarded, 3);
    }

    #[test]
    fn lan_fabrics_have_no_domain_plan() {
        // No bridges → nothing to cut → always serial.
        let (f, _n1, _n2) = two_nodes_via_switch(1024);
        assert!(f.domain_plan().is_none());
    }

    #[test]
    fn non_fabric_actors_disable_partitioning() {
        struct Idle;
        impl simcore::Actor for Idle {
            fn on_message(
                &mut self,
                _ctx: &mut simcore::Ctx<'_>,
                _from: ActorId,
                _msg: Box<dyn std::any::Any>,
            ) {
            }
        }
        let mut b = FabricBuilder::new(3);
        let _ = b.add_hca(HcaConfig::default(), Box::new(NullUlp));
        b.add_actor(Box::new(Idle));
        let f = b.finish();
        assert!(f.domain_plan().is_none());
    }

    #[test]
    #[should_panic(expected = "exactly one cable")]
    fn hca_cannot_take_two_cables() {
        let mut b = FabricBuilder::new(1);
        let n1 = b.add_hca(HcaConfig::default(), Box::new(NullUlp));
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        b.link(n1.actor, s1, LinkConfig::ddr_lan());
        b.link(n1.actor, s2, LinkConfig::ddr_lan());
    }
}
