//! # obsidian — Longbow XR InfiniBand range-extender model
//!
//! The Obsidian Longbow XR extends an InfiniBand fabric across WAN distances.
//! A pair of Longbows forms a point-to-point long-haul link; in the paper's
//! "basic switch mode" the pair appears to the subnet manager as a two-ported
//! switch, unifying the two cluster subnets transparently except for the
//! added wire latency. The devices carry IB traffic at **SDR rate (8 Gb/s
//! data)** over the WAN even when the clusters are DDR internally — the reason
//! the paper's NFS LAN-to-WAN comparison drops ~36%.
//!
//! The XR's signature feature — the one the whole paper leans on — is its
//! **web-configurable packet delay**, used to emulate WAN separation: each
//! microsecond of one-way delay corresponds to ~200 m of fiber (5 µs/km).
//! [`wire_delay_for_km`] reproduces Table 1 of the paper.
//!
//! ```
//! use obsidian::wire_delay_for_km;
//! use simcore::Dur;
//! assert_eq!(wire_delay_for_km(1000), Dur::from_us(5000)); // Table 1 row 4
//! ```

use ibfabric::fabric::{FabricBuilder, PortAttach};
use ibfabric::link::{CreditMsg, EgressPort, LinkConfig};
use ibfabric::packet::Packet;
use rand::Rng as _;
use simcore::{Actor, ActorId, Ctx, Dur, Rate};
use std::any::Any;

/// Speed-of-light-in-fiber wire delay for an emulated distance, one way:
/// 5 µs per km, exactly the paper's Table 1 mapping.
pub fn wire_delay_for_km(km: u64) -> Dur {
    Dur::from_us(5 * km)
}

/// Inverse of [`wire_delay_for_km`]: emulated distance for a delay setting.
pub fn km_for_wire_delay(delay: Dur) -> u64 {
    delay.as_ns() / 5_000
}

/// Static parameters of one Longbow XR unit.
#[derive(Copy, Clone, Debug)]
pub struct LongbowConfig {
    /// Transit latency through one unit (the pair adds ~5 µs total to
    /// small-message latency, per Section 3.2.1).
    pub transit_latency: Dur,
    /// Additional delay this unit injects per forwarded packet. For a pair
    /// emulating one-way wire delay `D`, each unit is configured with `D/2`
    /// so a full crossing accumulates `D` in each direction.
    pub injected_delay: Dur,
    /// Packet-loss probability in parts per million (long-haul bit errors /
    /// optical impairments; 0 = pristine link). Losses exercise the RC
    /// go-back-N retransmission machinery.
    pub loss_per_million: u32,
}

impl Default for LongbowConfig {
    fn default() -> Self {
        LongbowConfig {
            transit_latency: Dur::from_ns(2500),
            injected_delay: Dur::ZERO,
            loss_per_million: 0,
        }
    }
}

/// One Longbow XR unit: a transparent two-port store-and-forward bridge.
///
/// Packets entering either port leave through the other after the transit
/// latency plus the configured injected delay. Serialization rates are
/// carried by the attached links (the WAN cable runs at SDR).
pub struct Longbow {
    cfg: LongbowConfig,
    ports: [Option<EgressPort>; 2],
    forwarded: u64,
    dropped: u64,
}

impl Longbow {
    /// New unit with `cfg`.
    pub fn new(cfg: LongbowConfig) -> Self {
        Longbow {
            cfg,
            ports: [None, None],
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Reconfigure the injected delay (the "web interface" knob).
    pub fn set_injected_delay(&mut self, d: Dur) {
        self.cfg.injected_delay = d;
    }

    /// Current configuration.
    pub fn config(&self) -> LongbowConfig {
        self.cfg
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped by injected loss so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl PortAttach for Longbow {
    fn attach_port(&mut self, idx: usize, egress: EgressPort) {
        assert!(idx < 2, "Longbows are two-ported");
        assert!(self.ports[idx].is_none(), "port {idx} already attached");
        self.ports[idx] = Some(egress);
    }

    /// A packet entering either port leaves no earlier than the transit
    /// latency plus the injected WAN delay after the ingress event — this is
    /// the store-and-forward floor the partitioned engine uses as lookahead
    /// when the WAN cable forms a domain boundary. (Credit returns bypass
    /// the store-and-forward path; the fabric builder accounts for those
    /// separately by dropping this term on credited cables.)
    fn forward_lookahead(&self) -> Option<Dur> {
        Some(self.cfg.transit_latency + self.cfg.injected_delay)
    }
}

impl Longbow {
    /// Ingress side for a message from neighbor `from`; egress is the other
    /// port.
    fn ingress_idx(&self, from: ActorId) -> usize {
        let in0 = self.ports[0].as_ref().map(|p| p.peer) == Some(from);
        debug_assert!(
            in0 || self.ports[1].as_ref().map(|p| p.peer) == Some(from),
            "packet from an actor on neither port"
        );
        if in0 {
            0
        } else {
            1
        }
    }
}

impl Actor for Longbow {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: ActorId, pkt: Packet) {
        let in_idx = self.ingress_idx(from);
        let out_idx = 1 - in_idx;
        // Deep internal buffers: the ingress credit returns immediately.
        if self.ports[in_idx].as_ref().is_some_and(|p| p.credited()) {
            debug_assert_eq!(pkt.count, 1, "trains never cross credited links");
            let latency = self.ports[in_idx].as_ref().unwrap().config().latency;
            ctx.send(from, Box::new(CreditMsg), latency);
        }
        // The transit + injected delay shifts every train member uniformly,
        // so a train crosses the unit with its gap intact.
        let ready = ctx.now() + self.cfg.transit_latency + self.cfg.injected_delay;
        if self.cfg.loss_per_million > 0 {
            // Loss is rolled per fragment, so trains must de-coalesce here:
            // each member gets its own dice roll at its own arrival instant.
            // (Fabrics with lossy Longbows disable coalescing entirely —
            // see `LongbowPair::insert_with` — so this loop normally sees
            // only single packets.)
            for k in 0..pkt.count {
                let member = pkt.frag(k);
                if ctx.rng().gen_range(0..1_000_000u32) < self.cfg.loss_per_million {
                    self.dropped += 1;
                    continue;
                }
                let port = self.ports[out_idx]
                    .as_mut()
                    .expect("Longbow egress port not attached");
                self.forwarded += 1;
                let peer = port.peer;
                let at = ready + Dur::from_ns(pkt.member_arrival_offset_ns(k));
                if let Some((arrival, m)) = port.transmit(at, member) {
                    ctx.send_at(peer, m, arrival);
                }
            }
            return;
        }
        let port = self.ports[out_idx]
            .as_mut()
            .expect("Longbow egress port not attached");
        self.forwarded += pkt.count as u64;
        let peer = port.peer;
        port.transmit_seq(ready, pkt, &mut |arrival, p| ctx.send_at(peer, p, arrival));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
        msg.downcast::<CreditMsg>()
            .expect("Longbow received an unexpected control message");
        let in_idx = self.ingress_idx(from);
        let now = ctx.now();
        let port = self.ports[in_idx]
            .as_mut()
            .expect("credit on unattached port");
        if let Some((arrival, pkt)) = port.credit_returned(now) {
            let peer = port.peer;
            ctx.send_at(peer, pkt, arrival);
        }
    }
}

/// The WAN cable between two Longbows: SDR data rate, negligible intrinsic
/// propagation (distance is emulated with injected delay, as in the paper).
pub fn wan_cable() -> LinkConfig {
    LinkConfig {
        rate: Rate::from_gbps(8),
        latency: Dur::from_ns(100),
        credit_packets: None,
    }
}

/// The short local cable from a cluster's core switch into its Longbow.
/// The Longbow's IB side runs at SDR 4x.
pub fn local_cable() -> LinkConfig {
    LinkConfig {
        rate: Rate::from_gbps(8),
        latency: Dur::from_ns(100),
        credit_packets: None,
    }
}

/// Handles to an installed Longbow pair.
#[derive(Copy, Clone, Debug)]
pub struct LongbowPair {
    /// Unit attached to cluster A's switch.
    pub a: ActorId,
    /// Unit attached to cluster B's switch.
    pub b: ActorId,
}

impl LongbowPair {
    /// Insert a Longbow pair between two cluster switches, emulating a
    /// one-way WAN wire delay of `delay` (use [`wire_delay_for_km`]).
    ///
    /// Each unit injects `delay/2` per forwarded packet, so a full crossing
    /// accumulates `delay` in each direction — RTT grows by `2 * delay`,
    /// matching how the paper's router delay knob emulates distance.
    pub fn insert(
        builder: &mut FabricBuilder,
        switch_a: ActorId,
        switch_b: ActorId,
        delay: Dur,
    ) -> LongbowPair {
        Self::insert_with(
            builder,
            switch_a,
            switch_b,
            LongbowConfig {
                injected_delay: delay / 2,
                ..LongbowConfig::default()
            },
        )
    }

    /// Insert a Longbow pair whose WAN cable has only `credits` receive
    /// buffers per direction — a *shallow-buffered* range extender.
    ///
    /// Here the emulated distance is carried as true wire propagation on
    /// the WAN cable (instead of router-injected delay), so the link-level
    /// credit loop spans the full round trip exactly as it would on real
    /// fiber. With too few credits the transmitter stalls waiting for
    /// credit returns and the long pipe cannot fill: sustainable bandwidth
    /// is `credits × packet_size / RTT`. This is precisely why the real
    /// Longbow XR ships with very deep buffers.
    pub fn insert_shallow(
        builder: &mut FabricBuilder,
        switch_a: ActorId,
        switch_b: ActorId,
        delay: Dur,
        credits: usize,
    ) -> LongbowPair {
        let cfg = LongbowConfig::default(); // no injected delay
        let a = builder.add_bridge(Box::new(Longbow::new(cfg)));
        let b = builder.add_bridge(Box::new(Longbow::new(cfg)));
        let wan = LinkConfig {
            rate: Rate::from_gbps(8),
            latency: Dur::from_ns(100) + delay, // distance as real propagation
            credit_packets: Some(credits),
        };
        builder.link(switch_a, a, local_cable());
        builder.link(a, b, wan);
        builder.link(b, switch_b, local_cable());
        LongbowPair { a, b }
    }

    /// Insert a Longbow pair with full control over the unit configuration
    /// (delay, transit latency, and injected WAN packet loss).
    pub fn insert_with(
        builder: &mut FabricBuilder,
        switch_a: ActorId,
        switch_b: ActorId,
        cfg: LongbowConfig,
    ) -> LongbowPair {
        if cfg.loss_per_million > 0 {
            // Random per-fragment loss draws from the engine RNG in arrival
            // order; batching a train's rolls at its head would interleave
            // differently with other traffic's rolls. Keep lossy fabrics on
            // the per-fragment path so results match bit for bit.
            builder.disable_coalescing();
            // Same reasoning one level up: the partitioned engine gives each
            // domain its own RNG, which would reorder loss draws relative to
            // the serial run. Lossy fabrics always run serially.
            builder.disable_partitioning();
        }
        let a = builder.add_bridge(Box::new(Longbow::new(cfg)));
        let b = builder.add_bridge(Box::new(Longbow::new(cfg)));
        builder.link(switch_a, a, local_cable());
        builder.link(a, b, wan_cable());
        builder.link(b, switch_b, local_cable());
        LongbowPair { a, b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::hca::HcaConfig;
    use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer, LatMode, PingPong};
    use ibfabric::qp::QpConfig;

    /// Two single-node "clusters" joined by a Longbow pair.
    fn cluster_pair(
        delay: Dur,
        ulp_a: Box<dyn ibfabric::Ulp>,
        ulp_b: Box<dyn ibfabric::Ulp>,
    ) -> (ibfabric::Fabric, ibfabric::NodeHandle, ibfabric::NodeHandle) {
        cluster_pair_with(
            ibfabric::fabric::EngineProfile::default(),
            delay,
            ulp_a,
            ulp_b,
        )
    }

    /// [`cluster_pair`] with an explicit engine profile (A/B tests pin the
    /// serial or forced-partitioned engine per fabric, no global state).
    fn cluster_pair_with(
        profile: ibfabric::fabric::EngineProfile,
        delay: Dur,
        ulp_a: Box<dyn ibfabric::Ulp>,
        ulp_b: Box<dyn ibfabric::Ulp>,
    ) -> (ibfabric::Fabric, ibfabric::NodeHandle, ibfabric::NodeHandle) {
        let mut b = FabricBuilder::with_profile(11, profile);
        let n1 = b.add_hca(HcaConfig::default(), ulp_a);
        let n2 = b.add_hca(HcaConfig::default(), ulp_b);
        let sw_a = b.add_switch();
        let sw_b = b.add_switch();
        b.link(n1.actor, sw_a, LinkConfig::ddr_lan());
        b.link(n2.actor, sw_b, LinkConfig::ddr_lan());
        LongbowPair::insert(&mut b, sw_a, sw_b, delay);
        let f = b.finish();
        (f, n1, n2)
    }

    #[test]
    fn table1_delay_distance_mapping() {
        assert_eq!(wire_delay_for_km(1), Dur::from_us(5));
        assert_eq!(wire_delay_for_km(20), Dur::from_us(100));
        assert_eq!(wire_delay_for_km(200), Dur::from_us(1000));
        assert_eq!(wire_delay_for_km(2000), Dur::from_us(10000));
        assert_eq!(km_for_wire_delay(Dur::from_us(5000)), 1000);
    }

    fn latency_through_pair(delay: Dur) -> f64 {
        let (mut f, a, b) = cluster_pair(
            delay,
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 50)),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 50)),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(b).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        f.hca(a).ulp::<PingPong>().mean_latency_us()
    }

    #[test]
    fn pair_adds_about_5us_at_zero_delay() {
        // Back-to-back baseline.
        let mut bb = FabricBuilder::new(1);
        let n1 = bb.add_hca(
            HcaConfig::default(),
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 50)),
        );
        let n2 = bb.add_hca(
            HcaConfig::default(),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 50)),
        );
        bb.link(n1.actor, n2.actor, LinkConfig::ddr_lan());
        let mut f = bb.finish();
        let (qa, qb) = rc_qp_pair(&mut f, n1, n2, QpConfig::rc());
        f.hca_mut(n1).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(n2).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        let base = f.hca(n1).ulp::<PingPong>().mean_latency_us();

        let wan = latency_through_pair(Dur::ZERO);
        let added = wan - base;
        assert!(
            (3.5..8.0).contains(&added),
            "pair should add ~5us, added {added} (base {base}, wan {wan})"
        );
    }

    #[test]
    fn injected_delay_appears_in_latency() {
        let l0 = latency_through_pair(Dur::ZERO);
        let l100 = latency_through_pair(Dur::from_us(100));
        let l1000 = latency_through_pair(Dur::from_us(1000));
        // One-way latency should grow by almost exactly the injected delay.
        assert!((l100 - l0 - 100.0).abs() < 2.0, "l100 {l100} l0 {l0}");
        assert!((l1000 - l0 - 1000.0).abs() < 2.0, "l1000 {l1000}");
    }

    #[test]
    fn wan_throttles_to_sdr() {
        // Large RC messages through the pair: SDR (1000 MB/s) bound even
        // though both cluster links are DDR.
        let (mut f, a, b) = cluster_pair(
            Dur::ZERO,
            Box::new(BwPeer::sender(BwConfig::new(1 << 20, 64))),
            Box::new(BwPeer::receiver()),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        let bw = f.hca(a).ulp::<BwPeer>().bandwidth_mbs();
        assert!(bw > 900.0 && bw < 1000.0, "bw {bw}");
    }

    #[test]
    fn ud_bandwidth_is_delay_invariant() {
        fn ud_bw(delay: Dur) -> f64 {
            let (mut f, a, b) = cluster_pair(
                delay,
                Box::new(BwPeer::sender(BwConfig::new(2048, 2000))),
                Box::new(BwPeer::receiver()),
            );
            let qa = f.hca_mut(a).core_mut().create_qp(QpConfig::ud());
            let qb = f.hca_mut(b).core_mut().create_qp(QpConfig::ud());
            {
                let u = f.hca_mut(a).ulp_mut::<BwPeer>();
                u.qpn = qa;
                u.peer = Some((b.lid, qb));
            }
            f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            // Receiver-side: UD senders get no feedback from the WAN.
            f.hca(b).ulp::<BwPeer>().rx_bandwidth_mbs()
        }
        let b0 = ud_bw(Dur::ZERO);
        let b10ms = ud_bw(Dur::from_ms(10));
        assert!((b0 - b10ms).abs() < 5.0, "UD bw {b0} vs {b10ms}");
        assert!(b0 > 900.0, "UD peak {b0}");
    }

    #[test]
    fn shallow_buffers_throttle_the_long_pipe() {
        // UD streaming across a 1 ms (200 km) WAN: deep buffers sustain the
        // SDR rate; 16 credits cap throughput at ~credits * pkt / RTT.
        fn ud_bw_with(credits: Option<usize>) -> f64 {
            let mut builder = FabricBuilder::new(29);
            let n1 = builder.add_hca(
                HcaConfig::default(),
                Box::new(BwPeer::sender(BwConfig::new(2048, 3000))),
            );
            let n2 = builder.add_hca(HcaConfig::default(), Box::new(BwPeer::receiver()));
            let sw_a = builder.add_switch();
            let sw_b = builder.add_switch();
            builder.link(n1.actor, sw_a, LinkConfig::ddr_lan());
            builder.link(n2.actor, sw_b, LinkConfig::ddr_lan());
            match credits {
                Some(c) => {
                    LongbowPair::insert_shallow(&mut builder, sw_a, sw_b, Dur::from_ms(1), c);
                }
                None => {
                    LongbowPair::insert(&mut builder, sw_a, sw_b, Dur::from_ms(1));
                }
            }
            let mut f = builder.finish();
            let qa = f.hca_mut(n1).core_mut().create_qp(QpConfig::ud());
            let qb = f.hca_mut(n2).core_mut().create_qp(QpConfig::ud());
            {
                let u = f.hca_mut(n1).ulp_mut::<BwPeer>();
                u.qpn = qa;
                u.peer = Some((n2.lid, qb));
            }
            f.hca_mut(n2).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            f.hca(n2).ulp::<BwPeer>().rx_bandwidth_mbs()
        }
        let deep = ud_bw_with(None);
        let shallow = ud_bw_with(Some(16));
        let roomy = ud_bw_with(Some(4096));
        assert!(deep > 900.0, "deep buffers: {deep}");
        // 16 credits * ~2118 B / ~2 ms RTT ~ 17 MB/s.
        assert!(shallow < 30.0, "16 credits: {shallow}");
        assert!(roomy > 0.9 * deep, "4096 credits: {roomy} vs {deep}");
    }

    #[test]
    fn rc_survives_wan_packet_loss() {
        // A lossy long-haul link: every message still arrives exactly once
        // thanks to go-back-N retransmission.
        let mut builder = FabricBuilder::new(23);
        let n1 = builder.add_hca(
            HcaConfig::default(),
            Box::new(BwPeer::sender(BwConfig::new(4096, 200))),
        );
        let n2 = builder.add_hca(HcaConfig::default(), Box::new(BwPeer::receiver()));
        let sw_a = builder.add_switch();
        let sw_b = builder.add_switch();
        builder.link(n1.actor, sw_a, LinkConfig::ddr_lan());
        builder.link(n2.actor, sw_b, LinkConfig::ddr_lan());
        let pair = LongbowPair::insert_with(
            &mut builder,
            sw_a,
            sw_b,
            LongbowConfig {
                injected_delay: Dur::from_us(50),
                loss_per_million: 20_000, // 2% WAN loss
                ..LongbowConfig::default()
            },
        );
        let mut f = builder.finish();
        let qp = QpConfig {
            rto: Dur::from_ms(2),
            ..QpConfig::rc()
        };
        let (qa, qb) = rc_qp_pair(&mut f, n1, n2, qp);
        f.hca_mut(n1).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(n2).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        assert_eq!(f.hca(n2).ulp::<BwPeer>().received(), 200);
        let retx = f.hca(n1).core().qp(qa).retransmit_rounds();
        assert!(retx > 0, "2% loss must trigger retransmissions");
        // The loss-recovery counters must surface at every layer: the units
        // record what they dropped, and the receiving QP records both the
        // go-back-N casualties (gap_drops) and the duplicates the 50 us
        // one-way delay makes inevitable (retransmissions racing in-flight
        // ACKs).
        let dropped = f.engine.actor::<Longbow>(pair.a).dropped()
            + f.engine.actor::<Longbow>(pair.b).dropped();
        assert!(dropped > 0, "2% loss over 800 fragments must drop some");
        let rx_qp = f.hca(n2).core().qp(qb);
        assert!(
            rx_qp.gap_drops() > 0,
            "lost fragments must strand later ones"
        );
        assert!(
            rx_qp.dup_fragments() > 0,
            "go-back-N under WAN delay must re-deliver some fragments"
        );
    }

    #[test]
    fn wan_fabric_yields_a_two_domain_plan() {
        let (f, _a, _b) = cluster_pair(
            Dur::from_ms(1),
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 10)),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 10)),
        );
        let plan = f.domain_plan().expect("Longbow WAN fabric must split");
        assert_eq!(plan.domains, 2);
        // Lookahead per direction: WAN cable latency (100 ns) + transit
        // (2.5 us) + injected delay (delay/2 = 500 us).
        let expect = Dur::from_ns(100) + Dur::from_ns(2500) + Dur::from_us(500);
        assert_eq!(plan.min_lookahead(), Some(expect));
        // The two HCAs sit on opposite sides of the cut.
        assert_ne!(plan.domain_of[0], plan.domain_of[1]);
    }

    #[test]
    fn wan_plan_promises_tails_only_on_serialized_uncredited_cuts() {
        // The standard Longbow pair: exactly one uncredited WAN cable per
        // direction, so both directions carry the wire-tail promise.
        let (f, _a, _b) = cluster_pair(
            Dur::from_ms(1),
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 10)),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 10)),
        );
        let plan = f.domain_plan().expect("Longbow WAN fabric must split");
        let (da, db) = (plan.domain_of[0] as usize, plan.domain_of[1] as usize);
        assert!(plan.tail_safe_dir(da, db) && plan.tail_safe_dir(db, da));

        // A shallow-buffered (credited) WAN cable returns CreditMsgs at bare
        // cable latency, bypassing the egress port's serialization — the
        // promise must be withheld in both directions.
        let mut b = FabricBuilder::new(3);
        let n1 = b.add_hca(
            HcaConfig::default(),
            Box::new(BwPeer::sender(BwConfig::new(4096, 4))),
        );
        let n2 = b.add_hca(HcaConfig::default(), Box::new(BwPeer::receiver()));
        let sw_a = b.add_switch();
        let sw_b = b.add_switch();
        b.link(n1.actor, sw_a, LinkConfig::ddr_lan());
        b.link(n2.actor, sw_b, LinkConfig::ddr_lan());
        LongbowPair::insert_shallow(&mut b, sw_a, sw_b, Dur::from_ms(1), 16);
        let f = b.finish();
        let plan = f.domain_plan().expect("shallow WAN fabric still splits");
        let (da, db) = (plan.domain_of[0] as usize, plan.domain_of[1] as usize);
        assert!(!plan.tail_safe_dir(da, db) && !plan.tail_safe_dir(db, da));
    }

    /// A per-fragment RC stream over the WAN: forcing the partitioned
    /// engine changes no observable in the fabric report (execution-strategy
    /// fields excluded by its `PartialEq`).
    #[test]
    fn forced_partitioning_keeps_stream_observables() {
        use ibfabric::fabric::EngineProfile;

        fn bw_run(profile: EngineProfile) -> (ibfabric::fabric::FabricReport, bool) {
            let (mut f, a, b) = cluster_pair_with(
                profile,
                Dur::from_ms(1),
                Box::new(BwPeer::sender(BwConfig::new(262144, 256))),
                Box::new(BwPeer::receiver()),
            );
            let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
            f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
            f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            (f.report(), f.domain_report().is_some())
        }

        let serial = EngineProfile {
            coalescing: false,
            ..EngineProfile::default()
        };
        let forced = EngineProfile {
            coalescing: false,
            ..EngineProfile::forced()
        };
        let (rep_serial, par_serial) = bw_run(serial);
        let (rep_forced, par_forced) = bw_run(forced);
        assert!(!par_serial, "the default profile must run serially");
        assert!(par_forced, "Force with a plan must partition");
        assert_eq!(
            rep_serial, rep_forced,
            "partitioning must not change observables"
        );
    }

    #[test]
    fn lossy_fabric_never_partitions() {
        let mut builder = FabricBuilder::new(5);
        let n1 = builder.add_hca(
            HcaConfig::default(),
            Box::new(BwPeer::sender(BwConfig::new(4096, 10))),
        );
        let n2 = builder.add_hca(HcaConfig::default(), Box::new(BwPeer::receiver()));
        let sw_a = builder.add_switch();
        let sw_b = builder.add_switch();
        builder.link(n1.actor, sw_a, LinkConfig::ddr_lan());
        builder.link(n2.actor, sw_b, LinkConfig::ddr_lan());
        LongbowPair::insert_with(
            &mut builder,
            sw_a,
            sw_b,
            LongbowConfig {
                loss_per_million: 1000,
                ..LongbowConfig::default()
            },
        );
        let f = builder.finish();
        assert!(
            f.domain_plan().is_none(),
            "random loss must force the serial engine (shared RNG order)"
        );
    }

    /// Full-stack A/B: the same WAN ping-pong run on the partitioned and the
    /// serial engine must agree on every virtual-time observable.
    #[test]
    fn partitioned_run_matches_serial_bit_for_bit() {
        use ibfabric::fabric::EngineProfile;

        fn run_mode(
            profile: EngineProfile,
        ) -> (f64, simcore::Time, ibfabric::fabric::FabricReport, bool) {
            let (mut f, a, b) = cluster_pair_with(
                profile,
                Dur::from_us(200),
                Box::new(PingPong::new(LatMode::SendRc, true, 256, 40)),
                Box::new(PingPong::new(LatMode::SendRc, false, 256, 40)),
            );
            let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
            f.hca_mut(a).ulp_mut::<PingPong>().qpn = qa;
            f.hca_mut(b).ulp_mut::<PingPong>().qpn = qb;
            let end = f.run();
            let lat = f.hca(a).ulp::<PingPong>().mean_latency_us();
            let report = f.report();
            let partitioned = f.domain_report().is_some();
            (lat, end, report, partitioned)
        }

        let (lat_s, end_s, rep_s, par_s) = run_mode(EngineProfile::default());
        let (lat_p, end_p, rep_p, par_p) = run_mode(EngineProfile::forced());
        assert!(!par_s, "Off must run serially");
        assert!(par_p, "Force with a plan must partition");
        assert_eq!(rep_p.domains, 2);
        // `sync_rounds` counts stealer waits, which a run may avoid entirely
        // (a single stealer always does); amortization shows up as windows
        // advanced without waiting.
        assert!(
            rep_p.engine_counters.sync_rounds_saved > 0,
            "batched windows must advance without blocking: {rep_p:?}"
        );
        assert_eq!(lat_s, lat_p, "latency must be bit-identical");
        assert_eq!(end_s, end_p, "quiescence time must be bit-identical");
        assert_eq!(
            (rep_s.hca_packets_sent, rep_s.hca_packets_received),
            (rep_p.hca_packets_sent, rep_p.hca_packets_received),
        );
        assert_eq!(
            rep_s.engine_counters.events_processed, rep_p.engine_counters.events_processed,
            "both engines must dispatch the same events"
        );
    }

    #[test]
    fn rc_medium_messages_collapse_with_delay() {
        fn rc_bw(delay: Dur, size: u32, iters: u64) -> f64 {
            let (mut f, a, b) = cluster_pair(
                delay,
                Box::new(BwPeer::sender(BwConfig::new(size, iters))),
                Box::new(BwPeer::receiver()),
            );
            let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
            f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
            f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            f.hca(a).ulp::<BwPeer>().bandwidth_mbs()
        }
        // 64 KB at 10 ms delay: 16-message window over a 20 ms RTT pipe.
        let collapsed = rc_bw(Dur::from_ms(10), 65536, 96);
        assert!(collapsed < 100.0, "64K @ 10ms should collapse: {collapsed}");
        // 4 MB at 10 ms delay recovers most of the SDR line rate.
        let recovered = rc_bw(Dur::from_ms(10), 1 << 22, 64);
        assert!(recovered > 700.0, "4M @ 10ms should recover: {recovered}");
        // 64 KB with no delay is near line rate.
        let lan = rc_bw(Dur::ZERO, 65536, 400);
        assert!(lan > 900.0, "64K @ 0 delay: {lan}");
    }
}
