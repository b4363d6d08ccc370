//! Seeded what-if query streams.
//!
//! A stream is a sequence of rounds. Each round draws one query from every
//! cell of its workload's grid (query kind × size octave or rank band), so
//! every seed issues the same mix of query classes and only the parameters
//! inside each cell, the order, and which earlier queries repeat change with
//! the seed. Each cell's WAN delay rotates through the paper's five delays
//! from a seeded offset, so five consecutive rounds cover every cell at
//! every delay. That stratification is what keeps run-to-run spread low on
//! heavy-tailed mixes; i.i.d. draws let one unlucky 64-rank query swing a
//! run's throughput by tens of percent.

use ibwan_core::scenario::{Scenario, Topology, Workload};
use ibwan_core::PAPER_DELAYS_US;
use mpisim::patterns::Pattern;
use std::collections::HashSet;

/// The benchmark's workloads (traffic mixes).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Verbs bandwidth and latency over the lossless two-site WAN; 30% of
    /// queries repeat an earlier one exactly.
    VerbsSweep,
    /// NAS skeletons, broadcasts, message rate, MPI bandwidth, and the
    /// pattern zoo on 2–64-host fabrics; every query distinct.
    MpiApps,
    /// IPoIB/TCP streams, NFS reads beside writes, and RC verbs over a
    /// lossy WAN; every query distinct.
    SocketsStorage,
}

impl Mix {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Mix; 3] = [Mix::VerbsSweep, Mix::MpiApps, Mix::SocketsStorage];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::VerbsSweep => "verbs-sweep",
            Mix::MpiApps => "mpi-apps",
            Mix::SocketsStorage => "sockets-storage",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Share of queries that repeat an earlier query exactly, in percent.
    pub fn repeat_pct(self) -> usize {
        match self {
            Mix::VerbsSweep => 30,
            Mix::MpiApps | Mix::SocketsStorage => 0,
        }
    }

    /// Rounds a stream may hold before some cell runs out of distinct
    /// queries: NAS cells have a small parameter space (the benchmark and
    /// rank count are all a NAS query carries besides the delay).
    pub fn max_rounds(self) -> usize {
        match self {
            Mix::VerbsSweep | Mix::SocketsStorage => 1000,
            Mix::MpiApps => nas_space()[0].len(),
        }
    }
}

/// The top layer a query exercises; per-layer host time is reported per
/// class. NFS reads and writes are split so a read-path gain that costs
/// writes shows.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Verbs bandwidth/latency: `ibfabric` queue pairs, `obsidian` WAN.
    Verbs,
    /// IPoIB/TCP streams: `ipoib` over `tcpstack`.
    Ipoib,
    /// NFS reads: `nfssim`.
    NfsRead,
    /// NFS writes: `nfssim`.
    NfsWrite,
    /// MPI micro-benchmarks and patterns: `mpisim`.
    Mpi,
    /// NAS skeletons: `nasbench` over `mpisim`.
    Nas,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] = [
        Class::Verbs,
        Class::Ipoib,
        Class::NfsRead,
        Class::NfsWrite,
        Class::Mpi,
        Class::Nas,
    ];

    /// The class of a workload.
    pub fn of(w: &Workload) -> Class {
        match w {
            Workload::VerbsLatency { .. } | Workload::VerbsBandwidth { .. } => Class::Verbs,
            Workload::Ipoib { .. } => Class::Ipoib,
            Workload::Nfs { write: false, .. } => Class::NfsRead,
            Workload::Nfs { write: true, .. } => Class::NfsWrite,
            Workload::Nas { .. } => Class::Nas,
            Workload::MpiLatency { .. }
            | Workload::MpiBandwidth { .. }
            | Workload::MpiBcast { .. }
            | Workload::MessageRate { .. }
            | Workload::MpiPattern { .. } => Class::Mpi,
        }
    }

    /// The per-layer metric reporting this class's host time per query.
    pub fn metric(self) -> &'static str {
        match self {
            Class::Verbs => "ibfabric.ms",
            Class::Ipoib => "ipoib.ms",
            Class::NfsRead => "nfssim.read_ms",
            Class::NfsWrite => "nfssim.write_ms",
            Class::Mpi => "mpisim.ms",
            Class::Nas => "nasbench.ms",
        }
    }
}

/// One generated what-if query.
#[derive(Clone, Debug)]
pub struct Query {
    /// The `Scenario` JSON document, as `Scenario::to_json` prints it.
    pub json: String,
    /// The top layer the query exercises.
    pub class: Class,
    /// Index of the earlier query this one repeats exactly.
    pub repeat_of: Option<usize>,
    /// Round the query belongs to.
    pub round: usize,
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// stream on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_9e37_79b9)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A size in octave `2^e ..= 2^(e+1) - 1`, log-uniform inside it; the
    /// octave `top` holds only `2^top` (the workload's size cap).
    fn octave(&mut self, e: u32, top: u32) -> u32 {
        if e >= top {
            return 1 << top;
        }
        let x = (e as f64 + self.below(1 << 20) as f64 / (1u64 << 20) as f64).exp2();
        (x as u32).clamp(1 << e, (2 << e) - 1)
    }

    /// A size from a uniformly drawn octave in `lo..=hi` (see `octave`).
    fn size_in(&mut self, lo: u32, hi: u32, top: u32) -> u32 {
        let e = self.range(lo as u64, hi as u64) as u32;
        self.octave(e, top)
    }
}

/// NAS skeletons use recursive doubling, so rank totals are powers of two;
/// CG also needs a square grid, leaving 4, 16, and 64 ranks.
const NAS_CG_RPC: [usize; 3] = [2, 8, 32];
/// IS stops at 16+16: one 32+32 IS query costs over a second of host time
/// and would dominate the mix.
const NAS_IS_RPC: [usize; 5] = [1, 2, 4, 8, 16];
/// FT stays at ≤ 8+8: at 16+16 one query costs seconds of host time.
const NAS_FT_RPC: [usize; 4] = [1, 2, 4, 8];

/// Every distinct NAS query, (benchmark, ranks per cluster, delay), in
/// three tiers: each benchmark's largest rank count, its second largest,
/// and the rest (15, 15, and 30 queries).
fn nas_space() -> [Vec<(&'static str, usize, u64)>; 3] {
    let mut tiers: [Vec<_>; 3] = Default::default();
    for (bench, rpcs) in [
        ("is", &NAS_IS_RPC[..]),
        ("ft", &NAS_FT_RPC[..]),
        ("cg", &NAS_CG_RPC[..]),
    ] {
        for (i, &r) in rpcs.iter().rev().enumerate() {
            tiers[i.min(2)].extend(PAPER_DELAYS_US.iter().map(|&d| (bench, r, d)));
        }
    }
    tiers
}

/// NAS queries per `mpi-apps` round: one from the largest tier, one from
/// the second, two from the rest. The whole NAS space is dealt over the
/// stream, so every seed issues every NAS query exactly once, and rounds
/// carry comparable NAS work.
const NAS_PER_ROUND: usize = 4;

/// Pattern seeds stay below 2^53 so they survive a JSON number exactly.
const JSON_EXACT_INT: u64 = 1 << 53;

/// The iteration budget the Full-fidelity verbs figures use for a
/// bandwidth point: ~64 MiB per point, 48–20000 messages.
fn verbs_bw_iters(size: u32) -> u64 {
    ((64u64 << 20) / size.max(1) as u64).clamp(48, 20_000)
}

/// Ping-pong rounds of the Full-fidelity verbs latency figure.
const VERBS_LAT_ITERS: u32 = 500;

/// One stratum of a workload's grid: a fixed query kind whose free
/// parameters are drawn per round.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Cell {
    VerbsBw {
        ud: bool,
        e: u32,
    },
    VerbsLat {
        mode: &'static str,
        e: u32,
    },
    /// One of the round's NAS slots, dealt from the shuffled NAS space.
    Nas {
        slot: usize,
    },
    Bcast {
        hierarchical: bool,
        big: bool,
    },
    MsgRate {
        band: usize,
    },
    MpiBw {
        rndv: &'static str,
    },
    Pattern {
        kind: usize,
    },
    Ipoib {
        rc: bool,
        mtu: u32,
    },
    Nfs {
        transport: &'static str,
        write: bool,
    },
    LossyRc {
        big: bool,
        heavy: bool,
    },
}

fn cells(mix: Mix) -> Vec<Cell> {
    match mix {
        Mix::VerbsSweep => {
            let mut v = Vec::new();
            for e in 0..=20 {
                v.push(Cell::VerbsBw { ud: false, e });
                v.push(Cell::VerbsLat { mode: "send_rc", e });
                v.push(Cell::VerbsLat {
                    mode: "write_rc",
                    e,
                });
            }
            // UD carries one MTU per message: 2 KiB at most.
            for e in 0..=11 {
                v.push(Cell::VerbsBw { ud: true, e });
                v.push(Cell::VerbsLat { mode: "send_ud", e });
            }
            v
        }
        Mix::MpiApps => {
            let mut v: Vec<Cell> = (0..NAS_PER_ROUND).map(|slot| Cell::Nas { slot }).collect();
            for hierarchical in [false, true] {
                for big in [false, true] {
                    v.push(Cell::Bcast { hierarchical, big });
                }
            }
            v.extend((0..3).map(|band| Cell::MsgRate { band }));
            v.extend(["rput", "rget", "r3"].map(|rndv| Cell::MpiBw { rndv }));
            v.extend((0..4).map(|kind| Cell::Pattern { kind }));
            // NAS holds only 5 × (5 + 4 + 3) distinct queries, which cap
            // the stream at 15 rounds; four draws of every other cell per
            // round make that stream long enough to measure.
            let others = v.split_off(NAS_PER_ROUND);
            for _ in 0..4 {
                v.extend_from_slice(&others);
            }
            v
        }
        Mix::SocketsStorage => {
            let mut v = vec![
                Cell::Ipoib {
                    rc: false,
                    mtu: 2048,
                },
                Cell::Ipoib {
                    rc: true,
                    mtu: 2048,
                },
                Cell::Ipoib {
                    rc: true,
                    mtu: 16384,
                },
                Cell::Ipoib {
                    rc: true,
                    mtu: 65536,
                },
            ];
            for transport in ["rdma", "ipoib_rc", "ipoib_ud"] {
                for write in [false, true] {
                    v.push(Cell::Nfs { transport, write });
                }
            }
            for big in [false, true] {
                for heavy in [false, true] {
                    v.push(Cell::LossyRc { big, heavy });
                }
            }
            v
        }
    }
}

/// Stratified choices for one cell in one round: dimension `k` of the
/// cell's grid steps through its `n` values one per round from a seeded
/// offset, so every `n` consecutive rounds hold each value once. The WAN
/// delay is one such dimension; the cost-driving parameters (size octave,
/// ranks, streams, loss) are the others, and only jitter inside a stratum
/// is drawn freely.
#[derive(Copy, Clone)]
struct Strata {
    base: u64,
    round: u64,
}

impl Strata {
    fn pick(self, k: u64, n: u64) -> u64 {
        let offset = Rng::new(self.base ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
        (offset % n + self.round % n) % n
    }

    /// Dimensions `k` (of `n0` values) and `k + 1` (of `n1`) stepped as
    /// one: every `n0 × n1` consecutive rounds hold each pair once. Stepped
    /// apart, two dimensions whose sizes share a factor meet in only some
    /// pairs, and the seed's offsets would pick which: one seed would put
    /// the largest rank counts always beside the largest sizes, another
    /// never.
    fn pick2(self, k: u64, n0: u64, n1: u64) -> (u64, u64) {
        let j = self.pick(k, n0 * n1);
        (j % n0, j / n0)
    }
}

/// Draws every cell's free parameters.
struct Drawer {
    rng: Rng,
    /// The NAS tiers in seeded order, dealt one, one, and two per round.
    nas: [Vec<(&'static str, usize, u64)>; 3],
}

impl Drawer {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut nas = nas_space();
        for tier in &mut nas {
            rng.shuffle(tier);
        }
        Drawer { rng, nas }
    }

    /// One query for `cell` at `delay_us` in round `round`.
    fn draw(
        &mut self,
        cell: Cell,
        delay_us: u64,
        round: usize,
        st: Strata,
    ) -> (String, Topology, Workload) {
        let rng = &mut self.rng;
        let lossless = Topology {
            delay_us,
            loss_ppm: 0,
        };
        match cell {
            Cell::VerbsBw { ud, e } => {
                let size = rng.octave(e, if ud { 11 } else { 20 });
                let transport = if ud { "ud" } else { "rc" };
                (
                    format!("bw-{transport}-{size}B-{delay_us}us"),
                    lossless,
                    Workload::VerbsBandwidth {
                        transport: transport.into(),
                        size,
                        iters: verbs_bw_iters(size),
                    },
                )
            }
            Cell::VerbsLat { mode, e } => {
                let size = rng.octave(e, if mode == "send_ud" { 11 } else { 20 });
                (
                    format!("lat-{mode}-{size}B-{delay_us}us"),
                    lossless,
                    Workload::VerbsLatency {
                        mode: mode.into(),
                        size,
                        iters: VERBS_LAT_ITERS,
                    },
                )
            }
            Cell::Nas { slot } => {
                let (bench, ranks, delay_us) = match slot {
                    0 | 1 => self.nas[slot][round],
                    _ => self.nas[2][2 * round + slot - 2],
                };
                (
                    format!("nas-{bench}-{ranks}x2-{delay_us}us"),
                    Topology {
                        delay_us,
                        loss_ppm: 0,
                    },
                    Workload::Nas {
                        benchmark: bench.into(),
                        ranks_per_cluster: ranks,
                    },
                )
            }
            Cell::Bcast { hierarchical, big } => {
                let (band, octave) = st.pick2(0, 3, 18);
                let (lo, hi) = if big {
                    [(13, 18), (19, 25), (26, 32)][band as usize]
                } else {
                    [(4, 6), (7, 9), (10, 12)][band as usize]
                };
                let ranks = rng.range(lo, hi) as usize;
                // Figure 11's range: up to 128 KiB.
                let size = rng.octave(octave as u32, 17);
                let algo = if hierarchical { "hier" } else { "flat" };
                (
                    format!("bcast-{algo}-{ranks}x2-{size}B-{delay_us}us"),
                    lossless,
                    Workload::MpiBcast {
                        ranks_per_cluster: ranks,
                        size,
                        iters: 6,
                        hierarchical,
                    },
                )
            }
            Cell::MsgRate { band } => {
                // Four sub-bands per pairs band: 1–4, 5–16, 17–32.
                let (sub, octave) = st.pick2(0, 4, 16);
                let pairs = match band {
                    0 => 1 + sub,
                    1 => 5 + 3 * sub + rng.below(3),
                    _ => 17 + 4 * sub + rng.below(4),
                } as usize;
                // Figure 10's range: up to 32 KiB.
                let size = rng.octave(octave as u32, 15);
                (
                    format!("msgrate-{pairs}p-{size}B-{delay_us}us"),
                    lossless,
                    Workload::MessageRate {
                        pairs,
                        size,
                        window: 64,
                        iters: 8,
                    },
                )
            }
            Cell::MpiBw { rndv } => {
                let size = rng.octave(st.pick(0, 23) as u32, 22);
                let eager_threshold = [0u32, 16 << 10, 64 << 10, 256 << 10][st.pick(1, 4) as usize];
                (
                    format!("mpibw-{rndv}-{size}B-eager{eager_threshold}-{delay_us}us"),
                    lossless,
                    Workload::MpiBandwidth {
                        size,
                        window: ((8u32 << 20) / size).clamp(2, 64),
                        iters: 12,
                        eager_threshold,
                        rndv_protocol: rndv.into(),
                    },
                )
            }
            Cell::Pattern { kind } => {
                let ranks = 2 + st.pick(0, 14) as usize;
                let octave = |lo: u32, n: u64| lo + st.pick(1, n) as u32;
                let spec = match kind {
                    0 => {
                        // A 2-row grid always tiles 2 × ranks_per_cluster.
                        Pattern::Halo2d {
                            rows: 2,
                            cols: ranks,
                            face_bytes: rng.octave(octave(6, 11), 17),
                            iters: rng.range(4, 12) as u32,
                            compute_us: rng.range(0, 200),
                        }
                    }
                    1 => Pattern::Ring {
                        block_bytes: rng.octave(octave(6, 13), 19),
                        iters: rng.range(4, 16) as u32,
                    },
                    2 => Pattern::SparseRandom {
                        degree: rng.range(1, 4) as usize,
                        msg_bytes: rng.octave(octave(6, 11), 17),
                        supersteps: rng.range(2, 8) as u32,
                        seed: rng.below(JSON_EXACT_INT),
                    },
                    // Results stay eager (< 8 KiB): larger ones hit the
                    // "FIN for unknown rendezvous" panic (see NOTES.md).
                    _ => Pattern::MasterWorker {
                        task_bytes: rng.octave(octave(6, 11), 17),
                        result_bytes: rng.size_in(6, 12, 13),
                        tasks_per_worker: rng.range(2, 8) as u32,
                        compute_us: rng.range(10, 500),
                    },
                };
                (
                    format!("pattern-{}-{ranks}x2-{delay_us}us", spec.name()),
                    lossless,
                    Workload::MpiPattern {
                        ranks_per_cluster: ranks,
                        spec,
                    },
                )
            }
            Cell::Ipoib { rc, mtu } => {
                let window = 64u64 << st.pick(0, 7);
                let streams = 1 + st.pick(1, 8) as usize;
                let mode = if rc { "rc" } else { "ud" };
                (
                    format!("ipoib-{mode}{mtu}-w{window}-{streams}s-{delay_us}us"),
                    lossless,
                    Workload::Ipoib {
                        mode: mode.into(),
                        mtu,
                        window: window << 10,
                        streams,
                        bytes_per_stream: (8 << 20) / streams as u64,
                    },
                )
            }
            Cell::Nfs { transport, write } => {
                let threads = 1 + st.pick(0, 16) as usize;
                let file_mib = 4 + st.pick(1, 13);
                let op = if write { "write" } else { "read" };
                (
                    format!("nfs-{transport}-{op}-{threads}t-{file_mib}MiB-{delay_us}us"),
                    lossless,
                    Workload::Nfs {
                        transport: transport.into(),
                        threads,
                        file_mib,
                        write,
                    },
                )
            }
            Cell::LossyRc { big, heavy } => {
                let (octave, third) = st.pick2(0, 6, 3);
                let size = rng.octave(if big { 14 } else { 8 } + octave as u32, 20);
                // Log-uniform loss in 10–100 ppm, or in 100–1000 when heavy,
                // stratified over thirds of the decade.
                let u = (third as f64 + rng.below(1 << 20) as f64 / (1u64 << 20) as f64) / 3.0;
                let loss_ppm = ((if heavy { 100.0 } else { 10.0 }) * 10f64.powf(u)) as u32;
                (
                    format!("lossy-rc-{size}B-{loss_ppm}ppm-{delay_us}us"),
                    Topology { delay_us, loss_ppm },
                    Workload::VerbsBandwidth {
                        transport: "rc".into(),
                        size,
                        // 8 MiB per query: loss makes every byte costly.
                        iters: ((8u64 << 20) / size as u64).clamp(16, 2000),
                    },
                )
            }
        }
    }
}

/// The first `rounds` rounds of `mix`'s stream for `seed`.
///
/// Panics if `rounds` exceeds [`Mix::max_rounds`]: past it the stream
/// could no longer keep its distinctness promise.
pub fn stream(mix: Mix, seed: u64, rounds: usize) -> Vec<Query> {
    assert!(
        rounds <= mix.max_rounds(),
        "{} holds at most {} distinct rounds",
        mix.name(),
        mix.max_rounds()
    );
    let cells = cells(mix);
    let mut drawer = Drawer::new(seed);
    let offsets: Vec<u64> = cells.iter().map(|_| drawer.rng.next_u64()).collect();
    // Copies of one cell share its strata cycle, each starting a stream's
    // length (plus one, to shift the delay) further on, so together they
    // cover the cycle instead of overlapping by chance.
    let strata: Vec<Strata> = cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let first = cells
                .iter()
                .position(|x| x == cell)
                .expect("cell is listed");
            let copy = cells[..c].iter().filter(|x| *x == cell).count() as u64;
            Strata {
                base: offsets[first],
                round: copy * (mix.max_rounds() as u64 + 1),
            }
        })
        .collect();
    let mut seen = HashSet::new();
    let mut out: Vec<Query> = Vec::new();
    let mut distinct: Vec<usize> = Vec::new();
    for round in 0..rounds {
        let mut batch: Vec<Query> = Vec::new();
        for (c, &cell) in cells.iter().enumerate() {
            let st = Strata {
                round: strata[c].round + round as u64,
                ..strata[c]
            };
            let delay_us =
                PAPER_DELAYS_US[st.pick(u64::MAX, PAPER_DELAYS_US.len() as u64) as usize];
            let mut tries = 0;
            let (json, workload_class) = loop {
                let (name, topology, workload) = drawer.draw(cell, delay_us, round, st);
                let class = Class::of(&workload);
                let s = Scenario {
                    name,
                    seed: drawer.rng.range(1, 1 << 31),
                    topology,
                    workload,
                };
                let json = s.to_json();
                if seen.insert(json.clone()) {
                    break (json, class);
                }
                tries += 1;
                assert!(tries < 64, "cell {cell:?} ran out of distinct queries");
            };
            batch.push(Query {
                json,
                class: workload_class,
                repeat_of: None,
                round,
            });
        }
        drawer.rng.shuffle(&mut batch);
        // Repeats: enough that the stream so far holds `repeat_pct`% of
        // them (rounded down), at random slots, each copying a uniformly
        // drawn distinct query issued before it.
        let pct = mix.repeat_pct();
        let want = (distinct.len() + batch.len()) * pct / (100 - pct);
        let n_rep = want - (out.len() - distinct.len());
        let mut slots: Vec<bool> = (0..batch.len() + n_rep).map(|i| i < n_rep).collect();
        drawer.rng.shuffle(&mut slots);
        if distinct.is_empty() {
            // The very first query has nothing to repeat.
            let first_new = slots
                .iter()
                .position(|r| !r)
                .expect("a round holds queries");
            slots.swap(0, first_new);
        }
        let mut fresh = batch.into_iter();
        for repeat in slots {
            if repeat {
                let src = distinct[drawer.rng.below(distinct.len() as u64) as usize];
                let q = Query {
                    repeat_of: Some(src),
                    ..out[src].clone()
                };
                out.push(Query { round, ..q });
            } else {
                distinct.push(out.len());
                out.push(fresh.next().expect("one slot per fresh query"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn texts(mix: Mix, seed: u64, rounds: usize) -> Vec<String> {
        stream(mix, seed, rounds)
            .into_iter()
            .map(|q| q.json)
            .collect()
    }

    fn parse(q: &Query) -> Scenario {
        Scenario::from_json(&q.json).expect("generated queries parse")
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_stream() {
        for mix in Mix::ALL {
            assert_eq!(texts(mix, 7, 5), texts(mix, 7, 5), "{}", mix.name());
            assert_ne!(texts(mix, 7, 5), texts(mix, 8, 5), "{}", mix.name());
        }
    }

    #[test]
    fn every_query_round_trips_through_scenario_json() {
        for mix in Mix::ALL {
            for q in stream(mix, 3, 5) {
                assert_eq!(parse(&q).to_json(), q.json);
            }
        }
    }

    #[test]
    fn verbs_sweep_repeats_thirty_percent_of_queries_exactly() {
        let qs = stream(Mix::VerbsSweep, 5, 20);
        let repeats = qs.iter().filter(|q| q.repeat_of.is_some()).count();
        let distinct = qs.len() - repeats;
        assert_eq!(repeats, distinct * 30 / 70, "repeats are 30% of the stream");
        for (i, q) in qs.iter().enumerate() {
            if let Some(src) = q.repeat_of {
                assert!(src < i, "a repeat follows its original");
                assert!(qs[src].repeat_of.is_none());
                assert_eq!(q.json, qs[src].json);
            }
        }
        let unique: HashSet<&str> = qs.iter().map(|q| q.json.as_str()).collect();
        assert_eq!(unique.len(), distinct, "non-repeats are all distinct");
    }

    #[test]
    fn mpi_apps_and_sockets_storage_hold_no_duplicates() {
        for mix in [Mix::MpiApps, Mix::SocketsStorage] {
            let qs = stream(mix, 9, mix.max_rounds().min(40));
            let unique: HashSet<&str> = qs.iter().map(|q| q.json.as_str()).collect();
            assert_eq!(unique.len(), qs.len(), "{}", mix.name());
            assert!(qs.iter().all(|q| q.repeat_of.is_none()));
        }
    }

    /// The full stream holds every (benchmark, ranks, delay) exactly once.
    #[test]
    fn mpi_apps_stream_holds_every_nas_query_once() {
        let mut seen = HashSet::new();
        for q in stream(Mix::MpiApps, 21, Mix::MpiApps.max_rounds()) {
            if let Workload::Nas {
                benchmark,
                ranks_per_cluster,
            } = parse(&q).workload
            {
                assert!(seen.insert((benchmark, ranks_per_cluster, parse(&q).topology.delay_us)));
            }
        }
        assert_eq!(seen.len(), nas_space().iter().map(Vec::len).sum::<usize>());
        assert_eq!(seen.len(), NAS_PER_ROUND * Mix::MpiApps.max_rounds());
    }

    #[test]
    fn queries_stay_inside_the_modelled_space() {
        for mix in Mix::ALL {
            for q in stream(mix, 11, mix.max_rounds().min(15)) {
                let s = parse(&q);
                assert!(PAPER_DELAYS_US.contains(&s.topology.delay_us));
                match &s.workload {
                    Workload::Nas {
                        benchmark,
                        ranks_per_cluster,
                    } => {
                        let n = 2 * ranks_per_cluster;
                        assert!(n.is_power_of_two(), "{}", q.json);
                        let side = (n as f64).sqrt() as usize;
                        assert!(benchmark != "cg" || side * side == n, "{}", q.json);
                        assert!(benchmark != "ft" || *ranks_per_cluster <= 8, "{}", q.json);
                    }
                    Workload::MpiPattern { spec, .. } => match spec {
                        Pattern::SparseRandom { seed, .. } => assert!(*seed < JSON_EXACT_INT),
                        Pattern::MasterWorker { result_bytes, .. } => {
                            assert!(*result_bytes < 8192, "{}", q.json)
                        }
                        _ => {}
                    },
                    Workload::VerbsBandwidth {
                        transport, size, ..
                    } => {
                        assert!(transport == "rc" || *size <= 2048);
                        assert!(transport == "rc" || s.topology.loss_ppm == 0);
                    }
                    Workload::VerbsLatency { mode, size, .. } => {
                        assert!(mode != "send_ud" || *size <= 2048)
                    }
                    _ => assert_eq!(s.topology.loss_ppm, 0, "{}", q.json),
                }
            }
        }
    }

    /// Five rounds put every cell at every delay once, so each query kind
    /// meets each delay equally often. (NAS queries are dealt from a
    /// shuffle of their whole space instead.)
    #[test]
    fn five_rounds_spread_every_kind_evenly_over_the_delays() {
        for mix in Mix::ALL {
            let mut per_kind: BTreeMap<String, BTreeMap<u64, usize>> = BTreeMap::new();
            for q in stream(mix, 13, 5).iter().filter(|q| q.repeat_of.is_none()) {
                let s = parse(q);
                let kind = s.workload.to_value().get("kind").expect("tagged").clone();
                let kind = kind.as_str().expect("string tag").to_string();
                if kind == "nas" {
                    continue;
                }
                *per_kind
                    .entry(kind)
                    .or_default()
                    .entry(s.topology.delay_us)
                    .or_default() += 1;
            }
            for (kind, by_delay) in per_kind {
                let counts: HashSet<usize> = by_delay.values().copied().collect();
                assert_eq!(by_delay.len(), PAPER_DELAYS_US.len(), "{kind}");
                assert_eq!(counts.len(), 1, "{kind}: {by_delay:?}");
            }
        }
    }
}
