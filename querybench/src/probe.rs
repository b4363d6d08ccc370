//! Host-speed probe: a fixed piece of work that uses none of the program's
//! code, timed between queries so the benchmark can tell how fast the host
//! ran while it measured.
//!
//! On a shared host the CPU a process gets drifts by tens of percent over
//! minutes, far more than the program changes between two commits. The
//! probe runs the same instructions on every run and every commit, so its
//! time moves only with the host. The end-to-end timings are reported at
//! the probe's reference speed: each host time is scaled by
//! [`REFERENCE_MS`] ÷ the mean time of the probe runs of the same phase
//! (setup or timed loop), wall times by the probes' wall time and CPU times
//! by their CPU time. The mean, not the median, because a wall time on a
//! shared host includes the stretches the process waits for a CPU, and
//! probe runs that wait belong in the average as much as queries that do.
//! The times as measured are printed beside them.
//!
//! The work imitates the simulator's hot loop with the standard library
//! alone: a binary-heap event queue with thousands of residents, a small
//! heap allocation freed per event, and a hash-table update, over a working
//! set of about a megabyte.

use crate::gen::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Events resident in the probe's queue.
const RESIDENT: u64 = 16_384;
/// Live allocations, each replaced when an event lands on its slot.
const SLOTS: usize = 4096;
/// Events popped and pushed per probe run.
const STEPS: u64 = 5_000;
/// About the probe's mean time on the reference host, a 2-vCPU Linux VM
/// shared with other tenants (release build), when it was least loaded.
/// Any fixed value would do: it sets the scale, not the spread.
pub const REFERENCE_MS: f64 = 2.5;

/// The probe's event loop. Its state lives across probe runs, so every run
/// works on the same warm working set.
struct Work {
    rng: Rng,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    live: Vec<Vec<u64>>,
    table: HashMap<u64, u64>,
}

impl Default for Work {
    fn default() -> Self {
        let mut rng = Rng::new(0x009e_0be5);
        let queue = (0..RESIDENT)
            .map(|id| Reverse((rng.below(1 << 20), id)))
            .collect();
        let mut work = Work {
            rng,
            queue,
            live: vec![Vec::new(); SLOTS],
            table: HashMap::with_capacity(RESIDENT as usize),
        };
        // One untimed run fills the working set.
        black_box(work.run());
        work
    }
}

impl Work {
    /// Pop and push [`STEPS`] events; returns a checksum so the work cannot
    /// be elided.
    fn run(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let Reverse((now, id)) = self.queue.pop().expect("the queue is never empty");
            self.queue
                .push(Reverse((now + 1 + self.rng.below(1 << 16), id)));
            let slot = (id % SLOTS as u64) as usize;
            self.live[slot] = vec![now; 1 + self.rng.below(48) as usize];
            *self.table.entry(id).or_insert(0) += now;
            sum = sum.wrapping_add(now ^ self.live[slot].len() as u64);
        }
        sum
    }
}

/// Times of the probe runs of one benchmark run, in the order they ran.
#[derive(Default)]
pub struct Probe {
    /// Wall time of each probe run.
    wall: Vec<Duration>,
    /// Process CPU time of each probe run.
    cpu: Vec<Duration>,
    work: Work,
}

impl Probe {
    /// Run the probe once and record its times.
    pub fn sample(&mut self, process_cpu: fn() -> Duration) {
        let c0 = process_cpu();
        let t0 = Instant::now();
        black_box(self.work.run());
        self.wall.push(t0.elapsed());
        self.cpu.push(process_cpu() - c0);
    }

    /// Probe runs so far.
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// [`REFERENCE_MS`] ÷ the mean probe wall time. Multiply a wall time
    /// measured among the probe runs by it to read it at reference speed.
    pub fn wall_scale(&self) -> f64 {
        scale(&self.wall)
    }

    /// [`REFERENCE_MS`] ÷ the mean probe CPU time, for CPU times.
    pub fn cpu_scale(&self) -> f64 {
        scale(&self.cpu)
    }
}

fn scale(times: &[Duration]) -> f64 {
    let mean_ms = times.iter().sum::<Duration>().as_secs_f64() * 1e3 / times.len() as f64;
    REFERENCE_MS / mean_ms
}
