//! The host-speed reference: a fixed amount of event-driven work, frozen in
//! the benchmark's own code, so that no change to the program moves it.
//!
//! On a shared host every kernel runs up to 40 % slower for seconds or
//! minutes at a time (`README.md`, Noise). The benchmark times the
//! reference right before and after each timed sample, on as many threads
//! as the sample runs, and reports the sample's ratio to it in
//! milliseconds at the reference's nominal speed: the host's state, common
//! to both, cancels; a change to the program, which only the sample runs,
//! does not.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::stats::timed;
use crate::workload::SeedRng;

/// Nodes of the reference network: its arrays (~2 MiB) outgrow the L1
/// cache, as those of the 8k-gate simulations do.
const NODES: usize = 1 << 17;
/// Events one reference sample processes.
const EVENTS: u32 = 100_000;
/// Most events pending at once; beyond it an event schedules one fanout.
const PENDING: usize = 4096;
/// Wall milliseconds of one single-threaded reference sample on the host
/// the bounds were measured on (2-vCPU x86-64 VM, uncontended), by which
/// every ratio is scaled back into milliseconds.
pub const NOMINAL_MS: f64 = 6.5;

/// The frozen network: each node's two fanins and two fanouts.
pub struct Reference {
    fanin: Vec<[u32; 2]>,
    fanout: Vec<[u32; 2]>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The network, the same in every run.
    pub fn new() -> Self {
        let mut rng = SeedRng::new(0, "reference");
        let mut node = || rng.below(NODES as u64) as u32;
        let fanin = (0..NODES).map(|_| [node(), node()]).collect();
        let fanout = (0..NODES).map(|_| [node(), node()]).collect();
        Reference { fanin, fanout }
    }

    /// Processes [`EVENTS`] events: each pops the earliest pending node,
    /// recomputes its value from its fanins and schedules its fanouts.
    /// Returns a checksum of the final values.
    fn simulate(&self) -> u64 {
        let mut value = vec![0u8; NODES];
        let mut pending: BinaryHeap<Reverse<(u32, u32)>> =
            (0..256u32).map(|i| Reverse((0, i * 509 % NODES as u32))).collect();
        for _ in 0..EVENTS {
            let Some(Reverse((t, n))) = pending.pop() else { break };
            let n = n as usize;
            let [a, b] = self.fanin[n];
            value[n] = !(value[a as usize] & value[b as usize]) ^ (t as u8);
            let [x, y] = self.fanout[n];
            let delay = 1 + (n as u32 & 3);
            pending.push(Reverse((t + delay, x)));
            if pending.len() < PENDING {
                pending.push(Reverse((t + delay + 1, y)));
            }
        }
        value.iter().enumerate().map(|(i, &v)| (i as u64) * u64::from(v)).sum()
    }

    /// Wall milliseconds of one reference sample run on each of `threads`
    /// threads at once, until the last one finishes: a kernel on two
    /// threads waits for the slower of the host's two CPUs, and so does
    /// its reference.
    pub fn sample_ms(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return timed(|| black_box(self.simulate())).1;
        }
        timed(|| {
            std::thread::scope(|s| {
                let runs: Vec<_> =
                    (0..threads).map(|_| s.spawn(|| black_box(self.simulate()))).collect();
                runs.into_iter().map(|r| r.join().expect("reference thread")).sum::<u64>()
            })
        })
        .1
    }
}

/// `ms` measured while the reference took `reference_ms`, expressed at the
/// reference's nominal speed.
pub fn normalise(ms: f64, reference_ms: f64) -> f64 {
    ms * NOMINAL_MS / reference_ms
}
