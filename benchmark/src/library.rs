//! The library section: every kernel on every library circuit, checked
//! against the sequential oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use parsim_bitsim::{BitSimulator, PackedBit, PackedOutcome};
use parsim_conservative::{ConservativeSimulator, ThreadedConservativeSimulator};
use parsim_core::{
    ObliviousSimulator, Observe, SequentialSimulator, SimOutcome, SimStats, Simulator,
};
use parsim_logic::Bit;
use parsim_machine::MachineConfig;
use parsim_optimistic::{ThreadedTimeWarpSimulator, TimeWarpSimulator};
use parsim_runtime::Fabric;
use parsim_sync::{SyncSimulator, ThreadedSyncSimulator};
use parsim_trace::{Probe, TraceKind};

use crate::host::process_cpu_ns;
use crate::reference::{normalise, Reference};
use crate::stats::{median, timed, Metrics};
use crate::workload::{LibCase, MODELED_PROCESSORS, WORKERS};

/// The kernels of the library section, each one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// The interpreted sequential kernel (the oracle itself).
    Seq,
    /// The oblivious kernel on compiled bytecode.
    Oblivious,
    /// The 64-lane bit-parallel kernel on two threads.
    Bitsim,
    /// Threaded synchronous, library defaults.
    Sync,
    /// Threaded conservative (Chandy–Misra–Bryant), library defaults.
    Cmb,
    /// Threaded Time Warp, library defaults.
    Tw,
    /// The three modeled disciplines on the virtual multiprocessor.
    Modeled,
}

impl Kernel {
    /// Every kernel, in metric order.
    pub const ALL: [Kernel; 7] = [
        Kernel::Seq,
        Kernel::Oblivious,
        Kernel::Bitsim,
        Kernel::Sync,
        Kernel::Cmb,
        Kernel::Tw,
        Kernel::Modeled,
    ];

    /// The counter group (and metric suffix) of this kernel's runs.
    pub fn group(self) -> &'static str {
        match self {
            Kernel::Seq => "seq",
            Kernel::Oblivious => "oblivious",
            Kernel::Bitsim => "bitsim",
            Kernel::Sync => "sync",
            Kernel::Cmb => "cmb",
            Kernel::Tw => "tw",
            Kernel::Modeled => "modeled",
        }
    }

    /// Threads a run of this kernel keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Kernel::Seq | Kernel::Oblivious | Kernel::Modeled => 1,
            Kernel::Bitsim | Kernel::Sync | Kernel::Cmb | Kernel::Tw => WORKERS,
        }
    }

    /// The end-to-end metric this kernel's wall time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Kernel::Seq => "seq_ms",
            Kernel::Oblivious => "oblivious_ms",
            Kernel::Bitsim => "bitsim_ms",
            Kernel::Sync => "sync_ms",
            Kernel::Cmb => "cmb_ms",
            Kernel::Tw => "tw_ms",
            Kernel::Modeled => "modeled_ms",
        }
    }
}

/// Counters of one kind of run, summed over the library cases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Committed events.
    pub events: u64,
    /// Events scheduled.
    pub scheduled: u64,
    /// Gate evaluations.
    pub gate_evals: u64,
    /// Cross-LP event messages.
    pub messages: u64,
    /// Null messages.
    pub nulls: u64,
    /// Synchronization rounds (barrier pairs).
    pub rounds: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Events undone by rollbacks.
    pub rolled_back: u64,
    /// Anti-messages.
    pub anti: u64,
    /// State snapshots taken.
    pub state_saves: u64,
    /// Bytes of state saved.
    pub state_bytes: u64,
    /// Modeled single-processor work.
    pub modeled_work: u64,
    /// Modeled makespan.
    pub modeled_makespan: u64,
}

impl Counters {
    fn add(&mut self, s: &SimStats) {
        self.events += s.events_processed;
        self.scheduled += s.events_scheduled;
        self.gate_evals += s.gate_evaluations;
        self.messages += s.messages_sent;
        self.nulls += s.null_messages;
        self.rounds += s.barriers;
        self.rollbacks += s.rollbacks;
        self.rolled_back += s.events_rolled_back;
        self.anti += s.anti_messages;
        self.state_saves += s.state_saves;
        self.state_bytes += s.state_bytes_saved;
        self.modeled_work += s.modeled_work;
        self.modeled_makespan += s.modeled_makespan;
    }

    /// Upper bound on the trace records one run of these counters can
    /// emit, with headroom: every kernel emits a bounded number of records
    /// per event, evaluation, message, round or state save.
    pub fn trace_capacity(&self) -> usize {
        let work = self.events
            + self.scheduled
            + self.gate_evals
            + self.messages
            + self.nulls
            + self.rounds
            + self.rolled_back
            + self.anti
            + self.state_saves;
        usize::try_from(work.saturating_mul(4)).unwrap_or(usize::MAX).max(1 << 16)
    }
}

/// Counter groups a library pass produces: one per kernel, and one per
/// modeled discipline.
pub type CounterSet = BTreeMap<&'static str, Counters>;

/// Outcome of running one kernel on every case.
struct Pass {
    wall_ms: f64,
    mismatches: u64,
    runs: u64,
}

/// What one kernel run returns, kept unchecked until its clock has
/// stopped.
enum Output {
    /// A scalar run.
    Scalar(SimOutcome<Bit>),
    /// A 64-lane bit-parallel run.
    Packed(PackedOutcome<PackedBit>),
}

impl Output {
    /// The run's counters, and how it diverges from the oracle. Lane 0 of
    /// a bit-parallel run carries the scalar stimulus, so it must equal
    /// the oracle.
    fn check(self, oracle: &SimOutcome<Bit>) -> (SimStats, Option<String>) {
        match self {
            Output::Scalar(out) => {
                let divergence = out.divergence_from(oracle);
                (out.stats, divergence)
            }
            Output::Packed(out) => (out.stats, out.lane_outcome(0).divergence_from(oracle)),
        }
    }
}

/// One kernel on one case; returns each run under its counter group.
fn run_case(kernel: Kernel, case: &LibCase, probe: &Probe) -> Vec<(&'static str, Output)> {
    let (c, stim, until) = (&case.circuit, &case.stimulus, case.until);
    let part = || case.part_threads.clone();
    let out = match kernel {
        Kernel::Seq => SequentialSimulator::new().with_probe(probe.clone()).run(c, stim, until),
        Kernel::Oblivious => {
            ObliviousSimulator::new().with_compiled().with_probe(probe.clone()).run(c, stim, until)
        }
        Kernel::Sync => {
            ThreadedSyncSimulator::new(part()).with_probe(probe.clone()).run(c, stim, until)
        }
        Kernel::Cmb => {
            ThreadedConservativeSimulator::new(part()).with_probe(probe.clone()).run(c, stim, until)
        }
        Kernel::Tw => {
            ThreadedTimeWarpSimulator::new(part()).with_probe(probe.clone()).run(c, stim, until)
        }
        Kernel::Bitsim => {
            let packed = BitSimulator::<PackedBit>::new()
                .with_threads(WORKERS)
                .with_probe(probe.clone())
                .run(c, &case.packed, until);
            return vec![(kernel.group(), Output::Packed(packed))];
        }
        Kernel::Modeled => {
            // The Figure 1 deployments of `parsim_bench::Discipline`, but
            // observing outputs so the oracle can check them.
            let machine = MachineConfig::shared_memory(MODELED_PROCESSORS);
            let part = &case.part_modeled;
            return vec![
                (
                    "modeled.sync",
                    Output::Scalar(SyncSimulator::new(part.clone(), machine).run(c, stim, until)),
                ),
                (
                    "modeled.cmb",
                    Output::Scalar(
                        ConservativeSimulator::new(part.clone(), machine)
                            .with_granularity(8)
                            .run(c, stim, until),
                    ),
                ),
                (
                    "modeled.tw",
                    Output::Scalar(
                        TimeWarpSimulator::new(part.clone(), machine)
                            .with_granularity(16)
                            .with_window(32)
                            .with_gvt_interval(16)
                            .run(c, stim, until),
                    ),
                ),
            ];
        }
    };
    vec![(kernel.group(), Output::Scalar(out))]
}

/// Runs `kernel` on every case `times` over, summing wall time; counters
/// are collected from the first time only. Each run is checked against
/// the oracle after its clock stops.
fn pass(
    kernel: Kernel,
    cases: &[LibCase],
    oracles: &[SimOutcome<Bit>],
    probe: &Probe,
    counters: &mut CounterSet,
    times: usize,
) -> Pass {
    let mut p = Pass { wall_ms: 0.0, mismatches: 0, runs: 0 };
    for time in 0..times {
        for (case, oracle) in cases.iter().zip(oracles) {
            let (runs, ms) = timed(|| run_case(kernel, case, probe));
            p.wall_ms += ms;
            for (group, output) in runs {
                let (stats, divergence) = output.check(oracle);
                p.runs += 1;
                if let Some(d) = divergence {
                    p.mismatches += 1;
                    eprintln!("oracle mismatch: {group} on {}: {d}", case.circuit.name());
                }
                if time == 0 {
                    counters.entry(group).or_default().add(&stats);
                }
            }
        }
    }
    p
}

/// The sequential oracle of every case.
pub fn oracles(cases: &[LibCase]) -> Vec<SimOutcome<Bit>> {
    cases.iter().map(|c| SequentialSimulator::new().run(&c.circuit, &c.stimulus, c.until)).collect()
}

/// Everything the timed library section measured.
#[derive(Debug, Default)]
pub struct LibResult {
    /// Wall milliseconds of each sample, per kernel, normalised by the
    /// reference samples either side of it: one run on every case (the
    /// mean run when the sample batches several).
    pub wall: BTreeMap<Kernel, Vec<f64>>,
    /// Process CPU milliseconds per repetition, normalised by the
    /// repetition's reference samples: one run of every kernel on every
    /// case.
    pub cpu: Vec<f64>,
    /// Kernel runs checked against the oracle.
    pub attempted: u64,
    /// Runs that diverged from it.
    pub failed: u64,
    /// Counters of the first repetition.
    pub counters: CounterSet,
}

impl LibResult {
    /// Median normalised wall milliseconds of `kernel`.
    pub fn median_ms(&self, kernel: Kernel) -> f64 {
        self.wall.get(&kernel).map_or(0.0, |v| median(v))
    }

    /// Runs per timed sample of each kernel, so that by this result's
    /// medians every sample lasts at least [`MIN_SAMPLE_MS`].
    pub fn batches(&self) -> Batches {
        self.wall
            .keys()
            .map(|&k| {
                let runs = (MIN_SAMPLE_MS / self.median_ms(k).max(0.01)).ceil() as usize;
                (k, runs.clamp(1, MAX_BATCH))
            })
            .collect()
    }
}

/// Shortest timed sample: a faster kernel runs several times per sample
/// and the sample reports the mean run, so that a millisecond-scale
/// kernel is not timed one cold run at a time.
pub const MIN_SAMPLE_MS: f64 = 25.0;
/// Most runs of one kernel in one sample.
const MAX_BATCH: usize = 32;

/// Runs per sample, by kernel (1 where absent).
pub type Batches = BTreeMap<Kernel, usize>;

impl LibResult {
    /// Adds samples of every kernel until `deadline` (at least one), each
    /// repetition rotating which kernel goes first so that no kernel always
    /// runs on a cache its predecessor warmed. Reference samples on the
    /// kernel's thread count precede and follow each kernel's sample.
    /// Counters are kept from the first repetition this result holds.
    pub fn run_reps(
        &mut self,
        cases: &[LibCase],
        oracles: &[SimOutcome<Bit>],
        batches: &Batches,
        reference: &Reference,
        deadline: Instant,
    ) {
        let off = Probe::disabled();
        loop {
            let rep = self.cpu.len();
            let mut counters = CounterSet::new();
            let (mut cpu_ms, mut reference_ms) = (0.0, 0.0);
            for i in 0..Kernel::ALL.len() {
                let kernel = Kernel::ALL[(i + rep) % Kernel::ALL.len()];
                let times = batches.get(&kernel).copied().unwrap_or(1);
                let before = reference.sample_ms(kernel.threads());
                let cpu_ns = process_cpu_ns();
                let p = pass(kernel, cases, oracles, &off, &mut counters, times);
                cpu_ms += process_cpu_ns().saturating_sub(cpu_ns) as f64 / 1e6 / times as f64;
                let after = reference.sample_ms(kernel.threads());
                let ref_ms = (before + after) / 2.0;
                self.wall
                    .entry(kernel)
                    .or_default()
                    .push(normalise(p.wall_ms / times as f64, ref_ms));
                reference_ms += ref_ms;
                self.attempted += p.runs;
                self.failed += p.mismatches;
            }
            self.cpu.push(normalise(cpu_ms, reference_ms / Kernel::ALL.len() as f64));
            if rep == 0 {
                self.counters = counters;
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Untraced/probed pass pairs per kernel in a traced run.
const TRACE_PAIRS: usize = 3;

/// Per-layer numbers of the library section: probed passes of every
/// kernel alternating with untraced ones, plus timed calls into the
/// layers below the kernels. `untraced` supplies the untraced medians and
/// first-pass counters of the same process. Returns the probed runs
/// checked against the oracle and how many diverged.
pub fn layers(
    cases: &[LibCase],
    oracles: &[SimOutcome<Bit>],
    untraced: &LibResult,
    m: &mut Metrics,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let mut dropped = 0u64;
    let mut spills = 0u64;
    let off = Probe::disabled();
    for kernel in
        [Kernel::Seq, Kernel::Oblivious, Kernel::Bitsim, Kernel::Sync, Kernel::Cmb, Kernel::Tw]
    {
        let group = kernel.group();
        let cap = untraced.counters.get(group).copied().unwrap_or_default().trace_capacity();
        // Untraced and probed passes alternate, so the overhead compares
        // runs made under the same host conditions.
        let (mut plain_ms, mut traced_ms, mut barrier_share) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..TRACE_PAIRS {
            let mut scratch = CounterSet::new();
            plain_ms.push(pass(kernel, cases, oracles, &off, &mut scratch, 1).wall_ms);
            let mut wall_ms = 0.0;
            let mut barrier_ns = 0u64;
            for (case, oracle) in cases.iter().zip(oracles) {
                let probe = Probe::with_capacity(cap);
                let (runs, ms) = timed(|| run_case(kernel, case, &probe));
                wall_ms += ms;
                for (g, output) in runs {
                    let (_, divergence) = output.check(oracle);
                    attempted += 1;
                    if let Some(d) = divergence {
                        failed += 1;
                        eprintln!("oracle mismatch (traced): {g}: {d}");
                    }
                }
                let trace = probe.take_trace();
                dropped += trace.dropped();
                spills += trace.sum_arg(TraceKind::RingSpill);
                barrier_ns += trace.sum_arg(TraceKind::BarrierWait);
            }
            traced_ms.push(wall_ms);
            barrier_share.push(barrier_ns as f64 / 1e6 / (WORKERS as f64 * wall_ms));
        }
        m.put(
            format!("trace.overhead.{group}"),
            median(&traced_ms) / median(&plain_ms) - 1.0,
            "ratio",
        );
        if kernel == Kernel::Sync {
            m.put("runtime.barrier_wait_share", median(&barrier_share), "ratio");
        }
    }
    // Per probed pass of the three threaded kernels.
    spills /= TRACE_PAIRS as u64;
    m.put("trace.dropped", dropped as f64, "count");
    m.put("runtime.ring_spills", spills as f64, "count");

    // Bit-parallel thread scaling: one thread against two, in alternating
    // pairs under the same host conditions.
    let bitsim = |threads: usize| -> f64 {
        cases
            .iter()
            .map(|c| {
                let sim = BitSimulator::<PackedBit>::new().with_threads(threads);
                timed(|| sim.run(&c.circuit, &c.packed, c.until)).1
            })
            .sum()
    };
    let scaling: Vec<f64> = (0..TRACE_PAIRS).map(|_| bitsim(1) / bitsim(WORKERS)).collect();
    m.put("bitsim.thread_scaling", median(&scaling), "ratio");

    // Fabric set-up: topology, ring sizing and event preloading.
    let fabric: Vec<f64> = (0..5)
        .map(|_| {
            cases
                .iter()
                .map(|c| {
                    timed(|| {
                        let f = Fabric::new(&c.circuit, &c.part_threads, 1, Observe::Outputs);
                        f.preloads::<Bit>(&c.stimulus, c.until).len()
                    })
                    .1
                })
                .sum()
        })
        .collect();
    m.put("runtime.fabric_new_ms", median(&fabric), "ms");

    counter_metrics(&untraced.counters, m);
    for kernel in [Kernel::Sync, Kernel::Cmb, Kernel::Tw] {
        let rounds = untraced.counters.get(kernel.group()).map_or(0, |c| c.rounds);
        m.put(
            format!("runtime.round_us.{}", kernel.group()),
            untraced.median_ms(kernel) * 1e3 / rounds as f64,
            "us",
        );
    }
    (attempted, failed)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric derived from the counters of one library pass.
/// Each is either exact or listed in [`SCHEDULING_DEPENDENT`].
pub fn counter_metrics(counters: &CounterSet, m: &mut Metrics) {
    let get = |g: &str| counters.get(g).copied().unwrap_or_default();
    let (seq, sync, cmb, tw) = (get("seq"), get("sync"), get("cmb"), get("tw"));
    m.put("core.seq_events", seq.events as f64, "count");
    m.put("core.gate_evals", seq.gate_evals as f64, "count");
    m.put("sync.events", sync.events as f64, "count");
    m.put("sync.messages", sync.messages as f64, "count");
    m.put("runtime.events_per_round", ratio(sync.events, sync.rounds), "events");
    for kernel in [Kernel::Sync, Kernel::Cmb, Kernel::Tw] {
        let name = kernel.group();
        m.put(format!("runtime.rounds.{name}"), get(name).rounds as f64, "count");
        let modeled = get(&format!("modeled.{name}"));
        m.put(
            format!("machine.speedup.{name}"),
            ratio(modeled.modeled_work, modeled.modeled_makespan),
            "ratio",
        );
    }
    m.put("conservative.null_ratio", ratio(cmb.nulls, cmb.nulls + cmb.messages), "ratio");
    m.put("optimistic.useful_ratio", ratio(tw.events, tw.events + tw.rolled_back), "ratio");
    m.put("optimistic.rollbacks", tw.rollbacks as f64, "count");
    m.put("optimistic.anti_messages", tw.anti as f64, "count");
    m.put("optimistic.state_bytes_saved", tw.state_bytes as f64, "B");
}

/// The counters of one untimed pass of every kernel over `cases`.
///
/// # Panics
///
/// Panics if a kernel diverges from the oracle.
pub fn counter_pass(cases: &[LibCase]) -> CounterSet {
    let oracles = oracles(cases);
    let mut counters = CounterSet::new();
    for kernel in Kernel::ALL {
        let p = pass(kernel, cases, &oracles, &Probe::disabled(), &mut counters, 1);
        assert_eq!(p.mismatches, 0, "{kernel:?} diverged from the oracle");
    }
    counters
}

/// Counter-derived metrics that depend on how the host schedules the
/// worker threads, so two runs of one seed may differ: conservative rounds
/// and null messages, and Time Warp rounds, rollbacks, anti-messages and
/// saved state. Committed events of every kernel do not.
pub const SCHEDULING_DEPENDENT: [&str; 7] = [
    "runtime.rounds.cmb",
    "conservative.null_ratio",
    "runtime.rounds.tw",
    "optimistic.rollbacks",
    "optimistic.anti_messages",
    "optimistic.state_bytes_saved",
    "optimistic.useful_ratio",
];
