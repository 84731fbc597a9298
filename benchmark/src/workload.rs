//! The three workloads, generated from one seed.
//!
//! Every workload has a library section (circuits run directly on every
//! kernel) and a service section (a job mix sent to the shipped service
//! over loopback TCP), so every metric exists on every workload; what
//! differs is which layers dominate. `README.md` beside this crate gives
//! the reasons for each choice.

use parsim_bitsim::{PackedStimulus, LANES};
use parsim_core::{RunBudget, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::{Bit, GateKind};
use parsim_netlist::{bench, generate, Circuit, DelayModel};
use parsim_partition::{ConePartitioner, GateWeights, Partition, Partitioner};
use parsim_server::{JobRequest, KernelKind, NetlistSpec, ObserveSpec};

/// Worker threads of every threaded run and every service job.
pub const WORKERS: usize = 2;
/// Processors of the modeled (virtual-machine) runs: one Figure 1 point.
pub const MODELED_PROCESSORS: usize = 8;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["round_bound", "eval_bound", "service_mix"];

/// SplitMix64: the benchmark's only source of randomness, so one seed fixes
/// every circuit, stimulus and job.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed` in the named stream.
    pub fn new(seed: u64, stream: &str) -> Self {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        SeedRng(seed ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One circuit the library section runs on every kernel.
#[derive(Debug, Clone)]
pub struct LibCase {
    /// The circuit (unit delays: the oblivious and bit-parallel kernels
    /// require them).
    pub circuit: Circuit,
    /// Scalar stimulus; also lane 0 of `packed`.
    pub stimulus: Stimulus,
    /// 64-lane stimulus for the bit-parallel kernel.
    pub packed: PackedStimulus,
    /// Simulation horizon.
    pub until: VirtualTime,
    /// Cone partition into [`WORKERS`] blocks (threaded kernels).
    pub part_threads: Partition,
    /// Cone partition into [`MODELED_PROCESSORS`] blocks (modeled kernels).
    pub part_modeled: Partition,
}

impl LibCase {
    /// Lane `k` of the packed stimulus is `stimulus(seed + k)`, so lane 0
    /// is the scalar stimulus every other kernel runs.
    fn new(circuit: Circuit, stimulus: impl Fn(u64) -> Stimulus, seed: u64, until: u64) -> Self {
        let lanes = (0..LANES as u64).map(|k| stimulus(seed.wrapping_add(k))).collect();
        let part_threads = cone_partition(&circuit, WORKERS);
        let part_modeled = cone_partition(&circuit, MODELED_PROCESSORS);
        LibCase {
            circuit,
            packed: PackedStimulus::new(lanes),
            stimulus: stimulus(seed),
            until: VirtualTime::new(until),
            part_threads,
            part_modeled,
        }
    }
}

/// The partition every threaded kernel and the service use: fanin cones
/// with uniform weights.
pub fn cone_partition(circuit: &Circuit, blocks: usize) -> Partition {
    ConePartitioner.partition(circuit, blocks, &GateWeights::uniform(circuit.len()))
}

/// What a service job is, for checking its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A repeat of one of the mix's generator shapes: an artifact hit.
    Warm,
    /// A `.bench` netlist no other job submits: parse, partition and
    /// compile on the request path.
    Fresh,
    /// A warm shape with a round budget that ends it early.
    Truncated,
}

/// One service job: the request, rendered once, and its class.
#[derive(Debug, Clone)]
pub struct Job {
    /// The parsed form (the oracle rebuilds the run from it).
    pub request: JobRequest,
    /// The POST body.
    pub body: String,
    /// What the job exercises.
    pub class: JobClass,
}

impl Job {
    fn new(request: JobRequest, class: JobClass) -> Self {
        Job { body: request.to_json(), request, class }
    }

    /// Identifies jobs that must stream identical results.
    pub fn shape_key(&self) -> String {
        let mut r = self.request.clone();
        r.tenant = String::new();
        r.to_json()
    }
}

/// The service section of a workload.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Repeated shapes; each is submitted once during set-up so the
    /// timed phases find its artifact and prepared circuit warm.
    pub warm: Vec<Job>,
    /// Open-loop phase: the jobs in send order, each due at
    /// `index / rate_per_s` seconds after the phase starts.
    pub open: Vec<Job>,
    /// Open-loop send rate.
    pub rate_per_s: f64,
    /// Closed-loop phase: each client cycles over the warm shapes from
    /// its own offset for this long in all, split over the run's segments.
    pub closed_secs: f64,
}

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its `BENCHMARK.json` name.
    pub name: &'static str,
    /// Library section.
    pub lib: Vec<LibCase>,
    /// Service section.
    pub mix: Mix,
}

/// A generator shape of the service's job protocol.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: &'static str,
    size: usize,
    until: u64,
}

/// Parameters that tell the workloads apart. Each open-loop rate keeps the
/// service's run slots about 15 % busy on a 2-vCPU host (the provenance
/// `open_utilisation`), so latency is mostly service time rather than
/// queueing; `README.md` gives the measurements.
struct Params {
    warm: &'static [Shape],
    open_jobs: usize,
    rate_per_s: f64,
    closed_secs: f64,
}

const KERNELS: [KernelKind; 3] = [KernelKind::Sync, KernelKind::Conservative, KernelKind::TimeWarp];
/// Share of open-loop jobs, in percent, that submit a fresh netlist.
const FRESH_PERCENT: u64 = 20;
/// Share of open-loop jobs, in percent, that a round budget truncates.
const TRUNCATED_PERCENT: u64 = 4;
/// The round budget of a truncated job.
const TRUNCATED_ROUNDS: u64 = 5;
/// Evaluating gates of a fresh netlist: the base plus up to the spread.
const FRESH_GATES: (usize, u64) = (400, 200);
/// Horizon of a fresh-netlist job.
const FRESH_UNTIL: u64 = 300;
/// Stimulus cadence of every service job.
const JOB_INTERVAL: u64 = 10;

fn params(name: &str) -> Params {
    match name {
        "round_bound" => Params {
            warm: &[Shape { kind: "ripple_adder", size: 32, until: 600 }],
            open_jobs: 300,
            rate_per_s: 30.0,
            closed_secs: 6.0,
        },
        "eval_bound" => Params {
            warm: &[Shape { kind: "tree", size: 2048, until: 60 }],
            open_jobs: 400,
            rate_per_s: 40.0,
            closed_secs: 6.0,
        },
        "service_mix" => Params {
            warm: &[
                Shape { kind: "ripple_adder", size: 16, until: 400 },
                Shape { kind: "counter", size: 12, until: 400 },
                Shape { kind: "lfsr", size: 24, until: 400 },
                Shape { kind: "tree", size: 64, until: 200 },
                Shape { kind: "mesh", size: 8, until: 200 },
            ],
            open_jobs: 500,
            rate_per_s: 50.0,
            closed_secs: 6.0,
        },
        other => panic!("unknown workload `{other}`"),
    }
}

/// Builds the circuit a service job names, exactly as the service does.
pub fn job_circuit(spec: &NetlistSpec) -> Circuit {
    match spec {
        NetlistSpec::Bench(text) => {
            bench::parse("job", text, DelayModel::Unit).expect("generated netlists parse")
        }
        NetlistSpec::Generate { kind, size } => {
            let size = *size;
            match kind.as_str() {
                "ripple_adder" => generate::ripple_adder(size, DelayModel::Unit),
                "lfsr" => generate::lfsr(size.max(2), DelayModel::Unit),
                "counter" => generate::counter(size, DelayModel::Unit),
                "tree" => generate::tree(GateKind::Xor, size.max(2), DelayModel::Unit),
                "mesh" => generate::mesh(size, size, DelayModel::Unit),
                other => panic!("unknown generator `{other}`"),
            }
        }
    }
}

/// The stimulus the service derives from a job.
pub fn job_stimulus(req: &JobRequest) -> Stimulus {
    Stimulus::random(req.seed, req.interval)
}

fn request(
    tenant: &str,
    netlist: NetlistSpec,
    kernel: KernelKind,
    until: u64,
    seed: u64,
) -> JobRequest {
    JobRequest {
        tenant: tenant.to_owned(),
        netlist,
        kernel,
        workers: WORKERS,
        until,
        seed,
        interval: JOB_INTERVAL,
        observe: ObserveSpec::Outputs,
        budget: RunBudget::UNLIMITED,
        fault_kill: None,
    }
}

/// A fresh `.bench` netlist: a small random DAG no other job shares.
fn fresh_netlist(rng: &mut SeedRng) -> String {
    let circuit = generate::random_dag(&generate::RandomDagConfig {
        gates: FRESH_GATES.0 + rng.below(FRESH_GATES.1) as usize,
        inputs: 24,
        seq_fraction: 0.10,
        delays: DelayModel::Unit,
        seed: rng.next_u64(),
        ..Default::default()
    });
    bench::write(&circuit)
}

/// The library circuit of `round_bound`: E16's job circuit.
fn round_bound_lib(seed: u64) -> Vec<LibCase> {
    let circuit = generate::ripple_adder(32, DelayModel::Unit);
    let mut rng = SeedRng::new(seed, "round_bound/lib");
    let stim_seed = rng.next_u64();
    vec![LibCase::new(circuit, |s| Stimulus::random(s, 10), stim_seed, 3_000)]
}

/// Committed events of `eval_bound`'s library run, whatever the seed.
const EVAL_EVENTS: u64 = 80_000;
/// Horizon of the sequential run that measures a circuit's event rate.
const EVAL_PROBE_UNTIL: u64 = 80;

/// The library circuit of `eval_bound`: a `circuit_ladder`-style random
/// DAG of ~8k gates with a 10 % sequential fraction. Random DAGs differ in
/// activity from seed to seed (up to 30 % more events in 200 ticks), so
/// the horizon is scaled from a sequential probe run until the committed
/// events come to about [`EVAL_EVENTS`]: another seed changes the circuit
/// and stimulus, not the amount of work.
fn eval_bound_lib(seed: u64) -> Vec<LibCase> {
    let mut rng = SeedRng::new(seed, "eval_bound/lib");
    let circuit = generate::random_dag(&generate::RandomDagConfig {
        gates: 8192,
        inputs: 256,
        seq_fraction: 0.10,
        delays: DelayModel::Unit,
        seed: rng.next_u64(),
        ..Default::default()
    });
    let stim_seed = rng.next_u64();
    let stimulus = |s| Stimulus::random(s, 12).with_clock(7);
    let probe = SequentialSimulator::<Bit>::new().run(
        &circuit,
        &stimulus(stim_seed),
        VirtualTime::new(EVAL_PROBE_UNTIL),
    );
    let until = (EVAL_PROBE_UNTIL * EVAL_EVENTS).div_ceil(probe.stats.events_processed.max(1));
    vec![LibCase::new(circuit, stimulus, stim_seed, until)]
}

/// The library cases of `service_mix`: its distinct warm circuits, each
/// with the stimulus and horizon its jobs use.
fn service_mix_lib(warm: &[Job]) -> Vec<LibCase> {
    let mut seen = Vec::new();
    let mut cases = Vec::new();
    for job in warm {
        let r = &job.request;
        let key = (format!("{:?}", r.netlist), r.seed);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let interval = r.interval;
        let stimulus = move |s| Stimulus::random(s, interval);
        cases.push(LibCase::new(job_circuit(&r.netlist), stimulus, r.seed, r.until));
    }
    cases
}

/// Draws from `items` in seeded shuffled rounds, each item once a round,
/// so that every seed gets the mix's shares exactly rather than on average.
struct Deck<T: Copy> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        Deck { items, left: Vec::new() }
    }

    fn draw(&mut self, rng: &mut SeedRng) -> T {
        if self.left.is_empty() {
            self.left.clone_from(&self.items);
        }
        let i = rng.below(self.left.len() as u64) as usize;
        self.left.swap_remove(i)
    }
}

/// The service section for `name`.
fn mix(name: &str, seed: u64) -> Mix {
    let p = params(name);
    let mut rng = SeedRng::new(seed, &format!("{name}/mix"));
    let warm: Vec<Job> = p
        .warm
        .iter()
        .flat_map(|s| {
            let netlist = NetlistSpec::Generate { kind: s.kind.to_owned(), size: s.size };
            let stim_seed = rng.next_u64() >> 12;
            KERNELS.map(|k| {
                Job::new(request("warmup", netlist.clone(), k, s.until, stim_seed), JobClass::Warm)
            })
        })
        .collect();
    let mut classes = Deck::new(
        (0..100)
            .map(|roll| {
                if roll < FRESH_PERCENT {
                    JobClass::Fresh
                } else if roll < FRESH_PERCENT + TRUNCATED_PERCENT {
                    JobClass::Truncated
                } else {
                    JobClass::Warm
                }
            })
            .collect(),
    );
    let mut kernels = Deck::new(KERNELS.to_vec());
    let mut shapes = Deck::new((0..warm.len()).collect());
    let open = (0..p.open_jobs)
        .map(|i| {
            let tenant = format!("client-{}", i % 2);
            let class = classes.draw(&mut rng);
            if class == JobClass::Fresh {
                let netlist = NetlistSpec::Bench(fresh_netlist(&mut rng));
                let kernel = kernels.draw(&mut rng);
                let r = request(&tenant, netlist, kernel, FRESH_UNTIL, rng.next_u64() >> 12);
                Job::new(r, JobClass::Fresh)
            } else if class == JobClass::Truncated {
                let base = &warm[rng.below(warm.len() as u64) as usize].request;
                let mut r = base.clone();
                r.tenant = tenant;
                r.kernel = KernelKind::Sync;
                r.budget.max_rounds = Some(TRUNCATED_ROUNDS);
                Job::new(r, JobClass::Truncated)
            } else {
                let mut r = warm[shapes.draw(&mut rng)].request.clone();
                r.tenant = tenant;
                Job::new(r, JobClass::Warm)
            }
        })
        .collect();
    Mix { warm, open, rate_per_s: p.rate_per_s, closed_secs: p.closed_secs }
}

/// Generates workload `name` from `seed`.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn build(name: &str, seed: u64) -> Workload {
    let mix = mix(name, seed);
    let (name, lib) = match name {
        "round_bound" => ("round_bound", round_bound_lib(seed)),
        "eval_bound" => ("eval_bound", eval_bound_lib(seed)),
        "service_mix" => ("service_mix", service_mix_lib(&mix.warm)),
        other => panic!("unknown workload `{other}`"),
    };
    Workload { name, lib, mix }
}
