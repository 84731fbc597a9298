//! One benchmark run: set-up, the timed library and service sections, the
//! oracle checks and, for a traced run, the per-layer numbers.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use parsim_compile::{compile_blocks, ArtifactStore};
use parsim_core::SimOutcome;
use parsim_logic::Bit;
use parsim_netlist::Circuit;
use parsim_netlist::{bench, DelayModel};
use parsim_partition::GateWeights;
use parsim_server::{JobRequest, NetlistSpec};

use crate::host::{load_average, peak_rss_mb, CpuJiffies, Provenance};
use crate::library::{self, Kernel, LibResult};
use crate::reference::{normalise, Reference};
use crate::service::{self, JobRecord, Rig, Submit};
use crate::stats::{median, quantile, timed, Metrics};
use crate::workload::{
    self, cone_partition, job_circuit, Job, JobClass, LibCase, Workload, WORKERS,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Segments of alternating library repetitions, open-loop jobs and
/// closed-loop time.
const SEGMENTS: usize = 6;
/// Groups of consecutive open-loop jobs (two segments each) over which
/// each latency percentile is taken; the metric is the median over the
/// groups, so a burst of steal that slows one group's jobs does not move
/// it. Every group holds at least 100 jobs, so at least 10 lie beyond its
/// p90.
const JOB_GROUPS: usize = 3;
/// Above this share of CPU time stolen by the hypervisor over a run, the
/// run's timings are not comparable with other runs (`README.md`, Noise).
pub const MAX_STEAL_SHARE: f64 = 0.03;
/// Repetitions of each timed layer call in a traced run.
const LAYER_REPS: usize = 5;

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (kernel runs and service jobs).
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Provenance and host noise, as one JSON object.
    pub provenance: String,
}

impl Report {
    /// The result line: one JSON object.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn latencies(records: &[JobRecord], keep: impl Fn(&JobRecord) -> bool) -> Vec<f64> {
    records.iter().filter(|r| keep(r)).map(|r| r.latency_ms).collect()
}

/// Runs workload `name` with `seed` for about `seconds` of measurement.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> Report {
    let jiffies = CpuJiffies::now();
    let provenance = Provenance::collect();
    // Set-up and library timings are normalised by reference samples
    // taken beside them (`reference.rs`).
    let reference = Reference::new();

    // Set-up: generate every input, start the service on an empty store
    // and warm it with the mix's repeated shapes.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Workload, Rig)> = None;
    let mut before = reference.sample_ms(1);
    for _ in 0..SETUPS {
        drop(kept.take());
        let (pair, ms) = timed(|| {
            let w = workload::build(name, seed);
            let rig = Rig::start(&service::fresh_dir(name), &w.mix.warm);
            (w, rig)
        });
        let after = reference.sample_ms(1);
        setup_s.push(normalise(ms, (before + after) / 2.0) / 1e3);
        before = after;
        kept = Some(pair);
    }
    let (w, rig) = kept.expect("at least one set-up");

    // The oracle, then one untimed pass so lazy set-up (the worker pool,
    // page faults) is not charged to the first timed repetition.
    let oracles = library::oracles(&w.lib);
    let mut warmup = LibResult::default();
    warmup.run_reps(&w.lib, &oracles, &library::Batches::new(), &reference, Instant::now());
    let mut attempted = warmup.attempted;
    let mut failed = warmup.failed;

    let service_s = w.mix.open.len() as f64 / w.mix.rate_per_s + w.mix.closed_secs;
    let mut lib_s = (seconds as f64 - service_s).max(0.0);
    if trace {
        // A traced run spends the other half on the probed passes.
        lib_s /= 2.0;
    }
    // The library section, the open loop and the closed loop alternate in
    // segments, so that each samples the host over the whole run rather
    // than over one stretch of it, in which a burst of contention would
    // weigh on every sample.
    let batches = warmup.batches();
    let tcp = |body: &str| (rig.submit_tcp(body), None);
    let waits_before = rig.metric("slots_waits");
    let mut lib = LibResult::default();
    let (mut open, mut open_ms) = (Vec::new(), 0.0);
    let (mut closed, mut closed_failed) = (Vec::new(), 0);
    let mut oracle_texts = BTreeMap::new();
    // Correct closed-loop jobs per second of each segment's window;
    // `jobs_per_s` is their median, for the reason given at `JOB_GROUPS`.
    let mut rate = Vec::new();
    let per_segment = w.mix.open.len().div_ceil(SEGMENTS);
    for (segment, jobs) in w.mix.open.chunks(per_segment).enumerate() {
        let deadline = Instant::now() + Duration::from_secs_f64(lib_s / SEGMENTS as f64);
        lib.run_reps(&w.lib, &oracles, &batches, &reference, deadline);
        let (records, ms) = timed(|| service::open_loop(jobs, w.mix.rate_per_s, &tcp));
        open_ms += ms;
        open.extend(records.into_iter().map(|mut r| {
            r.index += segment * per_segment;
            r
        }));
        let secs = w.mix.closed_secs / SEGMENTS as f64;
        let (records, s) = service::closed_loop(&w.mix.warm, secs, &tcp);
        let bad = service::verify(&w.mix.warm, &records, &mut oracle_texts);
        rate.push((records.len() as u64 - bad) as f64 / s);
        closed_failed += bad;
        closed.extend(records);
    }
    attempted += lib.attempted;
    failed += lib.failed;
    let slot_waits = rig.metric("slots_waits") - waits_before;

    let open_failed = service::verify(&w.mix.open, &open, &mut oracle_texts);
    attempted += (open.len() + closed.len()) as u64;
    failed += open_failed + closed_failed;

    let mut sink = Metrics::default();
    if trace {
        let layer =
            traced(&w, &rig, &oracles, &lib, &open, slot_waits, &mut oracle_texts, &mut sink);
        attempted += layer.0;
        failed += layer.1;
        sink.put("failed_share", failed as f64 / attempted.max(1) as f64, "ratio");
    } else {
        for k in Kernel::ALL {
            sink.put(k.metric(), lib.median_ms(k), "ms");
        }
        let groups: Vec<&[JobRecord]> = open.chunks(open.len().div_ceil(JOB_GROUPS)).collect();
        let over_groups = |stat: &dyn Fn(&[JobRecord]) -> f64| {
            median(&groups.iter().map(|g| stat(g)).collect::<Vec<_>>())
        };
        let job_ms = |g: &[JobRecord], p| quantile(&latencies(g, |_| true), p);
        sink.put("job_ms.p50", over_groups(&|g| job_ms(g, 0.5)), "ms");
        sink.put("job_ms.p90", over_groups(&|g| job_ms(g, 0.9)), "ms");
        let cold_ms = |g: &[JobRecord]| median(&latencies(g, |r| r.cache == "miss"));
        sink.put("cold_job_ms", over_groups(&cold_ms), "ms");
        sink.put("jobs_per_s", median(&rate), "1/s");
        sink.put("cpu_ms", median(&lib.cpu), "ms");
        sink.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sink.put("setup_s", median(&setup_s), "s");
    }

    // Share of the run slots' time the open loop kept busy: each job's
    // send-to-done time over the slots and the phase's wall time.
    let busy_ms: f64 = open.iter().map(|r| r.latency_ms - r.late_ms).sum();
    let utilisation = busy_ms / (rig.run_slots as f64 * open_ms);
    drop(rig);
    let steal = CpuJiffies::now().steal_share_since(jiffies);
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": \"{name}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"steal_share\": {steal}, \"timings_valid\": {}, \"loadavg_1m\": {}, \"library_reps\": {}, \"open_jobs\": {}, \"open_utilisation\": {utilisation:.3}, \"closed_jobs\": {}}}}}",
        provenance.commit,
        provenance.rustc,
        provenance.nproc,
        steal <= MAX_STEAL_SHARE,
        load_average(),
        lib.cpu.len(),
        open.len(),
        closed.len(),
    );
    Report { attempted, failed, metrics: sink, provenance }
}

/// The service's per-gate block assignment for `circuit`, which is also
/// its artifact-store key input.
fn block_of_each_gate(circuit: &Circuit) -> Vec<usize> {
    let p = cone_partition(circuit, WORKERS);
    circuit.ids().map(|id| p.block_of(id)).collect()
}

/// The distinct artifact-store keys of the warm job shapes.
fn warm_keys(warm: &[Job]) -> Vec<u64> {
    let mut keys: Vec<u64> = warm
        .iter()
        .map(|j| {
            let c = job_circuit(&j.request.netlist);
            ArtifactStore::cache_key(&c, &block_of_each_gate(&c), WORKERS)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Cut nets and worst load ratio of the threaded partitions.
fn partition_metrics(cases: &[LibCase], sink: &mut Metrics) {
    let cut: usize = cases.iter().map(|c| c.part_threads.cut_nets(&c.circuit)).sum();
    sink.put("partition.cut_nets", cut as f64, "count");
    let imbalance = cases
        .iter()
        .map(|c| {
            c.part_threads
                .quality(&c.circuit, &GateWeights::uniform(c.circuit.len()))
                .max_load_ratio
        })
        .fold(0.0, f64::max);
    sink.put("partition.imbalance", imbalance, "ratio");
}

/// The service's artifact and stream sizes for one open loop, whose
/// store is `dir`.
fn service_counters(warm: &[Job], open: &[JobRecord], dir: &Path, sink: &mut Metrics) {
    let hits = open.iter().filter(|r| r.cache == "hit").count();
    sink.put("compile.hit_ratio", hits as f64 / open.len().max(1) as f64, "ratio");
    let store = ArtifactStore::new(dir);
    let artifact_bytes: u64 = warm_keys(warm)
        .into_iter()
        .map(|key| std::fs::metadata(store.path_of(key)).map_or(0, |m| m.len()))
        .sum();
    sink.put("compile.artifact_bytes", artifact_bytes as f64, "B");
    sink.put("trace.chunks", open.iter().map(|r| r.chunks).sum::<u64>() as f64, "count");
    sink.put("trace.stream_bytes", open.iter().map(|r| r.bytes).sum::<u64>() as f64, "B");
}

/// Per-layer metrics that must repeat bit for bit for one seed.
pub const EXACT: [&str; 15] = [
    "partition.cut_nets",
    "partition.imbalance",
    "compile.hit_ratio",
    "compile.artifact_bytes",
    "runtime.rounds.sync",
    "runtime.events_per_round",
    "sync.events",
    "sync.messages",
    "core.seq_events",
    "core.gate_evals",
    "machine.speedup.sync",
    "machine.speedup.cmb",
    "machine.speedup.tw",
    "trace.chunks",
    "trace.stream_bytes",
];

/// Every counter-derived per-layer metric of workload `w`, by its printed
/// name, each computed as a traced run computes it: one untimed pass of
/// every kernel, the threaded partitions, and the open loop's jobs sent
/// one at a time in process to a service on a fresh store. Each is either
/// in [`EXACT`] or in [`library::SCHEDULING_DEPENDENT`].
///
/// # Panics
///
/// Panics if a kernel diverges from the oracle.
pub fn counter_metrics(w: &Workload) -> BTreeMap<String, f64> {
    let mut sink = Metrics::default();
    library::counter_metrics(&library::counter_pass(&w.lib), &mut sink);
    partition_metrics(&w.lib, &mut sink);
    let rig = Rig::start(&service::fresh_dir(w.name), &w.mix.warm);
    let open: Vec<JobRecord> = w
        .mix
        .open
        .iter()
        .enumerate()
        .map(|(i, job)| {
            service::record(i, Ok(service::submit_in_process(&rig.service, &job.body).0))
        })
        .collect();
    service_counters(&w.mix.warm, &open, rig.dir(), &mut sink);
    sink.0.into_iter().map(|m| (m.name, m.value)).collect()
}

/// The per-layer numbers of a traced run. Returns the extra operations it
/// checked and how many failed.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    rig: &Rig,
    oracles: &[SimOutcome<Bit>],
    lib: &LibResult,
    open_tcp: &[JobRecord],
    slot_waits: f64,
    oracle_texts: &mut BTreeMap<(String, u64), String>,
    sink: &mut Metrics,
) -> (u64, u64) {
    let (mut attempted, mut failed) = library::layers(&w.lib, oracles, lib, sink);

    // Netlist layer: parse and build every netlist of the workload from
    // `.bench` text.
    let texts: Vec<String> = w
        .lib
        .iter()
        .map(|c| bench::write(&c.circuit))
        .chain(w.mix.open.iter().filter_map(|j| match &j.request.netlist {
            NetlistSpec::Bench(t) => Some(t.clone()),
            NetlistSpec::Generate { .. } => None,
        }))
        .collect();
    let build: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            timed(|| {
                texts
                    .iter()
                    .map(|t| bench::parse("bench", t, DelayModel::Unit).map_or(0, |c| c.len()))
                    .sum::<usize>()
            })
            .1
        })
        .collect();
    sink.put("netlist.build_ms", median(&build), "ms");

    // Partition layer, on the library circuits.
    let part: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            timed(|| {
                w.lib.iter().map(|c| cone_partition(&c.circuit, WORKERS).blocks()).sum::<usize>()
            })
            .1
        })
        .collect();
    sink.put("partition.ms", median(&part), "ms");
    partition_metrics(&w.lib, sink);

    // Compile layer: lowering the fresh netlists, loading warm artifacts.
    let blocks_ms: Vec<f64> = w
        .mix
        .open
        .iter()
        .filter(|j| j.class == JobClass::Fresh)
        .map(|j| {
            let c = job_circuit(&j.request.netlist);
            let lp_of = block_of_each_gate(&c);
            timed(|| compile_blocks(&c, &lp_of, WORKERS).len()).1
        })
        .collect();
    sink.put("compile.blocks_ms", median(&blocks_ms), "ms");
    let store = ArtifactStore::new(rig.dir());
    let mut load_ms = Vec::new();
    for key in warm_keys(&w.mix.warm) {
        for _ in 0..LAYER_REPS {
            let (loaded, ms) = timed(|| store.load(key));
            attempted += 1;
            if loaded.is_none() {
                eprintln!("warm artifact {key:016x} did not load");
                failed += 1;
            }
            load_ms.push(ms);
        }
    }
    sink.put("compile.load_ms", median(&load_ms), "ms");
    service_counters(&w.mix.warm, open_tcp, rig.dir(), sink);

    // Trace layer: chunk framing of the TCP streams.
    let reassemble: Vec<f64> = open_tcp.iter().map(|r| r.reassemble_ms).collect();
    sink.put("trace.reassemble_ms", median(&reassemble), "ms");

    // Server layer: request parsing, then the same open loop in process on
    // a fresh store, timestamping each event.
    let parse_us: Vec<f64> = w
        .mix
        .open
        .iter()
        .map(|j| {
            let (parsed, ms) = timed(|| JobRequest::from_json(&j.body));
            attempted += 1;
            if parsed.is_err() {
                failed += 1;
            }
            ms * 1e3
        })
        .collect();
    sink.put("server.parse_us", median(&parse_us), "us");
    let local = Rig::start(&service::fresh_dir(w.name), &w.mix.warm);
    let in_process = |body: &str| {
        let (events, stamps) = service::submit_in_process(&local.service, body);
        (Ok(events), Some(stamps))
    };
    let open_local = service::open_loop(&w.mix.open, w.mix.rate_per_s, &in_process as &Submit<'_>);
    attempted += open_local.len() as u64;
    failed += service::verify(&w.mix.open, &open_local, oracle_texts);
    drop(local);
    let stamps: Vec<_> = open_local.iter().filter_map(|r| r.stamps).collect();
    sink.put(
        "server.accept_ms",
        median(&stamps.iter().map(|s| s.accepted).collect::<Vec<_>>()),
        "ms",
    );
    sink.put(
        "server.run_ms",
        median(&stamps.iter().map(|s| s.first_chunk - s.accepted).collect::<Vec<_>>()),
        "ms",
    );
    sink.put(
        "server.stream_ms",
        median(&stamps.iter().map(|s| s.done - s.first_chunk).collect::<Vec<_>>()),
        "ms",
    );
    let tcp_p50 = quantile(&latencies(open_tcp, |_| true), 0.5);
    let local_p50 = quantile(&latencies(&open_local, |_| true), 0.5);
    sink.put("server.http_ms", tcp_p50 - local_p50, "ms");
    sink.put("server.slot_waits", slot_waits, "count");
    let late: Vec<f64> = open_tcp.iter().map(|r| r.late_ms).collect();
    sink.put("server.gen_late_ms", quantile(&late, 0.9), "ms");
    (attempted, failed)
}
