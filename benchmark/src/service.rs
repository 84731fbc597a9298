//! The service section: the shipped service behind loopback TCP, an
//! open-loop phase at a fixed rate and a closed-loop phase of two
//! clients, every stream validated and every job shape checked against a
//! direct sequential run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parsim_core::{SequentialSimulator, SimOutcome, Simulator};
use parsim_event::VirtualTime;
use parsim_logic::Logic4;
use parsim_netlist::Circuit;
use parsim_server::http::{client, Server};
use parsim_server::{JobEvent, ServiceConfig, SimService};
use parsim_trace::{reassemble, ChunkFrame};

use crate::stats::{ms_since, timed};
use crate::workload::{job_circuit, job_stimulus, Job, JobClass};

/// Client threads (and so concurrent connections) of both phases.
pub const CLIENTS: usize = 2;

/// A service on a fresh artifact directory, listening on loopback.
pub struct Rig {
    dir: PathBuf,
    /// The service, also driven in process by the traced run.
    pub service: Arc<SimService>,
    /// Its run slots: how many jobs run at once.
    pub run_slots: usize,
    server: Option<Server>,
}

impl Rig {
    /// Starts `ServiceConfig::new` defaults on an empty `dir` and submits
    /// each warm shape once, so its artifact and prepared circuit exist
    /// before anything is timed.
    pub fn start(dir: &Path, warm: &[Job]) -> Rig {
        let _ = std::fs::remove_dir_all(dir);
        let config = ServiceConfig::new(dir);
        let run_slots = config.run_slots;
        let service = Arc::new(SimService::new(config));
        for job in warm {
            service.submit(&job.body, &mut |_| {});
        }
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
        Rig { dir: dir.to_owned(), service, run_slots, server: Some(server) }
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Submits one job over TCP and collects its whole event stream.
    pub fn submit_tcp(&self, body: &str) -> Result<Vec<JobEvent>, String> {
        let addr = self.server.as_ref().expect("server runs until drop").addr();
        client::submit_job(addr, body).map_err(|e| e.to_string())
    }

    /// A counter of the service's `/metrics` snapshot.
    pub fn metric(&self, name: &str) -> f64 {
        self.service.metrics().get(name).copied().unwrap_or(0.0)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Milliseconds from submission to each event (in-process runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    /// To `accepted`.
    pub accepted: f64,
    /// To the first chunk.
    pub first_chunk: f64,
    /// To `done`.
    pub done: f64,
}

/// One finished job, reduced to what the metrics and checks need.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Index into the phase's job list.
    pub index: usize,
    /// From the job's due time (open loop) or send time (closed loop) to
    /// its terminal event.
    pub latency_ms: f64,
    /// How late the generator sent the job.
    pub late_ms: f64,
    /// The `accepted` event's cache label.
    pub cache: String,
    /// `complete`, `truncated`, or the error.
    pub status: String,
    /// The run's committed end time.
    pub end_time: u64,
    /// The reassembled waveform dump.
    pub text: Option<String>,
    /// Chunk frames received.
    pub chunks: u64,
    /// Chunk payload bytes received.
    pub bytes: u64,
    /// Time to validate and reassemble the frames.
    pub reassemble_ms: f64,
    /// In-process event timestamps.
    pub stamps: Option<Stamps>,
}

/// Reduces one job's event stream to its record, validating and
/// reassembling its chunks.
pub fn record(index: usize, events: Result<Vec<JobEvent>, String>) -> JobRecord {
    let mut r = JobRecord { index, ..Default::default() };
    let events = match events {
        Ok(e) => e,
        Err(e) => {
            r.status = format!("transport: {e}");
            return r;
        }
    };
    let mut frames: Vec<ChunkFrame> = Vec::new();
    for e in events {
        match e {
            JobEvent::Accepted { cache, .. } => r.cache = cache,
            JobEvent::Chunk(f) => frames.push(f),
            JobEvent::Done { status, end_time, .. } => {
                r.status = status;
                r.end_time = end_time;
            }
            JobEvent::Error { code, message } => r.status = format!("error {code}: {message}"),
        }
    }
    r.chunks = frames.len() as u64;
    r.bytes = frames.iter().map(|f| f.payload.len() as u64).sum();
    let (text, ms) = timed(|| reassemble(&frames));
    r.reassemble_ms = ms;
    match text {
        Ok(t) => r.text = Some(t),
        Err(e) if r.status == "complete" || r.status == "truncated" => {
            r.status = format!("bad stream: {e}");
        }
        Err(_) => {}
    }
    r
}

/// Runs one job inside the process through `SimService::submit`, with a
/// sink that timestamps each event.
pub fn submit_in_process(service: &SimService, body: &str) -> (Vec<JobEvent>, Stamps) {
    let start = Instant::now();
    let mut stamps = Stamps::default();
    let mut events = Vec::new();
    service.submit(body, &mut |e| {
        let t = ms_since(start);
        match &e {
            JobEvent::Accepted { .. } => stamps.accepted = t,
            JobEvent::Chunk(_) if stamps.first_chunk == 0.0 => stamps.first_chunk = t,
            JobEvent::Done { .. } | JobEvent::Error { .. } => stamps.done = t,
            JobEvent::Chunk(_) => {}
        }
        events.push(e);
    });
    (events, stamps)
}

/// How a phase sends one job body.
pub type Submit<'a> = dyn Fn(&str) -> (Result<Vec<JobEvent>, String>, Option<Stamps>) + Sync + 'a;

/// Open loop: job `i` is due `i / rate` seconds after the start and is
/// sent by whichever of the [`CLIENTS`] threads is free; latency counts
/// from the due time, so a stall also delays every job queued behind it.
pub fn open_loop(jobs: &[Job], rate_per_s: f64, submit: &Submit<'_>) -> Vec<JobRecord> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out: Vec<JobRecord> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let late_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let (events, stamps) = submit(&job.body);
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        let mut r = record(i, events);
                        r.latency_ms = latency_ms;
                        r.late_ms = late_ms;
                        r.stamps = stamps;
                        mine.push(r);
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    out.sort_by_key(|r| r.index);
    out
}

/// Closed loop: each client sends its next warm job as soon as the last
/// one finishes, for `secs`. Returns the records and the phase's wall
/// seconds.
pub fn closed_loop(warm: &[Job], secs: f64, submit: &Submit<'_>) -> (Vec<JobRecord>, f64) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let mut out: Vec<JobRecord> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut k = c;
                    while Instant::now() < stop {
                        let i = k % warm.len();
                        let sent = Instant::now();
                        let (events, stamps) = submit(&warm[i].body);
                        let mut r = record(i, events);
                        r.latency_ms = ms_since(sent);
                        r.stamps = stamps;
                        mine.push(r);
                        k += CLIENTS;
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    out.sort_by_key(|r| r.index);
    (out, wall_s)
}

/// The waveform dump a direct run streams, rendered exactly as the
/// service renders it.
fn render(circuit: &Circuit, outcome: &SimOutcome<Logic4>) -> String {
    let mut text = String::from("net,name,time,value\n");
    for (id, w) in &outcome.waveforms {
        let name = circuit.gate(*id).name().unwrap_or("");
        for &(t, v) in w.transitions() {
            let _ = writeln!(text, "{},{name},{},{v}", id.index(), t.ticks());
        }
    }
    text
}

/// Checks every record of a phase: a terminal status matching the job's
/// class, a valid stream, and a dump equal to a direct sequential run of
/// the same job (computed once per distinct job shape and end time).
/// Returns the number of failed jobs.
pub fn verify(
    jobs: &[Job],
    records: &[JobRecord],
    oracle: &mut BTreeMap<(String, u64), String>,
) -> u64 {
    let mut failed = 0;
    for r in records {
        let job = &jobs[r.index];
        let want_status = if job.class == JobClass::Truncated { "truncated" } else { "complete" };
        let Some(text) = r.text.as_ref().filter(|_| r.status == want_status) else {
            eprintln!("service job {} ({:?}) ended `{}`", r.index, job.class, r.status);
            failed += 1;
            continue;
        };
        let expected = oracle.entry((job.shape_key(), r.end_time)).or_insert_with(|| {
            let circuit = job_circuit(&job.request.netlist);
            let until = VirtualTime::new(r.end_time);
            let outcome = SequentialSimulator::<Logic4>::new().run(
                &circuit,
                &job_stimulus(&job.request),
                until,
            );
            render(&circuit, &outcome)
        });
        if text != expected {
            eprintln!(
                "service job {} ({:?}) streamed a dump the oracle disagrees with",
                r.index, job.class
            );
            failed += 1;
        }
    }
    failed
}

/// A fresh artifact directory for one rig, inside the working directory:
/// no other rig, in this process or another, gets the same one.
pub fn fresh_dir(workload: &str) -> PathBuf {
    static RIGS: AtomicUsize = AtomicUsize::new(0);
    let n = RIGS.fetch_add(1, Ordering::SeqCst);
    PathBuf::from(".bench_work").join(format!("{workload}-{}-{n}", std::process::id()))
}
