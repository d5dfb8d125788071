//! The daemon: TCP accept loop, per-client request handling, the
//! fair-share worker pool, and crash recovery from the spool.
//!
//! # Robustness contract
//!
//! * **Per-job panic isolation.** Every engine slice runs under the
//!   crate's one sanctioned `catch_unwind` boundary (this file). A
//!   panicking slice fails *its* job with a typed `error` outcome and
//!   increments the daemon's `panics_isolated` counter; every other
//!   job, the artifact store, and the accept loop keep going. All
//!   mutexes are locked through poison-riding helpers for the same
//!   reason.
//! * **Durable progress.** A job's spool record is rewritten (temp
//!   file, fsync, rename and a directory fsync; see [`crate::spool`])
//!   at admission, at every slice boundary with the engine checkpoint
//!   embedded, and at its terminal transition, which drops the
//!   checkpoint (a finished job never resumes). No spool write runs
//!   under the job-table lock. `submit` writes the admission record on
//!   the client's thread before the job enters the ring. Every later
//!   record is snapshotted under the lock and queued, with the events
//!   it releases, to one spool-writer thread that writes records in
//!   FIFO order. A preempted job re-enters the ring at once: its next
//!   slice runs while its previous checkpoint is encoded, written and
//!   read back. At most one record per job is queued or being written:
//!   a slice that ends (or a `cancel` that arrives) before the job's
//!   previous record is durable waits for it, so each job's records
//!   land on disk in order, each carries the repairs of the ones
//!   before it, and the queue never holds more records than jobs.
//!
//!   Three kinds of reply wait for durability: the submit
//!   acknowledgement (the admission record), the cancel reply (the
//!   terminal record of a job that was not on a worker), and every
//!   subscription event, which the writer sends only once the record
//!   it reflects is on disk — the verdict only after the terminal
//!   record. `status` reads the job table, so it may run one slice
//!   ahead of the spool. A `kill -9` loses at most the slice in flight
//!   plus the one slice whose record was still queued; restart resumes
//!   from the last durable checkpoint and — by the engine's lossless
//!   checkpoint/resume contract — reaches the identical solution set.
//!   [`Server::join`] drains the writer's queue before it returns, so
//!   a graceful stop still spools every slice that finished.
//! * **Typed backpressure.** Admission past `max_queue` pending jobs is
//!   refused with a `queue-full` rejection carrying `retry_after_ms`;
//!   nothing is silently dropped.
//!
//! # Fair-share scheduling
//!
//! Workers pull from one [`DrrQueue`]: each pop grants a slice budget
//! of decision-tree nodes (banked deficit + one quantum), the engine
//! runs with `max_total_nodes` set to that budget, and a preempted job
//! re-enters the ring with its unspent credit. Giant jobs and floods of
//! small jobs therefore interleave instead of starving each other.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use incdx_core::json::Json;
use incdx_core::{
    json_fields, json_obj, CancelToken, ChaosConfig, ChaosState, Checkpoint, DegradationEvent,
    Rectifier, RectifyResult, Verdict,
};

use crate::intern::{Intern, Interned};
use crate::job::{solution_fingerprint, JobOutcome, JobSpec, JobState};
use crate::proto::{reject, reject_queue_full, RejectCode, Request};
use crate::sched::DrrQueue;
use crate::spool::{Spool, SpoolRecord};

/// Daemon configuration (see `incdx-serve --help` for the flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (reported by
    /// [`Server::port`] and the ready line).
    pub addr: String,
    /// Spool directory for durable job records.
    pub spool_dir: PathBuf,
    /// Worker threads running engine slices.
    pub workers: usize,
    /// DRR quantum: decision-tree nodes credited per scheduling round.
    pub quantum: u64,
    /// Admission cap: pending (queued + waiting) jobs beyond this are
    /// rejected with typed backpressure.
    pub max_queue: usize,
    /// Chaos injection for the spool's checkpoint writes (tests only).
    pub chaos: Option<ChaosConfig>,
    /// Requeue interrupted jobs recovered from the spool immediately
    /// (`false` leaves them parked until a `resume` request).
    pub auto_resume: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: PathBuf::from("incdx-spool"),
            workers: 2,
            quantum: 400,
            max_queue: 64,
            chaos: None,
            auto_resume: true,
        }
    }
}

/// One job's full daemon-side state.
struct Job {
    id: u64,
    tenant: String,
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    /// Decision-tree nodes spent across all slices so far.
    nodes: u64,
    /// Slices executed (including the failed/final one).
    slices: u64,
    /// Base-netlist fingerprint once the workload has been built (0
    /// before the first slice; recovered records carry the pinned one).
    fingerprint: u64,
    /// Latest engine checkpoint (present between slices; dropped at
    /// the terminal transition).
    checkpoint: Option<Checkpoint>,
    /// Terminal summary, once terminal.
    outcome: Option<JobOutcome>,
    /// Spool write-backs that needed the corruption-repair path.
    repairs: u64,
    /// Absolute deadline derived from the spec's `deadline_ms` at
    /// admission (re-derived on crash recovery).
    deadline: Option<Instant>,
    /// Live `subscribe` streams; dropped after the terminal event.
    subscribers: Vec<mpsc::Sender<Event>>,
    /// A record of this job is queued for the spool writer or being
    /// written. A terminal job without one has had its verdict sent.
    spool_queued: bool,
}

/// One event line queued to a subscriber; `terminal` closes the stream.
#[derive(Clone)]
struct Event {
    line: String,
    terminal: bool,
}

/// How a worker's slice ended, before the job table is updated.
enum SliceEnd {
    /// The spec deterministically produces no failing behaviour.
    NoFailing,
    /// The engine ran (any verdict, with or without a checkpoint).
    Ran {
        /// The slice's result.
        result: Box<RectifyResult>,
        /// Base-netlist fingerprint from the interned workload.
        fingerprint: u64,
    },
    /// The job's wall-clock deadline elapsed before the slice started.
    JobDeadline,
    /// The rebuilt workload's netlist fingerprint disagrees with the
    /// one pinned in the spool record — the record describes a
    /// different circuit than the checkpoint it carries (bit rot, a
    /// generator change, or a hand-edited spool). The record is
    /// quarantined, never resumed.
    FingerprintMismatch {
        /// Fingerprint pinned at admission.
        expected: u64,
        /// Fingerprint of the freshly rebuilt workload.
        got: u64,
        /// The quarantined record's file name.
        quarantined: String,
    },
    /// Workload construction or engine setup failed.
    Failed(String),
    /// The slice panicked; the payload was caught at the sanctioned
    /// boundary.
    Panicked(String),
}

/// Everything a worker needs to run one slice without holding the lock.
struct SlicePlan {
    id: u64,
    budget: u64,
    spec: JobSpec,
    checkpoint: Option<Checkpoint>,
    cancel: CancelToken,
    label: String,
    deadline: Option<Instant>,
    /// Fingerprint pinned in the job's spool record (0 = first slice,
    /// nothing pinned yet); the resume-time recovery guard.
    fingerprint: u64,
}

/// A job record queued for the spool writer, with the events that may
/// reach subscribers only once it is durable.
struct SpoolWrite {
    record: SpoolRecord,
    events: Vec<Event>,
}

/// Mutex-guarded scheduler state: the job table and the fair-share
/// ring live under one lock so admission, preemption, and cancellation
/// see a consistent picture.
struct Inner {
    jobs: HashMap<u64, Job>,
    queue: DrrQueue,
    next_id: u64,
    /// Submits writing their admission record; each holds a queue slot.
    admitting: usize,
    /// The spool writer's FIFO, fed under this lock. `None` once
    /// [`Server::join`] has stopped the writer.
    writer: Option<mpsc::Sender<SpoolWrite>>,
}

/// `stats.spool`: what the spool writes cost, admission writes included.
#[derive(Default)]
struct SpoolStats {
    writes: AtomicU64,
    write_ns: AtomicU64,
    write_ns_max: AtomicU64,
    /// Records waiting for the writer, and the high-water mark.
    queued: AtomicU64,
    queued_max: AtomicU64,
}

/// Shared daemon state.
pub struct ServerState {
    cfg: ServeConfig,
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Signalled by the spool writer each time a record is durable.
    spooled: Condvar,
    intern: Intern,
    spool: Spool,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    panics_isolated: AtomicU64,
    checkpoint_repairs: AtomicU64,
    recovered: u64,
    quarantined: AtomicU64,
    spool_stats: SpoolStats,
}

/// A running daemon: owns the listener port and the worker, acceptor
/// and spool-writer threads. Drive it with [`Server::stop`] +
/// [`Server::join`].
pub struct Server {
    state: Arc<ServerState>,
    port: u16,
    threads: Vec<JoinHandle<()>>,
    writer: JoinHandle<()>,
}

impl Server {
    /// Binds, recovers the spool, and starts the worker pool, the spool
    /// writer and the accept loop.
    ///
    /// # Errors
    ///
    /// A description of the bind or spool failure.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let chaos = cfg.chaos.map(ChaosState::new);
        let spool = Spool::open(&cfg.spool_dir, chaos)?;
        let scan = spool.scan();
        let quarantined = scan.quarantined.len() as u64;
        let mut jobs = HashMap::new();
        let mut queue = DrrQueue::new(cfg.quantum);
        let mut next_id = 1u64;
        let mut recovered = 0u64;
        for rec in scan.records {
            next_id = next_id.max(rec.id + 1);
            let interrupted = !rec.state.terminal();
            let state = if !interrupted {
                rec.state
            } else if cfg.auto_resume {
                queue.enqueue(rec.id);
                JobState::Queued
            } else {
                JobState::Interrupted
            };
            if interrupted {
                recovered += 1;
            }
            let deadline = rec.spec.deadline_ms.and_then(millis_from_now);
            jobs.insert(
                rec.id,
                Job {
                    id: rec.id,
                    tenant: rec.tenant,
                    spec: rec.spec,
                    state,
                    cancel: CancelToken::new(),
                    nodes: rec.nodes,
                    slices: rec.slices,
                    fingerprint: rec.fingerprint,
                    checkpoint: rec.checkpoint,
                    outcome: rec.outcome,
                    repairs: rec.repairs,
                    deadline,
                    subscribers: Vec::new(),
                    spool_queued: false,
                },
            );
        }
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?
            .port();
        let workers = cfg.workers.max(1);
        let (writer_tx, writer_rx) = mpsc::channel();
        let state = Arc::new(ServerState {
            cfg,
            inner: Mutex::new(Inner {
                jobs,
                queue,
                next_id,
                admitting: 0,
                writer: Some(writer_tx),
            }),
            cond: Condvar::new(),
            spooled: Condvar::new(),
            intern: Intern::new(),
            spool,
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            panics_isolated: AtomicU64::new(0),
            checkpoint_repairs: AtomicU64::new(0),
            recovered,
            quarantined: AtomicU64::new(quarantined),
            spool_stats: SpoolStats::default(),
        });
        let writer = {
            let st = Arc::clone(&state);
            std::thread::spawn(move || spool_writer(&st, writer_rx))
        };
        let mut threads = Vec::new();
        for _ in 0..workers {
            let st = Arc::clone(&state);
            threads.push(std::thread::spawn(move || worker_loop(&st)));
        }
        {
            let st = Arc::clone(&state);
            threads.push(std::thread::spawn(move || accept_loop(&st, &listener)));
        }
        Ok(Server {
            state,
            port,
            threads,
            writer,
        })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Non-terminal jobs recovered from the spool at startup.
    pub fn recovered(&self) -> u64 {
        self.state.recovered
    }

    /// Spool files quarantined: unreadable ones at startup, plus
    /// records failing the fingerprint guard at resume time.
    pub fn quarantined(&self) -> u64 {
        self.state.quarantined.load(Ordering::Relaxed)
    }

    /// Requests a graceful stop: in-flight slices finish and spool
    /// their checkpoints, then every thread exits.
    pub fn stop(&self) {
        self.state.begin_shutdown(self.port);
    }

    /// Waits for every daemon thread to exit (call [`Server::stop`] or
    /// send a `shutdown` request first). The spool writer stops last,
    /// once it has written every record the finished slices queued.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        // Dropping the only sender ends the writer's loop after it has
        // drained the queue.
        lock(&self.state.inner).writer = None;
        let _ = self.writer.join();
    }
}

impl ServerState {
    fn begin_shutdown(&self, port: u16) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cond.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", port));
    }

    /// [`Spool::write`], timed into the `stats.spool` counters.
    fn write_record(&self, rec: &SpoolRecord) -> Result<Option<DegradationEvent>, String> {
        let started = Instant::now();
        let written = self.spool.write(rec);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stats = &self.spool_stats;
        stats.writes.fetch_add(1, Ordering::Relaxed);
        stats.write_ns.fetch_add(ns, Ordering::Relaxed);
        stats.write_ns_max.fetch_max(ns, Ordering::Relaxed);
        written
    }
}

/// Locks a mutex, riding through poisoning — a panicking slice must
/// never take the scheduler down (the job table stays coherent because
/// every transition completes under the lock).
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Condvar wait with the same poison-riding policy.
fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cond.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn millis_from_now(ms: u64) -> Option<Instant> {
    Instant::now().checked_add(Duration::from_millis(ms))
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let plan = {
            let mut inner = lock(&state.inner);
            'pick: loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                while let Some((id, budget)) = inner.queue.pop() {
                    let Some(job) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    if job.state.terminal() {
                        continue;
                    }
                    job.state = JobState::Running;
                    break 'pick SlicePlan {
                        id,
                        budget,
                        spec: job.spec.clone(),
                        checkpoint: job.checkpoint.clone(),
                        cancel: job.cancel.clone(),
                        label: format!("serve/job-{id}"),
                        deadline: job.deadline,
                        fingerprint: job.fingerprint,
                    };
                }
                inner = wait(&state.cond, inner);
            }
        };
        let id = plan.id;
        let budget = plan.budget;
        let end = if plan.deadline.is_some_and(|d| Instant::now() >= d) {
            SliceEnd::JobDeadline
        } else {
            run_isolated(|| run_slice(state, &plan))
        };
        apply_slice(state, id, budget, end);
    }
}

/// The crate's one sanctioned panic-isolation boundary: runs `slice`
/// under `catch_unwind`, converting a panic into
/// [`SliceEnd::Panicked`] so the job fails alone with a typed outcome
/// while every other job, the artifact store, and the accept loop keep
/// going.
fn run_isolated(slice: impl FnOnce() -> Result<SliceEnd, String>) -> SliceEnd {
    match catch_unwind(AssertUnwindSafe(slice)) {
        Ok(Ok(end)) => end,
        Ok(Err(msg)) => SliceEnd::Failed(msg),
        Err(payload) => SliceEnd::Panicked(panic_text(payload)),
    }
}

/// Runs one engine slice against the interned workload. Never touches
/// the scheduler lock.
fn run_slice(state: &ServerState, plan: &SlicePlan) -> Result<SliceEnd, String> {
    let workload = match state.intern.workload(&plan.spec)? {
        Interned::Ready(w) => w,
        Interned::NoFailingBehaviour => return Ok(SliceEnd::NoFailing),
    };
    // Recovery guard: a spool record that parses fine can still pin a
    // checkpoint against a circuit the spec no longer rebuilds. The
    // stale record (with its untrustworthy checkpoint) is moved aside as
    // evidence. Only a record recovered from disk pins a fingerprint
    // before the job's first slice here, so no record of this job can
    // be queued behind the rename.
    if plan.fingerprint != 0 && plan.fingerprint != workload.fingerprint {
        let quarantined = state.spool.quarantine(plan.id);
        state.quarantined.fetch_add(1, Ordering::Relaxed);
        return Ok(SliceEnd::FingerprintMismatch {
            expected: plan.fingerprint,
            got: workload.fingerprint,
            quarantined,
        });
    }
    let mut config = plan.spec.rectify_config();
    config.limits.max_total_nodes = Some(plan.budget);
    if let Some(deadline) = plan.deadline {
        config.limits.deadline = Some(deadline.saturating_duration_since(Instant::now()));
    }
    let mut engine = Rectifier::new(
        workload.base.clone(),
        workload.pi.clone(),
        workload.resp.clone(),
        config,
    )
    .map_err(|e| e.to_string())?;
    if let Some(cones) = state.intern.cones(workload.fingerprint) {
        engine = engine.with_base_cones(cones).map_err(|e| e.to_string())?;
    }
    engine.set_cancel_token(plan.cancel.clone());
    engine.set_checkpoint_meta(&plan.label, plan.spec.seed);
    let result = match &plan.checkpoint {
        Some(ckpt) => engine.resume(ckpt).map_err(|e| e.to_string())?,
        None => engine.run(),
    };
    state
        .intern
        .deposit_cones(workload.fingerprint, engine.base_cones().clone());
    Ok(SliceEnd::Ran {
        result: Box::new(result),
        fingerprint: workload.fingerprint,
    })
}

/// Applies a finished slice to the job table: finalize or requeue the
/// job, and queue its new record with the slice's events for the spool
/// writer. A preempted job re-enters the ring before its record is
/// written; a slice that ended before the job's previous record is
/// durable first waits for it.
fn apply_slice(state: &ServerState, id: u64, budget: u64, end: SliceEnd) {
    let mut inner = wait_spooled(state, lock(&state.inner), id);
    let Some(job) = inner.jobs.get_mut(&id) else {
        return;
    };
    job.slices += 1;
    let mut events: Vec<Event> = Vec::new();
    let mut terminal: Option<(JobState, JobOutcome)> = None;
    let mut requeue_unspent: Option<u64> = None;
    match end {
        SliceEnd::NoFailing => {
            terminal = Some((
                JobState::Done,
                JobOutcome {
                    verdict: "no-failing".to_string(),
                    solutions_fp: solution_fingerprint(&[]),
                    detail: "spec produces no failing behaviour".to_string(),
                    ..JobOutcome::default()
                },
            ));
        }
        SliceEnd::JobDeadline => {
            terminal = Some((
                JobState::Done,
                JobOutcome {
                    verdict: "deadline-exceeded".to_string(),
                    solutions_fp: solution_fingerprint(&[]),
                    detail: "job deadline elapsed before the slice started".to_string(),
                    ..JobOutcome::default()
                },
            ));
        }
        SliceEnd::FingerprintMismatch {
            expected,
            got,
            quarantined,
        } => {
            // The job fails with a typed outcome and a fresh terminal
            // record.
            terminal = Some((
                JobState::Failed,
                JobOutcome {
                    verdict: "error".to_string(),
                    solutions_fp: solution_fingerprint(&[]),
                    detail: format!(
                        "netlist fingerprint mismatch on resume: record pins {expected:#018x}, \
                         rebuilt workload is {got:#018x}; record quarantined as {quarantined}"
                    ),
                    ..JobOutcome::default()
                },
            ));
        }
        SliceEnd::Failed(msg) => {
            terminal = Some((
                JobState::Failed,
                JobOutcome {
                    verdict: "error".to_string(),
                    solutions_fp: solution_fingerprint(&[]),
                    detail: msg,
                    ..JobOutcome::default()
                },
            ));
        }
        SliceEnd::Panicked(msg) => {
            state.panics_isolated.fetch_add(1, Ordering::Relaxed);
            terminal = Some((
                JobState::Failed,
                JobOutcome {
                    verdict: "error".to_string(),
                    solutions_fp: solution_fingerprint(&[]),
                    detail: format!("slice panic isolated: {msg}"),
                    ..JobOutcome::default()
                },
            ));
        }
        SliceEnd::Ran {
            result,
            fingerprint,
        } => {
            let spent = result.stats.nodes as u64;
            job.nodes += spent;
            job.fingerprint = fingerprint;
            for d in &result.stats.degradations {
                events.push(degradation(id, d.kind.tag(), &d.detail));
            }
            let outcome = JobOutcome {
                verdict: result.verdict.tag().to_string(),
                solutions: result.solutions.len(),
                sites: result.distinct_sites(),
                solutions_fp: solution_fingerprint(&result.solutions),
                detail: String::new(),
            };
            let cap_hit = job.spec.max_nodes.is_some_and(|m| job.nodes >= m);
            match (&result.checkpoint, &result.verdict) {
                (Some(_), Verdict::Cancelled) => {
                    terminal = Some((JobState::Cancelled, outcome));
                }
                (Some(_), Verdict::DeadlineExceeded) => {
                    terminal = Some((JobState::Done, outcome));
                }
                (Some(ckpt), _) if !cap_hit => {
                    job.checkpoint = Some(ckpt.clone());
                    job.state = JobState::Waiting;
                    requeue_unspent = Some(budget.saturating_sub(spent));
                    events.push(Event {
                        line: json_obj! {
                            "event": "progress", "job": id, "state": "waiting",
                            "nodes": job.nodes, "slices": job.slices,
                        }
                        .to_string(),
                        terminal: false,
                    });
                }
                (Some(_), _) => {
                    // The job-level node cap landed mid-search: report
                    // the budget verdict even if the slice stopped for
                    // its per-slice reason.
                    let mut outcome = outcome;
                    outcome.verdict = Verdict::BudgetExhausted.tag().to_string();
                    terminal = Some((JobState::Done, outcome));
                }
                (None, _) => {
                    terminal = Some((JobState::Done, outcome));
                }
            }
        }
    }
    if let Some((final_state, outcome)) = terminal {
        job.state = final_state;
        job.outcome = Some(outcome);
        // A finished job never resumes: drop its last checkpoint so the
        // job table and the terminal spool record stop carrying it.
        job.checkpoint = None;
        inner.queue.finish(id);
        state.completed.fetch_add(1, Ordering::Relaxed);
    }
    queue_record(state, &mut inner, id, events);
    if let Some(unspent) = requeue_unspent {
        inner.queue.requeue(id, unspent);
        drop(inner);
        state.cond.notify_one();
    }
}

/// Snapshots `id`'s record and queues it, with the `events` it releases,
/// for the spool writer. Call it under the job-table lock, once
/// [`wait_spooled`] has seen the job's previous record durable.
fn queue_record(state: &ServerState, inner: &mut Inner, id: u64, events: Vec<Event>) {
    let (Some(job), Some(writer)) = (inner.jobs.get_mut(&id), &inner.writer) else {
        return;
    };
    // Counted before the send: the writer takes the record off the
    // count as soon as it receives it.
    let stats = &state.spool_stats;
    let depth = stats.queued.fetch_add(1, Ordering::Relaxed) + 1;
    stats.queued_max.fetch_max(depth, Ordering::Relaxed);
    let record = record_of(job);
    job.spool_queued = writer.send(SpoolWrite { record, events }).is_ok();
}

/// Waits, with the lock released, until no record of job `id` is queued
/// for the spool writer or being written.
fn wait_spooled<'a>(
    state: &ServerState,
    mut inner: MutexGuard<'a, Inner>,
    id: u64,
) -> MutexGuard<'a, Inner> {
    while inner.jobs.get(&id).is_some_and(|job| job.spool_queued) {
        inner = wait(&state.spooled, inner);
    }
    inner
}

/// The spool writer: writes each queued record in FIFO order outside
/// the job-table lock, then takes the lock to fold any repair
/// degradation into the job and daemon counters and to send the
/// record's events — plus the verdict, once the terminal record is
/// durable — to subscribers. Returns when [`Server::join`] has dropped
/// the queue's sender and the queue is empty.
fn spool_writer(state: &ServerState, queue: mpsc::Receiver<SpoolWrite>) {
    for SpoolWrite { record, mut events } in queue {
        state.spool_stats.queued.fetch_sub(1, Ordering::Relaxed);
        let written = state.write_record(&record);
        let mut inner = lock(&state.inner);
        if let Some(job) = inner.jobs.get_mut(&record.id) {
            job.spool_queued = false;
            match written {
                Ok(Some(repair)) => {
                    job.repairs += 1;
                    state.checkpoint_repairs.fetch_add(1, Ordering::Relaxed);
                    events.push(degradation(job.id, repair.kind.tag(), &repair.detail));
                }
                Ok(None) => {}
                Err(msg) => events.push(degradation(job.id, "checkpoint-io", &msg)),
            }
            let terminal = record.state.terminal();
            if terminal {
                events.push(Event {
                    line: verdict_line(job),
                    terminal: true,
                });
            }
            let mut subscribers = std::mem::take(&mut job.subscribers);
            for event in &events {
                subscribers.retain(|tx| tx.send(event.clone()).is_ok());
            }
            if !terminal {
                job.subscribers = subscribers;
            }
        }
        drop(inner);
        state.spooled.notify_all();
    }
}

fn degradation(id: u64, kind: &str, detail: &str) -> Event {
    Event {
        line: json_obj! { "event": "degradation", "job": id, "kind": kind, "detail": detail }
            .to_string(),
        terminal: false,
    }
}

/// The terminal `verdict` event line for a finished job.
fn verdict_line(job: &Job) -> String {
    let outcome = job.outcome.clone().unwrap_or_default();
    json_obj! {
        "event": "verdict", "job": job.id, "state": job.state.tag(), "verdict": outcome.verdict,
        "solutions": outcome.solutions, "sites": outcome.sites,
        "solutions_fp": outcome.solutions_fp, "nodes": job.nodes, "slices": job.slices,
        "repairs": job.repairs, "detail": outcome.detail,
    }
    .to_string()
}

/// An `{"ok":true,...}` reply carrying `fields` after the flag.
fn ok<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    Json::obj(json_fields! { "ok": true }.into_iter().chain(fields)).to_string()
}

fn record_of(job: &Job) -> SpoolRecord {
    SpoolRecord {
        id: job.id,
        tenant: job.tenant.clone(),
        spec: job.spec.clone(),
        state: job.state.clone(),
        nodes: job.nodes,
        slices: job.slices,
        fingerprint: job.fingerprint,
        checkpoint: job.checkpoint.clone(),
        outcome: job.outcome.clone(),
        repairs: job.repairs,
    }
}

// ---------------------------------------------------------------------
// Accept loop and request handling
// ---------------------------------------------------------------------

fn accept_loop(state: &Arc<ServerState>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let stream = accepted(stream);
                let st = Arc::clone(state);
                std::thread::spawn(move || handle_client(&st, stream));
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Readies an accepted client stream. Replies and events are short
/// lines, and one often follows another that the client has not yet
/// acknowledged (a job's `verdict` behind its `subscribed` reply).
/// Nagle's algorithm would hold such a line back until the client's
/// delayed ACK, for up to 40 ms; `TCP_NODELAY` sends every line at once.
fn accepted(stream: TcpStream) -> TcpStream {
    // Best effort: a stream that refuses the option still serves.
    let _ = stream.set_nodelay(true);
    stream
}

fn handle_client(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reply = match Request::parse(trimmed) {
            Err(detail) => reject(RejectCode::BadRequest, &detail),
            Ok(Request::Submit { tenant, spec }) => submit(state, tenant, spec),
            Ok(Request::Status { job }) => status(state, job),
            Ok(Request::Cancel { job }) => cancel(state, job),
            Ok(Request::Resume { job }) => resume(state, job),
            Ok(Request::Stats) => stats(state),
            Ok(Request::Subscribe { job }) => {
                subscribe(state, job, &mut write_half);
                continue;
            }
            Ok(Request::Shutdown) => {
                let bye = ok(json_fields! { "shutdown": true });
                let _ = write_half.write_all(format!("{bye}\n").as_bytes());
                let _ = write_half.flush();
                let port = match write_half.local_addr() {
                    Ok(addr) => addr.port(),
                    Err(_) => 0,
                };
                state.begin_shutdown(port);
                return;
            }
        };
        if write_half
            .write_all(format!("{reply}\n").as_bytes())
            .is_err()
        {
            return;
        }
        let _ = write_half.flush();
    }
}

fn submit(state: &ServerState, tenant: String, spec: JobSpec) -> String {
    let id = {
        let mut inner = lock(&state.inner);
        // A submit still writing its admission record holds a slot, so
        // the cap holds however many clients submit at once.
        let pending = inner.queue.len() + inner.admitting;
        if pending >= state.cfg.max_queue {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            // Depth-proportional hint: deeper queue, longer wait.
            let retry = ((pending as u64).saturating_mul(25)).clamp(50, 5000);
            return reject_queue_full(pending, retry);
        }
        inner.admitting += 1;
        inner.next_id += 1;
        inner.next_id - 1
    };
    let deadline = spec.deadline_ms.and_then(millis_from_now);
    let mut job = Job {
        id,
        tenant,
        spec,
        state: JobState::Queued,
        cancel: CancelToken::new(),
        nodes: 0,
        slices: 0,
        fingerprint: 0,
        checkpoint: None,
        outcome: None,
        repairs: 0,
        deadline,
        subscribers: Vec::new(),
        spool_queued: false,
    };
    // Spool before admitting to the ring, outside the lock: a crash
    // immediately after this write recovers the job; a crash
    // immediately before loses a job the client never saw
    // acknowledged. No other record of the job exists yet, so this
    // write cannot overtake one.
    let written = state.write_record(&record_of(&job));
    let mut inner = lock(&state.inner);
    inner.admitting -= 1;
    match written {
        Ok(Some(_)) => {
            job.repairs += 1;
            state.checkpoint_repairs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(None) => {}
        Err(msg) => {
            return reject(
                RejectCode::BadRequest,
                &format!("spool write failed: {msg}"),
            );
        }
    }
    inner.jobs.insert(id, job);
    inner.queue.enqueue(id);
    state.submitted.fetch_add(1, Ordering::Relaxed);
    drop(inner);
    state.cond.notify_one();
    ok(json_fields! { "job": id })
}

fn status(state: &ServerState, id: u64) -> String {
    let inner = lock(&state.inner);
    let Some(job) = inner.jobs.get(&id) else {
        return reject(RejectCode::UnknownJob, &format!("no job {id}"));
    };
    let fields = json_fields! {
        "job": job.id, "tenant": &job.tenant, "state": job.state.tag(), "nodes": job.nodes,
        "slices": job.slices, "repairs": job.repairs, "fingerprint": job.fingerprint,
    };
    ok(fields
        .into_iter()
        .chain(job.outcome.iter().flat_map(JobOutcome::fields)))
}

fn cancel(state: &ServerState, id: u64) -> String {
    let mut inner = lock(&state.inner);
    let Some(job) = inner.jobs.get(&id) else {
        return reject(RejectCode::UnknownJob, &format!("no job {id}"));
    };
    job.cancel.cancel();
    if not_on_a_worker(&job.state) {
        // Off the ring, so no worker picks the job up while its last
        // queued record is written.
        inner.queue.finish(id);
        inner = wait_spooled(state, inner, id);
    }
    if inner.writer.is_none() {
        return reject(RejectCode::BadState, "the daemon is shutting down");
    }
    let Some(job) = inner.jobs.get_mut(&id) else {
        return reject(RejectCode::UnknownJob, &format!("no job {id}"));
    };
    // Running: the engine observes the token at its next poll and the
    // slice finalizes the job; terminal states are a no-op.
    if not_on_a_worker(&job.state) {
        // Finalize, dropping any checkpoint a waiting or interrupted job
        // still holds.
        job.state = JobState::Cancelled;
        job.checkpoint = None;
        job.outcome = Some(JobOutcome {
            verdict: "cancelled".to_string(),
            solutions_fp: solution_fingerprint(&[]),
            detail: "cancelled before completion".to_string(),
            ..JobOutcome::default()
        });
        state.completed.fetch_add(1, Ordering::Relaxed);
        queue_record(state, &mut inner, id, Vec::new());
        // Reply once the terminal record is durable.
        inner = wait_spooled(state, inner, id);
    }
    let tag = inner.jobs.get(&id).map_or("cancelled", |j| j.state.tag());
    ok(json_fields! { "job": id, "state": tag })
}

/// A live job that no worker is running.
fn not_on_a_worker(state: &JobState) -> bool {
    matches!(
        state,
        JobState::Queued | JobState::Waiting | JobState::Interrupted
    )
}

fn resume(state: &ServerState, id: u64) -> String {
    let mut inner = lock(&state.inner);
    let Some(job) = inner.jobs.get_mut(&id) else {
        return reject(RejectCode::UnknownJob, &format!("no job {id}"));
    };
    if job.state != JobState::Interrupted {
        return reject(
            RejectCode::BadState,
            &format!("job {id} is {}, not interrupted", job.state.tag()),
        );
    }
    job.state = JobState::Queued;
    inner.queue.enqueue(id);
    drop(inner);
    state.cond.notify_one();
    ok(json_fields! { "job": id, "state": "queued" })
}

fn stats(state: &ServerState) -> String {
    let inner = lock(&state.inner);
    let mut counts = [0usize; 7];
    for job in inner.jobs.values() {
        let slot = match job.state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Waiting => 2,
            JobState::Interrupted => 3,
            JobState::Done => 4,
            JobState::Cancelled => 5,
            JobState::Failed => 6,
        };
        counts[slot] += 1;
    }
    let depth = inner.queue.len();
    let total = inner.jobs.len();
    drop(inner);
    let intern = state.intern.stats();
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let spool = &state.spool_stats;
    ok(json_fields! {
        "queue_depth": depth,
        "jobs": json_obj! {
            "total": total, "queued": counts[0], "running": counts[1], "waiting": counts[2],
            "interrupted": counts[3], "done": counts[4], "cancelled": counts[5],
            "failed": counts[6],
        },
        "intern": json_obj! {
            "hits": intern.hits, "misses": intern.misses, "cone_hits": intern.cone_hits,
            "hit_rate": intern.hit_rate(),
        },
        "submitted": load(&state.submitted), "completed": load(&state.completed),
        "rejected": load(&state.rejected), "panics_isolated": load(&state.panics_isolated),
        "checkpoint_repairs": load(&state.checkpoint_repairs), "recovered": state.recovered,
        "quarantined": load(&state.quarantined),
        "spool": json_obj! {
            "writes": load(&spool.writes), "write_ms": load(&spool.write_ns) as f64 / 1e6,
            "write_ms_max": load(&spool.write_ns_max) as f64 / 1e6,
            "queued_max": load(&spool.queued_max),
        },
    })
}

/// Acknowledges, then streams the job's events until its terminal
/// verdict. A job whose terminal record is durable gets its verdict
/// line immediately; one whose terminal record is still queued gets it
/// from the spool writer, like every other event.
fn subscribe(state: &ServerState, id: u64, out: &mut TcpStream) {
    let rx = {
        let mut inner = lock(&state.inner);
        let Some(job) = inner.jobs.get_mut(&id) else {
            let _ = out.write_all(
                format!(
                    "{}\n",
                    reject(RejectCode::UnknownJob, &format!("no job {id}"))
                )
                .as_bytes(),
            );
            return;
        };
        if job.state.terminal() && !job.spool_queued {
            let line = verdict_line(job);
            let _ = out.write_all(format!("{}\n{line}\n", subscribed(id)).as_bytes());
            let _ = out.flush();
            return;
        }
        let (tx, rx) = mpsc::channel();
        job.subscribers.push(tx);
        rx
    };
    if out
        .write_all(format!("{}\n", subscribed(id)).as_bytes())
        .is_err()
    {
        return;
    }
    let _ = out.flush();
    for event in rx {
        if out
            .write_all(format!("{}\n", event.line).as_bytes())
            .is_err()
        {
            return;
        }
        let _ = out.flush();
        if event.terminal {
            return;
        }
    }
}

fn subscribed(id: u64) -> String {
    ok(json_fields! { "job": id, "subscribed": true })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_isolation_boundary_converts_panics_to_typed_ends() {
        match run_isolated(|| panic!("slice blew up")) {
            SliceEnd::Panicked(msg) => assert_eq!(msg, "slice blew up"),
            _ => panic!("a panic must surface as SliceEnd::Panicked"),
        }
        match run_isolated(|| Err("no such circuit".to_string())) {
            SliceEnd::Failed(msg) => assert_eq!(msg, "no such circuit"),
            _ => panic!("an error must surface as SliceEnd::Failed"),
        }
        match run_isolated(|| Ok(SliceEnd::NoFailing)) {
            SliceEnd::NoFailing => {}
            _ => panic!("a clean slice must pass through"),
        }
    }

    #[test]
    fn accepted_streams_send_without_nagle_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _client = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect over loopback");
        let (stream, _) = listener.accept().expect("accept");
        assert_eq!(accepted(stream).nodelay().ok(), Some(true));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.quantum >= 1);
        assert!(cfg.max_queue >= 1);
        assert!(cfg.auto_resume);
    }
}
