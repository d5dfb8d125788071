//! Work-stealing frontier dispatcher: parallelism over the search tree
//! itself.
//!
//! The [`Parallel`](crate::Parallel) evaluator fans candidates of *one*
//! node over workers, so a single slow node serializes a whole level.
//! This module parallelizes across nodes instead: a pool of workers
//! pops **speculative node evaluations** off a shared priority
//! [`Frontier`] and runs the full prepare → diagnose → rank → screen
//! pipeline for each, every worker owning a private
//! [`Evaluator`](crate::Evaluator) stack.
//!
//! # Determinism by speculation
//!
//! The serial traversal loop in [`Rectifier`](crate::Rectifier) remains
//! the *sole* source of truth: it alone mutates the decision tree, the
//! visited set, the limits bookkeeping, and the solution list, in
//! exactly the order the configured [`Traversal`] dictates. The
//! dispatcher is a lookahead cache in front of it. Once per scheduled
//! plan item the master *primes* the frontier with the tuples it
//! predicts it will evaluate next; workers race to evaluate them; when
//! the master actually reaches a tuple it *takes* the finished
//! speculation (a **hit**) or evaluates inline as before (a **miss**).
//! Because the candidate pipeline is a pure function of
//! `(netlist, vectors, response, corrections, level, config)`, a hit is
//! bit-identical to the inline evaluation it replaces — so the solution
//! set, the node/round counts, and every pipeline counter are identical
//! to the serial run for *any* worker count and *any* interleaving.
//! Only the work-attribution counters that depend on cache state
//! ([`RectifyStats::words_simulated`](crate::RectifyStats::words_simulated)
//! and friends) may differ between a hit and a miss.
//!
//! Mispredicted speculations are retracted when the master's visited
//! set catches up ([`DispatchTelemetry::tasks_wasted`]). Nothing
//! speculative is ever checkpointed: the decision tree *is* the durable
//! frontier, so checkpoint capture and resume are untouched by this
//! module (see `ARCHITECTURE.md`, "Dispatcher").
//!
//! # Resilience
//!
//! Workers poll the shared [`CancelToken`] (the non-counting
//! [`CancelToken::is_cancelled`], so the deterministic master poll
//! count is never perturbed) and exit on shutdown or cancellation. A
//! worker panic — including the chaos harness's injected steal-site
//! panics ([`ChaosState::maybe_steal_panic`]) — is caught at this
//! module's sanctioned `catch_unwind` boundary, the task is marked
//! failed (the master simply evaluates it inline: lossless), the
//! worker rebuilds its evaluator stack fresh, and the recovery is
//! counted toward the run's
//! [`ParallelTelemetry::panics_recovered`] / `WorkerPanic` degradation
//! ledger so chaos accounting stays 1:1.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use incdx_fault::Correction;
use incdx_netlist::{ConeCache, GateId, Netlist};
use incdx_sim::{PackedMatrix, Response};

use crate::chaos::ChaosState;
use crate::evaluator::{EvalContext, Evaluator, PreparedNode};
use crate::limits::{CancelToken, DegradationEvent};
use crate::parallel::{effective_jobs, ParallelTelemetry};
use crate::params::ParamLevel;
use crate::pipeline::CandidatePipeline;
use crate::session::{build_evaluator, RectifyConfig, RectifyStats};
use crate::traversal::{Traversal, TraversalKind};
use crate::tree::{Node, Tree};

/// Poison-tolerant lock: a worker panic between `lock` and unlock
/// poisons the mutex, but every structure guarded here stays valid (the
/// panic boundary is outside all guarded mutation), so recovery is to
/// keep going with the inner value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Priority of one frontier entry: a policy-defined primary score with
/// a deterministic sequence-number tie-break.
///
/// Entries pop highest `primary` first (compared with
/// [`f64::total_cmp`], so NaN orders below every real score instead of
/// poisoning the heap); equal primaries pop in ascending `seq` order —
/// first speculated, first served. The [`Traversal`] policies reduce to
/// this one number on the frontier: BFS is `-(depth)`, DFS is
/// `+(depth)`, best-first is the `h1`-per-failing-vector score (see
/// [`Traversal::frontier_priority`]).
#[derive(Debug, Clone, Copy)]
pub struct Prio {
    /// Policy score; higher pops first.
    pub primary: f64,
    /// Unique, monotonically assigned sequence number; *lower* wins
    /// ties, making the pop order a total, deterministic function of
    /// the push history.
    pub seq: u64,
}

impl PartialEq for Prio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Prio {}

impl PartialOrd for Prio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Prio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on `primary`; reversed on `seq` so the *lower*
        // sequence number is the greater (earlier-popped) entry.
        self.primary
            .total_cmp(&other.primary)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One entry popped off a [`Frontier`].
#[derive(Debug)]
pub struct Popped<T> {
    /// The priority it was pushed with.
    pub prio: Prio,
    /// The work item.
    pub item: T,
    /// True when the popping worker is not the worker that pushed the
    /// entry — a *steal* in work-stealing terms. Master-primed entries
    /// never count as stolen.
    pub stolen: bool,
}

struct FrontierEntry<T> {
    prio: Prio,
    owner: usize,
    item: T,
}

impl<T> PartialEq for FrontierEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio
    }
}

impl<T> Eq for FrontierEntry<T> {}

impl<T> PartialOrd for FrontierEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for FrontierEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio.cmp(&other.prio)
    }
}

struct FrontierState<T> {
    heap: BinaryHeap<FrontierEntry<T>>,
    closed: bool,
    stolen: u64,
    steal_failures: u64,
    high_water: usize,
}

/// A shared max-priority work frontier with steal accounting — the
/// dispatcher's central data structure, generic so the criterion
/// microbench (`benches/dispatch.rs`) can drive it with plain payloads.
///
/// Entries are totally ordered by [`Prio`] (sequence numbers are unique
/// by construction, so there are no ambiguous ties). `push` never
/// blocks; `pop_timeout` blocks until an entry, closure, or the
/// timeout. All operations are linearizable under one internal lock —
/// at engine scale the frontier holds tens of entries and the per-node
/// work dwarfs the critical section.
pub struct Frontier<T> {
    state: Mutex<FrontierState<T>>,
    available: Condvar,
}

impl<T> Default for Frontier<T> {
    fn default() -> Self {
        Frontier::new()
    }
}

impl<T> Frontier<T> {
    /// Owner id used for entries primed by the master thread (they are
    /// shared work, not any worker's local queue, so popping them is
    /// not counted as a steal).
    pub const MASTER_OWNER: usize = usize::MAX;

    /// An empty, open frontier.
    pub fn new() -> Self {
        Frontier {
            state: Mutex::new(FrontierState {
                heap: BinaryHeap::new(),
                closed: false,
                stolen: 0,
                steal_failures: 0,
                high_water: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Pushes an entry owned by `owner` (a worker id, or
    /// [`Frontier::MASTER_OWNER`]). Returns `false` — dropping the item
    /// — once the frontier is closed.
    pub fn push(&self, prio: Prio, owner: usize, item: T) -> bool {
        let mut state = lock(&self.state);
        if state.closed {
            return false;
        }
        state.heap.push(FrontierEntry { prio, owner, item });
        state.high_water = state.high_water.max(state.heap.len());
        drop(state);
        self.available.notify_one();
        true
    }

    /// Pops the highest-priority entry, blocking up to `timeout` for
    /// one to arrive. Returns `None` on timeout (counted as a steal
    /// failure — the worker went hungry) or once the frontier is closed
    /// *and* empty.
    pub fn pop_timeout(&self, worker: usize, timeout: Duration) -> Option<Popped<T>> {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.state);
        loop {
            if let Some(entry) = state.heap.pop() {
                let stolen = entry.owner != worker && entry.owner != Self::MASTER_OWNER;
                if stolen {
                    state.stolen += 1;
                }
                return Some(Popped {
                    prio: entry.prio,
                    item: entry.item,
                    stolen,
                });
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                state.steal_failures += 1;
                return None;
            }
            let (guard, _) = self
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
        }
    }

    /// Closes the frontier: further pushes are dropped and blocked
    /// poppers drain the remaining entries, then observe `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.available.notify_all();
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        lock(&self.state).heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops popped by a worker other than the pushing worker.
    pub fn stolen(&self) -> u64 {
        lock(&self.state).stolen
    }

    /// Pop attempts that timed out on an empty frontier.
    pub fn steal_failures(&self) -> u64 {
        lock(&self.state).steal_failures
    }

    /// Largest queue length ever observed.
    pub fn high_water_mark(&self) -> usize {
        lock(&self.state).high_water
    }
}

/// Telemetry of one dispatcher-assisted run, reported through
/// [`RectifyStats::dispatch`](crate::RectifyStats::dispatch) into the
/// JSON report (`"dispatch": {...}`; see `EXPERIMENTS.md`). All
/// counters describe *speculative* work: the deterministic search
/// counters (`nodes`, `rounds`, screen totals) are unaffected by
/// dispatch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchTelemetry {
    /// Worker threads the dispatcher ran.
    pub workers: usize,
    /// Speculative node evaluations workers completed (wasted ones
    /// included).
    pub tasks_executed: u64,
    /// Completed tasks whose frontier entry was popped by a worker
    /// other than the one that pushed it.
    pub tasks_stolen: u64,
    /// Worker pop attempts that timed out on an empty frontier.
    pub steal_failures: u64,
    /// Master evaluations served by a finished speculation.
    pub speculative_hits: u64,
    /// Master evaluations that ran inline (no speculation, speculation
    /// unfinished past the grace wait, or the task failed).
    pub speculative_misses: u64,
    /// Speculations evaluated (or queued) for tuples the master never
    /// consumed — mispredictions retracted against the visited set,
    /// plus leftovers at level teardown.
    pub tasks_wasted: u64,
    /// Largest frontier queue length observed.
    pub frontier_high_water: usize,
    /// Speculative evaluations completed per worker (index = worker
    /// id).
    pub worker_nodes: Vec<u64>,
    /// Per-worker time spent inside speculative evaluations.
    pub worker_busy: Vec<Duration>,
    /// Per-worker time spent waiting on an empty frontier.
    pub worker_idle: Vec<Duration>,
}

impl DispatchTelemetry {
    /// Accumulates another level's telemetry (dispatchers run one level
    /// at a time: counters sum, `workers` and the high-water mark take
    /// the max, per-worker vectors add element-wise).
    pub fn merge(&mut self, other: &DispatchTelemetry) {
        self.workers = self.workers.max(other.workers);
        self.tasks_executed += other.tasks_executed;
        self.tasks_stolen += other.tasks_stolen;
        self.steal_failures += other.steal_failures;
        self.speculative_hits += other.speculative_hits;
        self.speculative_misses += other.speculative_misses;
        self.tasks_wasted += other.tasks_wasted;
        self.frontier_high_water = self.frontier_high_water.max(other.frontier_high_water);
        if self.worker_nodes.len() < other.worker_nodes.len() {
            self.worker_nodes.resize(other.worker_nodes.len(), 0);
            self.worker_busy
                .resize(other.worker_busy.len(), Duration::ZERO);
            self.worker_idle
                .resize(other.worker_idle.len(), Duration::ZERO);
        }
        for (i, n) in other.worker_nodes.iter().enumerate() {
            self.worker_nodes[i] += n;
        }
        for (i, d) in other.worker_busy.iter().enumerate() {
            self.worker_busy[i] += *d;
        }
        for (i, d) in other.worker_idle.iter().enumerate() {
            self.worker_idle[i] += *d;
        }
    }

    /// Hit rate of the speculation cache (0.0 when nothing was asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.speculative_hits + self.speculative_misses;
        if total == 0 {
            0.0
        } else {
            self.speculative_hits as f64 / total as f64
        }
    }
}

/// Result of one speculative node evaluation — mirrors the master's
/// private `NodeEval`, plus the state the master needs to commit it.
#[derive(Debug)]
pub(crate) enum SpecEval {
    /// The tuple rectifies the netlist.
    Solved,
    /// Dead node: correction failed to apply, tuple at the depth bound
    /// while still failing, or nothing qualified at this level.
    Dead,
    /// Still failing, with its ranked candidate list.
    Open {
        /// Screened candidates, best rank first.
        candidates: Vec<crate::tree::RankedCorrection>,
        /// Failing vectors observed.
        failing: usize,
    },
}

/// A completed speculation, ready for the master to absorb.
#[derive(Debug)]
pub(crate) struct SpecOutcome {
    pub(crate) eval: SpecEval,
    /// Work-attribution stats of the speculative evaluation.
    /// Degradations and parallel telemetry have already been drained to
    /// the dispatcher ledger when this is handed to the master.
    pub(crate) stats: RectifyStats,
    /// Every keyed (prefix, netlist, value matrix) this task computed or
    /// touched — the evaluated node itself when open and expandable,
    /// plus its parent prefix. Handed to the master evaluator's `retain`
    /// on commit so the master's `NodeMatrixCache` is as warm as if it
    /// had evaluated the chain inline (without it, every hit leaves the
    /// master's cache cold and `simulation.words` climbs under
    /// `--dispatch`).
    pub(crate) warmed: Vec<(Vec<Correction>, Netlist, PackedMatrix)>,
}

enum Slot {
    /// Pushed to the frontier, no worker has claimed it.
    Queued,
    /// A worker is evaluating it.
    InFlight,
    /// Finished; boxed because `SpecOutcome` is large and slots churn.
    Done(Box<SpecOutcome>),
    /// The evaluating worker panicked (chaos steal-site injection, or a
    /// real fault); the master evaluates inline instead.
    Failed,
}

struct Inner {
    slots: HashMap<Vec<Correction>, Slot>,
    /// Next frontier sequence number (shared by master primes and
    /// worker chain pushes).
    seq: u64,
    executed: u64,
    wasted: u64,
    /// Degradations harvested from worker pipelines/evaluators, folded
    /// into the run ledger at level teardown — wasted tasks included,
    /// so chaos fault-to-degradation accounting stays 1:1.
    degradations: Vec<DegradationEvent>,
    /// Worker screening telemetry plus worker-loop panic recoveries.
    parallel: ParallelTelemetry,
}

struct Shared {
    base: Netlist,
    base_inputs: Vec<GateId>,
    vectors: PackedMatrix,
    spec: Response,
    /// The worker configuration: `jobs = 1` (no nested fan-out),
    /// `dispatch = false`, cache budget divided by the worker count.
    config: RectifyConfig,
    level: ParamLevel,
    cancel: CancelToken,
    chaos: Option<Arc<ChaosState>>,
    /// Maximum outstanding speculations (queued + in flight + done).
    cap: usize,
    shutdown: AtomicBool,
    frontier: Frontier<Vec<Correction>>,
    inner: Mutex<Inner>,
    /// Signalled whenever a slot transitions to `Done`/`Failed`, so a
    /// master blocked in `take` on an in-flight task wakes promptly.
    completed: Condvar,
}

#[derive(Default)]
struct WorkerReport {
    nodes: u64,
    busy: Duration,
    idle: Duration,
}

/// A worker's private evaluation stack — its own evaluator (with cache
/// and sparse state), base-cone memo, and traversal policy clone for
/// chain-push priorities. Rebuilt from scratch after a caught panic.
struct WorkerStack {
    evaluator: Box<dyn Evaluator>,
    base_cones: ConeCache,
    traversal: Box<dyn Traversal>,
}

impl WorkerStack {
    fn new(shared: &Shared) -> Self {
        WorkerStack {
            evaluator: build_evaluator(&shared.config, shared.chaos.clone()),
            base_cones: ConeCache::new(&shared.base),
            traversal: shared.config.traversal.build(),
        }
    }
}

/// What a finished dispatcher hands back to the session for folding
/// into [`RectifyStats`].
pub(crate) struct DispatchFinish {
    pub(crate) telemetry: DispatchTelemetry,
    pub(crate) degradations: Vec<DegradationEvent>,
    pub(crate) parallel: ParallelTelemetry,
}

/// The per-level speculation dispatcher (see the module docs). Owned by
/// the master thread; all cross-thread state lives behind `shared`.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<WorkerReport>>,
    workers: usize,
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
}

/// How long a worker waits for frontier work before re-checking
/// shutdown/cancellation.
const POP_TIMEOUT: Duration = Duration::from_millis(20);
/// How long the master waits on one in-flight speculation before giving
/// up and evaluating inline. Generous: an in-flight task is normally
/// milliseconds from done, and an abandoned wait wastes the work.
const TAKE_DEADLINE: Duration = Duration::from_secs(10);
/// Granularity of the master's in-flight wait (re-checks the slot).
const TAKE_POLL: Duration = Duration::from_millis(2);

impl Dispatcher {
    /// Spawns `effective_jobs(config.jobs)` workers for one ladder
    /// level's traversal. Thread-spawn failures are tolerated (the pool
    /// just shrinks; with zero workers every evaluation is a miss).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        base: &Netlist,
        base_inputs: &[GateId],
        vectors: &PackedMatrix,
        spec: &Response,
        config: &RectifyConfig,
        level: ParamLevel,
        cancel: CancelToken,
        chaos: Option<Arc<ChaosState>>,
    ) -> Dispatcher {
        let workers = effective_jobs(config.jobs, usize::MAX).max(1);
        let mut worker_config = config.clone();
        worker_config.jobs = 1;
        worker_config.dispatch = false;
        worker_config.matrix_cache_bytes = config.matrix_cache_bytes / workers.max(1);
        let shared = Arc::new(Shared {
            base: base.clone(),
            base_inputs: base_inputs.to_vec(),
            vectors: vectors.clone(),
            spec: spec.clone(),
            config: worker_config,
            level,
            cancel,
            chaos,
            cap: workers.saturating_mul(4).max(4),
            shutdown: AtomicBool::new(false),
            frontier: Frontier::new(),
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                seq: 0,
                executed: 0,
                wasted: 0,
                degradations: Vec::new(),
                parallel: ParallelTelemetry::default(),
            }),
            completed: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("incdx-dispatch-{id}"))
                .spawn(move || worker_loop(&shared, id));
            if let Ok(handle) = spawned {
                handles.push(handle);
            }
        }
        Dispatcher {
            shared,
            handles,
            workers,
            hits: std::cell::Cell::new(0),
            misses: std::cell::Cell::new(0),
        }
    }

    /// Master-side lookahead, called once per scheduled plan item
    /// *before* the item is processed: retracts speculations whose
    /// tuple the master has since visited, then tops the frontier up
    /// with the next predicted expansions under the outstanding-work
    /// cap. The first predicted tuple — the very item the master is
    /// about to process — is never freshly pushed (the master would
    /// only race its own inline evaluation); a speculation primed for
    /// it on an earlier call stands and becomes a hit.
    pub(crate) fn prime(
        &self,
        tree: &Tree,
        plan: &[usize],
        plan_pos: usize,
        visited: &HashSet<Vec<Correction>>,
        traversal: &dyn Traversal,
    ) {
        let mut pushes: Vec<(Prio, Vec<Correction>)> = Vec::new();
        {
            let mut inner = lock(&self.shared.inner);
            // Retract stale speculations (the master consumed or skipped
            // their tuple). In-flight tasks are left to finish — their
            // degradation records must reach the ledger either way.
            let stale: Vec<Vec<Correction>> = inner
                .slots
                .iter()
                .filter(|(tuple, slot)| {
                    if matches!(slot, Slot::InFlight) {
                        return false;
                    }
                    let mut canonical = (*tuple).clone();
                    canonical.sort();
                    visited.contains(&canonical)
                })
                .map(|(tuple, _)| tuple.clone())
                .collect();
            for tuple in stale {
                inner.slots.remove(&tuple);
                inner.wasted += 1;
            }
            if inner.slots.len() >= self.shared.cap {
                return;
            }
            let want = self.shared.cap - inner.slots.len();
            let mut predictor = Predictor::new(tree, plan, plan_pos, self.shared.config.traversal);
            let mut fresh_emissions = 0usize;
            while pushes.len() < want {
                let Some((idx, cursor)) = predictor.next() else {
                    break;
                };
                let Some(parent) = tree.get(idx) else {
                    continue;
                };
                let Some(cand) = parent.candidates.get(cursor) else {
                    continue;
                };
                let mut tuple = parent.corrections.clone();
                tuple.push(cand.correction);
                let mut canonical = tuple.clone();
                canonical.sort();
                if visited.contains(&canonical) {
                    // The master will pop and skip this candidate too.
                    continue;
                }
                fresh_emissions += 1;
                if fresh_emissions == 1 {
                    // The master's own next item: handled inline.
                    continue;
                }
                if inner.slots.contains_key(&tuple) {
                    continue;
                }
                let prio = Prio {
                    primary: traversal.frontier_priority(parent, cand),
                    seq: inner.seq,
                };
                inner.seq += 1;
                inner.slots.insert(tuple.clone(), Slot::Queued);
                pushes.push((prio, tuple));
            }
        }
        for (prio, tuple) in pushes {
            self.shared
                .frontier
                .push(prio, Frontier::<Vec<Correction>>::MASTER_OWNER, tuple);
        }
    }

    /// Claims the speculation for `corrections`, if one exists. A
    /// finished task is a hit; a queued one is retracted (miss — the
    /// master is faster than the pool); an in-flight one is awaited
    /// briefly, then abandoned (miss). Always a miss for tuples never
    /// primed.
    pub(crate) fn take(&self, corrections: &[Correction]) -> Option<SpecOutcome> {
        let deadline = Instant::now() + TAKE_DEADLINE;
        let mut inner = lock(&self.shared.inner);
        loop {
            let in_flight = match inner.slots.get(corrections) {
                Some(Slot::InFlight) => true,
                Some(Slot::Done(_)) => {
                    if let Some(Slot::Done(outcome)) = inner.slots.remove(corrections) {
                        self.hits.set(self.hits.get() + 1);
                        return Some(*outcome);
                    }
                    false
                }
                Some(Slot::Queued) | Some(Slot::Failed) => {
                    // Queued: retract — the frontier entry becomes
                    // stale and workers skip it on pop. Failed: the
                    // worker already recovered; evaluate inline.
                    inner.slots.remove(corrections);
                    self.misses.set(self.misses.get() + 1);
                    return None;
                }
                None => {
                    self.misses.set(self.misses.get() + 1);
                    return None;
                }
            };
            if !in_flight {
                // Unreachable in practice (Done handled above); treat
                // as a miss rather than spin.
                self.misses.set(self.misses.get() + 1);
                return None;
            }
            if Instant::now() >= deadline {
                // Leave the slot: the worker will still finish and its
                // degradations still ledger; the outcome is retracted
                // as wasted on a later prime or at teardown.
                self.misses.set(self.misses.get() + 1);
                return None;
            }
            let (guard, _) = self
                .shared
                .completed
                .wait_timeout(inner, TAKE_POLL)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
    }

    /// Shuts the pool down, joins every worker, and folds the ledgers
    /// into a [`DispatchFinish`] for the session to absorb.
    pub(crate) fn finish(mut self) -> DispatchFinish {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.frontier.close();
        let mut worker_nodes = vec![0u64; self.workers];
        let mut worker_busy = vec![Duration::ZERO; self.workers];
        let mut worker_idle = vec![Duration::ZERO; self.workers];
        let mut join_panics = 0u64;
        for (id, handle) in self.handles.drain(..).enumerate() {
            match handle.join() {
                Ok(report) => {
                    if id < self.workers {
                        worker_nodes[id] = report.nodes;
                        worker_busy[id] = report.busy;
                        worker_idle[id] = report.idle;
                    }
                }
                // The worker loop catches task panics, so a join error
                // means a panic escaped (e.g. in a Drop); count the
                // recovery rather than propagate.
                Err(_) => join_panics += 1,
            }
        }
        let mut inner = lock(&self.shared.inner);
        // Anything still speculated at teardown was never consumed.
        inner.wasted += inner.slots.len() as u64;
        inner.slots.clear();
        let degradations = std::mem::take(&mut inner.degradations);
        let mut parallel = std::mem::take(&mut inner.parallel);
        parallel.panics_recovered += join_panics;
        let telemetry = DispatchTelemetry {
            workers: self.workers,
            tasks_executed: inner.executed,
            tasks_stolen: self.shared.frontier.stolen(),
            steal_failures: self.shared.frontier.steal_failures(),
            speculative_hits: self.hits.get(),
            speculative_misses: self.misses.get(),
            tasks_wasted: inner.wasted,
            frontier_high_water: self.shared.frontier.high_water_mark(),
            worker_nodes,
            worker_busy,
            worker_idle,
        };
        drop(inner);
        DispatchFinish {
            telemetry,
            degradations,
            parallel,
        }
    }
}

impl Drop for Dispatcher {
    /// Safety net for an abnormal exit (a master-side panic between
    /// level start and `finish`): stop and join the pool so worker
    /// threads never outlive the session.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.frontier.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("workers", &self.workers)
            .field("cap", &self.shared.cap)
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish()
    }
}

/// The worker thread body: pop, claim, evaluate (inside the one
/// sanctioned `catch_unwind` boundary of this module), record, chain.
fn worker_loop(shared: &Shared, worker_id: usize) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut stack = WorkerStack::new(shared);
    loop {
        if shared.shutdown.load(Ordering::Acquire) || shared.cancel.is_cancelled() {
            break;
        }
        let t_idle = Instant::now();
        let popped = shared.frontier.pop_timeout(worker_id, POP_TIMEOUT);
        report.idle += t_idle.elapsed();
        let Some(popped) = popped else {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            continue;
        };
        let tuple = popped.item;
        {
            // Claim: Queued → InFlight. A missing/other-state slot
            // means the entry went stale (retracted or re-primed).
            let mut inner = lock(&shared.inner);
            match inner.slots.get_mut(&tuple) {
                Some(slot @ Slot::Queued) => *slot = Slot::InFlight,
                _ => continue,
            }
        }
        let seq = popped.prio.seq;
        let t_busy = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(chaos) = &shared.chaos {
                // Chaos steal-site injection: exercises exactly this
                // recovery path (claimed task, worker dies, master
                // falls back to inline evaluation).
                chaos.maybe_steal_panic(seq);
            }
            execute(shared, &mut stack, &tuple)
        }));
        report.busy += t_busy.elapsed();
        report.nodes += 1;
        match result {
            Ok(mut outcome) => {
                // Drain degradations + screening telemetry to the
                // shared ledger *now* (even if this speculation is
                // later wasted), keeping chaos accounting 1:1.
                let mut degradations = std::mem::take(&mut outcome.stats.degradations);
                degradations.extend(stack.evaluator.take_degradations());
                let task_parallel = std::mem::take(&mut outcome.stats.parallel);
                // Chain speculation: the child the master would expand
                // first from this node, if it became one.
                let chain = match &outcome.eval {
                    SpecEval::Open {
                        candidates,
                        failing,
                    } if !candidates.is_empty() && tuple.len() < shared.config.max_corrections => {
                        let cand = candidates[0];
                        let mut child = tuple.clone();
                        child.push(cand.correction);
                        let parent = Node::new(tuple.clone(), Vec::new(), *failing);
                        Some((child, stack.traversal.frontier_priority(&parent, &cand)))
                    }
                    _ => None,
                };
                let push = {
                    let mut inner = lock(&shared.inner);
                    inner.executed += 1;
                    inner.degradations.extend(degradations);
                    inner.parallel.merge(&task_parallel);
                    let push = chain.and_then(|(child, primary)| {
                        if inner.slots.len() < shared.cap && !inner.slots.contains_key(&child) {
                            let prio = Prio {
                                primary,
                                seq: inner.seq,
                            };
                            inner.seq += 1;
                            inner.slots.insert(child.clone(), Slot::Queued);
                            Some((prio, child))
                        } else {
                            None
                        }
                    });
                    inner.slots.insert(tuple, Slot::Done(Box::new(outcome)));
                    push
                };
                shared.completed.notify_all();
                if let Some((prio, child)) = push {
                    shared.frontier.push(prio, worker_id, child);
                }
            }
            Err(_) => {
                let degradations = stack.evaluator.take_degradations();
                {
                    let mut inner = lock(&shared.inner);
                    inner.executed += 1;
                    inner.parallel.panics_recovered += 1;
                    inner.degradations.extend(degradations);
                    inner.slots.insert(tuple, Slot::Failed);
                }
                shared.completed.notify_all();
                // The panic may have left the evaluator stack
                // inconsistent: rebuild before the next task.
                stack = WorkerStack::new(shared);
            }
        }
    }
    report
}

/// One speculative node evaluation — a faithful mirror of the master's
/// `evaluate_node` for the `expand = true` path, attributing work to a
/// private [`RectifyStats`]. Purity contract: given identical
/// `(base, vectors, spec, corrections, level, config)`, the returned
/// `eval` and every pipeline-deterministic counter are bit-identical to
/// the master's inline evaluation; only evaluator cache-state counters
/// (`words_simulated`, `matrix_cache_hits`, …) may differ.
fn execute(shared: &Shared, stack: &mut WorkerStack, corrections: &[Correction]) -> SpecOutcome {
    let t_eval = Instant::now();
    let mut stats = RectifyStats::default();
    let t0 = Instant::now();
    let before = stack.evaluator.counters();
    // Cache warming (incremental backends only): make sure the worker's
    // private cache holds the parent prefix before preparing the node,
    // and remember every pair this task touches so the master can merge
    // them into its own cache on a hit. Without this each speculation is
    // a cold replay of the whole tuple from the base matrix, and the
    // replays — absorbed into the run's attribution on every hit — make
    // `simulation.words` climb under `--dispatch`.
    let mut warmed: Vec<(Vec<Correction>, Netlist, PackedMatrix)> = Vec::new();
    if stack.evaluator.incremental() && corrections.len() > 1 {
        let prefix = &corrections[..corrections.len() - 1];
        let pair = stack.evaluator.cached(prefix).or_else(|| {
            let prepared = {
                let mut ctx = EvalContext {
                    base: &shared.base,
                    base_inputs: &shared.base_inputs,
                    vectors: &shared.vectors,
                    base_cones: &mut stack.base_cones,
                };
                stack.evaluator.prepare(&mut ctx, prefix)
            };
            prepared.map(|PreparedNode { netlist, vals, .. }| {
                stack
                    .evaluator
                    .retain(prefix, netlist.clone(), vals.clone());
                (netlist, vals)
            })
        });
        if let Some((netlist, vals)) = pair {
            warmed.push((prefix.to_vec(), netlist, vals));
        }
    }
    let prepared = {
        let mut ctx = EvalContext {
            base: &shared.base,
            base_inputs: &shared.base_inputs,
            vectors: &shared.vectors,
            base_cones: &mut stack.base_cones,
        };
        stack.evaluator.prepare(&mut ctx, corrections)
    };
    let after = stack.evaluator.counters();
    stats.words_simulated += after.words - before.words;
    stats.events_propagated += after.events - before.events;
    stats.words_skipped += after.skipped - before.skipped;
    stats.matrix_cache_hits += after.matrix_hits - before.matrix_hits;
    stats.audit_checks += after.audit_checks - before.audit_checks;
    stats.audit_violations += after.audit_violations - before.audit_violations;
    stats.blocks_skipped += after.blocks_skipped - before.blocks_skipped;
    stats.sparse_rows += after.sparse_rows - before.sparse_rows;
    stats.dense_fallbacks += after.dense_fallbacks - before.dense_fallbacks;
    let Some(PreparedNode {
        netlist,
        vals,
        mut cones,
    }) = prepared
    else {
        stats.simulation_time += t0.elapsed();
        stats.evaluate_time += t_eval.elapsed();
        return SpecOutcome {
            eval: SpecEval::Dead,
            stats,
            warmed,
        };
    };
    let response = Response::compare(&netlist, &vals, &shared.spec);
    stats.simulation_time += t0.elapsed();
    let failing = response.num_failing();
    let eval = if response.matches() {
        SpecEval::Solved
    } else if corrections.len() >= shared.config.max_corrections {
        SpecEval::Dead
    } else {
        let pipeline = CandidatePipeline::new(&shared.config, &shared.spec, 1)
            .with_cancel(shared.cancel.clone())
            .with_chaos(shared.chaos.clone());
        let candidates = pipeline.run(
            &netlist,
            &vals,
            &response,
            corrections,
            &shared.level,
            &mut cones,
            &mut stats,
        );
        if candidates.is_empty() {
            SpecEval::Dead
        } else {
            SpecEval::Open {
                candidates,
                failing,
            }
        }
    };
    stats.cone_cache_hits += cones.take_hits();
    if matches!(eval, SpecEval::Open { .. }) && corrections.len() < shared.config.max_corrections {
        // Warm the worker's own cache too, so a chained child
        // speculation starts from this matrix instead of replaying.
        if stack.evaluator.incremental() {
            stack
                .evaluator
                .retain(corrections, netlist.clone(), vals.clone());
        }
        warmed.push((corrections.to_vec(), netlist, vals));
    }
    stats.evaluate_time += t_eval.elapsed();
    SpecOutcome {
        eval,
        stats,
        warmed,
    }
}

/// Predicts the master's upcoming expansion tuples without mutating the
/// tree: an overlay of advanced candidate cursors over the real
/// `node.next` values, walked in the order the configured policy would
/// schedule. Predictions are best-effort — a wrong guess only wastes
/// speculative work, never correctness (the master ignores speculations
/// it does not reach).
struct Predictor<'a> {
    tree: &'a Tree,
    plan: &'a [usize],
    plan_pos: usize,
    kind: TraversalKind,
    over: HashMap<usize, usize>,
    /// Round-robin continuation position once the real plan is drained.
    sweep_pos: usize,
}

impl<'a> Predictor<'a> {
    fn new(tree: &'a Tree, plan: &'a [usize], plan_pos: usize, kind: TraversalKind) -> Self {
        Predictor {
            tree,
            plan,
            plan_pos,
            kind,
            over: HashMap::new(),
            sweep_pos: 0,
        }
    }

    fn cursor(&self, idx: usize) -> usize {
        self.over
            .get(&idx)
            .copied()
            .unwrap_or_else(|| self.tree.get(idx).map_or(usize::MAX, |n| n.next))
    }

    fn open_at(&self, idx: usize) -> bool {
        self.tree
            .get(idx)
            .is_some_and(|n| self.cursor(idx) < n.candidates.len())
    }

    fn emit(&mut self, idx: usize) -> (usize, usize) {
        let cur = self.cursor(idx);
        self.over.insert(idx, cur + 1);
        (idx, cur)
    }

    /// The next predicted `(parent index, candidate cursor)` expansion.
    /// Terminates: every emission advances a cursor, and cursors are
    /// bounded by the (fixed) candidate lists.
    fn next(&mut self) -> Option<(usize, usize)> {
        match self.kind {
            TraversalKind::RoundRobinBfs => {
                while self.plan_pos < self.plan.len() {
                    let idx = self.plan[self.plan_pos];
                    self.plan_pos += 1;
                    if self.open_at(idx) {
                        return Some(self.emit(idx));
                    }
                }
                // Plan drained: predict the next rounds' sweeps over
                // the arena in index order.
                let n = self.tree.len();
                let mut tried = 0;
                while tried < n {
                    let idx = self.sweep_pos % n.max(1);
                    self.sweep_pos += 1;
                    tried += 1;
                    if self.open_at(idx) {
                        return Some(self.emit(idx));
                    }
                }
                None
            }
            TraversalKind::NaiveBfs => {
                let idx = (0..self.tree.len()).find(|&i| self.open_at(i))?;
                Some(self.emit(idx))
            }
            TraversalKind::DepthFirst => {
                let idx = (0..self.tree.len()).rev().find(|&i| self.open_at(i))?;
                Some(self.emit(idx))
            }
            TraversalKind::BestFirst => {
                let mut best: Option<(usize, f64)> = None;
                for idx in 0..self.tree.len() {
                    if !self.open_at(idx) {
                        continue;
                    }
                    let Some(node) = self.tree.get(idx) else {
                        continue;
                    };
                    let Some(cand) = node.candidates.get(self.cursor(idx)) else {
                        continue;
                    };
                    let p = cand.h1_score / node.failing.max(1) as f64;
                    // Strictly-greater replacement keeps the lowest
                    // index on ties — the BestFirst scheduling
                    // contract.
                    let better = match best {
                        None => true,
                        Some((_, bp)) => p.total_cmp(&bp) == std::cmp::Ordering::Greater,
                    };
                    if better {
                        best = Some((idx, p));
                    }
                }
                let (idx, _) = best?;
                Some(self.emit(idx))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prio_orders_by_primary_then_stable_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(Prio {
            primary: 1.0,
            seq: 5,
        });
        heap.push(Prio {
            primary: 2.0,
            seq: 9,
        });
        heap.push(Prio {
            primary: 2.0,
            seq: 3,
        });
        heap.push(Prio {
            primary: f64::NAN,
            seq: 0,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|p| p.seq).collect();
        // Highest primary first; equal primaries in ascending seq.
        // Under total_cmp positive NaN is the greatest value — the
        // same total order BestFirst::schedule and the Predictor use,
        // so master and workers always agree on it.
        assert_eq!(order, vec![0, 3, 9, 5]);
    }

    #[test]
    fn frontier_pops_priority_order_and_tracks_high_water() {
        let f: Frontier<u32> = Frontier::new();
        for (i, p) in [0.5, 2.0, 1.0].iter().enumerate() {
            assert!(f.push(
                Prio {
                    primary: *p,
                    seq: i as u64
                },
                0,
                i as u32
            ));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.high_water_mark(), 3);
        let a = f.pop_timeout(0, Duration::from_millis(1));
        let b = f.pop_timeout(0, Duration::from_millis(1));
        let c = f.pop_timeout(0, Duration::from_millis(1));
        assert_eq!(a.map(|p| p.item), Some(1));
        assert_eq!(b.map(|p| p.item), Some(2));
        assert_eq!(c.map(|p| p.item), Some(0));
        assert_eq!(f.high_water_mark(), 3, "high-water is sticky");
    }

    #[test]
    fn frontier_counts_steals_and_failures() {
        let f: Frontier<u8> = Frontier::new();
        f.push(
            Prio {
                primary: 0.0,
                seq: 0,
            },
            1,
            7,
        );
        f.push(
            Prio {
                primary: 0.0,
                seq: 1,
            },
            Frontier::<u8>::MASTER_OWNER,
            8,
        );
        let own = f.pop_timeout(1, Duration::from_millis(1));
        assert_eq!(own.as_ref().map(|p| p.stolen), Some(false), "own pop");
        let master = f.pop_timeout(2, Duration::from_millis(1));
        assert_eq!(
            master.as_ref().map(|p| p.stolen),
            Some(false),
            "master-primed entries are shared work, not steals"
        );
        f.push(
            Prio {
                primary: 0.0,
                seq: 2,
            },
            1,
            9,
        );
        let theft = f.pop_timeout(2, Duration::from_millis(1));
        assert_eq!(theft.map(|p| p.stolen), Some(true));
        assert_eq!(f.stolen(), 1);
        assert!(f.pop_timeout(0, Duration::from_millis(1)).is_none());
        assert_eq!(f.steal_failures(), 1, "empty timeout counts");
    }

    #[test]
    fn closed_frontier_drains_then_rejects() {
        let f: Frontier<u8> = Frontier::new();
        f.push(
            Prio {
                primary: 0.0,
                seq: 0,
            },
            0,
            1,
        );
        f.close();
        assert!(!f.push(
            Prio {
                primary: 9.0,
                seq: 1
            },
            0,
            2
        ));
        assert_eq!(
            f.pop_timeout(0, Duration::from_millis(1)).map(|p| p.item),
            Some(1),
            "closure still drains queued entries"
        );
        assert!(f.pop_timeout(0, Duration::from_secs(5)).is_none());
        assert!(f.is_empty());
    }

    #[test]
    fn frontier_unblocks_waiting_popper_on_push() {
        let f: Arc<Frontier<u8>> = Arc::new(Frontier::new());
        let g = Arc::clone(&f);
        let popper = std::thread::spawn(move || g.pop_timeout(0, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(5));
        f.push(
            Prio {
                primary: 1.0,
                seq: 0,
            },
            1,
            42,
        );
        let got = popper.join().ok().flatten();
        assert_eq!(got.map(|p| p.item), Some(42));
    }

    #[test]
    fn telemetry_merge_sums_and_maxes() {
        let mut a = DispatchTelemetry {
            workers: 2,
            tasks_executed: 3,
            tasks_stolen: 1,
            steal_failures: 2,
            speculative_hits: 5,
            speculative_misses: 1,
            tasks_wasted: 1,
            frontier_high_water: 4,
            worker_nodes: vec![2, 1],
            worker_busy: vec![Duration::from_millis(3), Duration::from_millis(1)],
            worker_idle: vec![Duration::from_millis(1), Duration::from_millis(2)],
        };
        let b = DispatchTelemetry {
            workers: 4,
            tasks_executed: 7,
            tasks_stolen: 2,
            steal_failures: 0,
            speculative_hits: 1,
            speculative_misses: 3,
            tasks_wasted: 2,
            frontier_high_water: 2,
            worker_nodes: vec![1, 2, 3, 4],
            worker_busy: vec![Duration::from_millis(1); 4],
            worker_idle: vec![Duration::from_millis(1); 4],
        };
        a.merge(&b);
        assert_eq!(a.workers, 4);
        assert_eq!(a.tasks_executed, 10);
        assert_eq!(a.tasks_stolen, 3);
        assert_eq!(a.frontier_high_water, 4);
        assert_eq!(a.worker_nodes, vec![3, 3, 3, 4]);
        assert_eq!(a.worker_busy[0], Duration::from_millis(4));
        assert!((a.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(DispatchTelemetry::default().hit_rate(), 0.0);
    }
}
