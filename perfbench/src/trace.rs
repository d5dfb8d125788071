//! Span recording for the traced run, and the two decorators that put
//! spans around the engine's evaluator and traversal layers.
//!
//! Spans live in memory (one `Vec` behind a mutex) and are written out
//! by the caller when the run ends. Each span carries its name, start
//! and end (nanoseconds since the tracer was created), the index of the
//! span that was open when it started, and the diagnosis it belongs to.
//! A layer's self time is its span's duration minus its children's.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use incdx_core::{
    DegradationEvent, EvalContext, Evaluator, FromScratch, IncdxError, Incremental, Node, Parallel,
    PreparedNode, RankedCorrection, Rectifier, RectifyConfig, SimCounters, Traversal, Tree,
};
use incdx_fault::Correction;
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `evaluator.prepare`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Diagnosis (or job) id the span belongs to.
    pub diagnosis: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counts recorded at the decorated layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `Evaluator::prepare` calls.
    pub prepare_calls: u64,
    /// Prepares served from a cached parent matrix.
    pub matrix_hits: u64,
    /// Matrix-cache evictions reported by `Evaluator::retain`.
    pub evictions: u64,
    /// Largest `Evaluator::retained_bytes` seen after a retain.
    pub retained_bytes_max: u64,
    /// `Traversal::schedule` calls.
    pub schedule_calls: u64,
    /// Node indices the traversal put into its plans.
    pub plan_items: u64,
}

#[derive(Debug)]
struct State {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    diagnosis: u64,
    counts: LayerCounts,
}

/// A shared, in-memory span recorder. Clones record into the same log.
#[derive(Debug, Clone)]
pub struct Tracer {
    state: Arc<Mutex<State>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            state: Arc::new(Mutex::new(State {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                diagnosis: 0,
                counts: LayerCounts::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Tags every span started from now on with diagnosis `id`.
    pub fn set_diagnosis(&self, id: u64) {
        self.lock().diagnosis = id;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut s = self.lock();
        let now = s.epoch.elapsed().as_nanos() as u64;
        let parent = s.open.last().copied();
        let diagnosis = s.diagnosis;
        s.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            diagnosis,
        });
        let idx = s.spans.len() - 1;
        s.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn exit(&self, idx: usize) {
        let mut s = self.lock();
        let now = s.epoch.elapsed().as_nanos() as u64;
        s.spans[idx].end_ns = now;
        let top = s.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    fn count(&self, f: impl FnOnce(&mut LayerCounts)) {
        f(&mut self.lock().counts);
    }

    /// The counts recorded so far.
    pub fn counts(&self) -> LayerCounts {
        self.lock().counts
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] = out[p].saturating_sub(span.ns());
        }
    }
    out
}

/// Evaluator decorator: forwards every trait method to the wrapped
/// backend, with a span around each call that does work.
#[derive(Debug)]
pub struct TracedEvaluator {
    inner: Box<dyn Evaluator>,
    tracer: Tracer,
}

impl TracedEvaluator {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Evaluator>, tracer: Tracer) -> Self {
        TracedEvaluator { inner, tracer }
    }
}

impl Evaluator for TracedEvaluator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn jobs(&self) -> usize {
        self.inner.jobs()
    }

    fn incremental(&self) -> bool {
        self.inner.incremental()
    }

    fn sparse(&self) -> bool {
        self.inner.sparse()
    }

    fn counters(&self) -> SimCounters {
        self.inner.counters()
    }

    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        let before = self.inner.counters().matrix_hits;
        let out = self
            .tracer
            .span("evaluator.prepare", || self.inner.prepare(ctx, corrections));
        let hits = self.inner.counters().matrix_hits - before;
        self.tracer.count(|c| {
            c.prepare_calls += 1;
            c.matrix_hits += hits;
        });
        out
    }

    fn cached(&mut self, corrections: &[Correction]) -> Option<(Netlist, PackedMatrix)> {
        self.tracer
            .span("evaluator.cached", || self.inner.cached(corrections))
    }

    fn retain(&mut self, corrections: &[Correction], netlist: Netlist, vals: PackedMatrix) -> u64 {
        let evictions = self.tracer.span("evaluator.retain", || {
            self.inner.retain(corrections, netlist, vals)
        });
        let bytes = self.inner.retained_bytes() as u64;
        self.tracer.count(|c| {
            c.evictions += evictions;
            c.retained_bytes_max = c.retained_bytes_max.max(bytes);
        });
        evictions
    }

    fn release(&mut self, corrections: &[Correction]) {
        self.tracer
            .span("evaluator.release", || self.inner.release(corrections));
    }

    fn reset(&mut self) {
        self.tracer.span("evaluator.reset", || self.inner.reset());
    }

    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes()
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.take_degradations()
    }
}

/// Traversal decorator: forwards every trait method, with a span around
/// `schedule` and a count of the plan items it produced.
#[derive(Debug)]
pub struct TracedTraversal {
    inner: Box<dyn Traversal>,
    tracer: Tracer,
}

impl TracedTraversal {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Traversal>, tracer: Tracer) -> Self {
        TracedTraversal { inner, tracer }
    }
}

impl Traversal for TracedTraversal {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn iteration_budget(&self, max_rounds: usize, max_nodes: usize) -> usize {
        self.inner.iteration_budget(max_rounds, max_nodes)
    }

    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>) {
        self.tracer
            .span("traversal.schedule", || self.inner.schedule(tree, plan));
        let items = plan.len() as u64;
        self.tracer.count(|c| {
            c.schedule_calls += 1;
            c.plan_items += items;
        });
    }

    fn frontier_priority(&self, parent: &Node, candidate: &RankedCorrection) -> f64 {
        self.inner.frontier_priority(parent, candidate)
    }

    fn seed_observability(&mut self, co: &[u32]) {
        self.inner.seed_observability(co);
    }
}

/// The evaluator stack `Rectifier::new` builds for `config`, rebuilt
/// from public types. Only the plain stack is supported: audit, chaos
/// and dispatch add layers the benchmark does not rebuild.
///
/// # Errors
///
/// When `config` arms audit, chaos or dispatch.
pub fn default_evaluator(config: &RectifyConfig) -> Result<Box<dyn Evaluator>, String> {
    if config.audit || config.chaos.is_some() || config.dispatch {
        return Err("traced run supports the plain evaluator stack only".to_string());
    }
    let inner: Box<dyn Evaluator> = if config.incremental {
        Box::new(Incremental::new(config.matrix_cache_bytes).with_sparse(config.sparse))
    } else {
        Box::new(FromScratch::new().with_sparse(config.sparse))
    };
    Ok(if config.jobs == 1 {
        inner
    } else {
        Box::new(Parallel::new(inner, config.jobs))
    })
}

/// Builds a session whose evaluator and traversal are wrapped in the
/// tracing decorators. `Rectifier::new` runs inside a `session.new`
/// span. The replacement traversal is seeded with SCOAP observability,
/// as `new` seeds its own, inside a `trace.install` span.
///
/// # Errors
///
/// Whatever `Rectifier::new` rejects, or an unsupported stack.
pub fn traced_rectifier(
    base: Netlist,
    vectors: PackedMatrix,
    reference: Response,
    config: RectifyConfig,
    tracer: &Tracer,
) -> Result<Rectifier, String> {
    let evaluator = default_evaluator(&config)?;
    let traversal = tracer.span("trace.install", || {
        let mut traversal = config.traversal.build();
        let scoap = incdx_atpg::Scoap::compute(&base);
        let co: Vec<u32> = base.ids().map(|id| scoap.co(id)).collect();
        traversal.seed_observability(&co);
        traversal
    });
    let engine = tracer
        .span("session.new", || {
            Rectifier::new(base, vectors, reference, config)
        })
        .map_err(|e: IncdxError| e.to_string())?;
    Ok(engine
        .with_evaluator(Box::new(TracedEvaluator::new(evaluator, tracer.clone())))
        .with_traversal(Box::new(TracedTraversal::new(traversal, tracer.clone()))))
}
