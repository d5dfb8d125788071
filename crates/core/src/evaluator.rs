//! Evaluation backends: how a decision-tree node's circuit and value
//! matrix are (re)built.
//!
//! The engine asks its [`Evaluator`] to *prepare* a node — produce the
//! base netlist with the node's correction tuple applied and the fully
//! simulated value matrix — and to optionally *retain* matrices of open
//! nodes for child reuse. [`FromScratch`] clones and resimulates the
//! whole circuit per node; [`Incremental`] keeps the event-driven path
//! of the pre-refactor engine ([`NodeMatrixCache`] + change-bounded
//! `run_cone_events`), bit-identical to [`FromScratch`] in results but
//! doing a fraction of the simulation work; [`Parallel`] decorates
//! either with a worker count for the screening stages.
//!
//! All backends are pure with respect to results: solutions and
//! candidate rankings do not depend on the backend, only the work
//! counters do (see the cache-invariants section of `ARCHITECTURE.md`).
//!
//! Besides the master session, each dispatcher worker (`dispatch.rs`)
//! owns a private evaluator stack built by the same
//! `session::build_evaluator` path, so speculative node preparation
//! reuses these backends unchanged — purity is what makes a worker's
//! result interchangeable with the master's.

use std::fmt::Debug;

use incdx_fault::Correction;
use incdx_netlist::{ConeCache, GateId, Netlist};
use incdx_sim::{PackedMatrix, Simulator};

use crate::cache::NodeMatrixCache;

/// Monotonic work counters of an evaluation backend. The engine diffs
/// them around [`Evaluator::prepare`] calls to attribute work to
/// [`RectifyStats`](crate::RectifyStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Packed words evaluated ([`Simulator::words_simulated`]).
    pub words: u64,
    /// Change-bounded events propagated.
    pub events: u64,
    /// Packed words skipped by the change-bounded walk.
    pub skipped: u64,
    /// Node preparations served from a cached parent matrix.
    pub matrix_hits: u64,
    /// Invariant checks performed by an [`Auditing`](crate::Auditing)
    /// decorator (0 for plain backends).
    pub audit_checks: u64,
    /// Invariant checks that failed (always 0 on a healthy engine).
    pub audit_violations: u64,
    /// All-zero [`BLOCK_WORDS`](incdx_sim::BLOCK_WORDS)-word blocks the
    /// sparse kernel skipped without touching.
    pub blocks_skipped: u64,
    /// Rows/operations evaluated block-restricted by the sparse kernel.
    pub sparse_rows: u64,
    /// Operations where sparse mode was requested but the dense path ran
    /// (rows too narrow, or a mask with no skippable block).
    pub dense_fallbacks: u64,
}

/// Read-only run context handed to [`Evaluator::prepare`]: the base
/// circuit, its primary-input order, the test vectors, and the shared
/// base-netlist cone cache (swapped into the root node's prepared state
/// and handed back by the engine after each root evaluation).
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// The uncorrected base netlist.
    pub base: &'a Netlist,
    /// Primary inputs of `base`, in vector-row order.
    pub base_inputs: &'a [GateId],
    /// The test-vector matrix (one row per primary input).
    pub vectors: &'a PackedMatrix,
    /// Memoized fanout cones of `base`, reused across root evaluations.
    pub base_cones: &'a mut ConeCache,
}

/// A fully prepared decision-tree node.
#[derive(Debug)]
pub struct PreparedNode {
    /// The base netlist with the node's corrections applied.
    pub netlist: Netlist,
    /// The node circuit's fully simulated value matrix.
    pub vals: PackedMatrix,
    /// Cone cache over `netlist`, for the diagnosis/screening stages.
    pub cones: ConeCache,
}

/// A simulation backend for node preparation.
pub trait Evaluator: Debug + Send {
    /// Stable name, reported in [`RectifyStats`](crate::RectifyStats)
    /// and the JSON reports.
    fn name(&self) -> &'static str;

    /// Worker threads the diagnosis/screening stages should use
    /// (`0` = all cores, `1` = serial).
    fn jobs(&self) -> usize {
        1
    }

    /// Does this backend keep parent matrices for change-bounded reuse?
    /// (The speculative dispatcher reads it to warm and share those
    /// matrices; the candidate pipeline is the same either way.)
    fn incremental(&self) -> bool {
        false
    }

    /// Is the hierarchical sparse kernel enabled? When `true`, node
    /// preparation uses the block-granular cone walk and the candidate
    /// pipeline restricts screening popcounts to occupied blocks of the
    /// failing-vector mask (results are bit-identical either way; see
    /// the "Simulation kernel" section of `ARCHITECTURE.md`).
    fn sparse(&self) -> bool {
        false
    }

    /// Current work counters (monotonic; diffed by the engine).
    fn counters(&self) -> SimCounters;

    /// Builds the node for `corrections` applied to `ctx.base`. Returns
    /// `None` when a correction fails to apply — a dead node.
    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode>;

    /// Clones out the retained (netlist, matrix) pair for `corrections`
    /// if this backend kept one, refreshing its recency. Backends that
    /// keep nothing return `None`. Used by the dispatcher's cache
    /// warming to probe a worker's private cache without triggering the
    /// replay a [`Evaluator::prepare`] miss would cost.
    fn cached(&mut self, _corrections: &[Correction]) -> Option<(Netlist, PackedMatrix)> {
        None
    }

    /// Offers an open node's (netlist, matrix) for child reuse. Returns
    /// the number of cache evictions this caused (0 for backends that
    /// keep nothing).
    fn retain(
        &mut self,
        _corrections: &[Correction],
        _netlist: Netlist,
        _vals: PackedMatrix,
    ) -> u64 {
        0
    }

    /// Tells the backend a node closed: any retained state for it can
    /// never be reused.
    fn release(&mut self, _corrections: &[Correction]) {}

    /// Drops all retained/memoized state, returning the backend to its
    /// just-constructed condition (fresh counters included).
    fn reset(&mut self);

    /// Approximate bytes of retained/cached state, for the engine's
    /// retained-memory budget ([`RectifyLimits::max_retained_bytes`]).
    /// Backends that keep nothing report 0.
    ///
    /// [`RectifyLimits::max_retained_bytes`]: crate::RectifyLimits::max_retained_bytes
    fn retained_bytes(&self) -> usize {
        0
    }

    /// Drains structured degradation events recorded since the last
    /// call (audit repairs, evaluator fallbacks). Plain backends record
    /// none; the [`Auditing`](crate::Auditing) decorator overrides this.
    fn take_degradations(&mut self) -> Vec<crate::limits::DegradationEvent> {
        Vec::new()
    }
}

/// Rebuild every node from the base circuit and resimulate everything —
/// the paper's baseline cost model.
#[derive(Debug, Default)]
pub struct FromScratch {
    sim: Simulator,
}

impl FromScratch {
    /// A fresh from-scratch backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables/disables the sparse simulation kernel (builder style).
    pub fn with_sparse(mut self, on: bool) -> Self {
        self.sim.set_sparse(on);
        self
    }
}

impl Evaluator for FromScratch {
    fn name(&self) -> &'static str {
        "from-scratch"
    }

    fn sparse(&self) -> bool {
        self.sim.sparse()
    }

    fn counters(&self) -> SimCounters {
        SimCounters {
            words: self.sim.words_simulated(),
            events: self.sim.events_propagated(),
            skipped: self.sim.words_skipped(),
            blocks_skipped: self.sim.blocks_skipped(),
            sparse_rows: self.sim.sparse_rows(),
            dense_fallbacks: self.sim.dense_fallbacks(),
            ..SimCounters::default()
        }
    }

    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        if corrections.is_empty() {
            // The root is resimulated per call (ladder restarts), keeping
            // the original engine's work profile for `incremental = false`.
            let netlist = ctx.base.clone();
            let vals = self
                .sim
                .run_for_inputs(ctx.base, ctx.base_inputs, ctx.vectors);
            let cones = std::mem::take(ctx.base_cones);
            return Some(PreparedNode {
                netlist,
                vals,
                cones,
            });
        }
        let mut netlist = ctx.base.clone();
        for c in corrections {
            if c.apply(&mut netlist).is_err() {
                return None;
            }
        }
        let vals = self
            .sim
            .run_for_inputs(&netlist, ctx.base_inputs, ctx.vectors);
        let cones = ConeCache::new(&netlist);
        Some(PreparedNode {
            netlist,
            vals,
            cones,
        })
    }

    fn reset(&mut self) {
        let sparse = self.sim.sparse();
        self.sim = Simulator::new();
        self.sim.set_sparse(sparse);
    }
}

/// Event-driven incremental backend: reuse the parent node's cached
/// value matrix and resimulate only the corrected line's fanout cone,
/// change-bounded. Matrices of open nodes live in a byte-budgeted LRU
/// (`NodeMatrixCache`); a miss replays the correction tuple
/// incrementally from the memoized base matrix.
#[derive(Debug)]
pub struct Incremental {
    sim: Simulator,
    cache: NodeMatrixCache,
    cache_budget: usize,
    base_vals: Option<PackedMatrix>,
    hits: u64,
}

impl Incremental {
    /// An incremental backend whose matrix cache holds at most
    /// `cache_budget` bytes (`0` disables the cache but keeps the
    /// change-bounded cone propagation).
    pub fn new(cache_budget: usize) -> Self {
        Incremental {
            sim: Simulator::new(),
            cache: NodeMatrixCache::new(cache_budget),
            cache_budget,
            base_vals: None,
            hits: 0,
        }
    }

    /// Enables/disables the sparse simulation kernel (builder style).
    /// Sparse mode changes no result — the change-bounded cone walk
    /// just propagates per occupied block instead of per row.
    pub fn with_sparse(mut self, on: bool) -> Self {
        self.sim.set_sparse(on);
        self
    }

    /// The base netlist's fully simulated value matrix, memoized (a pure
    /// function of the base netlist and the vector set).
    fn base_values(&mut self, ctx: &EvalContext<'_>) -> PackedMatrix {
        if self.base_vals.is_none() {
            self.base_vals = Some(
                self.sim
                    .run_for_inputs(ctx.base, ctx.base_inputs, ctx.vectors),
            );
        }
        match &self.base_vals {
            Some(v) => v.clone(),
            // Unreachable: just filled above. An empty matrix keeps this
            // arm panic-free; it would fail the solution check, never
            // fabricate one.
            None => PackedMatrix::new(0, 0),
        }
    }

    /// Applies one correction to a consistent (netlist, matrix) pair and
    /// restores consistency incrementally: evaluate any appended gates,
    /// then the corrected line, then propagate change-bounded through
    /// its fanout cone. Returns `false` when the correction does not
    /// apply.
    ///
    /// A constant ties the line in place ([`Netlist::tie`]), which hands
    /// back the cone it re-levelled, so the cone is walked once per
    /// correction.
    fn apply_and_propagate(
        &mut self,
        netlist: &mut Netlist,
        vals: &mut PackedMatrix,
        c: &Correction,
    ) -> bool {
        let cone = if let Some(value) = c.as_stuck_at() {
            match netlist.tie(c.line(), value) {
                Ok(cone) => cone,
                Err(_) => return false,
            }
        } else {
            let rows_before = netlist.len();
            if c.apply(netlist).is_err() {
                return false;
            }
            if netlist.len() > rows_before {
                // Appended gates (an InvertInput NOT, an InsertGate aux
                // gate) read only pre-existing lines and feed only the
                // corrected line: evaluate them once, in id order.
                vals.grow_rows(netlist.len());
                for idx in rows_before..netlist.len() {
                    self.sim.eval_gate(netlist, GateId::from_index(idx), vals);
                }
            }
            netlist.fanout_cone_sorted(c.line())
        };
        self.sim.eval_gate(netlist, c.line(), vals);
        self.sim.run_cone_events(netlist, vals, &cone);
        true
    }
}

impl Evaluator for Incremental {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn incremental(&self) -> bool {
        true
    }

    fn sparse(&self) -> bool {
        self.sim.sparse()
    }

    fn counters(&self) -> SimCounters {
        SimCounters {
            words: self.sim.words_simulated(),
            events: self.sim.events_propagated(),
            skipped: self.sim.words_skipped(),
            matrix_hits: self.hits,
            blocks_skipped: self.sim.blocks_skipped(),
            sparse_rows: self.sim.sparse_rows(),
            dense_fallbacks: self.sim.dense_fallbacks(),
            ..SimCounters::default()
        }
    }

    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        if corrections.is_empty() {
            let netlist = ctx.base.clone();
            let vals = self.base_values(ctx);
            let cones = std::mem::take(ctx.base_cones);
            return Some(PreparedNode {
                netlist,
                vals,
                cones,
            });
        }
        let (last, prefix) = corrections.split_last()?;
        if let Some((mut netlist, mut vals)) = self.cache.get_clone(prefix) {
            self.hits += 1;
            if !self.apply_and_propagate(&mut netlist, &mut vals, last) {
                return None;
            }
            let cones = ConeCache::new(&netlist);
            return Some(PreparedNode {
                netlist,
                vals,
                cones,
            });
        }
        // Miss: replay every correction incrementally from the base
        // matrix — k cone resimulations instead of a whole-circuit pass.
        let mut netlist = ctx.base.clone();
        let mut vals = self.base_values(ctx);
        for c in corrections {
            if !self.apply_and_propagate(&mut netlist, &mut vals, c) {
                return None;
            }
        }
        let cones = ConeCache::new(&netlist);
        Some(PreparedNode {
            netlist,
            vals,
            cones,
        })
    }

    fn cached(&mut self, corrections: &[Correction]) -> Option<(Netlist, PackedMatrix)> {
        self.cache.get_clone(corrections)
    }

    fn retain(&mut self, corrections: &[Correction], netlist: Netlist, vals: PackedMatrix) -> u64 {
        self.cache.insert(corrections.to_vec(), netlist, vals)
    }

    fn release(&mut self, corrections: &[Correction]) {
        self.cache.remove(corrections);
    }

    fn reset(&mut self) {
        let sparse = self.sim.sparse();
        self.sim = Simulator::new();
        self.sim.set_sparse(sparse);
        self.cache = NodeMatrixCache::new(self.cache_budget);
        self.base_vals = None;
        self.hits = 0;
    }

    fn retained_bytes(&self) -> usize {
        let base = self
            .base_vals
            .as_ref()
            .map_or(0, |m| m.rows() * m.words_per_row() * 8);
        self.cache.bytes() + base
    }
}

/// Decorator adding a worker count for the parallel screening stages.
/// Node preparation itself stays on the inner backend; only
/// [`Evaluator::jobs`] changes, which the candidate pipeline feeds to
/// its deterministic parallel map.
#[derive(Debug)]
pub struct Parallel {
    inner: Box<dyn Evaluator>,
    jobs: usize,
}

impl Parallel {
    /// Wraps `inner`, advertising `jobs` workers (`0` = all cores).
    pub fn new(inner: Box<dyn Evaluator>, jobs: usize) -> Self {
        Parallel { inner, jobs }
    }
}

impl Evaluator for Parallel {
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "incremental" => "parallel+incremental",
            "from-scratch" => "parallel+from-scratch",
            _ => "parallel",
        }
    }

    fn jobs(&self) -> usize {
        self.jobs
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
        self.inner.prepare(ctx, corrections)
    }

    fn cached(&mut self, corrections: &[Correction]) -> Option<(Netlist, PackedMatrix)> {
        self.inner.cached(corrections)
    }

    fn retain(&mut self, corrections: &[Correction], netlist: Netlist, vals: PackedMatrix) -> u64 {
        self.inner.retain(corrections, netlist, vals)
    }

    fn release(&mut self, corrections: &[Correction]) {
        self.inner.release(corrections)
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes()
    }

    fn take_degradations(&mut self) -> Vec<crate::limits::DegradationEvent> {
        self.inner.take_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_fault::CorrectionAction;
    use incdx_netlist::parse_bench;

    fn setup() -> (Netlist, PackedMatrix) {
        let n =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, a)\n").unwrap();
        let mut pi = PackedMatrix::new(2, 8);
        for v in 0..8 {
            pi.set(0, v, v & 1 == 1);
            pi.set(1, v, v & 2 == 2);
        }
        (n, pi)
    }

    fn prepare_with(
        ev: &mut dyn Evaluator,
        n: &Netlist,
        pi: &PackedMatrix,
        c: &[Correction],
    ) -> Option<PreparedNode> {
        let inputs = n.inputs().to_vec();
        let mut cones = ConeCache::new(n);
        let mut ctx = EvalContext {
            base: n,
            base_inputs: &inputs,
            vectors: pi,
            base_cones: &mut cones,
        };
        ev.prepare(&mut ctx, c)
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let (n, pi) = setup();
        let y = n.find_by_name("y").unwrap();
        let tuple = vec![Correction::new(y, CorrectionAction::SetConst(true))];
        let mut scratch = FromScratch::new();
        let mut inc = Incremental::new(64 << 20);
        for corrections in [vec![], tuple] {
            let a = prepare_with(&mut scratch, &n, &pi, &corrections).unwrap();
            let b = prepare_with(&mut inc, &n, &pi, &corrections).unwrap();
            assert_eq!(a.vals.rows(), b.vals.rows());
            for r in 0..a.vals.rows() {
                assert_eq!(a.vals.row(r), b.vals.row(r), "row {r} of {corrections:?}");
            }
        }
    }

    #[test]
    fn retain_enables_cache_hits_and_release_drops_them() {
        let (n, pi) = setup();
        let y = n.find_by_name("y").unwrap();
        let mut inc = Incremental::new(64 << 20);
        let root = prepare_with(&mut inc, &n, &pi, &[]).unwrap();
        assert_eq!(inc.retain(&[], root.netlist, root.vals), 0);
        let tuple = vec![Correction::new(y, CorrectionAction::SetConst(true))];
        assert!(prepare_with(&mut inc, &n, &pi, &tuple).is_some());
        assert_eq!(inc.counters().matrix_hits, 1);
        inc.release(&[]);
        assert!(prepare_with(&mut inc, &n, &pi, &tuple).is_some());
        assert_eq!(inc.counters().matrix_hits, 1, "released entry cannot hit");
    }

    #[test]
    fn cached_probe_returns_retained_pairs_without_replay() {
        let (n, pi) = setup();
        let mut inc = Incremental::new(64 << 20);
        assert!(inc.cached(&[]).is_none(), "nothing retained yet");
        let root = prepare_with(&mut inc, &n, &pi, &[]).unwrap();
        inc.retain(&[], root.netlist, root.vals.clone());
        let words_before = inc.counters().words;
        let (_, vals) = inc.cached(&[]).expect("retained pair is probeable");
        assert_eq!(vals.row(0), root.vals.row(0), "probe clones the matrix");
        assert_eq!(
            inc.counters().words,
            words_before,
            "a probe simulates nothing"
        );
        // Backends that keep nothing answer None, so cache warming is a
        // no-op for them.
        assert!(FromScratch::new().cached(&[]).is_none());
        let mut par = Parallel::new(Box::new(Incremental::new(64 << 20)), 2);
        assert!(par.cached(&[]).is_none(), "decorator delegates");
    }

    #[test]
    fn failed_application_is_a_dead_node() {
        let (n, pi) = setup();
        let y = n.find_by_name("y").unwrap();
        // Adding an input that is already a fanin does not apply.
        let x = n.find_by_name("x").unwrap();
        let bad = vec![Correction::new(y, CorrectionAction::AddInput { source: x })];
        let mut scratch = FromScratch::new();
        let mut inc = Incremental::new(64 << 20);
        assert!(prepare_with(&mut scratch, &n, &pi, &bad).is_none());
        assert!(prepare_with(&mut inc, &n, &pi, &bad).is_none());
    }

    #[test]
    fn reset_restores_fresh_state() {
        let (n, pi) = setup();
        let mut inc = Incremental::new(64 << 20);
        let root = prepare_with(&mut inc, &n, &pi, &[]).unwrap();
        inc.retain(&[], root.netlist, root.vals);
        assert!(inc.counters().words > 0);
        inc.reset();
        assert_eq!(inc.counters(), SimCounters::default());
    }

    #[test]
    fn sparse_flag_survives_reset_and_decorators() {
        let mut inc = Incremental::new(0).with_sparse(true);
        assert!(inc.sparse());
        inc.reset();
        assert!(inc.sparse(), "reset must not silently drop sparse mode");
        let mut scratch = FromScratch::new().with_sparse(true);
        scratch.reset();
        assert!(scratch.sparse());
        let par = Parallel::new(Box::new(FromScratch::new().with_sparse(true)), 2);
        assert!(par.sparse());
        assert!(!Parallel::new(Box::new(FromScratch::new()), 2).sparse());
    }

    #[test]
    fn parallel_decorator_delegates() {
        let (n, pi) = setup();
        let mut par = Parallel::new(Box::new(Incremental::new(0)), 4);
        assert_eq!(par.jobs(), 4);
        assert!(par.incremental());
        assert_eq!(par.name(), "parallel+incremental");
        assert!(prepare_with(&mut par, &n, &pi, &[]).is_some());
        assert!(par.counters().words > 0);
        assert_eq!(
            Parallel::new(Box::new(FromScratch::new()), 0).name(),
            "parallel+from-scratch"
        );
    }
}
