//! The rectification session facade: run configuration, statistics, and
//! the engine loop that drives a [`Traversal`] strategy, an
//! [`Evaluator`] backend and the shared [`CandidatePipeline`] over the
//! decision [`Tree`](crate::tree::Tree).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use incdx_fault::{Correction, CorrectionModel, StuckAt};
use incdx_netlist::{Abstraction, ConeCache, GateId, Netlist, NetlistError};
use incdx_sim::{PackedMatrix, Response};

use crate::chaos::{Chaos, ChaosConfig, ChaosState, ChaosSummary};
use crate::checkpoint::{netlist_fingerprint, Checkpoint, CheckpointNode, CHECKPOINT_VERSION};
use crate::error::IncdxError;
use crate::evaluator::{EvalContext, Evaluator, FromScratch, Incremental, Parallel, PreparedNode};
use crate::limits::{
    CancelToken, DegradationEvent, DegradationKind, PartialSolution, RectifyLimits, StopReason,
    Verdict,
};
use crate::parallel::ParallelTelemetry;
use crate::params::{default_ladder, ParamLevel};
use crate::pipeline::CandidatePipeline;
use crate::traversal::{Traversal, TraversalKind};
use crate::tree::{Node, PushOutcome, RankedCorrection, Tree};

/// Configuration for a [`Rectifier`] run.
#[derive(Debug, Clone)]
pub struct RectifyConfig {
    /// Which correction repertoire to search (stuck-at vs design errors).
    pub model: CorrectionModel,
    /// Maximum tuple size — the decision tree's depth bound.
    pub max_corrections: usize,
    /// Exhaustive traversal (collect every minimal tuple) vs stop at the
    /// first solution.
    pub exhaustive: bool,
    /// Round budget for the traversal (each round at most doubles the
    /// node count, so `max_rounds = r` explores ≤ 2^r nodes).
    pub max_rounds: usize,
    /// Hard cap on tree nodes.
    pub max_nodes: usize,
    /// Stop after this many solutions (exhaustive mode).
    pub max_solutions: usize,
    /// Failing vectors sampled by path-trace.
    pub path_trace_vector_cap: usize,
    /// Minimum fraction of path-trace-marked lines promoted to
    /// heuristic 1 (the effective fraction per node is the maximum of
    /// this and the current ladder level's
    /// [`ParamLevel::promote`]).
    pub path_trace_fraction: f64,
    /// Hard cap on lines promoted to the correction stage per node.
    pub max_candidate_lines: usize,
    /// Candidate source signals per line for wire corrections
    /// (0 = every cycle-safe signal; > 0 = stride-sample to that many,
    /// with the drop count reported in the stats).
    pub wire_source_limit: usize,
    /// Ranked candidates kept per node (cap is recorded in the stats, not
    /// silent).
    pub max_candidates_per_node: usize,
    /// The `h1/h2/h3` relaxation ladder.
    pub ladder: Vec<ParamLevel>,
    /// Apply Theorem 1's `|V_err|/N` floor to the `h2` threshold (with
    /// `N` = remaining correction slots), so the guaranteed-to-exist
    /// high-excitation correction is never screened out.
    pub theorem_floor: bool,
    /// Wall-clock budget; exceeded ⇒ stop with `stats.truncated = true`.
    pub time_limit: Option<Duration>,
    /// Tree traversal strategy (the paper's rounds by default; see
    /// [`TraversalKind`]).
    pub traversal: TraversalKind,
    /// Worker threads for candidate screening (`0` = all available
    /// cores, `1` = serial). Results are bit-identical for every value:
    /// per-candidate evaluations run against worker-private simulator
    /// state and merge in candidate-rank order. Selects the
    /// [`Parallel`] evaluator decorator.
    pub jobs: usize,
    /// Read by nothing in the engine: every value gives the same run.
    /// Kept only because perfbench still reads it; it goes once
    /// perfbench stops (ROADMAP item 2).
    pub dispatch: bool,
    /// Event-driven incremental node evaluation (the [`Incremental`]
    /// backend): reuse the parent node's cached value matrix and
    /// resimulate only the corrected line's fanout cone
    /// (change-bounded), instead of cloning and fully resimulating the
    /// base circuit per node ([`FromScratch`]). It selects node
    /// preparation only: the candidate pipeline (heuristics 1–3) runs
    /// the same code under both settings. Bit-identical to the
    /// from-scratch path for every `jobs` value — only `words_simulated`
    /// (and the event/skip counters) differ.
    pub incremental: bool,
    /// Byte budget for the node value-matrix cache used by the incremental
    /// path (LRU beyond this; `0` disables the cache but keeps the
    /// change-bounded cone propagation).
    pub matrix_cache_bytes: usize,
    /// Hierarchical sparse simulation kernel: cone propagation walks only
    /// blocks whose fanin actually changed, and screening popcounts skip
    /// all-zero blocks of the failing-vector mask. Bit-identical to the
    /// dense path for every setting — only
    /// [`RectifyStats::blocks_skipped`] / [`RectifyStats::sparse_rows`] /
    /// [`RectifyStats::dense_fallbacks`] and wall time differ (see the
    /// "Simulation kernel" section of `ARCHITECTURE.md`).
    pub sparse: bool,
    /// Opt-in engine invariant audit: wrap the evaluation backend in the
    /// [`Auditing`](crate::Auditing) decorator (sampled replay of
    /// incremental node preparations against a from-scratch rebuild,
    /// matrix width checks), replay every child the engine closes from
    /// its parent's screening scores (such a child must not be a
    /// solution), check every line the pipeline's last-slot rule drops
    /// against its sensitivity pass (see [`CandidatePipeline::run`]),
    /// and re-verify every reported solution against a fresh
    /// simulation. Audit work runs on private simulators and does
    /// not perturb the reported work counters; results are recorded in
    /// [`RectifyStats::audit_checks`] / [`RectifyStats::audit_violations`].
    pub audit: bool,
    /// Resource limits — wall-clock deadline and node/word/byte budgets
    /// — checked cooperatively once per scheduled plan item (never
    /// mid-node). The default is unlimited. Exceeding a limit stops the
    /// search with the matching early-stop [`Verdict`], ranks the open
    /// frontier into [`RectifyResult::partials`], and captures a
    /// resumable [`Checkpoint`].
    pub limits: RectifyLimits,
    /// Deterministic chaos fault injection (`None` = off). When armed,
    /// the evaluation stack is wrapped in [`Chaos`] (seeded worker
    /// panics, cached-matrix bit flips, spurious width errors) inside a
    /// repairing [`Auditing`](crate::Auditing) layer, so every injected
    /// fault is caught and recovered — the solution set stays
    /// bit-identical to a chaos-off run, and every recovery is recorded
    /// in [`RectifyStats::degradations`].
    pub chaos: Option<ChaosConfig>,
    /// Two-level hierarchical diagnosis: phase 1 diagnoses a fanout-free
    /// -cone abstraction of the netlist (super-gates built by
    /// [`Abstraction::build`](incdx_netlist::Abstraction::build)) through
    /// the unchanged engine, phase 2 expands the implicated super-gates
    /// and resumes diagnosis on the concrete netlist restricted to those
    /// regions ([`RectifyConfig::focus`]), with replay validation of
    /// every mapped-back solution. Exhaustive runs always finish with an
    /// unrestricted concrete pass, so the reported solution set equals
    /// the flat run's; DEDC runs return early on a replay-validated
    /// restricted solution. Degenerate abstractions (no cone collapses)
    /// fall back to flat diagnosis. Telemetry lands in
    /// [`RectifyStats::abstraction`].
    pub hierarchical: bool,
    /// Restricts diagnosis to a sorted set of suspect lines: path-trace
    /// marks outside the set are discarded before ranking, so the tree
    /// only ever proposes corrections on focused lines. `None` = no
    /// restriction. Set internally by hierarchical phase 2; exposed for
    /// harnesses that already know the implicated region.
    pub focus: Option<Vec<GateId>>,
}

impl RectifyConfig {
    /// The DEDC setting: design-error corrections, first solution wins.
    pub fn dedc(num_errors: usize) -> Self {
        RectifyConfig {
            model: CorrectionModel::DesignErrors,
            max_corrections: num_errors,
            exhaustive: false,
            max_rounds: 48,
            max_nodes: 1024,
            max_solutions: 1,
            path_trace_vector_cap: 32,
            path_trace_fraction: 0.05,
            max_candidate_lines: 256,
            wire_source_limit: 0,
            max_candidates_per_node: 48,
            ladder: default_ladder(),
            theorem_floor: true,
            time_limit: None,
            traversal: TraversalKind::RoundRobinBfs,
            jobs: 1,
            dispatch: false,
            incremental: true,
            matrix_cache_bytes: 256 << 20,
            sparse: true,
            audit: false,
            limits: RectifyLimits::default(),
            chaos: None,
            hierarchical: false,
            focus: None,
        }
    }

    /// The stuck-at diagnosis setting: exhaustive search for every minimal
    /// equivalent fault tuple of size ≤ `num_faults`. Screening runs on
    /// Theorem 1 alone (`h2 = |V_err|/N` via the theorem floor; `h1`/`h3`
    /// disabled) so no valid tuple is pruned by the aggressive heuristics
    /// — the paper's "exact performance" requirement of §4.1.
    pub fn stuck_at_exhaustive(num_faults: usize) -> Self {
        RectifyConfig {
            model: CorrectionModel::StuckAt,
            max_corrections: num_faults,
            exhaustive: true,
            max_rounds: 100_000,
            max_nodes: 20_000,
            max_solutions: 10_000,
            path_trace_vector_cap: 32,
            path_trace_fraction: 1.0,
            max_candidate_lines: usize::MAX,
            wire_source_limit: 0,
            max_candidates_per_node: usize::MAX,
            ladder: vec![ParamLevel::exhaustive()],
            theorem_floor: true,
            time_limit: None,
            traversal: TraversalKind::RoundRobinBfs,
            jobs: 1,
            dispatch: false,
            incremental: true,
            matrix_cache_bytes: 256 << 20,
            sparse: true,
            audit: false,
            limits: RectifyLimits::default(),
            chaos: None,
            hierarchical: false,
            focus: None,
        }
    }
}

/// A valid correction tuple: applying `corrections` to the base netlist
/// makes it match the reference on every vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The corrections, in application order.
    pub corrections: Vec<Correction>,
}

impl Solution {
    /// The distinct lines of the tuple.
    pub fn lines(&self) -> Vec<GateId> {
        let mut v: Vec<GateId> = self.corrections.iter().map(|c| c.line()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Interprets the tuple as stuck-at faults, if every correction is a
    /// constant (always true in [`CorrectionModel::StuckAt`] runs).
    pub fn stuck_at_tuple(&self) -> Option<Vec<StuckAt>> {
        let mut out = Vec::with_capacity(self.corrections.len());
        for c in &self.corrections {
            out.push(StuckAt::new(c.line(), c.as_stuck_at()?));
        }
        out.sort();
        Some(out)
    }
}

/// Counters and timings of a run (Table 2's diagnosis/correction columns
/// come straight from here).
#[derive(Debug, Clone, Default)]
pub struct RectifyStats {
    /// Name of the traversal strategy that drove the run (empty before
    /// the first run).
    pub traversal: &'static str,
    /// Name of the evaluation backend that prepared the run's nodes
    /// (empty before the first run).
    pub evaluator: &'static str,
    /// Decision-tree nodes evaluated (the paper's "nodes" column).
    pub nodes: usize,
    /// Node evaluations that skipped diagnosis + screening because the
    /// child could never join the tree (depth or node cap reached) — the
    /// node was still prepared and solution-checked.
    pub expansions_skipped: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Time in the diagnosis stage (path-trace + heuristic 1).
    pub diagnosis_time: Duration,
    /// Time in the correction stage (enumeration + screening + ranking).
    pub correction_time: Duration,
    /// Time simulating node circuits.
    pub simulation_time: Duration,
    /// Time in path-trace marking (a component of `diagnosis_time`).
    pub path_trace_time: Duration,
    /// Time ranking suspect lines with heuristic 1 (the flip-and-propagate
    /// pass; the other component of `diagnosis_time`).
    pub rank_time: Duration,
    /// Time in the screening stage proper — heuristic-2 counts over every
    /// candidate, the sensitivity passes of lines heuristic 1 did not
    /// score, and the heuristic-3 counts of the survivors
    /// (`correction_time` minus final sorting/truncation).
    pub screen_time: Duration,
    /// Total time evaluating decision-tree nodes (simulate + diagnose +
    /// screen; the sum over all nodes).
    pub evaluate_time: Duration,
    /// Corrections evaluated against heuristic 2.
    pub corrections_screened: usize,
    /// Corrections surviving both screens (before the per-node cap).
    pub corrections_qualified: usize,
    /// Suspect lines rejected because their heuristic-1 correcting
    /// potential fell below the ladder level's `h1` threshold.
    pub lines_rejected_h1: usize,
    /// Corrections rejected by heuristic 2 (the `V_err` bit-complement
    /// test of Theorem 1), including candidates with no evaluable output
    /// row.
    pub corrections_rejected_h2: usize,
    /// Corrections rejected by heuristic 3 (the `V_corr` preservation
    /// test). Invariant: `corrections_screened ==
    /// corrections_rejected_h2 + corrections_rejected_h3 +
    /// corrections_qualified`.
    pub corrections_rejected_h3: usize,
    /// Packed 64-vector words evaluated across every simulator, worker
    /// simulators included — the machine-independent measure of
    /// simulation work (see `incdx_sim::Simulator::words_simulated`).
    pub words_simulated: u64,
    /// Gate evaluations triggered by change-bounded cone propagation
    /// (`Simulator::run_cone_events`), across every simulator.
    pub events_propagated: u64,
    /// Packed words *not* evaluated because the change-bounded walk saw no
    /// changed fanin — simulation work avoided relative to plain cone
    /// resimulation.
    pub words_skipped: u64,
    /// All-zero blocks the sparse kernel skipped without touching, summed
    /// over cone propagation and screening popcounts
    /// ([`RectifyConfig::sparse`]; 0 when sparse mode is off).
    pub blocks_skipped: u64,
    /// Rows the sparse kernel evaluated block-restricted: rows of sparse
    /// cone propagation, plus one per screened candidate that has an
    /// output row while the node's failing-vector mask skips at least one
    /// block (its heuristic-2 count walks only the occupied blocks).
    pub sparse_rows: u64,
    /// Operations where sparse mode was on but the dense path ran anyway
    /// (rows narrower than one block, or a mask with nothing to skip).
    pub dense_fallbacks: u64,
    /// Fanout-cone lookups served from a [`ConeCache`] instead of
    /// computed. Screening computes a line's cone on its first read, so
    /// this counts memoization effort, not search: parallel screening
    /// leaves it unchanged, and a change that reads fewer cones lowers it
    /// without touching any other counter.
    pub cone_cache_hits: u64,
    /// Node evaluations that started from a cached parent value matrix
    /// instead of a from-scratch resimulation.
    pub matrix_cache_hits: u64,
    /// Entries evicted from the node value-matrix cache by the byte budget.
    pub matrix_cache_evictions: u64,
    /// Worker-utilization telemetry aggregated over every parallel
    /// screening section of the run.
    pub parallel: ParallelTelemetry,
    /// Wire-source candidates dropped by the per-line cap, summed.
    pub wire_sources_truncated: usize,
    /// Candidates dropped by `max_candidates_per_node`, summed.
    pub candidates_truncated: usize,
    /// Suspect lines dropped by `max_candidate_lines`, summed.
    pub lines_truncated: usize,
    /// Deepest parameter-ladder level any node had to relax to.
    pub deepest_ladder_level: usize,
    /// Invariant checks performed by the opt-in audit layer
    /// ([`RectifyConfig::audit`]; 0 when the audit is off).
    pub audit_checks: u64,
    /// Audit checks that failed. Always 0 on a healthy engine; a nonzero
    /// value means an incremental evaluation diverged from its
    /// from-scratch replay or a reported solution did not verify.
    pub audit_violations: u64,
    /// True when a budget (rounds, nodes, solutions, time) cut the search.
    pub truncated: bool,
    /// Every recovery the engine performed instead of aborting — worker
    /// panics retried serially, audit repairs, parallel→serial fallback
    /// — in occurrence order. Empty on an undisturbed run.
    pub degradations: Vec<DegradationEvent>,
    /// Fault-injection tally when the run was chaos-armed
    /// ([`RectifyConfig::chaos`]); `None` otherwise.
    pub chaos: Option<ChaosSummary>,
    /// Hierarchical-diagnosis telemetry when the run was armed with
    /// [`RectifyConfig::hierarchical`] and the abstraction was not
    /// degenerate; `None` otherwise (including flat fallbacks).
    pub abstraction: Option<AbstractionStats>,
    /// Structural fault-equivalence summary, computed on the base netlist
    /// whenever an exhaustive stuck-at run starts; `None` for other
    /// modes. The paper's Table-1 "equivalent fault classes" numbers come
    /// from here.
    pub fault_classes: Option<FaultClassSummary>,
}

/// Structural fault-equivalence classes of the base netlist, from
/// [`incdx_atpg::FaultClasses`]; lands in [`RectifyStats::fault_classes`]
/// and the JSON report's `"fault_classes"` object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultClassSummary {
    /// Number of structural equivalence classes.
    pub classes: usize,
    /// Total collapsed stuck-at faults (2 per line).
    pub faults: usize,
    /// One representative per class, formatted `line/polarity` (line
    /// name when available, else the `n<id>` display form).
    pub representatives: Vec<String>,
}

/// Telemetry of one hierarchical run's abstraction and refinement
/// ([`RectifyConfig::hierarchical`]); lands in
/// [`RectifyStats::abstraction`] and the JSON report's `"abstraction"`
/// object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbstractionStats {
    /// Fanout-free cones collapsed into super-gates.
    pub super_gates: usize,
    /// Gates in the concrete netlist.
    pub concrete_gates: usize,
    /// Gates in the abstract netlist phase 1 diagnosed.
    pub abstract_gates: usize,
    /// `abstract_gates / concrete_gates` (1.0 = nothing collapsed).
    pub collapse_ratio: f64,
    /// Concrete gates the implicated super-gates expanded to — the size
    /// of phase 2's focus set.
    pub suspects_expanded: usize,
    /// Concrete diagnosis rounds after phase 1: 1 for a restricted pass
    /// that sufficed, 2 when the unrestricted pass also ran.
    pub refinement_rounds: usize,
    /// Decision-tree nodes evaluated by the abstract phase.
    pub phase1_nodes: usize,
    /// Decision-tree nodes evaluated by the concrete phases.
    pub phase2_nodes: usize,
}

/// The outcome of [`Rectifier::run`].
#[derive(Debug, Clone)]
pub struct RectifyResult {
    /// Valid correction tuples, in discovery order. In exhaustive mode
    /// these are deduplicated and minimal (no tuple is a superset of
    /// another). An empty-corrections solution means the netlist already
    /// matched the reference.
    pub solutions: Vec<Solution>,
    /// Typed outcome of the run. Precedence when several apply:
    /// cancelled > deadline > budget > partial > truncated > degraded >
    /// exact.
    pub verdict: Verdict,
    /// Best still-open correction tuples when the run stopped early (or
    /// was truncated without finding a solution), ranked ascending by
    /// remaining failing vectors. Empty on solved, unconstrained runs.
    pub partials: Vec<PartialSolution>,
    /// Resumable search snapshot, captured only on limit/cancel stops
    /// (`None` otherwise). Serialize with [`Checkpoint::to_json`] and
    /// continue later via [`Rectifier::resume`].
    pub checkpoint: Option<Checkpoint>,
    /// Search statistics.
    pub stats: RectifyStats,
}

impl RectifyResult {
    /// Distinct lines over all solutions — the paper's "# sites" column.
    pub fn distinct_sites(&self) -> usize {
        let mut lines: Vec<GateId> = self.solutions.iter().flat_map(|s| s.lines()).collect();
        lines.sort();
        lines.dedup();
        lines.len()
    }
}

enum NodeEval {
    Solved,
    Dead,
    Open {
        candidates: Vec<RankedCorrection>,
        failing: usize,
    },
}

/// What one ladder level's traversal produced, including any early-stop
/// bookkeeping for the run loop.
struct LevelOutcome {
    solutions: Vec<Solution>,
    /// `Some` when a limit/cancel stop cut the level short.
    stop: Option<StopReason>,
    /// Ranked open frontier (populated on stops and solution-less
    /// exits).
    partials: Vec<PartialSolution>,
    /// Captured only together with `stop`.
    checkpoint: Option<Checkpoint>,
}

/// Rehydrated search state handed to [`Rectifier::run_inner`] by
/// [`Rectifier::resume`]: the level to re-enter and the mid-plan
/// position to continue from.
struct ResumeState {
    level: usize,
    iterations: usize,
    plan: Vec<usize>,
    plan_pos: usize,
    tree: Tree,
    visited: HashSet<Vec<Correction>>,
    solutions: Vec<Solution>,
}

/// The incremental rectification engine (see the crate docs for the
/// algorithm and the crate example for usage).
///
/// The engine is a thin loop over three pluggable layers: a
/// [`Traversal`] strategy schedules which open decision-tree node
/// expands next, an [`Evaluator`] backend prepares node circuits and
/// value matrices, and the [`CandidatePipeline`] turns a still-failing
/// node into its ranked candidate list. [`Rectifier::new`] wires the
/// layers from the [`RectifyConfig`]; [`Rectifier::with_traversal`] and
/// [`Rectifier::with_evaluator`] swap in custom ones.
#[derive(Debug)]
pub struct Rectifier {
    base: Netlist,
    base_inputs: Vec<GateId>,
    vectors: PackedMatrix,
    spec: Response,
    config: RectifyConfig,
    stats: RectifyStats,
    /// Memoized fanout cones of the *base* netlist, reused across every
    /// root evaluation and ladder level (swapped into the node-local cone
    /// cache while the root node is being evaluated).
    base_cones: ConeCache,
    traversal: Box<dyn Traversal>,
    evaluator: Box<dyn Evaluator>,
    /// Cooperative cancellation handle, polled once per scheduled plan
    /// item (see [`Rectifier::cancel_token`]).
    cancel: CancelToken,
    /// Shared chaos-injection state when [`RectifyConfig::chaos`] is
    /// armed (the evaluator stack and the pipeline workers draw from
    /// the same seeded stream).
    chaos: Option<Arc<ChaosState>>,
    /// Latched true after repeated recovered worker panics: screening
    /// runs serially for the rest of the run (results are bit-identical
    /// for every jobs count, so the fallback is lossless).
    degrade_serial: bool,
    /// Harness label stamped into captured checkpoints.
    checkpoint_label: String,
    /// Harness trial seed stamped into captured checkpoints.
    checkpoint_seed: u64,
}

impl Rectifier {
    /// Creates a session rectifying `netlist` toward the reference
    /// responses `spec` under the test vectors `vectors` (one row per
    /// primary input of `netlist`).
    ///
    /// `spec` must have been captured/compared against the same vector
    /// set and an identical output ordering.
    ///
    /// # Errors
    ///
    /// [`IncdxError::SequentialNetlist`] if the netlist holds state
    /// elements (scan-convert first), [`IncdxError::ShapeMismatch`] if
    /// the vector or reference shapes disagree with the netlist, and
    /// [`IncdxError::Lint`] if the pre-flight lint pass finds
    /// error-severity structural hazards (combinational cycles, undriven
    /// wires, arity violations, …) that would make simulation results
    /// undefined. Lint warnings and advisories never block construction.
    pub fn new(
        netlist: Netlist,
        vectors: PackedMatrix,
        spec: Response,
        config: RectifyConfig,
    ) -> Result<Self, IncdxError> {
        if let Err(NetlistError::Sequential { dffs }) = netlist.ensure_combinational() {
            return Err(IncdxError::SequentialNetlist { dffs });
        }
        if vectors.rows() != netlist.inputs().len() {
            return Err(IncdxError::ShapeMismatch {
                what: "vector rows (one per primary input)",
                expected: netlist.inputs().len(),
                got: vectors.rows(),
            });
        }
        if spec.po_values().rows() != netlist.outputs().len() {
            return Err(IncdxError::ShapeMismatch {
                what: "reference output rows",
                expected: netlist.outputs().len(),
                got: spec.po_values().rows(),
            });
        }
        if spec.po_values().num_vectors() != vectors.num_vectors() {
            return Err(IncdxError::ShapeMismatch {
                what: "reference vector count",
                expected: vectors.num_vectors(),
                got: spec.po_values().num_vectors(),
            });
        }
        // Pre-flight lint: refuse structurally hazardous netlists (cycles,
        // undriven wires, bad arities) up front instead of producing
        // undefined simulation results deep inside the search.
        let lint_errors = incdx_lint::lint_errors(&netlist);
        if !lint_errors.is_empty() {
            return Err(IncdxError::Lint(lint_errors));
        }
        let base_inputs = netlist.inputs().to_vec();
        let base_cones = ConeCache::new(&netlist);
        let mut traversal = config.traversal.build();
        // Seed the strategy with SCOAP observability: best-first uses it
        // to break exact score ties toward more observable lines; the
        // other strategies ignore it. (The netlist is combinational here;
        // SCOAP requires exactly that.)
        let scoap = incdx_atpg::Scoap::compute(&netlist);
        let co: Vec<u32> = netlist.ids().map(|id| scoap.co(id)).collect();
        traversal.seed_observability(&co);
        let chaos = config.chaos.map(ChaosState::new);
        let evaluator = build_evaluator(&config, chaos.clone());
        Ok(Rectifier {
            base: netlist,
            base_inputs,
            vectors,
            spec,
            config,
            stats: RectifyStats::default(),
            base_cones,
            traversal,
            evaluator,
            cancel: CancelToken::new(),
            chaos,
            degrade_serial: false,
            checkpoint_label: String::new(),
            checkpoint_seed: 0,
        })
    }

    /// A clone of the run's cancellation token. Hand it to another
    /// thread (or arm [`CancelToken::trip_after`] in a test) and call
    /// [`CancelToken::cancel`]; the engine notices at its next per-item
    /// poll, stops with [`Verdict::Cancelled`], and captures a
    /// checkpoint.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the cancellation token (e.g. to share one token across
    /// several sessions).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Stamps a harness label and trial seed into any checkpoint this
    /// session captures, so a driver can later re-dispatch the resumed
    /// run to the right experiment.
    pub fn set_checkpoint_meta(&mut self, label: impl Into<String>, trial_seed: u64) {
        self.checkpoint_label = label.into();
        self.checkpoint_seed = trial_seed;
    }

    /// Replaces the traversal strategy (defaults to the one selected by
    /// [`RectifyConfig::traversal`]).
    pub fn with_traversal(mut self, traversal: Box<dyn Traversal>) -> Self {
        self.traversal = traversal;
        self
    }

    /// Replaces the evaluation backend (defaults to the one selected by
    /// [`RectifyConfig::incremental`] / [`RectifyConfig::jobs`]).
    pub fn with_evaluator(mut self, evaluator: Box<dyn Evaluator>) -> Self {
        self.evaluator = evaluator;
        self
    }

    /// Replaces the base-netlist cone cache with a pre-warmed one —
    /// typically a cheap [`ConeCache`] clone handed out by an
    /// artifact-interning layer, so successive sessions (or successive
    /// time slices of a resumable session) on the same circuit skip
    /// recomputing fanout cones. Purely a cache swap: results are
    /// unaffected because every cone is a pure function of the base
    /// netlist.
    ///
    /// # Errors
    ///
    /// [`IncdxError::ShapeMismatch`] if `cones` was built for a netlist
    /// of a different size (the telltale of a stale cache).
    pub fn with_base_cones(mut self, cones: ConeCache) -> Result<Self, IncdxError> {
        if cones.capacity() != self.base.len() {
            return Err(IncdxError::ShapeMismatch {
                what: "cone cache slots",
                expected: self.base.len(),
                got: cones.capacity(),
            });
        }
        self.base_cones = cones;
        Ok(self)
    }

    /// The session's current base-netlist cone cache (read-only). An
    /// interning layer clones this after a run to keep the warmed cones
    /// for the circuit's next session or time slice.
    pub fn base_cones(&self) -> &ConeCache {
        &self.base_cones
    }

    /// Runs the search. The engine is reusable: statistics restart at
    /// zero on every call, and memoized backend state (base matrix, node
    /// matrix cache) carries over — results are unaffected because every
    /// cached matrix is a pure function of the base circuit and the
    /// corrections applied; call [`Rectifier::reset`] first for a
    /// cold-state run with pristine work counters.
    pub fn run(&mut self) -> RectifyResult {
        if self.config.hierarchical {
            return match self.run_hierarchical(None) {
                Ok(result) => result,
                // Unreachable without a resume checkpoint (resume
                // validation is the orchestrator's only error source),
                // but the engine never panics: fall back to flat.
                Err(_) => self.run_inner(None),
            };
        }
        self.run_inner(None)
    }

    /// Continues an interrupted search from a [`Checkpoint`] captured by
    /// an earlier limit/cancel stop. The checkpoint must pin the same
    /// base netlist (structural fingerprint + gate count) and vector
    /// count as this session; the rehydrated tree is re-checked against
    /// the decision-tree invariants before the search restarts. A
    /// resumed run (without limits) reaches a solution set bit-identical
    /// to an uninterrupted one, because every evaluator backend is a
    /// pure function of the base circuit and the applied corrections.
    ///
    /// One caveat: a checkpoint captured after an *asynchronous*
    /// [`CancelToken::cancel`] (as opposed to a deadline, budget, or
    /// deterministic trip) may have cut a node's screening short, so its
    /// resumed search explores a subset frontier — still invariant-clean
    /// and replay-valid, but not necessarily identical.
    ///
    /// # Errors
    ///
    /// [`IncdxError::Checkpoint`] when the checkpoint pins a different
    /// circuit or vector set, targets an unknown ladder level, or fails
    /// the tree invariant audit.
    pub fn resume(&mut self, checkpoint: &Checkpoint) -> Result<RectifyResult, IncdxError> {
        let fail = |reason: String| IncdxError::Checkpoint { reason };
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(fail(format!(
                "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                checkpoint.version
            )));
        }
        // A nonzero phase means the checkpoint was captured inside the
        // hierarchical orchestrator: route it back there (phase 0 is a
        // plain flat search and resumes below, in either configuration).
        if checkpoint.phase != 0 {
            if !self.config.hierarchical {
                return Err(fail(format!(
                    "checkpoint was captured in hierarchical phase {} but this session is flat",
                    checkpoint.phase
                )));
            }
            return self.run_hierarchical(Some(checkpoint));
        }
        if checkpoint.base_gates != self.base.len()
            || checkpoint.base_hash != netlist_fingerprint(&self.base)
        {
            return Err(fail(
                "checkpoint pins a different base netlist (gate count or structural fingerprint mismatch)"
                    .to_string(),
            ));
        }
        if checkpoint.vectors != self.vectors.num_vectors() {
            return Err(fail(format!(
                "checkpoint pins {} vectors, session has {}",
                checkpoint.vectors,
                self.vectors.num_vectors()
            )));
        }
        if checkpoint.level >= self.config.ladder.len() {
            return Err(fail(format!(
                "checkpoint ladder level {} out of range (ladder has {} levels)",
                checkpoint.level,
                self.config.ladder.len()
            )));
        }
        if checkpoint.nodes.is_empty() {
            return Err(fail("checkpoint holds an empty decision tree".to_string()));
        }
        let nodes: Vec<Node> = checkpoint
            .nodes
            .iter()
            .map(|n| {
                let mut node = Node::new(n.corrections.clone(), n.candidates.clone(), n.failing);
                node.next = n.next;
                node
            })
            .collect();
        let tree = Tree::from_saved(nodes, self.config.max_corrections, self.config.max_nodes);
        let bad = tree.invariant_violations();
        if bad > 0 {
            return Err(fail(format!(
                "checkpoint tree fails {bad} decision-tree invariant(s)"
            )));
        }
        let resume = ResumeState {
            level: checkpoint.level,
            iterations: checkpoint.iterations,
            plan: checkpoint.plan.clone(),
            plan_pos: checkpoint.plan_pos,
            tree,
            visited: checkpoint.visited.iter().cloned().collect(),
            solutions: checkpoint
                .solutions
                .iter()
                .map(|c| Solution {
                    corrections: c.clone(),
                })
                .collect(),
        };
        Ok(self.run_inner(Some(resume)))
    }

    fn run_inner(&mut self, resume: Option<ResumeState>) -> RectifyResult {
        let started = Instant::now();
        self.stats = RectifyStats::default();
        self.stats.traversal = self.traversal.name();
        self.stats.evaluator = self.evaluator.name();
        self.degrade_serial = false;
        self.stats.fault_classes = fault_class_summary(&self.base, &self.config);
        // Global parameter relaxation (§3.3): the whole tree search runs at
        // one `h1/h2/h3` level; only if it "returns with no corrections" —
        // no solution — does the run restart at the next, looser level. A
        // resumed run re-enters the ladder at the checkpointed level.
        let ladder = self.config.ladder.clone();
        let start_level = resume.as_ref().map_or(0, |r| r.level);
        let mut resume_state = resume;
        let mut solutions = Vec::new();
        let mut partials = Vec::new();
        let mut checkpoint = None;
        let mut stop = None;
        for (level_idx, level) in ladder.iter().enumerate().skip(start_level) {
            self.stats.deepest_ladder_level = level_idx;
            let outcome = self.search_level(level, level_idx, started, resume_state.take());
            solutions = outcome.solutions;
            partials = outcome.partials;
            if outcome.stop.is_some() {
                stop = outcome.stop;
                checkpoint = outcome.checkpoint;
                break;
            }
            let out_of_time = self
                .config
                .time_limit
                .is_some_and(|limit| started.elapsed() > limit);
            if !solutions.is_empty() || out_of_time {
                break;
            }
        }
        // Exhaustive mode reports only minimal tuples.
        if self.config.exhaustive {
            solutions = minimal_solutions(solutions);
        }
        if self.config.audit {
            self.audit_solutions(&solutions);
        }
        // Fold every recovery into the run's degradation ledger, keeping
        // the events the candidate pipeline already recorded in place
        // (sparse-mask summary repairs).
        let mut degradations = std::mem::take(&mut self.stats.degradations);
        degradations.extend(self.evaluator.take_degradations());
        let panics = self.stats.parallel.panics_recovered;
        if panics > 0 {
            degradations.push(DegradationEvent::new(
                DegradationKind::WorkerPanic,
                panics,
                format!("{panics} screening worker panic(s) recovered by serial retry"),
            ));
        }
        if self.degrade_serial {
            degradations.push(DegradationEvent::new(
                DegradationKind::ParallelDisabled,
                1,
                "repeated worker panics latched screening to serial",
            ));
        }
        self.stats.degradations = degradations;
        self.stats.chaos = self.chaos.as_ref().map(|c| c.summary());
        let verdict = match stop {
            Some(StopReason::Cancelled) => Verdict::Cancelled,
            Some(StopReason::Deadline) => Verdict::DeadlineExceeded,
            Some(StopReason::Budget) => Verdict::BudgetExhausted,
            None if self.stats.truncated && solutions.is_empty() => Verdict::Partial {
                best_remaining_failures: partials.first().map_or(0, |p| p.remaining_failures),
            },
            None if self.stats.truncated && self.config.exhaustive => Verdict::Truncated,
            None if !self.stats.degradations.is_empty() => Verdict::Degraded,
            None => Verdict::Exact,
        };
        RectifyResult {
            solutions,
            verdict,
            partials,
            checkpoint,
            stats: self.stats.clone(),
        }
    }

    /// The two-level hierarchical orchestration
    /// ([`RectifyConfig::hierarchical`]).
    ///
    /// Phase 1 diagnoses the fanout-free-cone abstraction of the base
    /// netlist through an unchanged child session (the abstract netlist
    /// keeps the concrete input order and maps outputs 1:1, so the same
    /// vectors and reference response apply). The implicated
    /// super-gates then expand to their concrete members and phase 2
    /// resumes diagnosis on the concrete netlist restricted to that
    /// region ([`RectifyConfig::focus`]). A first-solution run returns
    /// as soon as a restricted solution replay-validates against the
    /// reference; exhaustive runs always finish with an unrestricted
    /// concrete pass and merge, so the reported solution set equals the
    /// flat run's by construction.
    ///
    /// Degenerate abstractions (nothing collapsed) and abstract-session
    /// construction failures fall back to flat diagnosis (the latter
    /// recorded as a [`DegradationKind::AbstractionRepair`]); a chaos
    /// -corrupted [`AbstractionMap`](incdx_netlist::AbstractionMap) is
    /// caught by its structural self-check and rebuilt, likewise
    /// recorded.
    ///
    /// `resume` carries a phase-stamped checkpoint: phases before the
    /// stamped one re-run deterministically (they reproduce the state
    /// the interrupted run had derived), the stamped phase resumes
    /// mid-plan, and later phases run normally — so the overall
    /// solution set matches an uninterrupted run's.
    fn run_hierarchical(
        &mut self,
        resume: Option<&Checkpoint>,
    ) -> Result<RectifyResult, IncdxError> {
        let started = Instant::now();
        self.stats = RectifyStats::default();
        self.stats.traversal = self.traversal.name();
        self.stats.evaluator = self.evaluator.name();
        self.stats.fault_classes = fault_class_summary(&self.base, &self.config);
        let resume_phase = resume.map_or(0, |c| c.phase);

        let mut abs = Abstraction::build(&self.base);
        if let Some(chaos) = &self.chaos {
            chaos.maybe_corrupt_abstraction(abs.map_mut());
        }
        if !abs.map().validate() {
            self.stats.degradations.push(DegradationEvent::new(
                DegradationKind::AbstractionRepair,
                1,
                "abstraction map failed its structural self-check; rebuilt from the base netlist",
            ));
            abs = Abstraction::build(&self.base);
        }
        if abs.is_degenerate() {
            // Nothing collapsed: the hierarchy has no leverage. Run flat
            // (`stats.abstraction` stays `None`, like a flat run).
            let pending = std::mem::take(&mut self.stats.degradations);
            return Ok(self.flat_fallback(pending));
        }

        let mut astats = AbstractionStats {
            super_gates: abs.map().super_gates(),
            concrete_gates: abs.map().concrete_len(),
            abstract_gates: abs.map().abstract_len(),
            collapse_ratio: abs.map().collapse_ratio(),
            suspects_expanded: 0,
            refinement_rounds: 0,
            phase1_nodes: 0,
            phase2_nodes: 0,
        };

        // Every child phase runs the unchanged generic engine: the same
        // configuration, minus the orchestration-only fields.
        let mut phase_cfg = self.config.clone();
        phase_cfg.hierarchical = false;
        phase_cfg.chaos = None;
        phase_cfg.focus = None;

        // ---- Phase 1: diagnose the abstraction ----
        let mut p1_cfg = phase_cfg.clone();
        p1_cfg.limits = remaining_limits(&self.config.limits, &self.stats, started);
        p1_cfg.time_limit = remaining_time(self.config.time_limit, started);
        let r1 = match self.run_child(
            abs.netlist().clone(),
            p1_cfg,
            if resume_phase == 1 { resume } else { None },
        ) {
            Ok(r) => r,
            Err(ChildError::Resume(e)) => return Err(e),
            Err(ChildError::Construct(e)) => {
                let mut pending = std::mem::take(&mut self.stats.degradations);
                pending.push(DegradationEvent::new(
                    DegradationKind::AbstractionRepair,
                    1,
                    format!(
                        "abstract session construction failed ({e}); fell back to flat diagnosis"
                    ),
                ));
                return Ok(self.flat_fallback(pending));
            }
        };
        astats.phase1_nodes = r1.stats.nodes;
        absorb_child(&mut self.stats, &r1.stats);
        if r1.verdict.is_early_stop() {
            // Phase-1 solutions/partials live in abstract gate-id space;
            // the checkpoint (pinning the abstract netlist) carries the
            // state forward instead.
            return Ok(self.finish_hierarchical(
                Vec::new(),
                Some(r1.verdict),
                Vec::new(),
                r1.checkpoint,
                1,
                astats,
            ));
        }

        // ---- Expand the implicated super-gates into the focus set ----
        let mut abstract_lines: Vec<GateId> = r1.solutions.iter().flat_map(|s| s.lines()).collect();
        if abstract_lines.is_empty() {
            abstract_lines = r1
                .partials
                .iter()
                .flat_map(|p| p.corrections.iter().map(|c| c.line()))
                .collect();
        }
        abstract_lines.sort();
        abstract_lines.dedup();
        let mut suspects: Vec<GateId> = abstract_lines
            .iter()
            .filter(|a| a.index() < abs.map().abstract_len())
            .flat_map(|&a| abs.map().members(a).iter().copied())
            .collect();
        suspects.sort();
        suspects.dedup();
        astats.suspects_expanded = suspects.len();

        // ---- Phase 2: concrete diagnosis restricted to the region ----
        let mut r2_solutions: Vec<Solution> = Vec::new();
        if !suspects.is_empty() {
            astats.refinement_rounds += 1;
            let mut p2_cfg = phase_cfg.clone();
            p2_cfg.focus = Some(suspects.clone());
            p2_cfg.limits = remaining_limits(&self.config.limits, &self.stats, started);
            p2_cfg.time_limit = remaining_time(self.config.time_limit, started);
            let r2 = match self.run_child(
                self.base.clone(),
                p2_cfg,
                if resume_phase == 2 { resume } else { None },
            ) {
                Ok(r) => r,
                Err(ChildError::Resume(e)) => return Err(e),
                Err(ChildError::Construct(e)) => {
                    let mut pending = std::mem::take(&mut self.stats.degradations);
                    pending.push(DegradationEvent::new(
                        DegradationKind::AbstractionRepair,
                        1,
                        format!(
                            "restricted session construction failed ({e}); fell back to flat diagnosis"
                        ),
                    ));
                    return Ok(self.flat_fallback(pending));
                }
            };
            astats.phase2_nodes += r2.stats.nodes;
            absorb_child(&mut self.stats, &r2.stats);
            if r2.verdict.is_early_stop() {
                return Ok(self.finish_hierarchical(
                    r2.solutions,
                    Some(r2.verdict),
                    r2.partials,
                    r2.checkpoint,
                    2,
                    astats,
                ));
            }
            if self.config.exhaustive {
                // Restricted solutions are a subset of the unrestricted
                // pass's; keep them for the merge below.
                r2_solutions = r2.solutions;
            } else if !r2.solutions.is_empty()
                && r2
                    .solutions
                    .iter()
                    .all(|s| self.replay_validates(&s.corrections))
            {
                // First-solution mode: a replay-validated restricted
                // solution is the answer — this early return is the
                // hierarchical speedup.
                return Ok(self.finish_hierarchical(
                    r2.solutions,
                    None,
                    Vec::new(),
                    None,
                    0,
                    astats,
                ));
            }
            // First-solution fall-through: nothing found in the region
            // (or a solution failed replay — discarded); widen.
        }

        // ---- Phase 3: the unrestricted concrete pass ----
        astats.refinement_rounds += 1;
        let mut p3_cfg = phase_cfg.clone();
        p3_cfg.limits = remaining_limits(&self.config.limits, &self.stats, started);
        p3_cfg.time_limit = remaining_time(self.config.time_limit, started);
        let r3 = match self.run_child(
            self.base.clone(),
            p3_cfg,
            if resume_phase == 3 { resume } else { None },
        ) {
            Ok(r) => r,
            Err(ChildError::Resume(e)) => return Err(e),
            Err(ChildError::Construct(e)) => {
                let mut pending = std::mem::take(&mut self.stats.degradations);
                pending.push(DegradationEvent::new(
                    DegradationKind::AbstractionRepair,
                    1,
                    format!(
                        "unrestricted session construction failed ({e}); fell back to flat diagnosis"
                    ),
                ));
                return Ok(self.flat_fallback(pending));
            }
        };
        astats.phase2_nodes += r3.stats.nodes;
        absorb_child(&mut self.stats, &r3.stats);

        // Merge (exhaustive: dedupe + re-minimalize, so the set equals
        // the flat run's; first-solution: phase 3 found it or nothing).
        let mut seen: HashSet<Vec<Correction>> = HashSet::new();
        let mut merged = Vec::new();
        for s in r2_solutions.into_iter().chain(r3.solutions) {
            let mut key = s.corrections.clone();
            key.sort();
            if seen.insert(key) {
                merged.push(s);
            }
        }
        let solutions = if self.config.exhaustive {
            minimal_solutions(merged)
        } else {
            merged
        };
        if self.config.audit {
            self.audit_solutions(&solutions);
        }
        let partials = if solutions.is_empty() {
            r3.partials
        } else {
            Vec::new()
        };
        let stop = if r3.verdict.is_early_stop() {
            Some(r3.verdict)
        } else {
            None
        };
        let checkpoint = if stop.is_some() { r3.checkpoint } else { None };
        Ok(self.finish_hierarchical(solutions, stop, partials, checkpoint, 3, astats))
    }

    /// Constructs and runs one hierarchical child phase on `netlist`,
    /// sharing this session's vectors, reference response, cancellation
    /// token and checkpoint metadata. `resume` is a phase-stamped
    /// checkpoint to continue mid-plan; its phase is cleared before the
    /// child sees it (each child runs a plain flat search).
    fn run_child(
        &self,
        netlist: Netlist,
        config: RectifyConfig,
        resume: Option<&Checkpoint>,
    ) -> Result<RectifyResult, ChildError> {
        let mut child = Rectifier::new(netlist, self.vectors.clone(), self.spec.clone(), config)
            .map_err(ChildError::Construct)?;
        child.set_cancel_token(self.cancel.clone());
        child.set_checkpoint_meta(self.checkpoint_label.clone(), self.checkpoint_seed);
        match resume {
            Some(ckpt) => {
                let mut flat = ckpt.clone();
                flat.phase = 0;
                child.resume(&flat).map_err(ChildError::Resume)
            }
            None => Ok(child.run()),
        }
    }

    /// Seals a hierarchical run: stamps the phase into any captured
    /// checkpoint, publishes the abstraction telemetry and chaos tally,
    /// and derives the verdict with the same precedence as the flat
    /// loop (early stop > partial > degraded > exact).
    fn finish_hierarchical(
        &mut self,
        solutions: Vec<Solution>,
        stop: Option<Verdict>,
        partials: Vec<PartialSolution>,
        mut checkpoint: Option<Checkpoint>,
        phase: u32,
        astats: AbstractionStats,
    ) -> RectifyResult {
        if let Some(c) = &mut checkpoint {
            c.phase = phase;
        }
        self.stats.abstraction = Some(astats);
        self.stats.chaos = self.chaos.as_ref().map(|c| c.summary());
        let verdict = match stop {
            Some(v) => v,
            None if solutions.is_empty() && self.stats.truncated => Verdict::Partial {
                best_remaining_failures: partials.first().map_or(0, |p| p.remaining_failures),
            },
            None if self.stats.truncated && self.config.exhaustive => Verdict::Truncated,
            None if !self.stats.degradations.is_empty() => Verdict::Degraded,
            None => Verdict::Exact,
        };
        RectifyResult {
            solutions,
            verdict,
            partials,
            checkpoint,
            stats: self.stats.clone(),
        }
    }

    /// Runs the plain flat search after a hierarchical fallback,
    /// prepending `pending` degradations (the reason for the fallback)
    /// to the run's ledger.
    fn flat_fallback(&mut self, pending: Vec<DegradationEvent>) -> RectifyResult {
        let mut result = self.run_inner(None);
        if !pending.is_empty() {
            let mut all = pending;
            all.extend(std::mem::take(&mut result.stats.degradations));
            result.stats.degradations = all.clone();
            self.stats.degradations = all;
            if matches!(result.verdict, Verdict::Exact) {
                result.verdict = Verdict::Degraded;
            }
        }
        result
    }

    /// Replays one correction tuple from scratch against the reference:
    /// apply the corrections to a fresh copy of the base netlist,
    /// simulate on a private simulator, compare. The hierarchical
    /// orchestrator gates first-solution returns on this — a restricted
    /// phase-2 solution must also rectify the full concrete netlist —
    /// and the audit re-checks reported solutions and score-closed
    /// leaves with it.
    fn replay_validates(&self, corrections: &[Correction]) -> bool {
        let mut netlist = self.base.clone();
        if !corrections.iter().all(|c| c.apply(&mut netlist).is_ok()) {
            return false;
        }
        let mut sim = incdx_sim::Simulator::new();
        let vals = sim.run_for_inputs(&netlist, &self.base_inputs, &self.vectors);
        Response::compare(&netlist, &vals, &self.spec).matches()
    }

    /// The audit layer's end-of-run gold check: replay every reported
    /// tuple from scratch and verify it matches the reference. Any
    /// divergence is an engine bug (a false solution), recorded in
    /// [`RectifyStats::audit_violations`] — and fatal in debug builds.
    fn audit_solutions(&mut self, solutions: &[Solution]) {
        for s in solutions {
            self.stats.audit_checks += 1;
            if !self.replay_validates(&s.corrections) {
                self.stats.audit_violations += 1;
                debug_assert!(false, "audit: reported solution failed replay: {s:?}");
            }
        }
        // Minimality invariant (exhaustive mode): no reported tuple may be
        // a strict superset of another.
        if self.config.exhaustive {
            let sets: Vec<Vec<Correction>> = solutions
                .iter()
                .map(|s| {
                    let mut v = s.corrections.clone();
                    v.sort();
                    v
                })
                .collect();
            for (i, a) in sets.iter().enumerate() {
                self.stats.audit_checks += 1;
                let dominated = sets
                    .iter()
                    .enumerate()
                    .any(|(j, b)| i != j && b.len() < a.len() && b.iter().all(|c| a.contains(c)));
                if dominated {
                    self.stats.audit_violations += 1;
                    debug_assert!(false, "audit: non-minimal tuple reported: {a:?}");
                }
            }
        }
    }

    /// Returns the engine to its just-constructed state: statistics
    /// zeroed, backend caches and memoized matrices dropped, cone cache
    /// rebuilt. After `reset`, [`Rectifier::run`] reproduces a fresh
    /// engine's result *and* work counters exactly.
    pub fn reset(&mut self) {
        self.stats = RectifyStats::default();
        self.evaluator.reset();
        self.base_cones = ConeCache::new(&self.base);
    }

    /// One full tree traversal at a fixed parameter level (entered
    /// mid-plan when resuming from a checkpoint).
    fn search_level(
        &mut self,
        level: &ParamLevel,
        level_idx: usize,
        started: Instant,
        resume: Option<ResumeState>,
    ) -> LevelOutcome {
        let done = |solutions: Vec<Solution>| LevelOutcome {
            solutions,
            stop: None,
            partials: Vec::new(),
            checkpoint: None,
        };
        let out_of_time = |s: &Self| {
            s.config
                .time_limit
                .is_some_and(|limit| started.elapsed() > limit)
        };

        let (mut tree, mut visited, mut solutions, mut iterations, mut plan, mut plan_pos) =
            match resume {
                Some(r) => (
                    r.tree,
                    r.visited,
                    r.solutions,
                    r.iterations,
                    r.plan,
                    r.plan_pos,
                ),
                None => {
                    let mut tree = Tree::new(self.config.max_corrections, self.config.max_nodes);
                    match self.evaluate(&[], level, true) {
                        NodeEval::Solved => {
                            return done(vec![Solution {
                                corrections: vec![],
                            }]);
                        }
                        NodeEval::Dead => {
                            return done(vec![]);
                        }
                        NodeEval::Open {
                            candidates,
                            failing,
                        } => {
                            tree.push_root(Node::new(vec![], candidates, failing));
                        }
                    }
                    let mut visited = HashSet::new();
                    visited.insert(vec![]);
                    (tree, visited, Vec::new(), 0usize, Vec::new(), 0usize)
                }
            };
        let mut seen_solutions: HashSet<Vec<Correction>> = solutions
            .iter()
            .map(|s| {
                let mut v = s.corrections.clone();
                v.sort();
                v
            })
            .collect();

        // Rounds mode: each iteration is one round of Fig. 2, so the
        // budget is the round cap. Single-step strategies (DFS, naive
        // BFS, best-first): each iteration is one node expansion, so
        // their budget scales with the node cap instead.
        let iteration_budget = self
            .traversal
            .iteration_budget(self.config.max_rounds, self.config.max_nodes);
        'search: loop {
            // Drain the current plan (possibly mid-way after a resume).
            while plan_pos < plan.len() {
                // Limits are checked *before* an item is processed, so a
                // captured checkpoint's `plan_pos` always names the
                // first unprocessed entry — resume re-evaluates nothing
                // and skips nothing.
                if let Some(reason) = self.check_limits(started) {
                    self.stats.truncated = true;
                    let checkpoint = self.capture_checkpoint(
                        level_idx, iterations, &plan, plan_pos, &tree, &visited, &solutions,
                    );
                    return LevelOutcome {
                        partials: collect_partials(&tree),
                        solutions,
                        stop: Some(reason),
                        checkpoint: Some(checkpoint),
                    };
                }
                if out_of_time(self) {
                    self.stats.truncated = true;
                    break 'search;
                }
                let idx = plan[plan_pos];
                plan_pos += 1;
                {
                    let Some(node) = tree.get(idx) else {
                        continue;
                    };
                    if !node.open() {
                        // Closed nodes can never spawn children again; any
                        // state the backend retained for them is dead
                        // weight. (Round-robin deliberately schedules
                        // closed nodes for exactly this sweep.)
                        self.evaluator.release(&node.corrections);
                        continue;
                    }
                }
                let Some((cand, corrections)) = ({
                    tree.get_mut(idx).and_then(|node| {
                        let cand = *node.peek()?;
                        node.next += 1;
                        let mut corrections = node.corrections.clone();
                        corrections.push(cand.correction);
                        Some((cand, corrections))
                    })
                }) else {
                    continue;
                };
                let mut canonical = corrections.clone();
                canonical.sort();
                if !visited.insert(canonical.clone()) {
                    continue;
                }
                // A superset of a known solution cannot be minimal.
                if self.config.exhaustive
                    && seen_solutions
                        .iter()
                        .any(|s| s.iter().all(|c| canonical.contains(c)))
                {
                    continue;
                }
                // A child at the depth bound or the node cap can never
                // join the tree. If the parent's screening scores prove
                // it still fails, it is closed without preparing it;
                // otherwise it is evaluated lazily — solution check only,
                // no diagnosis/screening for a candidate list nobody
                // reads.
                let expandable = tree.expandable(corrections.len());
                let outcome = if !expandable && !cand.repairs_every_vector() {
                    self.close_failing_leaf(&corrections)
                } else {
                    self.evaluate(&corrections, level, expandable)
                };
                match outcome {
                    NodeEval::Solved => {
                        let mut key = corrections.clone();
                        key.sort();
                        if seen_solutions.insert(key) {
                            solutions.push(Solution { corrections });
                        }
                        if !self.config.exhaustive {
                            break 'search;
                        }
                        if solutions.len() >= self.config.max_solutions {
                            self.stats.truncated = true;
                            break 'search;
                        }
                    }
                    NodeEval::Dead => {}
                    NodeEval::Open {
                        candidates,
                        failing,
                    } => {
                        match tree.push(Node::new(corrections, candidates, failing)) {
                            PushOutcome::Added(_) => {}
                            PushOutcome::NodeCapped => {
                                // (The unexpanded child cached no matrix,
                                // so there is nothing to evict here.)
                                self.stats.truncated = true;
                            }
                            PushOutcome::DepthCapped => {}
                        }
                    }
                }
                if let Some(node) = tree.get(idx) {
                    if !node.open() {
                        self.evaluator.release(&node.corrections);
                    }
                }
            }
            // Plan drained: schedule the next round.
            if iterations >= iteration_budget || !tree.has_open() {
                break;
            }
            iterations += 1;
            self.stats.rounds += 1;
            plan.clear();
            self.traversal.schedule(&tree, &mut plan);
            plan_pos = 0;
            if plan.is_empty() {
                break;
            }
        }
        if (self.config.exhaustive || solutions.is_empty())
            && iterations >= iteration_budget
            && tree.has_open()
        {
            self.stats.truncated = true;
        }
        if self.config.audit || cfg!(debug_assertions) {
            self.stats.audit_checks += 1;
            let bad = tree.invariant_violations();
            if bad > 0 {
                self.stats.audit_violations += bad as u64;
                debug_assert!(false, "audit: {bad} decision-tree invariant violation(s)");
            }
        }
        let partials = if solutions.is_empty() {
            collect_partials(&tree)
        } else {
            Vec::new()
        };
        LevelOutcome {
            solutions,
            stop: None,
            partials,
            checkpoint: None,
        }
    }

    /// One cooperative limit check, run once per scheduled plan item.
    /// Cancellation has reporting precedence over the deadline, which
    /// has precedence over the budgets.
    fn check_limits(&self, started: Instant) -> Option<StopReason> {
        if self.cancel.poll() {
            return Some(StopReason::Cancelled);
        }
        let limits = &self.config.limits;
        if limits.deadline.is_some_and(|d| started.elapsed() > d) {
            return Some(StopReason::Deadline);
        }
        if limits
            .max_total_nodes
            .is_some_and(|n| self.stats.nodes as u64 >= n)
        {
            return Some(StopReason::Budget);
        }
        if limits
            .max_words
            .is_some_and(|w| self.stats.words_simulated >= w)
        {
            return Some(StopReason::Budget);
        }
        if limits
            .max_retained_bytes
            .is_some_and(|b| self.evaluator.retained_bytes() >= b)
        {
            return Some(StopReason::Budget);
        }
        None
    }

    /// Snapshots the live search into a [`Checkpoint`]. The visited set
    /// is sorted so the serialized form is deterministic.
    #[allow(clippy::too_many_arguments)]
    fn capture_checkpoint(
        &self,
        level: usize,
        iterations: usize,
        plan: &[usize],
        plan_pos: usize,
        tree: &Tree,
        visited: &HashSet<Vec<Correction>>,
        solutions: &[Solution],
    ) -> Checkpoint {
        let mut visited: Vec<Vec<Correction>> = visited.iter().cloned().collect();
        visited.sort();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            label: self.checkpoint_label.clone(),
            trial_seed: self.checkpoint_seed,
            vectors: self.vectors.num_vectors(),
            base_gates: self.base.len(),
            base_hash: netlist_fingerprint(&self.base),
            level,
            phase: 0,
            iterations,
            plan: plan.to_vec(),
            plan_pos,
            nodes: tree
                .nodes()
                .iter()
                .map(|n| CheckpointNode {
                    corrections: n.corrections.clone(),
                    candidates: n.candidates.clone(),
                    next: n.next,
                    failing: n.failing,
                })
                .collect(),
            visited,
            solutions: solutions.iter().map(|s| s.corrections.clone()).collect(),
        }
    }

    /// Closes a child that can never join the tree and whose parent's
    /// screening scores prove it still fails
    /// ([`RankedCorrection::repairs_every_vector`] is `false`): it counts
    /// as a node, with no prepare, no simulation and no comparison. At
    /// the depth bound it is dead. Below it only the node cap refuses a
    /// child, so it is counted as the lazy path counts it, one
    /// `expansions_skipped`, and returned as an empty open node whose
    /// push reports the cap (the push refuses it, so its `failing` count
    /// is never read). Under [`RectifyConfig::audit`] the tuple is
    /// replayed from scratch; a leaf that replays as a solution is a
    /// violation, fatal in debug builds.
    fn close_failing_leaf(&mut self, corrections: &[Correction]) -> NodeEval {
        self.stats.nodes += 1;
        if self.config.audit {
            self.stats.audit_checks += 1;
            if self.replay_validates(corrections) {
                self.stats.audit_violations += 1;
                debug_assert!(
                    false,
                    "audit: leaf closed from its scores replays as a solution: {corrections:?}"
                );
            }
        }
        if corrections.len() >= self.config.max_corrections {
            return NodeEval::Dead;
        }
        self.stats.expansions_skipped += 1;
        NodeEval::Open {
            candidates: Vec::new(),
            failing: 0,
        }
    }

    /// Evaluates one hypothetical node — the base netlist with
    /// `corrections` applied — at a parameter level and returns its
    /// ranked, screened candidate list: the engine's view of "what would
    /// I try next here". Empty when the node is already consistent, dead,
    /// or nothing qualifies at this level. Intended for debugging,
    /// visualisation and the ablation benches.
    pub fn rank_candidates(
        &mut self,
        corrections: &[Correction],
        level: &ParamLevel,
    ) -> Vec<RankedCorrection> {
        match self.evaluate(corrections, level, true) {
            NodeEval::Open { candidates, .. } => candidates,
            _ => Vec::new(),
        }
    }

    /// Evaluates one decision-tree node: replay corrections, simulate,
    /// and — if still failing — produce its ranked candidate list.
    ///
    /// `expand = false` is the lazy path for children that can never join
    /// the tree (depth or node cap reached): the node is still prepared
    /// and checked for being a solution, but diagnosis and screening —
    /// whose only product is the discarded candidate list — are skipped
    /// and an empty `Open` is returned for any still-failing node.
    /// (The search loop closes such children whose scores prove they
    /// fail before asking; see [`Rectifier::close_failing_leaf`].)
    fn evaluate(
        &mut self,
        corrections: &[Correction],
        level: &ParamLevel,
        expand: bool,
    ) -> NodeEval {
        let t_eval = Instant::now();
        let outcome = self.evaluate_node(corrections, level, expand);
        self.stats.evaluate_time += t_eval.elapsed();
        outcome
    }

    fn evaluate_node(
        &mut self,
        corrections: &[Correction],
        level: &ParamLevel,
        expand: bool,
    ) -> NodeEval {
        self.stats.nodes += 1;
        let t0 = Instant::now();
        let before = self.evaluator.counters();
        let prepared = {
            let mut ctx = EvalContext {
                base: &self.base,
                base_inputs: &self.base_inputs,
                vectors: &self.vectors,
                base_cones: &mut self.base_cones,
            };
            self.evaluator.prepare(&mut ctx, corrections)
        };
        let after = self.evaluator.counters();
        self.stats.words_simulated += after.words - before.words;
        self.stats.events_propagated += after.events - before.events;
        self.stats.words_skipped += after.skipped - before.skipped;
        self.stats.matrix_cache_hits += after.matrix_hits - before.matrix_hits;
        self.stats.audit_checks += after.audit_checks - before.audit_checks;
        self.stats.audit_violations += after.audit_violations - before.audit_violations;
        self.stats.blocks_skipped += after.blocks_skipped - before.blocks_skipped;
        self.stats.sparse_rows += after.sparse_rows - before.sparse_rows;
        self.stats.dense_fallbacks += after.dense_fallbacks - before.dense_fallbacks;
        let Some(PreparedNode {
            netlist,
            vals,
            mut cones,
        }) = prepared
        else {
            self.stats.simulation_time += t0.elapsed();
            return NodeEval::Dead;
        };
        let response = Response::compare(&netlist, &vals, &self.spec);
        self.stats.simulation_time += t0.elapsed();
        let failing = response.num_failing();
        let outcome = if response.matches() {
            NodeEval::Solved
        } else if corrections.len() >= self.config.max_corrections {
            NodeEval::Dead
        } else if !expand {
            self.stats.expansions_skipped += 1;
            NodeEval::Open {
                candidates: Vec::new(),
                failing,
            }
        } else {
            // After repeated recovered worker panics, screening latches
            // to serial for the rest of the run (lossless: results are
            // bit-identical for every jobs count).
            let jobs = if self.degrade_serial {
                1
            } else {
                self.evaluator.jobs()
            };
            let pipeline = CandidatePipeline::new(&self.config, &self.spec, jobs)
                .with_cancel(self.cancel.clone())
                .with_chaos(self.chaos.clone());
            let candidates = pipeline.run(
                &netlist,
                &vals,
                &response,
                corrections,
                level,
                &cones,
                &mut self.stats,
            );
            if !self.degrade_serial
                && jobs != 1
                && self.stats.parallel.panics_recovered >= PANIC_FALLBACK_THRESHOLD
            {
                self.degrade_serial = true;
            }
            if candidates.is_empty() {
                // "A leaf with failure" (§3.3).
                NodeEval::Dead
            } else {
                NodeEval::Open {
                    candidates,
                    failing,
                }
            }
        };
        self.stats.cone_cache_hits += cones.take_hits();
        if corrections.is_empty() {
            // Hand the base netlist's cones back for the next root
            // evaluation (ladder restarts re-evaluate the root).
            self.base_cones = cones;
        }
        // Only open nodes can become parents, so only their matrices are
        // worth retaining for child reuse — and an unexpanded child can
        // never join the tree, so its matrix would be dead weight too.
        if expand
            && corrections.len() < self.config.max_corrections
            && matches!(outcome, NodeEval::Open { .. })
        {
            self.stats.matrix_cache_evictions += self.evaluator.retain(corrections, netlist, vals);
        }
        outcome
    }
}

/// Why one hierarchical child phase failed: construction errors trigger
/// the flat fallback (recorded as a degradation); resume errors mean the
/// caller's checkpoint is bad and propagate as [`IncdxError`].
enum ChildError {
    Construct(IncdxError),
    Resume(IncdxError),
}

/// The limit budget left for the next hierarchical phase: the deadline
/// shrinks by elapsed wall time and the node/word budgets by what the
/// earlier phases consumed; the retained-bytes cap bounds per-session
/// state, not cumulative work, and passes through unchanged.
fn remaining_limits(
    limits: &RectifyLimits,
    stats: &RectifyStats,
    started: Instant,
) -> RectifyLimits {
    RectifyLimits {
        deadline: limits.deadline.map(|d| d.saturating_sub(started.elapsed())),
        max_total_nodes: limits
            .max_total_nodes
            .map(|n| n.saturating_sub(stats.nodes as u64)),
        max_words: limits
            .max_words
            .map(|w| w.saturating_sub(stats.words_simulated)),
        max_retained_bytes: limits.max_retained_bytes,
    }
}

/// Remaining legacy wall-clock budget for the next hierarchical phase.
fn remaining_time(limit: Option<Duration>, started: Instant) -> Option<Duration> {
    limit.map(|t| t.saturating_sub(started.elapsed()))
}

/// Folds a hierarchical child phase's statistics into the
/// orchestrator's: the stage timers, the simulation and screening
/// counters, and the counters a full child run owns (`nodes`, `rounds`,
/// skipped expansions, worker telemetry, degradations, truncation,
/// ladder depth). The run-level identity fields (backend names, chaos
/// tally, abstraction telemetry) stay the orchestrator's own.
fn absorb_child(stats: &mut RectifyStats, child: &RectifyStats) {
    stats.diagnosis_time += child.diagnosis_time;
    stats.correction_time += child.correction_time;
    stats.simulation_time += child.simulation_time;
    stats.path_trace_time += child.path_trace_time;
    stats.rank_time += child.rank_time;
    stats.screen_time += child.screen_time;
    stats.evaluate_time += child.evaluate_time;
    stats.corrections_screened += child.corrections_screened;
    stats.corrections_qualified += child.corrections_qualified;
    stats.lines_rejected_h1 += child.lines_rejected_h1;
    stats.corrections_rejected_h2 += child.corrections_rejected_h2;
    stats.corrections_rejected_h3 += child.corrections_rejected_h3;
    stats.words_simulated += child.words_simulated;
    stats.events_propagated += child.events_propagated;
    stats.words_skipped += child.words_skipped;
    stats.blocks_skipped += child.blocks_skipped;
    stats.sparse_rows += child.sparse_rows;
    stats.dense_fallbacks += child.dense_fallbacks;
    stats.cone_cache_hits += child.cone_cache_hits;
    stats.matrix_cache_hits += child.matrix_cache_hits;
    stats.matrix_cache_evictions += child.matrix_cache_evictions;
    stats.audit_checks += child.audit_checks;
    stats.audit_violations += child.audit_violations;
    stats.wire_sources_truncated += child.wire_sources_truncated;
    stats.candidates_truncated += child.candidates_truncated;
    stats.lines_truncated += child.lines_truncated;
    stats.nodes += child.nodes;
    stats.expansions_skipped += child.expansions_skipped;
    stats.rounds += child.rounds;
    stats.parallel.merge(&child.parallel);
    stats
        .degradations
        .extend(child.degradations.iter().cloned());
    stats.truncated |= child.truncated;
    stats.deepest_ladder_level = stats.deepest_ladder_level.max(child.deepest_ladder_level);
    // `fault_classes` is deliberately NOT absorbed: it is a run-level
    // identity of the base netlist, not accumulated work.
}

/// The structural fault-equivalence summary reported for exhaustive
/// stuck-at runs ([`RectifyStats::fault_classes`]): collapsing comes
/// from [`incdx_atpg::FaultClasses`] on the base netlist, so the
/// Table-1-style "equivalent fault classes" numbers are the engine's
/// own. `None` for other modes.
fn fault_class_summary(netlist: &Netlist, config: &RectifyConfig) -> Option<FaultClassSummary> {
    if config.model != CorrectionModel::StuckAt || !config.exhaustive {
        return None;
    }
    let classes = incdx_atpg::FaultClasses::build(netlist);
    let representatives = classes
        .representatives()
        .iter()
        .map(|f| {
            let line = match netlist.name(f.line()) {
                Some(name) => name.to_string(),
                None => f.line().to_string(),
            };
            format!("{}/{}", line, u8::from(f.value()))
        })
        .collect();
    Some(FaultClassSummary {
        classes: classes.classes().len(),
        faults: classes.total_faults(),
        representatives,
    })
}

/// Recovered worker panics tolerated before screening latches to serial
/// for the rest of the run ([`DegradationKind::ParallelDisabled`]).
const PANIC_FALLBACK_THRESHOLD: u64 = 3;

/// The backend the configuration selects: [`Incremental`] or
/// [`FromScratch`], wrapped in [`Parallel`] when screening fans out, and
/// in [`Auditing`](crate::Auditing) (outermost) when the invariant audit
/// is on. A chaos-armed run instead wraps the stack in [`Chaos`] inside
/// a *repairing* audit layer, so every injected corruption is caught
/// and replaced by a from-scratch replay.
fn build_evaluator(config: &RectifyConfig, chaos: Option<Arc<ChaosState>>) -> Box<dyn Evaluator> {
    let inner: Box<dyn Evaluator> = if config.incremental {
        Box::new(Incremental::new(config.matrix_cache_bytes).with_sparse(config.sparse))
    } else {
        Box::new(FromScratch::new().with_sparse(config.sparse))
    };
    let inner: Box<dyn Evaluator> = if config.jobs == 1 {
        inner
    } else {
        Box::new(Parallel::new(inner, config.jobs))
    };
    match chaos {
        Some(state) => Box::new(crate::audit::Auditing::resilient(Box::new(Chaos::new(
            inner, state,
        )))) as Box<dyn Evaluator>,
        None if config.audit => Box::new(crate::audit::Auditing::new(inner)) as Box<dyn Evaluator>,
        None => inner,
    }
}

/// Ranks the still-open frontier of an interrupted (or unsuccessful)
/// search: every non-root node as a [`PartialSolution`], ascending by
/// remaining failing vectors (tuple size breaks ties). The root is
/// included only when nothing deeper exists, so the list is never empty
/// for a search that built a tree.
fn collect_partials(tree: &Tree) -> Vec<PartialSolution> {
    let mut partials: Vec<PartialSolution> = tree
        .nodes()
        .iter()
        .filter(|n| n.depth() > 0)
        .map(|n| PartialSolution {
            corrections: n.corrections.clone(),
            remaining_failures: n.failing,
        })
        .collect();
    if partials.is_empty() {
        partials.extend(tree.nodes().first().map(|root| PartialSolution {
            corrections: root.corrections.clone(),
            remaining_failures: root.failing,
        }));
    }
    partials.sort_by(|a, b| {
        a.remaining_failures
            .cmp(&b.remaining_failures)
            .then_with(|| a.corrections.len().cmp(&b.corrections.len()))
    });
    partials
}

/// Keeps only tuples that are minimal as sets (no other solution's
/// correction set is a strict subset).
fn minimal_solutions(mut solutions: Vec<Solution>) -> Vec<Solution> {
    let sets: Vec<Vec<Correction>> = solutions
        .iter()
        .map(|s| {
            let mut v = s.corrections.clone();
            v.sort();
            v
        })
        .collect();
    let mut keep = vec![true; solutions.len()];
    for i in 0..sets.len() {
        for j in 0..sets.len() {
            if i != j
                && keep[i]
                && sets[j].len() < sets[i].len()
                && sets[j].iter().all(|c| sets[i].contains(c))
            {
                keep[i] = false;
            }
        }
    }
    let mut idx = 0;
    solutions.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    solutions
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_fault::CorrectionAction;
    use incdx_netlist::parse_bench;
    use incdx_sim::Simulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec_and_vectors(golden: &Netlist, vectors: usize, seed: u64) -> (PackedMatrix, Response) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut rng);
        let mut sim = Simulator::new();
        let spec = Response::capture(golden, &sim.run(golden, &pi));
        (pi, spec)
    }

    #[test]
    fn already_correct_returns_empty_tuple() {
        let n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let (pi, spec) = spec_and_vectors(&n, 64, 1);
        let r = Rectifier::new(n, pi, spec, RectifyConfig::dedc(1))
            .unwrap()
            .run();
        assert_eq!(r.solutions.len(), 1);
        assert!(r.solutions[0].corrections.is_empty());
        assert_eq!(r.stats.traversal, "round-robin-bfs");
        assert_eq!(r.stats.evaluator, "incremental");
    }

    #[test]
    fn fixes_single_gate_replacement() {
        let good =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let bad =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = NOR(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let (pi, spec) = spec_and_vectors(&good, 64, 2);
        let r = Rectifier::new(
            bad.clone(),
            pi.clone(),
            spec.clone(),
            RectifyConfig::dedc(1),
        )
        .unwrap()
        .run();
        assert!(!r.solutions.is_empty(), "must find a fix");
        // Verify the fix really works.
        let mut fixed = bad.clone();
        for c in &r.solutions[0].corrections {
            c.apply(&mut fixed).unwrap();
        }
        let mut sim = Simulator::new();
        let vals = sim.run_for_inputs(&fixed, bad.inputs(), &pi);
        assert!(Response::compare(&fixed, &vals, &spec).matches());
    }

    #[test]
    fn exhaustive_single_stuck_at_finds_equivalent_class() {
        // y = AND(a, b): y/0, a/0 and b/0 are all single-fault
        // explanations of the device "y stuck at 0".
        let good = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut device = good.clone();
        let y = good.find_by_name("y").unwrap();
        StuckAt::new(y, false).apply(&mut device).unwrap();

        // Exhaustive vectors so equivalence is exact.
        let mut pi = PackedMatrix::new(2, 4);
        for v in 0..4 {
            pi.set(0, v, v & 1 == 1);
            pi.set(1, v, v & 2 == 2);
        }
        let mut sim = Simulator::new();
        let device_resp =
            Response::capture(&device, &sim.run_for_inputs(&device, good.inputs(), &pi));
        let r = Rectifier::new(
            good.clone(),
            pi.clone(),
            device_resp.clone(),
            RectifyConfig::stuck_at_exhaustive(1),
        )
        .unwrap()
        .run();
        let mut tuples: Vec<Vec<StuckAt>> = r
            .solutions
            .iter()
            .map(|s| s.stuck_at_tuple().expect("stuck-at run"))
            .collect();
        tuples.sort();
        let a = good.find_by_name("a").unwrap();
        let b = good.find_by_name("b").unwrap();
        let mut expect = vec![
            vec![StuckAt::new(a, false)],
            vec![StuckAt::new(b, false)],
            vec![StuckAt::new(y, false)],
        ];
        expect.sort();
        assert_eq!(tuples, expect);
        assert_eq!(r.distinct_sites(), 3);
        // Exhaustive stuck-at runs carry the structural fault-equivalence
        // summary; DEDC runs carry none.
        let classes = r.stats.fault_classes.as_ref().expect("fault classes");
        assert!(classes.classes >= 1 && !classes.representatives.is_empty());
        let dedc = Rectifier::new(good, pi, device_resp, RectifyConfig::dedc(1))
            .unwrap()
            .run();
        assert!(dedc.stats.fault_classes.is_none());
    }

    #[test]
    fn exhaustive_results_are_minimal() {
        let sols = vec![
            Solution {
                corrections: vec![Correction::new(GateId(1), CorrectionAction::SetConst(true))],
            },
            Solution {
                corrections: vec![
                    Correction::new(GateId(1), CorrectionAction::SetConst(true)),
                    Correction::new(GateId(2), CorrectionAction::SetConst(false)),
                ],
            },
            Solution {
                corrections: vec![Correction::new(
                    GateId(3),
                    CorrectionAction::SetConst(false),
                )],
            },
        ];
        let min = minimal_solutions(sols);
        assert_eq!(min.len(), 2);
        assert!(min.iter().all(|s| s.corrections.len() == 1));
    }

    #[test]
    fn double_error_needs_two_rounds_of_depth() {
        let good = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             x1 = AND(a, b)\nx2 = OR(c, d)\ny = XOR(x1, c)\nz = NAND(x2, a)\n",
        )
        .unwrap();
        let bad = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             x1 = NAND(a, b)\nx2 = AND(c, d)\ny = XOR(x1, c)\nz = NAND(x2, a)\n",
        )
        .unwrap();
        let (pi, spec) = spec_and_vectors(&good, 128, 3);
        let r = Rectifier::new(
            bad.clone(),
            pi.clone(),
            spec.clone(),
            RectifyConfig::dedc(2),
        )
        .unwrap()
        .run();
        assert!(!r.solutions.is_empty(), "two-error case must solve");
        let sol = &r.solutions[0];
        assert!(sol.corrections.len() <= 2);
        let mut fixed = bad.clone();
        for c in &sol.corrections {
            c.apply(&mut fixed).unwrap();
        }
        let mut sim = Simulator::new();
        let vals = sim.run_for_inputs(&fixed, bad.inputs(), &pi);
        assert!(Response::compare(&fixed, &vals, &spec).matches());
        assert!(r.stats.rounds >= 1 && r.stats.nodes >= 2);
    }

    #[test]
    fn respects_node_and_round_budgets() {
        let good = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut device = good.clone();
        StuckAt::new(good.find_by_name("y").unwrap(), false)
            .apply(&mut device)
            .unwrap();
        let (pi, _) = spec_and_vectors(&good, 16, 4);
        let mut sim = Simulator::new();
        let resp = Response::capture(&device, &sim.run_for_inputs(&device, good.inputs(), &pi));
        let mut cfg = RectifyConfig::stuck_at_exhaustive(1);
        cfg.max_rounds = 0;
        let r = Rectifier::new(good, pi, resp, cfg).unwrap().run();
        assert!(r.solutions.is_empty());
        assert!(r.stats.truncated || r.stats.rounds == 0);
    }

    #[test]
    fn dead_when_model_cannot_explain() {
        // Device behaviour needs 2 faults but only 1 correction allowed:
        // no solution, engine terminates cleanly.
        let good = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\ny = AND(a, b)\nz = OR(c, d)\n",
        )
        .unwrap();
        let mut device = good.clone();
        StuckAt::new(good.find_by_name("y").unwrap(), true)
            .apply(&mut device)
            .unwrap();
        StuckAt::new(good.find_by_name("z").unwrap(), false)
            .apply(&mut device)
            .unwrap();
        // Exhaustive input space: y and z cones are disjoint, so no single
        // stuck-at explains both.
        let mut pi = PackedMatrix::new(4, 16);
        for v in 0..16 {
            for i in 0..4 {
                pi.set(i, v, v >> i & 1 == 1);
            }
        }
        let mut sim = Simulator::new();
        let resp = Response::capture(&device, &sim.run_for_inputs(&device, good.inputs(), &pi));
        let r = Rectifier::new(good, pi, resp, RectifyConfig::stuck_at_exhaustive(1))
            .unwrap()
            .run();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn every_traversal_strategy_solves() {
        let good =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let bad =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = NOR(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let (pi, spec) = spec_and_vectors(&good, 64, 9);
        for traversal in TraversalKind::ALL {
            let mut cfg = RectifyConfig::dedc(1);
            cfg.traversal = traversal;
            let mut engine = Rectifier::new(bad.clone(), pi.clone(), spec.clone(), cfg).unwrap();
            let r = engine.run();
            assert!(!r.solutions.is_empty(), "{traversal:?} must solve");
            let mut fixed = bad.clone();
            for c in &r.solutions[0].corrections {
                c.apply(&mut fixed).unwrap();
            }
            let mut sim = Simulator::new();
            let vals = sim.run_for_inputs(&fixed, bad.inputs(), &pi);
            assert!(Response::compare(&fixed, &vals, &spec).matches());
        }
    }

    #[test]
    fn stats_accumulate() {
        let good = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let bad = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n").unwrap();
        let (pi, spec) = spec_and_vectors(&good, 64, 6);
        let r = Rectifier::new(bad, pi, spec, RectifyConfig::dedc(1))
            .unwrap()
            .run();
        assert!(!r.solutions.is_empty());
        assert!(r.stats.corrections_screened > 0);
        assert!(r.stats.corrections_qualified > 0);
        assert!(r.stats.rounds >= 1);
    }

    #[test]
    fn sequential_netlist_is_rejected_not_panicked() {
        let n = parse_bench("INPUT(a)\nOUTPUT(y)\ns = DFF(a)\ny = AND(a, s)\n").unwrap();
        let pi = PackedMatrix::new(1, 8);
        let spec = {
            let comb = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
            let mut sim = Simulator::new();
            Response::capture(&comb, &sim.run(&comb, &pi))
        };
        match Rectifier::new(n, pi, spec, RectifyConfig::dedc(1)) {
            Err(IncdxError::SequentialNetlist { dffs }) => assert_eq!(dffs, 1),
            other => panic!("expected SequentialNetlist, got {other:?}"),
        }
    }

    #[test]
    fn hazardous_netlists_are_rejected_by_the_preflight_lint() {
        use incdx_netlist::{Gate, GateKind};
        // A combinational 2-cycle the parser could never produce, built
        // through the unchecked escape hatch: g1 = AND(a, g2),
        // g2 = AND(g1, a).
        let gates = vec![
            Gate::new(GateKind::Input, vec![]),
            Gate::new(GateKind::And, vec![GateId(0), GateId(2)]),
            Gate::new(GateKind::And, vec![GateId(1), GateId(0)]),
        ];
        let names = vec![Some("a".into()), Some("g1".into()), Some("g2".into())];
        let cyclic = Netlist::from_parts_unchecked(gates, names, vec![GateId(1)]);
        let pi = PackedMatrix::new(1, 8);
        let spec = Response::capture(&cyclic, &PackedMatrix::new(cyclic.len(), 8));
        match Rectifier::new(cyclic, pi, spec, RectifyConfig::dedc(1)) {
            Err(IncdxError::Lint(diags)) => {
                assert!(diags
                    .iter()
                    .any(|d| d.code == incdx_lint::LintCode::CombinationalCycle));
            }
            other => panic!("expected Lint rejection, got {other:?}"),
        }

        // Two drivers for one wire name: also a pre-flight error.
        let gates = vec![
            Gate::new(GateKind::Input, vec![]),
            Gate::new(GateKind::Not, vec![GateId(0)]),
            Gate::new(GateKind::Not, vec![GateId(0)]),
        ];
        let names = vec![Some("a".into()), Some("y".into()), Some("y".into())];
        let multi = Netlist::from_parts_unchecked(gates, names, vec![GateId(1)]);
        let pi = PackedMatrix::new(1, 8);
        let spec = Response::capture(&multi, &PackedMatrix::new(multi.len(), 8));
        match Rectifier::new(multi, pi, spec, RectifyConfig::dedc(1)) {
            Err(IncdxError::Lint(diags)) => {
                assert!(diags
                    .iter()
                    .any(|d| d.code == incdx_lint::LintCode::MultiDrivenWire));
            }
            other => panic!("expected Lint rejection, got {other:?}"),
        }
    }

    #[test]
    fn audited_run_passes_with_zero_violations() {
        let good =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(t, c)\n")
                .unwrap();
        let bad =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = AND(a, b)\ny = AND(t, c)\n")
                .unwrap();
        let (pi, spec) = spec_and_vectors(&good, 64, 11);
        let mut config = RectifyConfig::dedc(1);
        config.audit = true;
        let r = Rectifier::new(bad, pi, spec, config).unwrap().run();
        assert!(!r.solutions.is_empty());
        assert_eq!(r.stats.evaluator, "audit+incremental");
        assert!(r.stats.audit_checks > 0, "audit layer must have run");
        assert_eq!(r.stats.audit_violations, 0, "healthy engine audits clean");
    }

    #[test]
    fn shape_mismatches_are_rejected_not_panicked() {
        let n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let (pi, spec) = spec_and_vectors(&n, 64, 7);
        // Wrong number of vector rows.
        let bad_pi = PackedMatrix::new(3, 64);
        assert!(matches!(
            Rectifier::new(n.clone(), bad_pi, spec.clone(), RectifyConfig::dedc(1)),
            Err(IncdxError::ShapeMismatch {
                expected: 2,
                got: 3,
                ..
            })
        ));
        // Wrong vector count in the reference.
        let (short_pi, short_spec) = spec_and_vectors(&n, 32, 7);
        let _ = short_pi;
        assert!(matches!(
            Rectifier::new(n, pi, short_spec, RectifyConfig::dedc(1)),
            Err(IncdxError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn reset_reproduces_a_fresh_run_exactly() {
        let good =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let bad =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = NOR(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let (pi, spec) = spec_and_vectors(&good, 64, 8);
        let mut engine = Rectifier::new(bad, pi, spec, RectifyConfig::dedc(1)).unwrap();
        let first = engine.run();
        engine.reset();
        let second = engine.run();
        assert_eq!(first.solutions, second.solutions);
        assert_eq!(first.stats.nodes, second.stats.nodes);
        assert_eq!(first.stats.words_simulated, second.stats.words_simulated);
        assert_eq!(
            first.stats.matrix_cache_hits,
            second.stats.matrix_cache_hits
        );
        // Without reset the engine still finds the same solutions (cached
        // matrices are pure functions of base + corrections).
        let third = engine.run();
        assert_eq!(first.solutions, third.solutions);
    }

    /// Two independent chains: the OR chain collapses into a super-gate
    /// (so the abstraction is non-degenerate), the AND chain carries the
    /// injected error.
    fn two_chain_pair() -> (Netlist, Netlist) {
        let good = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             t1 = AND(a, b)\ny = AND(t1, c)\nu1 = OR(c, d)\nz = OR(u1, a)\n",
        )
        .unwrap();
        let bad = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             t1 = NAND(a, b)\ny = AND(t1, c)\nu1 = OR(c, d)\nz = OR(u1, a)\n",
        )
        .unwrap();
        (good, bad)
    }

    #[test]
    fn hierarchical_dedc_fixes_and_reports_abstraction() {
        let (good, bad) = two_chain_pair();
        let (pi, spec) = spec_and_vectors(&good, 128, 11);
        let mut config = RectifyConfig::dedc(1);
        config.hierarchical = true;
        let r = Rectifier::new(bad.clone(), pi.clone(), spec.clone(), config)
            .unwrap()
            .run();
        assert!(!r.solutions.is_empty(), "hierarchical run must find a fix");
        let mut fixed = bad.clone();
        for c in &r.solutions[0].corrections {
            c.apply(&mut fixed).unwrap();
        }
        let mut sim = Simulator::new();
        let vals = sim.run_for_inputs(&fixed, bad.inputs(), &pi);
        assert!(Response::compare(&fixed, &vals, &spec).matches());
        let a = r.stats.abstraction.expect("abstraction telemetry");
        assert!(a.super_gates >= 1, "the OR chain must collapse");
        assert!(a.abstract_gates < a.concrete_gates);
        assert!(a.collapse_ratio < 1.0);
        assert!(a.refinement_rounds >= 1);
        assert!(a.phase1_nodes >= 1);
    }

    #[test]
    fn hierarchical_exhaustive_matches_flat_solution_set() {
        let (good, bad) = two_chain_pair();
        let mut device = bad.clone();
        StuckAt::new(bad.find_by_name("t1").unwrap(), true)
            .apply(&mut device)
            .unwrap();
        let (pi, _) = spec_and_vectors(&good, 64, 12);
        let mut sim = Simulator::new();
        let resp = Response::capture(&device, &sim.run_for_inputs(&device, bad.inputs(), &pi));
        let flat = Rectifier::new(
            bad.clone(),
            pi.clone(),
            resp.clone(),
            RectifyConfig::stuck_at_exhaustive(1),
        )
        .unwrap()
        .run();
        let mut hier_cfg = RectifyConfig::stuck_at_exhaustive(1);
        hier_cfg.hierarchical = true;
        let hier = Rectifier::new(bad.clone(), pi, resp, hier_cfg)
            .unwrap()
            .run();
        let canon = |r: &RectifyResult| {
            let mut v: Vec<Vec<Correction>> = r
                .solutions
                .iter()
                .map(|s| {
                    let mut c = s.corrections.clone();
                    c.sort();
                    c
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&flat), canon(&hier));
    }

    #[test]
    fn hierarchical_already_correct_returns_empty_tuple() {
        let (good, _) = two_chain_pair();
        let (pi, spec) = spec_and_vectors(&good, 64, 13);
        let mut config = RectifyConfig::dedc(1);
        config.hierarchical = true;
        let r = Rectifier::new(good, pi, spec, config).unwrap().run();
        assert_eq!(r.solutions.len(), 1);
        assert!(r.solutions[0].corrections.is_empty());
    }

    #[test]
    fn degenerate_abstraction_falls_back_to_flat() {
        // A single multi-fanout-free gate pair where nothing collapses:
        // every internal gate is a stem (multi-fanout or PO).
        let good = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nx = AND(a, b)\ny = OR(x, a)\nz = NOR(x, b)\n",
        )
        .unwrap();
        let bad = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nx = NAND(a, b)\ny = OR(x, a)\nz = NOR(x, b)\n",
        )
        .unwrap();
        let (pi, spec) = spec_and_vectors(&good, 64, 14);
        let mut config = RectifyConfig::dedc(1);
        config.hierarchical = true;
        let r = Rectifier::new(bad, pi, spec, config).unwrap().run();
        assert!(!r.solutions.is_empty());
        assert!(
            r.stats.abstraction.is_none(),
            "degenerate abstraction reports no telemetry (flat fallback)"
        );
    }

    #[test]
    fn focus_restricts_solutions_to_the_suspect_set() {
        let (good, bad) = two_chain_pair();
        let (pi, spec) = spec_and_vectors(&good, 128, 16);
        let t1 = bad.find_by_name("t1").unwrap();
        let y = bad.find_by_name("y").unwrap();
        let mut focus = vec![t1, y];
        focus.sort();
        let mut config = RectifyConfig::dedc(1);
        config.focus = Some(focus.clone());
        let r = Rectifier::new(bad, pi, spec, config).unwrap().run();
        assert!(!r.solutions.is_empty());
        for s in &r.solutions {
            for line in s.lines() {
                assert!(
                    focus.binary_search(&line).is_ok(),
                    "solution line {line:?} outside the focus set"
                );
            }
        }
    }
}
