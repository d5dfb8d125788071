//! The incremental diagnosis and correction engine of Veneris, Liu, Amiri
//! and Abadir, *"Incremental Diagnosis and Correction of Multiple Faults
//! and Errors"*, DATE 2002.
//!
//! Given a netlist, a set of test vectors and the primary-output responses
//! of a reference (a specification for DEDC, a faulty device for stuck-at
//! diagnosis), the engine repeatedly:
//!
//! 1. **diagnoses** — ranks suspect lines by path-trace marking followed by
//!    the flip-and-propagate "correcting potential" measure (heuristic 1),
//! 2. **corrects** — enumerates fault-model/design-error corrections on the
//!    best lines and screens them with the `V_err` bit-complement test of
//!    Theorem 1 (heuristic 2) and the `V_corr` new-error test
//!    (heuristic 3), then
//! 3. **recurses** — applies ranked corrections one per node per *round* of
//!    a decision tree (the BFS/DFS trade-off of Fig. 2), driving the number
//!    of failing vectors to zero.
//!
//! Thresholds relax along the parameter ladder of §3.3
//! (`h1/h2/h3 = 1/1/1 → … → 0.1/0.3/0.5`) whenever a node yields no
//! qualifying correction.
//!
//! Two modes:
//!
//! * **first-solution** (DEDC): stop at the first valid correction tuple;
//! * **exhaustive** (stuck-at diagnosis): traverse the whole tree and
//!   return *every* minimal equivalent fault tuple that explains the
//!   observed behaviour.
//!
//! # Architecture
//!
//! The engine is layered (see `ARCHITECTURE.md`):
//!
//! * [`Traversal`] strategies ([`RoundRobinBfs`], [`DepthFirst`],
//!   [`NaiveBfs`], [`BestFirst`]) schedule which open node of the
//!   decision [`Tree`] expands next;
//! * [`Evaluator`] backends ([`FromScratch`], [`Incremental`],
//!   [`Parallel`], and the self-checking [`Auditing`] decorator)
//!   prepare node circuits and value matrices;
//! * the [`CandidatePipeline`] (path-trace → rank → screen → accept) is
//!   shared by every strategy and backend;
//! * [`Rectifier`] is the facade wiring the three from a
//!   [`RectifyConfig`], and [`IncdxError`] is the unified error type of
//!   every fallible public entry point.
//!
//! # Example
//!
//! ```
//! use incdx_core::{Rectifier, RectifyConfig};
//! use incdx_fault::{Correction, CorrectionAction, CorrectionModel};
//! use incdx_netlist::{parse_bench, GateKind};
//! use incdx_sim::{PackedMatrix, Response, Simulator};
//!
//! // Specification: y = AND(a, b). Erroneous design: y = OR(a, b).
//! let spec_nl = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
//! let design = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n")?;
//! let mut pi = PackedMatrix::new(2, 4);
//! pi.row_mut(0)[0] = 0b0101;
//! pi.row_mut(1)[0] = 0b0011;
//! let mut sim = Simulator::new();
//! let spec = Response::capture(&spec_nl, &sim.run(&spec_nl, &pi));
//!
//! let config = RectifyConfig::dedc(1);
//! let result = Rectifier::new(design.clone(), pi, spec, config)?.run();
//! let fix = &result.solutions[0].corrections[0];
//! assert_eq!(fix.line(), design.find_by_name("y").unwrap());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod audit;
mod cache;
mod chaos;
mod checkpoint;
mod dispatch;
mod error;
mod evaluator;
pub mod json;
mod limits;
mod parallel;
mod params;
mod path_trace;
mod pipeline;
mod report;
mod screen;
mod session;
mod traversal;
mod tree;
mod wire;

pub use audit::Auditing;
pub use chaos::{Chaos, ChaosConfig, ChaosState, ChaosSummary};
pub use checkpoint::{
    load_checkpoint_file, netlist_fingerprint, save_checkpoint_file, Checkpoint, CheckpointNode,
    CHECKPOINT_VERSION,
};
pub use dispatch::{DispatchTelemetry, Frontier, Popped, Prio};
pub use error::IncdxError;
pub use evaluator::{
    EvalContext, Evaluator, FromScratch, Incremental, Parallel, PreparedNode, SimCounters,
};
pub use limits::{
    CancelToken, DegradationEvent, DegradationKind, PartialSolution, RectifyLimits, Verdict,
};
pub use parallel::{
    effective_jobs, run_parallel, run_parallel_with, ParallelOutcome, ParallelTelemetry,
};
pub use params::{default_ladder, ParamLevel};
pub use path_trace::{path_trace_counts, path_trace_counts_batched};
pub use pipeline::CandidatePipeline;
pub use report::RectifyReport;
pub use screen::{correction_output_row, correction_output_row_into, CorrectionScratch};
pub use session::{
    AbstractionStats, AnalysisStats, FaultClassSummary, Rectifier, RectifyConfig, RectifyResult,
    RectifyStats, Solution,
};
pub use traversal::{BestFirst, DepthFirst, NaiveBfs, RoundRobinBfs, Traversal, TraversalKind};
pub use tree::{Node, PushOutcome, RankedCorrection, Tree};
pub use wire::wire_sources;
