//! Structured observability report for a rectification run.
//!
//! [`RectifyReport`] flattens a [`RectifyResult`] plus run context into
//! a machine-readable record, printable as one line of JSON with
//! [`RectifyReport::to_json`]. The bench binaries emit one record per
//! run on stdout (prefixed lines starting with `{"report":"rectify"`),
//! so tables and reports can be post-processed with standard JSON
//! tooling. The schema is documented in `EXPERIMENTS.md`.

use std::fmt;
use std::time::Duration;

use incdx_fault::{Correction, CorrectionAction};

use crate::json::Json;
use crate::limits::Verdict;
use crate::session::{RectifyResult, RectifyStats, Solution};
use crate::{json_fields, json_obj};

/// A flattened, serializable view of one [`crate::Rectifier::run`].
///
/// # Example
///
/// ```
/// use incdx_core::{Rectifier, RectifyConfig, RectifyReport};
/// use incdx_netlist::parse_bench;
/// use incdx_sim::{PackedMatrix, Response, Simulator};
///
/// let spec_nl = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let design = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n")?;
/// let mut pi = PackedMatrix::new(2, 4);
/// pi.row_mut(0)[0] = 0b0101;
/// pi.row_mut(1)[0] = 0b0011;
/// let spec = Response::capture(&spec_nl, &Simulator::new().run(&spec_nl, &pi));
/// let config = RectifyConfig::dedc(1);
/// let jobs = config.jobs;
/// let result = Rectifier::new(design, pi, spec, config)?.run();
///
/// let report = RectifyReport::new("and-vs-or", jobs, &result);
/// let json = report.to_json();
/// assert!(json.starts_with(r#"{"report":"rectify","label":"and-vs-or""#));
/// assert!(!json.contains('\n'));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RectifyReport {
    /// Caller-chosen run label (circuit name, trial id, …).
    pub label: String,
    /// The [`crate::RectifyConfig::jobs`] setting the run used.
    pub jobs: usize,
    /// Number of valid correction tuples found.
    pub solutions: usize,
    /// Distinct lines over all solutions ([`RectifyResult::distinct_sites`]).
    pub distinct_sites: usize,
    /// Order-independent [`solution_fingerprint`] of the solution set.
    pub solutions_fp: u64,
    /// Typed run outcome ([`RectifyResult::verdict`]).
    pub verdict: Verdict,
    /// Number of ranked partial solutions reported
    /// ([`RectifyResult::partials`]).
    pub partials: usize,
    /// The run's full counter/timer set.
    pub stats: RectifyStats,
}

impl RectifyReport {
    /// Builds a report from a finished run.
    pub fn new(label: &str, jobs: usize, result: &RectifyResult) -> Self {
        Self::from_parts(
            label,
            jobs,
            result.solutions.len(),
            result.distinct_sites(),
            solution_fingerprint(&result.solutions),
            result.verdict,
            result.partials.len(),
            result.stats.clone(),
        )
    }

    /// Builds a report from already-extracted pieces, for harnesses that
    /// summarize a [`RectifyResult`] and drop it before reporting.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        label: &str,
        jobs: usize,
        solutions: usize,
        distinct_sites: usize,
        solutions_fp: u64,
        verdict: Verdict,
        partials: usize,
        stats: RectifyStats,
    ) -> Self {
        RectifyReport {
            label: label.to_string(),
            jobs,
            solutions,
            distinct_sites,
            solutions_fp,
            verdict,
            partials,
            stats,
        }
    }

    /// Renders the report as a single line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let head = json_fields! {
            "report": "rectify", "label": &self.label, "traversal": s.traversal,
            "evaluator": s.evaluator, "jobs": self.jobs, "solutions": self.solutions,
            "distinct_sites": self.distinct_sites, "solutions_fp": self.solutions_fp,
            "verdict": self.verdict.tag(),
        };
        let partial = match self.verdict {
            Verdict::Partial {
                best_remaining_failures: n,
            } => Some(("best_remaining_failures", n.into())),
            _ => None,
        };
        let abstraction = s.abstraction.as_ref().map(|a| {
            json_obj! {
                "super_gates": a.super_gates, "concrete_gates": a.concrete_gates,
                "abstract_gates": a.abstract_gates, "collapse_ratio": a.collapse_ratio,
                "suspects_expanded": a.suspects_expanded,
                "refinement_rounds": a.refinement_rounds,
                "phase1_nodes": a.phase1_nodes, "phase2_nodes": a.phase2_nodes,
            }
        });
        let fault_classes = s.fault_classes.as_ref().map(|fc| {
            json_obj! {
                "classes": fc.classes, "faults": fc.faults,
                "representatives": Json::arr(&fc.representatives),
            }
        });
        let dispatch = s.dispatch.as_ref().map(|d| {
            json_obj! {
                "workers": d.workers, "tasks_executed": d.tasks_executed,
                "tasks_stolen": d.tasks_stolen, "steal_failures": d.steal_failures,
                "speculative_hits": d.speculative_hits,
                "speculative_misses": d.speculative_misses, "hit_rate": d.hit_rate(),
                "tasks_wasted": d.tasks_wasted, "frontier_high_water": d.frontier_high_water,
                "worker_nodes": Json::arr(d.worker_nodes.iter().copied()),
                "worker_busy": Json::arr(d.worker_busy.iter().map(Duration::as_secs_f64)),
                "worker_idle": Json::arr(d.worker_idle.iter().map(Duration::as_secs_f64)),
            }
        });
        let degradations = s.degradations.iter().map(|d| {
            json_obj! { "kind": d.kind.tag(), "count": d.count, "detail": &d.detail }
        });
        let chaos = s.chaos.as_ref().map(|c| {
            json_obj! {
                "panics": c.panics, "bit_flips": c.bit_flips, "width_errors": c.width_errors,
                "summary_flips": c.summary_flips, "map_corruptions": c.map_corruptions,
                "checkpoint_corruptions": c.checkpoint_corruptions,
            }
        });
        let body = json_fields! {
            "partials": self.partials, "nodes": s.nodes,
            "expansions_skipped": s.expansions_skipped, "rounds": s.rounds,
            "deepest_ladder_level": s.deepest_ladder_level, "truncated": s.truncated,
            "time": json_obj! {
                "evaluate": secs(s.evaluate_time), "simulation": secs(s.simulation_time),
                "path_trace": secs(s.path_trace_time), "rank": secs(s.rank_time),
                "screen": secs(s.screen_time), "diagnosis": secs(s.diagnosis_time),
                "correction": secs(s.correction_time),
            },
            "candidates": json_obj! {
                "screened": s.corrections_screened, "qualified": s.corrections_qualified,
                "rejected_h2": s.corrections_rejected_h2,
                "rejected_h3": s.corrections_rejected_h3,
                "lines_rejected_h1": s.lines_rejected_h1, "lines_truncated": s.lines_truncated,
                "wire_sources_truncated": s.wire_sources_truncated,
                "candidates_truncated": s.candidates_truncated,
            },
            "simulation": json_obj! {
                "words": s.words_simulated, "events_propagated": s.events_propagated,
                "words_skipped": s.words_skipped, "blocks_skipped": s.blocks_skipped,
                "sparse_rows": s.sparse_rows, "dense_fallbacks": s.dense_fallbacks,
            },
            "cache": json_obj! {
                "cone_hits": s.cone_cache_hits, "matrix_hits": s.matrix_cache_hits,
                "matrix_evictions": s.matrix_cache_evictions,
            },
            "abstraction": abstraction, "fault_classes": fault_classes,
            "workers": json_obj! {
                "count": s.parallel.workers, "busy": secs(s.parallel.busy),
                "wall": secs(s.parallel.wall), "utilization": s.parallel.utilization(),
            },
            "dispatch": dispatch,
            "audit": json_obj! { "checks": s.audit_checks, "violations": s.audit_violations },
            "degradations": Json::arr(degradations),
            "chaos": chaos,
        };
        Json::obj(head.into_iter().chain(partial).chain(body)).to_string()
    }
}

impl fmt::Display for RectifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Order-independent fingerprint of a solution set, for checking that two
/// runs (a resumed and an uninterrupted one, or two builds of the engine)
/// reached exactly the same solutions. Each solution's corrections are
/// serialized canonically (sorted), the solution strings are sorted, and
/// the whole list is FNV-hashed.
pub fn solution_fingerprint(solutions: &[Solution]) -> u64 {
    let mut keys: Vec<String> = solutions
        .iter()
        .map(|s| {
            let mut parts: Vec<String> = s.corrections.iter().map(correction_key).collect();
            parts.sort();
            parts.join("+")
        })
        .collect();
    keys.sort();
    fnv64(keys.join("|").as_bytes())
}

fn correction_key(c: &Correction) -> String {
    let line = c.line().index();
    match c.action() {
        CorrectionAction::SetConst(v) => format!("{line}:const:{v}"),
        CorrectionAction::ChangeKind(kind) => format!("{line}:kind:{}", kind.token()),
        CorrectionAction::InvertInput { port } => format!("{line}:inv:{port}"),
        CorrectionAction::RemoveInput { port } => format!("{line}:rm:{port}"),
        CorrectionAction::AddInput { source } => format!("{line}:add:{}", source.index()),
        CorrectionAction::ReplaceInput { port, source } => {
            format!("{line}:rep:{port}:{}", source.index())
        }
        CorrectionAction::WireThrough { port } => format!("{line}:wire:{port}"),
        CorrectionAction::InsertGate { kind, other } => {
            format!("{line}:ins:{}:{}", kind.token(), other.index())
        }
    }
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_label_characters() {
        let stats = RectifyStats::default();
        let report =
            RectifyReport::from_parts("a\"b\\c\nd\u{1}", 1, 0, 0, 0, Verdict::default(), 0, stats);
        assert!(report
            .to_json()
            .starts_with("{\"report\":\"rectify\",\"label\":\"a\\\"b\\\\c\\nd\\u0001\","));
    }

    #[test]
    fn json_is_one_line_and_balanced() {
        let result = RectifyResult {
            solutions: vec![],
            verdict: Verdict::default(),
            partials: vec![],
            checkpoint: None,
            stats: RectifyStats::default(),
        };
        let json = RectifyReport::new("c17 \"quoted\"", 4, &result).to_json();
        assert!(!json.contains('\n'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
        assert!(json.contains("\"jobs\":4"));
        // The empty set's fingerprint is FNV-1a's offset basis.
        assert!(json.contains("\"distinct_sites\":0,\"solutions_fp\":14695981039346656037,"));
        assert!(json.contains("\"traversal\":\""));
        assert!(json.contains("\"evaluator\":\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"events_propagated\":0"));
        assert!(json.contains("\"cache\":{\"cone_hits\":0"));
        assert!(json.contains("\"audit\":{\"checks\":0,\"violations\":0}"));
        assert!(json.contains("\"verdict\":\"exact\""));
        assert!(json.contains("\"degradations\":[]"));
        assert!(json.contains("\"chaos\":null"));
        assert!(json.contains("\"dispatch\":null"));
        assert!(json.contains("\"abstraction\":null"));
        assert!(json.contains("\"fault_classes\":null"));
    }

    #[test]
    fn analysis_and_fault_class_telemetry_serialize() {
        let stats = RectifyStats {
            fault_classes: Some(crate::FaultClassSummary {
                classes: 2,
                faults: 6,
                representatives: vec!["y/0".to_string(), "g1/1".to_string()],
            }),
            ..RectifyStats::default()
        };
        let report = RectifyReport::from_parts("classes", 1, 1, 1, 0, Verdict::default(), 0, stats);
        let json = report.to_json();
        assert!(!json.contains("\"analysis\""));
        assert!(json.contains(
            "\"fault_classes\":{\"classes\":2,\"faults\":6,\"representatives\":[\"y/0\",\"g1/1\"]}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn abstraction_telemetry_serializes() {
        let stats = RectifyStats {
            abstraction: Some(crate::AbstractionStats {
                super_gates: 12,
                concrete_gates: 100,
                abstract_gates: 40,
                collapse_ratio: 0.4,
                suspects_expanded: 9,
                refinement_rounds: 2,
                phase1_nodes: 5,
                phase2_nodes: 17,
            }),
            ..RectifyStats::default()
        };
        let report = RectifyReport::from_parts("hier", 1, 1, 1, 0, Verdict::default(), 0, stats);
        let json = report.to_json();
        assert!(json.contains(
            "\"abstraction\":{\"super_gates\":12,\"concrete_gates\":100,\
             \"abstract_gates\":40,\"collapse_ratio\":0.4,\"suspects_expanded\":9,\
             \"refinement_rounds\":2,\"phase1_nodes\":5,\"phase2_nodes\":17}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn dispatch_telemetry_serializes() {
        use std::time::Duration;
        let stats = RectifyStats {
            dispatch: Some(crate::DispatchTelemetry {
                workers: 2,
                tasks_executed: 10,
                tasks_stolen: 3,
                steal_failures: 1,
                speculative_hits: 6,
                speculative_misses: 2,
                tasks_wasted: 4,
                frontier_high_water: 5,
                worker_nodes: vec![7, 3],
                worker_busy: vec![Duration::from_millis(250), Duration::from_millis(125)],
                worker_idle: vec![Duration::from_millis(50), Duration::ZERO],
            }),
            ..RectifyStats::default()
        };
        let report =
            RectifyReport::from_parts("dispatch", 2, 1, 1, 0, Verdict::default(), 0, stats);
        let json = report.to_json();
        assert!(json.contains(
            "\"dispatch\":{\"workers\":2,\"tasks_executed\":10,\"tasks_stolen\":3,\
             \"steal_failures\":1,\"speculative_hits\":6,\"speculative_misses\":2,\
             \"hit_rate\":0.75,\"tasks_wasted\":4,\"frontier_high_water\":5"
        ));
        assert!(json.contains("\"worker_nodes\":[7,3]"));
        assert!(json.contains("\"worker_busy\":[0.25,0.125]"));
        assert!(json.contains("\"worker_idle\":[0.05,0.0]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn degradations_and_verdict_serialize() {
        use crate::limits::{DegradationEvent, DegradationKind};
        let mut stats = RectifyStats::default();
        stats.degradations.push(DegradationEvent::new(
            DegradationKind::WorkerPanic,
            2,
            "2 worker panic(s) \"quoted\"",
        ));
        stats.chaos = Some(crate::ChaosSummary {
            panics: 2,
            bit_flips: 1,
            width_errors: 0,
            summary_flips: 3,
            map_corruptions: 1,
            checkpoint_corruptions: 1,
        });
        let report = RectifyReport::from_parts(
            "chaos",
            2,
            0,
            0,
            0,
            Verdict::Partial {
                best_remaining_failures: 7,
            },
            3,
            stats,
        );
        let json = report.to_json();
        assert!(json.contains("\"verdict\":\"partial\""));
        assert!(json.contains("\"best_remaining_failures\":7"));
        assert!(json.contains("\"partials\":3"));
        assert!(json.contains(
            "\"degradations\":[{\"kind\":\"worker-panic\",\"count\":2,\"detail\":\"2 worker panic(s) \\\"quoted\\\"\"}]"
        ));
        assert!(json.contains(
            "\"chaos\":{\"panics\":2,\"bit_flips\":1,\"width_errors\":0,\"summary_flips\":3,\"map_corruptions\":1,\"checkpoint_corruptions\":1}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
