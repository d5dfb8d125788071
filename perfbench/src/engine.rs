//! Running one diagnosis (plain or traced), checking its answers, and
//! summarising the traced runs into per-layer numbers.

use std::time::{Duration, Instant};

use incdx_core::{Rectifier, RectifyResult, Solution, Verdict};
use incdx_fault::CorrectionModel;
use incdx_sim::{Response, Simulator};

use crate::cases::Case;
use crate::report::LedgerEntry;
use crate::trace::{self_times, traced_rectifier, LayerCounts, Span, Tracer};

/// Runs `case` on the default stack; the clock covers `Rectifier::new`
/// and `run` only.
///
/// # Errors
///
/// When the engine rejects the case.
pub fn diagnose(case: &Case) -> Result<(Duration, RectifyResult), String> {
    let (base, pi, reference, config) = (
        case.base.clone(),
        case.pi.clone(),
        case.reference.clone(),
        case.config.clone(),
    );
    let t = Instant::now();
    let mut engine = Rectifier::new(base, pi, reference, config).map_err(|e| e.to_string())?;
    let result = engine.run();
    Ok((t.elapsed(), result))
}

/// Runs `case` with the tracing decorators installed, inside a
/// `diagnosis` span tagged `id`; the clock covers the whole span.
///
/// # Errors
///
/// When the engine rejects the case.
pub fn diagnose_traced(
    case: &Case,
    tracer: &Tracer,
    id: u64,
) -> Result<(Duration, RectifyResult), String> {
    let (base, pi, reference, config) = (
        case.base.clone(),
        case.pi.clone(),
        case.reference.clone(),
        case.config.clone(),
    );
    tracer.set_diagnosis(id);
    let t = Instant::now();
    let span = tracer.enter("diagnosis");
    let engine = traced_rectifier(base, pi, reference, config, tracer);
    let result = engine.map(|mut engine| tracer.span("rectifier.run", || engine.run()));
    tracer.exit(span);
    Ok((t.elapsed(), result?))
}

/// Does applying `solution` to the case's netlist reproduce the
/// reference responses?
pub fn replays(case: &Case, solution: &Solution) -> bool {
    let mut fixed = case.base.clone();
    if solution
        .corrections
        .iter()
        .any(|c| c.apply(&mut fixed).is_err())
    {
        return false;
    }
    let vals = Simulator::new().run_for_inputs(&fixed, case.base.inputs(), &case.pi);
    Response::compare(&fixed, &vals, &case.reference).matches()
}

/// Checks a diagnosis' answers; `Ok(solved)` when they are right.
///
/// Stuck-at: the verdict is exact and untruncated, the injected tuple
/// (or a masked subset of it) is among the answers, and every answer
/// replays. DEDC: every reported correction replays; running out of the
/// node budget is not a failure, only an unsolved case.
///
/// # Errors
///
/// A description of the first wrong answer, or a stop on a clock.
pub fn check(case: &Case, result: &RectifyResult) -> Result<bool, String> {
    if matches!(
        result.verdict,
        Verdict::DeadlineExceeded | Verdict::Cancelled
    ) {
        return Err(format!(
            "{}: stopped on a clock ({})",
            case.label, result.verdict
        ));
    }
    if let Some(bad) = result.solutions.iter().position(|s| !replays(case, s)) {
        return Err(format!("{}: answer {bad} does not replay", case.label));
    }
    if case.config.model != CorrectionModel::StuckAt {
        return Ok(!result.solutions.is_empty());
    }
    if result.verdict != Verdict::Exact || result.stats.truncated {
        return Err(format!(
            "{}: stuck-at verdict {} (truncated: {})",
            case.label, result.verdict, result.stats.truncated
        ));
    }
    let found = result.solutions.iter().any(|s| {
        let t = s.stuck_at_tuple().unwrap_or_default();
        !t.is_empty() && t.iter().all(|f| case.injected.contains(f))
    });
    if !found {
        return Err(format!(
            "{}: injected tuple not among the answers",
            case.label
        ));
    }
    Ok(true)
}

/// The machine-independent record of a diagnosis.
pub fn ledger_entry(label: &str, result: &RectifyResult) -> LedgerEntry {
    LedgerEntry {
        label: label.to_string(),
        nodes: result.stats.nodes as u64,
        words: result.stats.words_simulated,
        screened: result.stats.corrections_screened as u64,
        fp: incdx_serve::solution_fingerprint(&result.solutions),
    }
}

/// Per-layer numbers of the traced diagnoses: times are per-diagnosis
/// means in seconds, counts per-diagnosis means, ratios over totals.
#[derive(Debug, Clone, Default)]
pub struct EngineLayers {
    /// `(name, value)` pairs in report order.
    pub values: Vec<(&'static str, f64)>,
    /// Largest relative gap, over all diagnoses, between a `rectifier.run`
    /// span and the sum of the self times under it.
    pub sum_error: f64,
}

impl EngineLayers {
    /// Looks a value up by name.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.0 == name)
            .map_or(0.0, |v| v.1)
    }
}

/// Summarises traced diagnoses. `results` are the traced results, one
/// per `diagnosis` span in `spans`.
pub fn engine_layers(
    spans: &[Span],
    counts: LayerCounts,
    results: &[&RectifyResult],
) -> EngineLayers {
    let n = results.len().max(1) as f64;
    let self_ns = self_times(spans);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let total = |name: &str| -> u64 { spans.iter().filter(|s| s.name == name).map(Span::ns).sum() };
    let evaluator_ns: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("evaluator."))
        .map(Span::ns)
        .sum();
    let pipeline_ns: u64 = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "rectifier.run")
        .map(|(_, own)| *own)
        .sum();
    // Under each run span, self times of the run and its descendants
    // must add back up to the span.
    let mut sum_error: f64 = 0.0;
    for (i, run) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "rectifier.run")
    {
        let children: u64 = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.parent == Some(i))
            .map(|(_, own)| *own)
            .sum();
        let gap = (self_ns[i] + children).abs_diff(run.ns()) as f64 / run.ns().max(1) as f64;
        sum_error = sum_error.max(gap);
    }
    let sum = |f: &dyn Fn(&RectifyResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>();
    let mean = |f: &dyn Fn(&RectifyResult) -> f64| sum(f) / n;
    let screened = sum(&|r| r.stats.corrections_screened as f64);
    let values = vec![
        ("session.new_s", secs(total("session.new")) / n),
        ("rectifier.run_s", secs(total("rectifier.run")) / n),
        ("evaluator.prepare_calls", counts.prepare_calls as f64 / n),
        ("evaluator.prepare_s", secs(total("evaluator.prepare")) / n),
        ("evaluator.self_s", secs(evaluator_ns) / n),
        (
            "evaluator.matrix_hit_ratio",
            counts.matrix_hits as f64 / counts.prepare_calls.max(1) as f64,
        ),
        ("evaluator.evictions", counts.evictions as f64 / n),
        (
            "evaluator.retained_bytes_max",
            counts.retained_bytes_max as f64,
        ),
        ("sim.words", mean(&|r| r.stats.words_simulated as f64)),
        ("sim.events", mean(&|r| r.stats.events_propagated as f64)),
        ("sim.words_skipped", mean(&|r| r.stats.words_skipped as f64)),
        (
            "sim.blocks_skipped",
            mean(&|r| r.stats.blocks_skipped as f64),
        ),
        (
            "sim.dense_fallbacks",
            mean(&|r| r.stats.dense_fallbacks as f64),
        ),
        ("traversal.schedule_calls", counts.schedule_calls as f64 / n),
        (
            "traversal.schedule_s",
            secs(total("traversal.schedule")) / n,
        ),
        ("traversal.plan_items", counts.plan_items as f64 / n),
        ("search.nodes", mean(&|r| r.stats.nodes as f64)),
        ("search.rounds", mean(&|r| r.stats.rounds as f64)),
        ("pipeline.self_s", secs(pipeline_ns) / n),
        ("pipeline.screened", screened / n),
        (
            "pipeline.rejected_h2",
            mean(&|r| r.stats.corrections_rejected_h2 as f64),
        ),
        (
            "pipeline.rejected_h3",
            mean(&|r| r.stats.corrections_rejected_h3 as f64),
        ),
        (
            "pipeline.qualify_ratio",
            sum(&|r| r.stats.corrections_qualified as f64) / screened.max(1.0),
        ),
        (
            "pipeline.lines_rejected_h1",
            mean(&|r| r.stats.lines_rejected_h1 as f64),
        ),
        (
            "pipeline.cone_hits",
            mean(&|r| r.stats.cone_cache_hits as f64),
        ),
        (
            "engine.path_trace_s",
            mean(&|r| r.stats.path_trace_time.as_secs_f64()),
        ),
        ("engine.rank_s", mean(&|r| r.stats.rank_time.as_secs_f64())),
        (
            "engine.screen_s",
            mean(&|r| r.stats.screen_time.as_secs_f64()),
        ),
        ("search.solutions", mean(&|r| r.solutions.len() as f64)),
        (
            "search.ladder_level_max",
            results
                .iter()
                .map(|r| r.stats.deepest_ladder_level as f64)
                .fold(0.0, f64::max),
        ),
        (
            "search.budget_stops",
            mean(&|r| f64::from(u8::from(r.verdict == Verdict::BudgetExhausted))),
        ),
    ];
    EngineLayers { values, sum_error }
}
