//! The experiment primitives behind the table binaries: one trial =
//! inject → diagnose/rectify → verify → measure.

use std::time::{Duration, Instant};

use crate::args::Args;
use incdx_core::{
    solution_fingerprint, ChaosConfig, Checkpoint, IncdxError, Rectifier, RectifyConfig,
    RectifyLimits, RectifyStats, TraversalKind, Verdict,
};
use incdx_fault::{inject_design_errors, inject_stuck_at_faults, InjectionConfig, StuckAt};
use incdx_netlist::{scan_convert, Netlist};
use incdx_opt::{optimize_for_area, OptConfig};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The combinational circuits of Table 1/2, in the paper's order.
pub const DEFAULT_COMB_CIRCUITS: &[&str] = &[
    "c432a", "c499a", "c880a", "c1355a", "c1908a", "c2670a", "c3540a", "c5315a", "c6288a", "c7552a",
];

/// The full-scan sequential circuits of Table 1/2.
pub const DEFAULT_SEQ_CIRCUITS: &[&str] = &["s298a", "s344a", "s641a", "s1238a", "s9234a"];

/// Generates a suite circuit, scan-converting s-circuits to their
/// combinational cores.
///
/// # Panics
///
/// Panics on unknown circuit names.
pub fn scan_core(name: &str) -> Netlist {
    try_scan_core(name).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`scan_core`], for binaries that map unknown circuit
/// names onto their usage-error exit path (code 2) instead of panicking.
pub fn try_scan_core(name: &str) -> Result<Netlist, String> {
    let n = incdx_gen::generate(name).map_err(|e| format!("{e}"))?;
    if n.is_combinational() {
        Ok(n)
    } else {
        Ok(scan_convert(&n).map_err(|e| format!("{e}"))?.0)
    }
}

/// Engine-facing options shared by every trial: backend/traversal
/// selection plus the resilience layer (limits, chaos, checkpointing).
/// Bundled so the trial signatures stay stable as knobs accrue.
#[derive(Debug, Clone, Default)]
pub struct TrialOptions {
    /// Event-driven incremental engine (see [`Args::incremental`]).
    pub incremental: bool,
    /// Hierarchical sparse simulation kernel (see [`Args::sparse`]).
    pub sparse: bool,
    /// Two-level hierarchical diagnosis (see [`Args::hierarchical`]):
    /// abstract-first search resumed on the implicated concrete regions.
    pub hierarchical: bool,
    /// Decision-tree scheduling policy.
    pub traversal: TraversalKind,
    /// Engine invariant audit ([`RectifyConfig::audit`]).
    pub audit: bool,
    /// Cooperative resource limits (deadline, node/word budgets); an
    /// exhausted limit yields a typed verdict, ranked partial solutions,
    /// and a resumable checkpoint on the outcome.
    pub limits: RectifyLimits,
    /// Deterministic chaos fault injection (`--chaos`).
    pub chaos: Option<ChaosConfig>,
    /// Run label stamped into reports and any captured checkpoint
    /// (`experiment/circuit/kN/tM`).
    pub label: String,
    /// Resume from this checkpoint instead of starting fresh. The trial
    /// seed must regenerate the checkpointed workload — pass
    /// [`Checkpoint::trial_seed`] and [`Checkpoint::vectors`] back in.
    pub resume: Option<Checkpoint>,
}

impl TrialOptions {
    /// Lifts the engine-relevant flags out of parsed [`Args`].
    pub fn from_args(args: &Args) -> Self {
        TrialOptions {
            incremental: args.incremental,
            sparse: args.sparse,
            hierarchical: args.hierarchical,
            traversal: args.traversal,
            audit: args.audit,
            limits: args.limits(),
            chaos: args.chaos,
            label: String::new(),
            resume: None,
        }
    }

    /// Copies the engine flags into `config`: backend, sparse kernel,
    /// hierarchical mode, traversal, audit, limits and chaos. Never
    /// `jobs` (trials fan out above the engine, so each caller sets the
    /// engine's workers itself), nor the preset's own caps (`max_nodes`,
    /// `max_rounds`, `time_limit`).
    pub fn apply(&self, config: &mut RectifyConfig) {
        config.incremental = self.incremental;
        config.sparse = self.sparse;
        config.hierarchical = self.hierarchical;
        config.traversal = self.traversal;
        config.audit = self.audit;
        config.limits = self.limits;
        config.chaos = self.chaos;
    }

    /// A copy of these options aimed at a specific run label.
    pub fn labelled(&self, label: String) -> Self {
        let mut opts = self.clone();
        opts.label = label;
        opts
    }
}

/// Splits an `experiment/circuit/kN/tM` run label (the scheme the table
/// binaries stamp into reports and checkpoints) into its fields, so
/// `--resume` can re-dispatch a checkpoint to the right workload.
pub fn parse_run_label(label: &str) -> Option<(&str, &str, usize, usize)> {
    let mut it = label.split('/');
    let experiment = it.next()?;
    let circuit = it.next()?;
    let k = it.next()?.strip_prefix('k')?.parse().ok()?;
    let trial = it.next()?.strip_prefix('t')?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((experiment, circuit, k, trial))
}

/// Reads and validates a checkpoint file written by `--checkpoint`,
/// delegating to the core loader so a truncated or garbled file
/// surfaces as the same typed [`IncdxError::CheckpointIo`] /
/// [`IncdxError::Checkpoint`] the daemon's spool reports — never a
/// panic, and never a half-parsed checkpoint handed to `resume`.
///
/// [`IncdxError::CheckpointIo`]: incdx_core::IncdxError::CheckpointIo
/// [`IncdxError::Checkpoint`]: incdx_core::IncdxError::Checkpoint
pub fn load_checkpoint(path: &str) -> Result<Checkpoint, String> {
    incdx_core::load_checkpoint_file(std::path::Path::new(path)).map_err(|e| e.to_string())
}

/// Writes a checkpoint for the `--checkpoint` flag via the core's
/// atomic temp-file+rename writer, so a crash mid-write leaves either
/// the previous complete checkpoint or none — never a torn line.
pub fn save_checkpoint(path: &str, checkpoint: &Checkpoint) -> Result<(), String> {
    incdx_core::save_checkpoint_file(std::path::Path::new(path), checkpoint)
        .map_err(|e| e.to_string())
}

/// One Table 1 trial.
#[derive(Debug, Clone)]
pub struct StuckAtOutcome {
    /// Minimal equivalent tuples found.
    pub tuples: usize,
    /// Distinct fault sites over all tuples.
    pub sites: usize,
    /// Order-independent [`solution_fingerprint`] of the tuples.
    pub solutions_fp: u64,
    /// Whether the actually-injected tuple (or, under masking, a strict
    /// subset of it) is among the answers.
    pub recovered: bool,
    /// Whether the answers are smaller than the injected tuple (fault
    /// masking, §4.1).
    pub masked: bool,
    /// Wall-clock for the whole diagnosis.
    pub total: Duration,
    /// Typed run outcome ([`Verdict::Exact`] on a clean full search).
    pub verdict: Verdict,
    /// Ranked partial solutions reported on an early stop.
    pub partials: usize,
    /// Checkpoint captured when a limit or cancellation stopped the run.
    pub checkpoint: Option<Checkpoint>,
    /// Engine statistics.
    pub stats: RectifyStats,
}

/// Runs one stuck-at diagnosis trial on `golden` (already optimized /
/// scan-converted): inject `faults` random stuck-at faults, capture the
/// device responses, diagnose exhaustively and verify.
///
/// Returns `Ok(None)` when injection cannot produce an observable
/// corruption (tiny circuits) — the caller draws a new seed — and
/// `Err` when the engine itself rejects the workload, so binaries can
/// exit with a structured error record.
///
/// `opts` selects the evaluator backend and traversal policy and arms
/// the resilience layer; see [`TrialOptions`].
pub fn stuck_at_trial(
    golden: &Netlist,
    faults: usize,
    vectors: usize,
    seed: u64,
    time_limit: Duration,
    opts: &TrialOptions,
) -> Result<Option<StuckAtOutcome>, IncdxError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let injection = match inject_stuck_at_faults(
        golden,
        &InjectionConfig {
            count: faults,
            require_individually_observable: false,
            check_vectors: vectors,
            max_attempts: 100,
        },
        &mut rng,
    ) {
        Ok(injection) => injection,
        Err(_) => return Ok(None),
    };
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0x00D1_A600);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let device = Response::capture(
        &injection.corrupted,
        &sim.run_for_inputs(&injection.corrupted, golden.inputs(), &pi),
    );
    if device.po_values().rows() != golden.outputs().len() {
        return Ok(None);
    }
    // The device might not be excited on this vector set; that is a
    // legitimate "no failing behaviour" outcome the harness skips.
    {
        let vals = sim.run(golden, &pi);
        if Response::compare(golden, &vals, &device).matches() {
            return Ok(None);
        }
    }
    let mut config = RectifyConfig::stuck_at_exhaustive(faults);
    config.time_limit = Some(time_limit);
    opts.apply(&mut config);
    let started = Instant::now();
    let mut engine = Rectifier::new(golden.clone(), pi, device, config)?;
    engine.set_checkpoint_meta(opts.label.clone(), seed);
    let result = match &opts.resume {
        Some(checkpoint) => engine.resume(checkpoint)?,
        None => engine.run(),
    };
    let total = started.elapsed();
    let mut injected: Vec<StuckAt> = injection.injected.clone();
    injected.sort();
    let recovered = result.solutions.iter().any(|s| {
        let t = s.stuck_at_tuple().expect("stuck-at mode");
        t == injected || (!t.is_empty() && t.iter().all(|f| injected.contains(f)))
    });
    let masked = result
        .solutions
        .iter()
        .all(|s| s.corrections.len() < faults)
        && !result.solutions.is_empty();
    Ok(Some(StuckAtOutcome {
        tuples: result.solutions.len(),
        sites: result.distinct_sites(),
        solutions_fp: solution_fingerprint(&result.solutions),
        recovered,
        masked,
        total,
        verdict: result.verdict,
        partials: result.partials.len(),
        checkpoint: result.checkpoint,
        stats: result.stats,
    }))
}

/// One Table 2 trial.
#[derive(Debug, Clone)]
pub struct DedcOutcome {
    /// Did the engine find a verified correction tuple?
    pub solved: bool,
    /// Correction tuples reported by the engine (0 or 1 in DEDC mode).
    pub solutions: usize,
    /// Distinct corrected lines over all solutions.
    pub sites: usize,
    /// Order-independent [`solution_fingerprint`] of the solutions.
    pub solutions_fp: u64,
    /// Wall-clock for the whole rectification.
    pub total: Duration,
    /// Typed run outcome ([`Verdict::Exact`] on a clean full search).
    pub verdict: Verdict,
    /// Ranked partial solutions reported on an early stop.
    pub partials: usize,
    /// Checkpoint captured when a limit or cancellation stopped the run.
    pub checkpoint: Option<Checkpoint>,
    /// Engine statistics.
    pub stats: RectifyStats,
}

/// Runs one DEDC trial on `golden` (used as the specification): inject
/// `errors` observable design errors, rectify the corrupted design, and
/// verify any claimed solution. See [`stuck_at_trial`] for the
/// `Ok(None)` / `Err` split and [`TrialOptions`] for `opts`.
pub fn dedc_trial(
    golden: &Netlist,
    errors: usize,
    vectors: usize,
    seed: u64,
    time_limit: Duration,
    opts: &TrialOptions,
) -> Result<Option<DedcOutcome>, IncdxError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let injection = match inject_design_errors(
        golden,
        &InjectionConfig {
            count: errors,
            require_individually_observable: true,
            check_vectors: vectors,
            max_attempts: 300,
        },
        &mut rng,
    ) {
        Ok(injection) => injection,
        Err(_) => return Ok(None),
    };
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0x0DED_C000);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let spec = Response::capture(golden, &sim.run(golden, &pi));
    let mut config = RectifyConfig::dedc(errors);
    config.time_limit = Some(time_limit);
    opts.apply(&mut config);
    let started = Instant::now();
    let mut engine = Rectifier::new(
        injection.corrupted.clone(),
        pi.clone(),
        spec.clone(),
        config,
    )?;
    engine.set_checkpoint_meta(opts.label.clone(), seed);
    let result = match &opts.resume {
        Some(checkpoint) => engine.resume(checkpoint)?,
        None => engine.run(),
    };
    let total = started.elapsed();
    let solved = match result.solutions.first() {
        Some(solution) => {
            let mut fixed = injection.corrupted.clone();
            let applies = solution
                .corrections
                .iter()
                .all(|c| c.apply(&mut fixed).is_ok());
            applies
                && Response::compare(
                    &fixed,
                    &sim.run_for_inputs(&fixed, golden.inputs(), &pi),
                    &spec,
                )
                .matches()
        }
        None => false,
    };
    Ok(Some(DedcOutcome {
        solved,
        solutions: result.solutions.len(),
        sites: result.distinct_sites(),
        solutions_fp: solution_fingerprint(&result.solutions),
        total,
        verdict: result.verdict,
        partials: result.partials.len(),
        checkpoint: result.checkpoint,
        stats: result.stats,
    }))
}

/// Optimizes a circuit the way §4.1 prescribes for the stuck-at
/// experiments (bounded redundancy removal so large circuits stay fast).
pub fn optimize_for_table1(netlist: &Netlist) -> Netlist {
    optimize_for_area(
        netlist,
        &OptConfig {
            redundancy_rounds: 2,
            backtrack_limit: 500,
            prefilter_vectors: 256,
        },
    )
    .netlist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_opts() -> TrialOptions {
        TrialOptions {
            incremental: true,
            sparse: true,
            traversal: TraversalKind::default(),
            ..TrialOptions::default()
        }
    }

    #[test]
    fn apply_sets_the_engine_flags_and_leaves_jobs_and_budgets() {
        let opts = TrialOptions {
            incremental: false,
            sparse: false,
            hierarchical: true,
            traversal: TraversalKind::BestFirst,
            audit: true,
            limits: RectifyLimits {
                deadline: Some(Duration::from_millis(40)),
                max_total_nodes: Some(9),
                ..RectifyLimits::default()
            },
            chaos: Some(ChaosConfig { seed: 3, rate: 0.5 }),
            ..TrialOptions::default()
        };
        let mut config = RectifyConfig::dedc(2);
        config.jobs = 3;
        config.time_limit = Some(Duration::from_secs(7));
        let preset = config.clone();
        opts.apply(&mut config);
        assert!(!config.incremental);
        assert!(!config.sparse);
        assert!(config.hierarchical);
        assert_eq!(config.traversal, TraversalKind::BestFirst);
        assert!(config.audit);
        assert_eq!(config.limits, opts.limits);
        assert_eq!(config.chaos, opts.chaos);
        assert_eq!(config.jobs, preset.jobs);
        assert_eq!(config.max_nodes, preset.max_nodes);
        assert_eq!(config.time_limit, preset.time_limit);
    }

    #[test]
    fn stuck_at_trial_on_small_circuit() {
        let golden = scan_core("c432a");
        let out = stuck_at_trial(&golden, 1, 256, 3, Duration::from_secs(20), &base_opts())
            .expect("well-formed workload")
            .expect("injectable");
        assert!(out.tuples >= 1);
        assert!(out.recovered);
        assert!(!out.masked);
        assert!(out.sites >= out.tuples.min(1));
        assert_eq!(out.verdict, Verdict::Exact);
        assert_eq!(out.partials, 0);
        assert!(out.checkpoint.is_none(), "clean run captures no checkpoint");
    }

    #[test]
    fn hierarchical_trial_matches_flat_solution_counts() {
        let golden = scan_core("c432a");
        let mut hier = base_opts();
        hier.hierarchical = true;
        let h = stuck_at_trial(&golden, 1, 256, 3, Duration::from_secs(20), &hier)
            .expect("well-formed workload")
            .expect("injectable");
        let f = stuck_at_trial(&golden, 1, 256, 3, Duration::from_secs(20), &base_opts())
            .expect("well-formed workload")
            .expect("injectable");
        assert_eq!(h.tuples, f.tuples);
        assert_eq!(h.sites, f.sites);
        assert_eq!(h.recovered, f.recovered);
        assert_eq!(h.verdict, f.verdict);
        assert!(
            h.stats.abstraction.is_some(),
            "hierarchical run reports abstraction stats"
        );
    }

    #[test]
    fn dedc_trial_on_small_circuit() {
        let golden = scan_core("c432a");
        let mut opts = base_opts();
        opts.audit = true;
        let out = dedc_trial(&golden, 1, 256, 5, Duration::from_secs(20), &opts)
            .expect("well-formed workload")
            .expect("injectable");
        assert!(out.solved);
        assert_eq!(out.verdict, Verdict::Exact);
        assert!(out.stats.audit_checks > 0, "audit layer ran");
        assert_eq!(out.stats.audit_violations, 0, "c432a audits clean");
    }

    #[test]
    fn deadline_trial_checkpoints_and_resumes_identically() {
        let golden = scan_core("c432a");
        // An impossible deadline stops the run at the first plan boundary.
        let mut limited = base_opts();
        limited.label = "table2/c432a/k2/t0".to_string();
        limited.limits.deadline = Some(Duration::ZERO);
        let out = dedc_trial(&golden, 2, 256, 5, Duration::from_secs(20), &limited)
            .expect("well-formed workload")
            .expect("injectable");
        assert_eq!(out.verdict, Verdict::DeadlineExceeded);
        assert!(out.partials > 0, "ranked partials on early stop");
        let checkpoint = out.checkpoint.expect("early stop captures a checkpoint");
        assert_eq!(checkpoint.label, "table2/c432a/k2/t0");
        assert_eq!(checkpoint.trial_seed, 5);
        assert_eq!(checkpoint.vectors, 256);

        // Resume without limits and compare against the unlimited run.
        let mut resume = base_opts();
        resume.resume = Some(checkpoint);
        let resumed = dedc_trial(&golden, 2, 256, 5, Duration::from_secs(20), &resume)
            .expect("resume accepted")
            .expect("injectable");
        let fresh = dedc_trial(&golden, 2, 256, 5, Duration::from_secs(20), &base_opts())
            .expect("well-formed workload")
            .expect("injectable");
        assert_eq!(resumed.verdict, fresh.verdict);
        assert_eq!(resumed.solutions, fresh.solutions);
        assert_eq!(resumed.sites, fresh.sites);
        assert_eq!(resumed.solved, fresh.solved);
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let golden = scan_core("c432a");
        let mut limited = base_opts();
        limited.label = "table2/c432a/k2/t1".to_string();
        limited.limits.max_total_nodes = Some(1);
        let out = dedc_trial(&golden, 2, 256, 5, Duration::from_secs(20), &limited)
            .expect("well-formed workload")
            .expect("injectable");
        let checkpoint = out.checkpoint.expect("budget stop captures a checkpoint");
        let path = std::env::temp_dir().join("incdx_bench_ckpt_roundtrip.json");
        let path = path.to_str().expect("utf-8 temp path");
        save_checkpoint(path, &checkpoint).expect("writable temp dir");
        let loaded = load_checkpoint(path).expect("round trip");
        assert_eq!(loaded.label, checkpoint.label);
        assert_eq!(loaded.plan_pos, checkpoint.plan_pos);
        assert_eq!(loaded.nodes.len(), checkpoint.nodes.len());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_checkpoint_file_is_a_typed_error_not_a_resume() {
        let golden = scan_core("c432a");
        let mut limited = base_opts();
        limited.label = "table2/c432a/k2/t2".to_string();
        limited.limits.max_total_nodes = Some(1);
        let out = dedc_trial(&golden, 2, 256, 5, Duration::from_secs(20), &limited)
            .expect("well-formed workload")
            .expect("injectable");
        let checkpoint = out.checkpoint.expect("budget stop captures a checkpoint");
        let path = std::env::temp_dir().join("incdx_bench_ckpt_truncated.json");
        let path = path.to_str().expect("utf-8 temp path");
        save_checkpoint(path, &checkpoint).expect("writable temp dir");

        // Simulate a torn write: chop the file mid-line. The loader must
        // refuse with a typed error naming the problem — the `--resume`
        // path never even constructs an engine from it.
        let full = std::fs::read_to_string(path).expect("readable");
        std::fs::write(path, &full[..full.len() / 2]).expect("truncate");
        let err = load_checkpoint(path).expect_err("torn checkpoint rejected");
        assert!(
            err.contains("checkpoint"),
            "typed checkpoint error, got: {err}"
        );

        // Garbage that still parses as JSON but violates the schema is
        // equally refused.
        std::fs::write(path, "{\"version\":999}\n").expect("garbage");
        assert!(load_checkpoint(path).is_err(), "schema garbage rejected");
        let _ = std::fs::remove_file(path);

        // And a checkpoint edited to pin the wrong workload is refused
        // by `Rectifier::resume` itself (the last line of defence when
        // the file parses cleanly but lies).
        let mut wrong = checkpoint;
        wrong.base_hash ^= 1;
        let mut resume = base_opts();
        resume.resume = Some(wrong);
        let refused = dedc_trial(&golden, 2, 256, 5, Duration::from_secs(20), &resume);
        assert!(
            matches!(refused, Err(IncdxError::Checkpoint { .. })),
            "resume must refuse a checkpoint pinning a different netlist"
        );
    }

    #[test]
    fn run_labels_parse_and_reject_other_schemes() {
        assert_eq!(
            parse_run_label("table1/c432a/k3/t7"),
            Some(("table1", "c432a", 3, 7))
        );
        assert_eq!(parse_run_label("fig2/c432a/budget4"), None);
        assert_eq!(parse_run_label("table1/c432a/k3"), None);
        assert_eq!(parse_run_label("table1/c432a/k3/t7/extra"), None);
        assert_eq!(parse_run_label("table1/c432a/3/t7"), None);
    }

    #[test]
    fn scan_core_handles_both_families() {
        assert!(scan_core("c17").is_combinational());
        assert!(scan_core("s298a").is_combinational());
        assert!(try_scan_core("not-a-circuit").is_err());
    }
}
