//! Integration tests of the resilience layer: cooperative limits,
//! cancellation, checkpoint/resume identity, panic recovery, and the
//! chaos fault-injection harness.
//!
//! The load-bearing property throughout: an early stop (deadline,
//! budget, cancellation) happens only at a plan-item boundary, so the
//! captured checkpoint resumes to *exactly* the solution set of an
//! unlimited run, and every recovery the engine performs is visible as
//! a structured degradation event.

use std::sync::Once;
use std::time::Duration;

use incdx_core::{
    ChaosConfig, Checkpoint, DegradationKind, PartialSolution, Rectifier, RectifyConfig,
    RectifyLimits, RectifyResult, Verdict,
};
use incdx_fault::StuckAt;
use incdx_gen::{random_dag, RandomDagConfig};
use incdx_netlist::{GateId, Netlist};
use incdx_sim::{PackedMatrix, Response, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dag(seed: u64, gates: usize) -> Netlist {
    random_dag(
        &RandomDagConfig {
            inputs: 8,
            gates,
            outputs: 5,
            max_fanin: 3,
            xor_fraction: 0.1,
            window: 16,
        },
        seed,
    )
}

/// Injects stuck-at faults at `picks` and captures the faulty device's
/// responses; `None` when a fault fails to apply or is not excited.
fn stuck_at_workload(
    golden: &Netlist,
    picks: &[(usize, bool)],
    vectors: usize,
    seed: u64,
) -> Option<(PackedMatrix, Response)> {
    let mut device_nl = golden.clone();
    for &(pick, v) in picks {
        StuckAt::new(GateId::from_index(pick % golden.len()), v)
            .apply(&mut device_nl)
            .ok()?;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut rng);
    let mut sim = Simulator::new();
    let device = Response::capture(
        &device_nl,
        &sim.run_for_inputs(&device_nl, golden.inputs(), &pi),
    );
    let vals = sim.run(golden, &pi);
    if Response::compare(golden, &vals, &device).matches() {
        return None;
    }
    Some((pi, device))
}

/// Every reported partial must replay: applying its corrections to the
/// base netlist leaves exactly `remaining_failures` failing vectors.
fn assert_partials_replay(
    base: &Netlist,
    pi: &PackedMatrix,
    reference: &Response,
    partials: &[PartialSolution],
) {
    let mut sim = Simulator::new();
    for partial in partials {
        let mut fixed = base.clone();
        for c in &partial.corrections {
            c.apply(&mut fixed).expect("partial tuple applies");
        }
        let vals = sim.run_for_inputs(&fixed, base.inputs(), pi);
        let remaining = Response::compare(&fixed, &vals, reference).num_failing();
        assert_eq!(
            remaining, partial.remaining_failures,
            "partial {:?} does not replay",
            partial.corrections
        );
    }
}

/// The acceptance scenario: a Table-1-style exhaustive stuck-at run on a
/// large generated circuit with a 50 ms deadline stops with
/// [`Verdict::DeadlineExceeded`], non-empty ranked partials, and a
/// checkpoint that — resumed without limits, after a JSON round trip —
/// reproduces the exact unlimited solution set.
#[test]
fn deadline_stops_with_checkpoint_and_resume_matches_unlimited() {
    let golden = dag(11, 300);
    let (pi, device) =
        stuck_at_workload(&golden, &[(17, false), (123, true)], 192, 11).expect("excited faults");
    let config = RectifyConfig::stuck_at_exhaustive(2);

    let unlimited = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
        .expect("well-formed inputs")
        .run();
    assert!(
        !unlimited.solutions.is_empty(),
        "reference run finds the injected tuple"
    );

    let mut limited_config = config.clone();
    limited_config.limits = RectifyLimits {
        deadline: Some(Duration::from_millis(50)),
        ..RectifyLimits::default()
    };
    let mut engine = Rectifier::new(golden.clone(), pi.clone(), device.clone(), limited_config)
        .expect("well-formed inputs");
    engine.set_checkpoint_meta("resilience/deadline", 11);
    let limited = engine.run();
    assert_eq!(limited.verdict, Verdict::DeadlineExceeded);
    assert!(limited.stats.truncated);
    assert!(
        !limited.partials.is_empty(),
        "ranked partials on a deadline stop"
    );
    assert_partials_replay(&golden, &pi, &device, &limited.partials);

    let checkpoint = limited
        .checkpoint
        .expect("deadline stop captures a checkpoint");
    assert_eq!(checkpoint.label, "resilience/deadline");
    assert_eq!(checkpoint.trial_seed, 11);
    let restored = Checkpoint::from_json(&checkpoint.to_json()).expect("JSON round trip");

    let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
        .expect("well-formed inputs")
        .resume(&restored)
        .expect("checkpoint accepted");
    assert_eq!(resumed.solutions, unlimited.solutions);
    assert_eq!(resumed.verdict, unlimited.verdict);
}

/// Runs `stuck_at_exhaustive(2)` with the tree cap `max_nodes`, flat or
/// hierarchical.
fn capped_exhaustive(
    golden: &Netlist,
    pi: &PackedMatrix,
    device: &Response,
    max_nodes: usize,
    hierarchical: bool,
) -> RectifyResult {
    let mut config = RectifyConfig::stuck_at_exhaustive(2);
    config.max_nodes = max_nodes;
    config.hierarchical = hierarchical;
    Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
        .expect("well-formed inputs")
        .run()
}

/// The tree cap (`max_nodes`) that stops an exhaustive enumeration after
/// it has found solutions yields [`Verdict::Truncated`], not `Exact`:
/// each reported solution replays, but the set may be incomplete. A cap
/// stop captures no checkpoint. Uncapped, the same run is `Exact` and
/// finds every solution the capped one reported.
#[test]
fn capped_exhaustive_run_with_solutions_is_truncated() {
    let golden = dag(5, 40);
    let (pi, device) =
        stuck_at_workload(&golden, &[(9, true), (23, false)], 128, 5).expect("excited faults");
    let run = |max_nodes: usize| capped_exhaustive(&golden, &pi, &device, max_nodes, false);
    let uncapped_nodes = RectifyConfig::stuck_at_exhaustive(2).max_nodes;
    let uncapped = run(uncapped_nodes);
    assert!(!uncapped.stats.truncated);
    assert_eq!(uncapped.verdict, Verdict::Exact);
    // Two tree nodes: the root and one depth-1 node expand, so only
    // part of the solution set is reached.
    let capped = run(2);
    assert!(capped.stats.truncated);
    assert!(
        !capped.solutions.is_empty(),
        "the cap lands after the first solutions"
    );
    assert_eq!(capped.verdict, Verdict::Truncated);
    assert_eq!(capped.verdict.tag(), "truncated");
    assert!(capped.checkpoint.is_none());
    assert!(capped.solutions.len() < uncapped.solutions.len());
    for solution in &capped.solutions {
        assert!(uncapped.solutions.contains(solution), "{solution:?}");
    }

    // The hierarchical verdict site, on a circuit large enough for the
    // abstraction to engage.
    let golden = dag(3, 120);
    let (pi, device) =
        stuck_at_workload(&golden, &[(9, true), (23, false)], 128, 5).expect("excited faults");
    let uncapped = capped_exhaustive(&golden, &pi, &device, uncapped_nodes, true);
    assert!(
        uncapped.stats.abstraction.is_some(),
        "the abstraction engaged"
    );
    assert_eq!(uncapped.verdict, Verdict::Exact);
    let capped = capped_exhaustive(&golden, &pi, &device, 2, true);
    assert!(
        capped.stats.abstraction.is_some(),
        "the abstraction engaged"
    );
    assert!(capped.stats.truncated && !capped.solutions.is_empty());
    assert_eq!(capped.verdict, Verdict::Truncated);
}

/// A total-node budget stops the search with [`Verdict::BudgetExhausted`]
/// and resumes losslessly, even across several checkpoint hops; limits
/// armed far above what the run needs never trip and change nothing.
#[test]
fn node_budget_stops_and_chained_resume_matches_unlimited() {
    let golden = dag(5, 40);
    let (pi, device) =
        stuck_at_workload(&golden, &[(9, true), (23, false)], 128, 5).expect("excited faults");
    let config = RectifyConfig::dedc(2);

    let unlimited = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
        .expect("well-formed inputs")
        .run();

    // Armed but never tripped: a node budget and a deadline far above
    // the run's needs leave the search, its verdict and its cost as they
    // were, and capture no checkpoint — in both search modes.
    for plain_config in [config.clone(), RectifyConfig::stuck_at_exhaustive(2)] {
        let plain = Rectifier::new(
            golden.clone(),
            pi.clone(),
            device.clone(),
            plain_config.clone(),
        )
        .expect("well-formed inputs")
        .run();
        let mut armed_config = plain_config;
        armed_config.limits = RectifyLimits {
            deadline: Some(Duration::from_secs(86_400)),
            max_total_nodes: Some(1_000_000_000),
            ..RectifyLimits::default()
        };
        let armed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), armed_config)
            .expect("well-formed inputs")
            .run();
        assert!(!plain.solutions.is_empty());
        assert_eq!(armed.solutions, plain.solutions);
        assert_eq!(armed.stats.nodes, plain.stats.nodes);
        assert_eq!(armed.stats.rounds, plain.stats.rounds);
        assert_eq!(armed.verdict, plain.verdict);
        assert!(armed.checkpoint.is_none());
    }

    // Hop 1: stop after a single evaluated node.
    let mut budget_config = config.clone();
    budget_config.limits.max_total_nodes = Some(1);
    let first = Rectifier::new(golden.clone(), pi.clone(), device.clone(), budget_config)
        .expect("well-formed inputs")
        .run();
    assert_eq!(first.verdict, Verdict::BudgetExhausted);
    assert_partials_replay(&golden, &pi, &device, &first.partials);
    let checkpoint = first.checkpoint.expect("budget stop captures a checkpoint");

    // Hop 2: resume with a slightly larger budget — may stop again.
    let mut next_config = config.clone();
    next_config.limits.max_total_nodes = Some(3);
    let second = Rectifier::new(golden.clone(), pi.clone(), device.clone(), next_config)
        .expect("well-formed inputs")
        .resume(&checkpoint)
        .expect("checkpoint accepted");
    let final_result = match second.checkpoint {
        Some(checkpoint) => {
            assert_eq!(second.verdict, Verdict::BudgetExhausted);
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .resume(&checkpoint)
                .expect("checkpoint accepted")
        }
        None => second,
    };
    assert_eq!(final_result.solutions, unlimited.solutions);
    assert_eq!(final_result.verdict, unlimited.verdict);
}

/// A checkpoint is rejected when replayed against a different netlist —
/// the fingerprint guard, not silent wrong answers.
#[test]
fn checkpoint_rejects_mismatched_netlist() {
    let golden = dag(5, 40);
    let (pi, device) =
        stuck_at_workload(&golden, &[(9, true), (23, false)], 128, 5).expect("excited faults");
    let mut config = RectifyConfig::dedc(2);
    config.limits.max_total_nodes = Some(1);
    let result = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
        .expect("well-formed inputs")
        .run();
    let checkpoint = result
        .checkpoint
        .expect("budget stop captures a checkpoint");

    let other = dag(6, 40);
    let (other_pi, other_device) =
        stuck_at_workload(&other, &[(9, true), (23, false)], 128, 6).expect("excited faults");
    let err = Rectifier::new(other, other_pi, other_device, RectifyConfig::dedc(2))
        .expect("well-formed inputs")
        .resume(&checkpoint);
    assert!(err.is_err(), "foreign checkpoint must be rejected");
}

/// Silences the default panic printer for the *injected* chaos panics
/// (they are expected and recovered); anything else still prints.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !message.contains("chaos: injected") {
                default(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 3 — cancellation safety: a token tripped after an
    /// arbitrary number of limit polls stops the engine at a clean plan
    /// boundary. Wherever the trip lands: the decision tree passes its
    /// invariant audit, every reported partial replays, and a captured
    /// checkpoint resumes to the uncancelled run's exact solution set.
    #[test]
    fn cancellation_at_any_step_leaves_clean_resumable_state(
        seed in 0u64..24,
        trip in 1u64..40,
    ) {
        let golden = dag(seed, 40);
        let picks = [(7 + seed as usize, true), (19 + 2 * seed as usize, false)];
        let Some((pi, device)) = stuck_at_workload(&golden, &picks, 128, seed) else {
            return Ok(()); // fault not excited on this draw
        };
        let config = RectifyConfig::dedc(2);
        let reference = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
            .expect("well-formed inputs")
            .run();

        let mut engine = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
            .expect("well-formed inputs");
        let token = engine.cancel_token();
        token.trip_after(trip);
        let result = engine.run();

        prop_assert_eq!(result.stats.audit_violations, 0, "tree invariants hold");
        assert_partials_replay(&golden, &pi, &device, &result.partials);
        if result.verdict == Verdict::Cancelled {
            let checkpoint = result.checkpoint.expect("cancel stop captures a checkpoint");
            let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .resume(&checkpoint)
                .expect("checkpoint accepted");
            prop_assert_eq!(&resumed.solutions, &reference.solutions);
        } else {
            // The trip count outlived the search: results are untouched.
            prop_assert_eq!(&result.solutions, &reference.solutions);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The chaos harness contract: with deterministic fault injection at
    /// rate 0.05 (worker panics, cached-matrix bit flips, spurious width
    /// errors) the recovered solution set is bit-identical to the
    /// chaos-off run, and *every* injected fault is accounted for as a
    /// recovery — panics in the worker-panic degradation event, matrix
    /// corruptions in the audit repair/fallback events.
    #[test]
    fn chaos_recovery_matches_chaos_off(
        seed in 0u64..16,
        chaos_seed in 0u64..64,
        jobs in 1usize..3,
    ) {
        silence_injected_panics();
        let golden = dag(seed, 40);
        let picks = [(11 + seed as usize, false), (29 + 3 * seed as usize, true)];
        let Some((pi, device)) = stuck_at_workload(&golden, &picks, 128, seed) else {
            return Ok(()); // fault not excited on this draw
        };
        let run = |chaos: Option<ChaosConfig>| {
            let mut config = RectifyConfig::dedc(2);
            config.jobs = jobs;
            config.chaos = chaos;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let clean = run(None);
        let chaotic = run(Some(ChaosConfig { seed: chaos_seed, rate: 0.05 }));

        prop_assert_eq!(&clean.solutions, &chaotic.solutions, "recovery is lossless");
        prop_assert!(clean.stats.chaos.is_none());
        let summary = chaotic.stats.chaos.expect("chaos summary recorded");

        // Injected panics were each recovered exactly once…
        prop_assert_eq!(chaotic.stats.parallel.panics_recovered, summary.panics);
        let panic_events: u64 = chaotic
            .stats
            .degradations
            .iter()
            .filter(|d| d.kind == DegradationKind::WorkerPanic)
            .map(|d| d.count)
            .sum();
        prop_assert_eq!(panic_events, summary.panics);
        // …and every matrix corruption was caught and repaired by the
        // resilient audit layer.
        let repair_events: u64 = chaotic
            .stats
            .degradations
            .iter()
            .filter(|d| {
                matches!(
                    d.kind,
                    DegradationKind::AuditRepair | DegradationKind::EvaluatorFallback
                )
            })
            .map(|d| d.count)
            .sum();
        prop_assert_eq!(repair_events, summary.bit_flips + summary.width_errors);
        // …and every sparse-mask summary flip was caught by the
        // pipeline's verify/repair pair.
        let sparse_repairs: u64 = chaotic
            .stats
            .degradations
            .iter()
            .filter(|d| d.kind == DegradationKind::SparseRepair)
            .map(|d| d.count)
            .sum();
        prop_assert_eq!(sparse_repairs, summary.summary_flips);
        if summary.total() > 0 {
            prop_assert!(
                !chaotic.stats.degradations.is_empty(),
                "injected faults surface as degradation events"
            );
            prop_assert_eq!(chaotic.verdict, Verdict::Degraded);
        }
    }

    /// Satellite — the dispatcher chaos contract: a chaos-armed
    /// *dispatched* run (worker panics, matrix bit flips, width errors,
    /// and the dispatcher-specific steal-site injections all enabled)
    /// recovers to the exact solution set of a chaos-off *serial* run,
    /// and the fault-to-degradation accounting stays 1:1 — wasted
    /// speculations and panicked workers included. Steal-site panics
    /// land in the same `panics` ledger as screening-worker panics, so
    /// the identity `panics_recovered == summary.panics` pins both
    /// boundaries at once.
    #[test]
    fn chaos_dispatched_recovery_matches_serial_chaos_off(
        seed in 0u64..12,
        chaos_seed in 0u64..48,
        jobs in 2usize..5,
    ) {
        silence_injected_panics();
        let golden = dag(seed ^ 0xD5, 40);
        let picks = [(11 + seed as usize, false), (29 + 3 * seed as usize, true)];
        let Some((pi, device)) = stuck_at_workload(&golden, &picks, 128, seed) else {
            return Ok(()); // fault not excited on this draw
        };
        let run = |dispatch: bool, jobs: usize, chaos: Option<ChaosConfig>| {
            let mut config = RectifyConfig::dedc(2);
            config.dispatch = dispatch;
            config.jobs = jobs;
            config.chaos = chaos;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let clean = run(false, 1, None);
        let chaotic = run(true, jobs, Some(ChaosConfig { seed: chaos_seed, rate: 0.05 }));

        prop_assert_eq!(&clean.solutions, &chaotic.solutions, "recovery is lossless");
        let summary = chaotic.stats.chaos.expect("chaos summary recorded");

        // Every injected panic — screening worker or dispatcher
        // steal-site — was recovered exactly once and surfaced as a
        // worker-panic degradation.
        prop_assert_eq!(chaotic.stats.parallel.panics_recovered, summary.panics);
        let panic_events: u64 = chaotic
            .stats
            .degradations
            .iter()
            .filter(|d| d.kind == DegradationKind::WorkerPanic)
            .map(|d| d.count)
            .sum();
        prop_assert_eq!(panic_events, summary.panics);
        // Matrix corruptions caught by the audit layer, in workers and
        // master alike.
        let repair_events: u64 = chaotic
            .stats
            .degradations
            .iter()
            .filter(|d| {
                matches!(
                    d.kind,
                    DegradationKind::AuditRepair | DegradationKind::EvaluatorFallback
                )
            })
            .map(|d| d.count)
            .sum();
        prop_assert_eq!(repair_events, summary.bit_flips + summary.width_errors);
        if summary.total() > 0 {
            prop_assert_eq!(chaotic.verdict, Verdict::Degraded);
        }
    }

    /// Satellite — checkpoint/resume under dispatch: a dispatched run
    /// stopped by a node budget captures a checkpoint (speculations are
    /// never part of it) that resumes — still dispatched — to the exact
    /// solution set of an unlimited serial run. The node budget is
    /// master-side deterministic, so the stop point itself is
    /// schedule-independent.
    #[test]
    fn dispatched_budget_stop_resumes_to_unlimited_solutions(
        seed in 0u64..12,
        budget in 1u64..6,
        jobs in 2usize..5,
    ) {
        let golden = dag(seed ^ 0xB4, 40);
        let picks = [(9 + seed as usize, true), (23 + 2 * seed as usize, false)];
        let Some((pi, device)) = stuck_at_workload(&golden, &picks, 128, seed) else {
            return Ok(()); // fault not excited on this draw
        };
        let mut config = RectifyConfig::dedc(2);
        config.dispatch = true;
        config.jobs = jobs;

        let unlimited = Rectifier::new(
            golden.clone(),
            pi.clone(),
            device.clone(),
            RectifyConfig::dedc(2),
        )
        .expect("well-formed inputs")
        .run();

        let mut limited_config = config.clone();
        limited_config.limits.max_total_nodes = Some(budget);
        let limited = Rectifier::new(golden.clone(), pi.clone(), device.clone(), limited_config)
            .expect("well-formed inputs")
            .run();
        match limited.checkpoint {
            Some(checkpoint) => {
                prop_assert_eq!(limited.verdict, Verdict::BudgetExhausted);
                assert_partials_replay(&golden, &pi, &device, &limited.partials);
                let restored =
                    Checkpoint::from_json(&checkpoint.to_json()).expect("JSON round trip");
                let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                    .expect("well-formed inputs")
                    .resume(&restored)
                    .expect("checkpoint accepted");
                prop_assert_eq!(&resumed.solutions, &unlimited.solutions);
                prop_assert_eq!(resumed.verdict, unlimited.verdict);
            }
            None => {
                // The budget outlived the search: results are untouched.
                prop_assert_eq!(&limited.solutions, &unlimited.solutions);
            }
        }
    }

    /// The sparse-kernel chaos contract: a chaos-armed *sparse* run —
    /// block-summary flips included in the injection mix — recovers to
    /// the exact solution set of an undisturbed *dense* run. This pins
    /// both halves at once: sparse ≡ dense on results, and summary
    /// corruption ≡ repaired (1:1 with `SparseRepair` degradations).
    #[test]
    fn chaos_sparse_recovery_matches_dense_chaos_off(
        seed in 0u64..16,
        chaos_seed in 0u64..64,
    ) {
        silence_injected_panics();
        let golden = dag(seed ^ 0x51, 40);
        let picks = [(13 + seed as usize, true), (31 + 2 * seed as usize, false)];
        let Some((pi, device)) = stuck_at_workload(&golden, &picks, 320, seed) else {
            return Ok(()); // fault not excited on this draw
        };
        let run = |sparse: bool, chaos: Option<ChaosConfig>| {
            let mut config = RectifyConfig::dedc(2);
            config.sparse = sparse;
            config.chaos = chaos;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let dense_clean = run(false, None);
        prop_assert_eq!(dense_clean.stats.sparse_rows, 0, "dense mode runs dense");
        prop_assert_eq!(dense_clean.stats.blocks_skipped, 0);
        let sparse_chaotic = run(true, Some(ChaosConfig { seed: chaos_seed, rate: 0.2 }));

        prop_assert_eq!(&dense_clean.solutions, &sparse_chaotic.solutions,
            "sparse recovery is lossless against the dense reference");
        let summary = sparse_chaotic.stats.chaos.expect("chaos summary recorded");
        let sparse_repairs: u64 = sparse_chaotic
            .stats
            .degradations
            .iter()
            .filter(|d| d.kind == DegradationKind::SparseRepair)
            .map(|d| d.count)
            .sum();
        prop_assert_eq!(sparse_repairs, summary.summary_flips);
    }
}

/// Tentpole satellite — chaos abstraction-map corruption: a hierarchical
/// run whose [`AbstractionMap`](incdx_netlist::AbstractionMap) is
/// corrupted by the chaos layer detects it via the structural
/// self-check, rebuilds from the base netlist, records an
/// `abstraction-repair` degradation, and still reports the chaos-off
/// run's exact solution set.
#[test]
fn chaos_corrupted_abstraction_map_recovers_as_degradation() {
    let golden = dag(21, 200);
    let (pi, device) = [33usize, 57, 90, 120, 150]
        .iter()
        .find_map(|&pick| stuck_at_workload(&golden, &[(pick, pick % 2 == 0)], 96, 21))
        .expect("at least one candidate site is excited");
    let mut config = RectifyConfig::stuck_at_exhaustive(1);
    config.hierarchical = true;
    let clean = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
        .expect("well-formed inputs")
        .run();
    assert!(!clean.solutions.is_empty(), "reference run finds the fault");
    config.chaos = Some(ChaosConfig { seed: 7, rate: 1.0 });
    let chaotic = Rectifier::new(golden, pi, device, config)
        .expect("well-formed inputs")
        .run();
    assert_eq!(chaotic.solutions, clean.solutions, "recovery is lossless");
    let repairs: u64 = chaotic
        .stats
        .degradations
        .iter()
        .filter(|d| d.kind == DegradationKind::AbstractionRepair)
        .map(|d| d.count)
        .sum();
    assert!(
        repairs >= 1,
        "map corruption must surface as a structured degradation: {:?}",
        chaotic.stats.degradations
    );
    let summary = chaotic.stats.chaos.expect("chaos tally recorded");
    assert_eq!(
        summary.map_corruptions, repairs,
        "1:1 fault-to-repair accounting"
    );
    assert_eq!(chaotic.verdict, Verdict::Degraded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole — hierarchical checkpoint/resume: a node-budget stop in
    /// *any* hierarchical phase (abstract, restricted, or unrestricted,
    /// depending on where the budget lands) captures a phase-stamped
    /// checkpoint that — after a JSON round trip — resumes to the
    /// uninterrupted hierarchical run's exact solution set.
    #[test]
    fn hierarchical_budget_stop_resumes_to_uninterrupted(
        seed in 1u64..400,
        pick in 0usize..400,
        budget in 3u64..40,
    ) {
        let golden = dag(seed, 160);
        if let Some((pi, device)) = stuck_at_workload(&golden, &[(pick, pick % 2 == 0)], 96, seed) {
            let mut config = RectifyConfig::stuck_at_exhaustive(1);
            config.hierarchical = true;
            let uninterrupted =
                Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
                    .expect("well-formed inputs")
                    .run();
            let mut limited = config.clone();
            limited.limits = RectifyLimits {
                max_total_nodes: Some(budget),
                ..RectifyLimits::default()
            };
            let stopped = Rectifier::new(golden.clone(), pi.clone(), device.clone(), limited)
                .expect("well-formed inputs")
                .run();
            if let Some(checkpoint) = stopped.checkpoint {
                prop_assert!(
                    checkpoint.phase >= 1,
                    "hierarchical checkpoints are phase-stamped, got phase {}",
                    checkpoint.phase
                );
                let restored = Checkpoint::from_json(&checkpoint.to_json()).expect("round trip");
                let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                    .expect("well-formed inputs")
                    .resume(&restored)
                    .expect("checkpoint accepted");
                prop_assert_eq!(&resumed.solutions, &uninterrupted.solutions);
            }
        }
    }
}

/// Every reported solution must replay: applying its corrections to the
/// base netlist makes the response match the reference on all vectors.
fn assert_solutions_replay(
    base: &Netlist,
    pi: &PackedMatrix,
    reference: &Response,
    solutions: &[incdx_core::Solution],
) {
    let mut sim = Simulator::new();
    for solution in solutions {
        let mut fixed = base.clone();
        for c in &solution.corrections {
            c.apply(&mut fixed).expect("solution tuple applies");
        }
        let vals = sim.run_for_inputs(&fixed, base.inputs(), pi);
        assert!(
            Response::compare(&fixed, &vals, reference).matches(),
            "solution {:?} does not replay",
            solution.corrections
        );
    }
}

/// Satellite — concurrent cancellation: `cancel()` fired from another
/// thread races the engine's own `check_limits` polling (and, when
/// dispatch is armed, the dispatcher workers polling the same shared
/// token). Wherever the asynchronous flag lands, the run ends at a
/// clean plan boundary: the tree passes its invariant audit, partials
/// and solutions replay, and any captured checkpoint is accepted by a
/// fresh engine whose resumed results are equally clean. (Identity with
/// the uncancelled run is *not* asserted here — an asynchronous cancel
/// may cut a node's screening short, which is exactly the caveat
/// `Rectifier::resume` documents; the deterministic-trip property test
/// above covers identity.)
#[test]
fn concurrent_cancel_races_limit_polling_cleanly() {
    let golden = dag(11, 300);
    let (pi, device) =
        stuck_at_workload(&golden, &[(17, false), (123, true)], 192, 11).expect("excited faults");
    let mut cancelled_runs = 0;
    for dispatch in [false, true] {
        for delay_us in [0u64, 80, 400, 2_000, 8_000] {
            let mut config = RectifyConfig::stuck_at_exhaustive(2);
            config.dispatch = dispatch;
            config.jobs = if dispatch { 4 } else { 1 };
            let mut engine =
                Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
                    .expect("well-formed inputs");
            let token = engine.cancel_token();
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                token.cancel();
            });
            let result = engine.run();
            canceller.join().expect("canceller thread joins");

            assert_eq!(
                result.stats.audit_violations, 0,
                "tree invariants hold under a racing cancel (dispatch={dispatch}, delay={delay_us}us)"
            );
            assert_partials_replay(&golden, &pi, &device, &result.partials);
            assert_solutions_replay(&golden, &pi, &device, &result.solutions);
            if result.verdict == Verdict::Cancelled {
                cancelled_runs += 1;
                let checkpoint = result
                    .checkpoint
                    .expect("cancel stop captures a checkpoint");
                let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                    .expect("well-formed inputs")
                    .resume(&checkpoint)
                    .expect("asynchronously captured checkpoint is still accepted");
                assert_eq!(resumed.stats.audit_violations, 0);
                assert_solutions_replay(&golden, &pi, &device, &resumed.solutions);
            }
        }
    }
    // On a loaded machine every racing cancel can miss (the run finishes
    // before the canceller thread is scheduled). Deterministic backstop:
    // trip the token mid-search so the cancelled path is always exercised.
    if cancelled_runs == 0 {
        let config = RectifyConfig::stuck_at_exhaustive(2);
        let mut engine = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
            .expect("well-formed inputs");
        engine.cancel_token().trip_after(3);
        let result = engine.run();
        assert_eq!(result.verdict, Verdict::Cancelled);
        cancelled_runs += 1;
        let checkpoint = result
            .checkpoint
            .expect("cancel stop captures a checkpoint");
        let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
            .expect("well-formed inputs")
            .resume(&checkpoint)
            .expect("checkpoint accepted");
        assert_eq!(resumed.stats.audit_violations, 0);
        assert_solutions_replay(&golden, &pi, &device, &resumed.solutions);
    }
    assert!(cancelled_runs > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite — mid-phase hierarchical cancellation: a deterministic
    /// token trip landing inside the hierarchical orchestrator stops
    /// the run with a phase-stamped checkpoint (phase >= 1) that
    /// resumes — through the same orchestrator — to the uninterrupted
    /// hierarchical run's exact solution set.
    #[test]
    fn hierarchical_mid_phase_cancel_resumes_identically(
        seed in 1u64..200,
        pick in 0usize..400,
        trip in 1u64..30,
    ) {
        let golden = dag(seed, 160);
        if let Some((pi, device)) = stuck_at_workload(&golden, &[(pick, pick % 2 == 0)], 96, seed) {
            let mut config = RectifyConfig::stuck_at_exhaustive(1);
            config.hierarchical = true;
            let uninterrupted =
                Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
                    .expect("well-formed inputs")
                    .run();
            let mut engine =
                Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
                    .expect("well-formed inputs");
            engine.cancel_token().trip_after(trip);
            let stopped = engine.run();
            if stopped.verdict == Verdict::Cancelled {
                let checkpoint = stopped.checkpoint.expect("cancel stop captures a checkpoint");
                prop_assert!(
                    checkpoint.phase >= 1,
                    "hierarchical cancel checkpoints are phase-stamped, got phase {}",
                    checkpoint.phase
                );
                let restored = Checkpoint::from_json(&checkpoint.to_json()).expect("round trip");
                let resumed = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                    .expect("well-formed inputs")
                    .resume(&restored)
                    .expect("checkpoint accepted");
                prop_assert_eq!(&resumed.solutions, &uninterrupted.solutions);
            } else {
                prop_assert_eq!(&stopped.solutions, &uninterrupted.solutions);
            }
        }
    }
}
