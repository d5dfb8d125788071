//! The refactor's contract, property-tested: the layered engine
//! (Traversal + Evaluator + CandidatePipeline) with its default policy is
//! **bit-identical** to the frozen pre-refactor monolith in `legacy/` —
//! same solutions in the same order and the same search counters; only
//! wall-clock timers, worker telemetry and simulation effort may differ.
//! The oracle runs with the engine's last-slot rule for that; run without
//! it, it pins the rule to the pre-rule solution sets. A last property
//! pins the alternative traversal strategies to the same *solution set*
//! as the default on exhaustive diagnosis.

mod legacy;

use incdx_core::{Rectifier, RectifyConfig, RectifyResult, TraversalKind};
use incdx_fault::{Correction, StuckAt};
use incdx_gen::{random_dag, RandomDagConfig};
use incdx_netlist::{GateId, Netlist};
use incdx_sim::{PackedMatrix, Response, Simulator};
use legacy::LegacyRectifier;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dag(seed: u64) -> Netlist {
    random_dag(
        &RandomDagConfig {
            inputs: 6,
            gates: 40,
            outputs: 4,
            max_fanin: 3,
            xor_fraction: 0.1,
            window: 16,
        },
        seed,
    )
}

/// Stuck-at picks a case tries, at most, before it fails.
const MAX_PICKS: usize = 64;

/// Builds a diagnosable (golden, vectors, device) workload with `faults`
/// stuck-at faults injected from `pick`. While a pick's faults do not
/// apply or are not excited on the 128 vectors, the next pick is drawn
/// from the case's own seed stream, [`MAX_PICKS`] picks in all; `None`
/// means none was diagnosable, and the properties fail on it, so every
/// case compares.
fn workload(seed: u64, pick: usize, faults: usize) -> Option<(Netlist, PackedMatrix, Response)> {
    let golden = dag(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00E0_5EED);
    let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
    let mut sim = Simulator::new();
    let vals = sim.run(&golden, &pi);
    let mut picks = StdRng::seed_from_u64((seed << 16) ^ pick as u64);
    let mut pick = pick;
    for _ in 0..MAX_PICKS {
        let mut device_nl = golden.clone();
        let applied = (0..faults).all(|f| {
            let line = GateId::from_index((pick + 13 * f) % golden.len());
            StuckAt::new(line, (pick + f).is_multiple_of(2))
                .apply(&mut device_nl)
                .is_ok()
        });
        if applied {
            let device = Response::capture(
                &device_nl,
                &sim.run_for_inputs(&device_nl, golden.inputs(), &pi),
            );
            if !Response::compare(&golden, &vals, &device).matches() {
                return Some((golden, pi, device));
            }
        }
        pick = picks.random_range(0..1000);
    }
    None
}

/// The property failure for a case [`workload`] found nothing to diagnose.
fn undiagnosable(seed: u64, pick: usize, faults: usize) -> TestCaseError {
    TestCaseError::fail(format!(
        "seed {seed}, pick {pick}, {faults} faults: no excited pick in {MAX_PICKS} draws"
    ))
}

/// Every counter that must agree between the legacy and refactored
/// engines — everything except wall-clock timers, worker telemetry, the
/// new `traversal`/`evaluator` name fields, the simulation-effort
/// counters (`words_simulated`, `events_propagated`, `words_skipped`):
/// the pipeline reads heuristics 1 and 3 off one sensitivity pass per
/// line where the monolith walked the cone once per candidate — and two
/// effort counters that may only shrink: `matrix_cache_hits`, because
/// the monolith prepared every last-slot leaf from its parent's cached
/// matrix, while the engine closes the leaves its screening scores prove
/// failing without preparing them; and `cone_cache_hits` (cone lookups),
/// because the monolith memoizes the cone of every active line, while
/// the engine memoizes only the lines it reads.
fn assert_stats_identical(old: &RectifyResult, new: &RectifyResult) {
    assert_eq!(old.solutions, new.solutions, "solutions (and their order)");
    let (o, n) = (&old.stats, &new.stats);
    assert_eq!(o.nodes, n.nodes, "nodes");
    assert_eq!(
        o.expansions_skipped, n.expansions_skipped,
        "expansions_skipped"
    );
    assert_eq!(o.rounds, n.rounds, "rounds");
    assert_eq!(o.corrections_screened, n.corrections_screened, "screened");
    assert_eq!(
        o.corrections_qualified, n.corrections_qualified,
        "qualified"
    );
    assert_eq!(
        o.lines_rejected_h1, n.lines_rejected_h1,
        "lines_rejected_h1"
    );
    assert_eq!(
        o.corrections_rejected_h2, n.corrections_rejected_h2,
        "rejected_h2"
    );
    assert_eq!(
        o.corrections_rejected_h3, n.corrections_rejected_h3,
        "rejected_h3"
    );
    assert!(
        n.cone_cache_hits <= o.cone_cache_hits,
        "cone_cache_hits: {} > legacy {}",
        n.cone_cache_hits,
        o.cone_cache_hits
    );
    assert!(
        n.matrix_cache_hits <= o.matrix_cache_hits,
        "matrix_cache_hits: {} > legacy {}",
        n.matrix_cache_hits,
        o.matrix_cache_hits
    );
    assert_eq!(
        o.matrix_cache_evictions, n.matrix_cache_evictions,
        "matrix_cache_evictions"
    );
    assert_eq!(
        o.wire_sources_truncated, n.wire_sources_truncated,
        "wire_sources_truncated"
    );
    assert_eq!(
        o.candidates_truncated, n.candidates_truncated,
        "candidates_truncated"
    );
    assert_eq!(o.lines_truncated, n.lines_truncated, "lines_truncated");
    assert_eq!(
        o.deepest_ladder_level, n.deepest_ladder_level,
        "deepest_ladder_level"
    );
    assert_eq!(o.truncated, n.truncated, "truncated");
}

/// A solution set (order-insensitive): each solution as its sorted
/// correction list, the whole collection sorted.
fn solution_set(result: &RectifyResult) -> Vec<Vec<Correction>> {
    let mut set: Vec<Vec<Correction>> = result
        .solutions
        .iter()
        .map(|s| {
            let mut c = s.corrections.clone();
            c.sort();
            c
        })
        .collect();
    set.sort();
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The refactored default engine (RoundRobinBfs + Incremental) is
    /// bit-identical to the pre-refactor monolith across the config
    /// matrix the old engine supported: DEDC/exhaustive, incremental
    /// on/off, serial/parallel screening, and node caps small enough to
    /// bind, where the engine closes capped children from their
    /// parent's scores and the monolith prepares them.
    #[test]
    fn refactored_default_is_bit_identical_to_legacy(
        seed in 0u64..60,
        pick in 0usize..1000,
        faults in 1usize..3,
    ) {
        let Some((golden, pi, device)) = workload(seed, pick, faults) else {
            return Err(undiagnosable(seed, pick, faults));
        };
        let mut configs = vec![
            RectifyConfig::dedc(2),
            RectifyConfig::stuck_at_exhaustive(faults),
        ];
        let mut parallel = RectifyConfig::dedc(2);
        parallel.jobs = 2;
        configs.push(parallel);
        let mut from_scratch = RectifyConfig::dedc(2);
        from_scratch.incremental = false;
        configs.push(from_scratch);
        for max_nodes in [2, 5, 9] {
            for mut capped in [RectifyConfig::stuck_at_exhaustive(faults), RectifyConfig::dedc(2)] {
                capped.max_nodes = max_nodes;
                configs.push(capped);
            }
        }
        for config in configs {
            let old = LegacyRectifier::new(
                golden.clone(),
                pi.clone(),
                device.clone(),
                config.clone(),
                true,
            )
            .run();
            let new = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed workload")
                .run();
            assert_stats_identical(&old, &new);
        }
    }

    /// The last-slot rule loses no solution: wherever the pre-rule
    /// oracle finishes an exhaustive search, the engine finishes it too,
    /// with the same solution set.
    #[test]
    fn last_slot_rule_keeps_every_finished_solution_set(
        seed in 0u64..60,
        pick in 0usize..1000,
        faults in 1usize..3,
    ) {
        let Some((golden, pi, device)) = workload(seed, pick, faults) else {
            return Err(undiagnosable(seed, pick, faults));
        };
        for k in [1, 2] {
            let config = RectifyConfig::stuck_at_exhaustive(k);
            let old = LegacyRectifier::new(
                golden.clone(),
                pi.clone(),
                device.clone(),
                config.clone(),
                false,
            )
            .run();
            if old.stats.truncated {
                continue;
            }
            let new = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed workload")
                .run();
            prop_assert!(!new.stats.truncated, "k = {}: the engine hit a budget", k);
            prop_assert_eq!(solution_set(&old), solution_set(&new), "k = {}", k);
        }
    }

    /// On exhaustive diagnosis with untruncated budgets, every traversal
    /// strategy enumerates the same *solution set* as the paper-default
    /// round-robin BFS — they only differ in visit order.
    #[test]
    fn every_traversal_finds_the_same_solution_set(
        seed in 0u64..60,
        pick in 0usize..1000,
        faults in 1usize..3,
    ) {
        let Some((golden, pi, device)) = workload(seed, pick, faults) else {
            return Err(undiagnosable(seed, pick, faults));
        };
        let run = |kind: TraversalKind| {
            let mut config = RectifyConfig::stuck_at_exhaustive(faults);
            config.traversal = kind;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed workload")
                .run()
        };
        let reference = run(TraversalKind::RoundRobinBfs);
        if reference.stats.truncated {
            return Ok(()); // budget-cut search: set equality is not promised
        }
        let expected = solution_set(&reference);
        for kind in [
            TraversalKind::DepthFirst,
            TraversalKind::NaiveBfs,
            TraversalKind::BestFirst,
        ] {
            let result = run(kind);
            prop_assert!(!result.stats.truncated, "{kind:?} hit a budget");
            prop_assert_eq!(
                &expected,
                &solution_set(&result),
                "{:?} diverged from RoundRobinBfs",
                kind
            );
        }
    }
}
