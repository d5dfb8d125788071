//! End-to-end design error diagnosis and correction: generate → corrupt
//! with Campenhout-distributed observable errors → rectify → verify the
//! proposed corrections restore the specification.

use incdx::prelude::*;
use rand::rngs::StdRng;

/// A DEDC problem: `errors` observable design errors injected into a
/// suite circuit, random vectors, and the specification's responses.
/// Returns `(corrupted design, vectors, specification responses)`.
fn dedc_case(
    circuit: &str,
    errors: usize,
    seed: u64,
    vectors: usize,
) -> (Netlist, PackedMatrix, Response) {
    let golden = generate(circuit).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let injection = inject_design_errors(
        &golden,
        &InjectionConfig {
            count: errors,
            require_individually_observable: true,
            check_vectors: vectors,
            max_attempts: 300,
        },
        &mut rng,
    )
    .unwrap();
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0x5555);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let spec = Response::capture(&golden, &sim.run(&golden, &pi));
    (injection.corrupted, pi, spec)
}

fn run_dedc(circuit: &str, errors: usize, seed: u64, vectors: usize) -> bool {
    let (corrupted, pi, spec) = dedc_case(circuit, errors, seed, vectors);
    let result = Rectifier::new(
        corrupted.clone(),
        pi.clone(),
        spec.clone(),
        RectifyConfig::dedc(errors),
    )
    .unwrap()
    .run();
    let Some(solution) = result.solutions.first() else {
        return false;
    };
    assert!(solution.corrections.len() <= errors);
    let mut fixed = corrupted.clone();
    for c in &solution.corrections {
        c.apply(&mut fixed).expect("solution applies");
    }
    let check = Response::compare(
        &fixed,
        &Simulator::new().run_for_inputs(&fixed, corrupted.inputs(), &pi),
        &spec,
    );
    assert!(check.matches(), "claimed solution must verify");
    true
}

/// One k = 3 DEDC run under a 16-node budget at 1024 vectors (16-word
/// rows), summarised as its search and screening counters, verdict and
/// solutions.
fn dedc_budgeted_summary(circuit: &str, seed: u64) -> String {
    let (corrupted, pi, spec) = dedc_case(circuit, 3, seed, 1024);
    let mut config = RectifyConfig::dedc(3);
    config.limits.max_total_nodes = Some(16);
    let result = Rectifier::new(corrupted, pi, spec, config).unwrap().run();
    let s = &result.stats;
    let solutions: Vec<String> = result
        .solutions
        .iter()
        .map(|sol| {
            let corrections: Vec<String> = sol.corrections.iter().map(|c| c.to_string()).collect();
            format!("[{}]", corrections.join("; "))
        })
        .collect();
    format!(
        "nodes={} rounds={} screened={} qualified={} rejected_h2={} rejected_h3={} \
         lines_rejected_h1={} candidates_truncated={} verdict={} solutions={}",
        s.nodes,
        s.rounds,
        s.corrections_screened,
        s.corrections_qualified,
        s.corrections_rejected_h2,
        s.corrections_rejected_h3,
        s.lines_rejected_h1,
        s.candidates_truncated,
        result.verdict.tag(),
        solutions.join(" ")
    )
}

/// Screening on real gate mixes and 16-word rows decides every
/// counter, verdict and solution of these runs, so a change to how
/// candidates are scored must leave them all as recorded here.
#[test]
fn budgeted_triple_error_counters_are_pinned() {
    let cases = [
        (
            "c432a",
            1,
            "nodes=10 rounds=3 screened=46867 qualified=2934 rejected_h2=41948 \
             rejected_h3=1985 lines_rejected_h1=116 candidates_truncated=2648 verdict=exact \
             solutions=[n112 := AND; n75: add input n97; n62: remove input port 2]",
        ),
        (
            "c880a",
            1,
            "nodes=16 rounds=12 screened=3822 qualified=149 rejected_h2=3417 \
             rejected_h3=256 lines_rejected_h1=87 candidates_truncated=98 \
             verdict=budget-exhausted solutions=",
        ),
        (
            "c3540a",
            3,
            "nodes=9 rounds=3 screened=66232 qualified=103 rejected_h2=62608 \
             rejected_h3=3521 lines_rejected_h1=79 candidates_truncated=0 verdict=exact \
             solutions=[n68: insert OR with n330; n140 := XOR; n193: insert OR with n34]",
        ),
    ];
    for (circuit, seed, expected) in cases {
        assert_eq!(
            dedc_budgeted_summary(circuit, seed),
            expected,
            "{circuit} seed {seed}"
        );
    }
}

#[test]
fn single_error_always_corrected_on_c17() {
    for seed in 0..6 {
        assert!(run_dedc("c17", 1, seed, 32), "seed {seed}");
    }
}

#[test]
fn single_error_on_c432a() {
    assert!(run_dedc("c432a", 1, 10, 512));
}

#[test]
fn double_error_on_c432a() {
    assert!(run_dedc("c432a", 2, 20, 512));
}

#[test]
fn triple_error_on_c432a() {
    assert!(run_dedc("c432a", 3, 30, 512));
}

#[test]
fn single_error_on_xor_tree_circuit() {
    // The c499-family (XOR trees) — the error-propagation structure the
    // paper singles out.
    assert!(run_dedc("c499a", 1, 40, 512));
}

#[test]
fn returned_corrections_stay_inside_the_error_model() {
    let golden = generate("c17").unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let injection = inject_design_errors(
        &golden,
        &InjectionConfig {
            count: 1,
            require_individually_observable: true,
            check_vectors: 32,
            max_attempts: 300,
        },
        &mut rng,
    )
    .unwrap();
    let mut vec_rng = StdRng::seed_from_u64(99);
    let pi = PackedMatrix::random(golden.inputs().len(), 32, &mut vec_rng);
    let mut sim = Simulator::new();
    let spec = Response::capture(&golden, &sim.run(&golden, &pi));
    let result = Rectifier::new(injection.corrupted, pi, spec, RectifyConfig::dedc(1))
        .unwrap()
        .run();
    for sol in &result.solutions {
        for c in &sol.corrections {
            assert!(
                !matches!(c.action(), CorrectionAction::SetConst(_)),
                "DEDC mode must not emit stuck-at models"
            );
        }
    }
}
