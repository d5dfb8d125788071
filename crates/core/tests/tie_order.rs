//! No search result depends on which topological order a node's netlist
//! holds. The default stack applies a constant correction with
//! `Netlist::tie`, which keeps the parent's order; the test-only
//! [`FreshOrder`] evaluator rebuilds every node from its parts, which
//! gives the fresh Kahn order that `Netlist::replace_gate` gives, and
//! simulates it from scratch. Both must find the same solutions in the
//! same order with the same search and candidate counters, for every
//! traversal, on exhaustive stuck-at and DEDC runs. Simulation-effort
//! counters differ by backend and are not compared.

use incdx_core::{
    EvalContext, Evaluator, PreparedNode, Rectifier, RectifyConfig, RectifyResult, RectifyStats,
    SimCounters, TraversalKind,
};
use incdx_fault::{inject_design_errors, inject_stuck_at_faults, Correction, InjectionConfig};
use incdx_gen::{generate, random_dag, RandomDagConfig};
use incdx_netlist::{ConeCache, Gate, Netlist};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prepares every node from a clone of the base with the corrections
/// applied, rebuilt from its parts and simulated from scratch.
#[derive(Debug, Default)]
struct FreshOrder {
    sim: Simulator,
}

impl Evaluator for FreshOrder {
    fn name(&self) -> &'static str {
        "fresh-order"
    }

    fn counters(&self) -> SimCounters {
        SimCounters {
            words: self.sim.words_simulated(),
            ..SimCounters::default()
        }
    }

    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        let mut edited = ctx.base.clone();
        for c in corrections {
            c.apply(&mut edited).ok()?;
        }
        let gates: Vec<Gate> = edited.ids().map(|id| edited.gate(id).clone()).collect();
        let names = edited
            .ids()
            .map(|id| edited.name(id).map(str::to_string))
            .collect();
        let netlist = Netlist::from_parts_unchecked(gates, names, edited.outputs().to_vec());
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
        self.sim = Simulator::new();
    }
}

/// One diagnosis input: the netlist handed to the engine, the vectors and
/// the reference responses.
struct Case {
    label: String,
    base: Netlist,
    pi: PackedMatrix,
    reference: Response,
    config: RectifyConfig,
}

const VECTORS: usize = 128;

/// A failing stuck-at case: `k` faults injected into `golden`, excited on
/// the case's vectors (the first of a few seeds that excites them).
fn stuck_at_case(name: &str, golden: &Netlist, k: usize, seed: u64, max_nodes: usize) -> Case {
    let mut sim = Simulator::new();
    for attempt in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed * 97 + attempt);
        let config = InjectionConfig {
            count: k,
            require_individually_observable: false,
            check_vectors: VECTORS,
            max_attempts: 100,
        };
        let Ok(injection) = inject_stuck_at_faults(golden, &config, &mut rng) else {
            continue;
        };
        let pi = PackedMatrix::random(golden.inputs().len(), VECTORS, &mut rng);
        let device = &injection.corrupted;
        let reference =
            Response::capture(device, &sim.run_for_inputs(device, golden.inputs(), &pi));
        if Response::compare(golden, &sim.run(golden, &pi), &reference).matches() {
            continue;
        }
        let mut config = RectifyConfig::stuck_at_exhaustive(k);
        config.max_nodes = max_nodes;
        return Case {
            label: format!("{name} stuck-at k={k} {:?}", injection.injected),
            base: golden.clone(),
            pi,
            reference,
            config,
        };
    }
    panic!("{name}: no excited {k}-fault injection");
}

/// A failing DEDC case: `k` observable design errors injected into
/// `golden`, diagnosed against `golden`'s responses.
fn dedc_case(name: &str, golden: &Netlist, k: usize, seed: u64) -> Case {
    let mut sim = Simulator::new();
    for attempt in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed * 89 + attempt);
        let config = InjectionConfig {
            count: k,
            require_individually_observable: true,
            check_vectors: VECTORS,
            max_attempts: 300,
        };
        let Ok(injection) = inject_design_errors(golden, &config, &mut rng) else {
            continue;
        };
        let pi = PackedMatrix::random(golden.inputs().len(), VECTORS, &mut rng);
        let reference = Response::capture(golden, &sim.run(golden, &pi));
        let design = injection.corrupted;
        let vals = sim.run_for_inputs(&design, golden.inputs(), &pi);
        if Response::compare(&design, &vals, &reference).matches() {
            continue;
        }
        return Case {
            label: format!("{name} dedc k={k}"),
            base: design,
            pi,
            reference,
            config: RectifyConfig::dedc(k),
        };
    }
    panic!("{name}: no observable {k}-error injection");
}

/// Every counter of the search and of candidate screening, by name.
fn search_counters(s: &RectifyStats) -> Vec<(&'static str, usize)> {
    vec![
        ("nodes", s.nodes),
        ("rounds", s.rounds),
        ("expansions_skipped", s.expansions_skipped),
        ("corrections_screened", s.corrections_screened),
        ("corrections_qualified", s.corrections_qualified),
        ("lines_rejected_h1", s.lines_rejected_h1),
        ("corrections_rejected_h2", s.corrections_rejected_h2),
        ("corrections_rejected_h3", s.corrections_rejected_h3),
        ("wire_sources_truncated", s.wire_sources_truncated),
        ("candidates_truncated", s.candidates_truncated),
        ("lines_truncated", s.lines_truncated),
        ("deepest_ladder_level", s.deepest_ladder_level),
        ("truncated", usize::from(s.truncated)),
    ]
}

fn run(case: &Case, traversal: TraversalKind, fresh: bool) -> RectifyResult {
    let mut config = case.config.clone();
    config.traversal = traversal;
    let mut rectifier = Rectifier::new(
        case.base.clone(),
        case.pi.clone(),
        case.reference.clone(),
        config,
    )
    .expect("well-formed case");
    if fresh {
        rectifier = rectifier.with_evaluator(Box::new(FreshOrder::default()));
    }
    rectifier.run()
}

fn assert_order_independent(cases: &[Case]) {
    let mut solved = 0;
    for case in cases {
        for traversal in TraversalKind::ALL {
            let tied = run(case, traversal, false);
            let fresh = run(case, traversal, true);
            let what = format!("{} under {traversal:?}", case.label);
            assert_eq!(tied.solutions, fresh.solutions, "{what}: solutions");
            assert_eq!(
                search_counters(&tied.stats),
                search_counters(&fresh.stats),
                "{what}"
            );
            solved += usize::from(!tied.solutions.is_empty());
        }
    }
    assert!(solved > 0, "no case found a solution");
}

fn dag(seed: u64) -> Netlist {
    random_dag(
        &RandomDagConfig {
            inputs: 6,
            gates: 40,
            outputs: 4,
            max_fanin: 3,
            xor_fraction: 0.2,
            window: 16,
        },
        seed,
    )
}

#[test]
fn random_dags_search_alike_in_any_order() {
    let mut cases = Vec::new();
    for seed in 0..3u64 {
        let golden = dag(seed);
        let name = format!("dag{seed}");
        for k in 1..=3 {
            cases.push(stuck_at_case(&name, &golden, k, seed, 20_000));
        }
        for k in 1..=2 {
            cases.push(dedc_case(&name, &golden, k, seed));
        }
    }
    assert_order_independent(&cases);
}

#[test]
fn suite_circuits_search_alike_in_any_order() {
    let mut cases = Vec::new();
    for (name, max_nodes) in [("c17", 20_000), ("c432a", 500)] {
        let golden = generate(name).expect("suite circuit");
        for k in 1..=3 {
            cases.push(stuck_at_case(name, &golden, k, 7, max_nodes));
        }
        for k in 1..=2 {
            cases.push(dedc_case(name, &golden, k, 7));
        }
    }
    assert_order_independent(&cases);
}
