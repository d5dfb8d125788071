//! The tracing decorators must not change what the engine does, and the
//! spans they record must account for the whole run.

use incdx_core::RectifyConfig;
use incdx_perfbench::cases::{build_cases, BatchSpec, Model};
use incdx_perfbench::engine::{check, diagnose, diagnose_traced, engine_layers, ledger_entry};
use incdx_perfbench::trace::{default_evaluator, self_times, Tracer};

fn small(model: Model, k: usize, node_budget: Option<u64>) -> BatchSpec {
    BatchSpec {
        circuits: &["c432a"],
        optimize: model == Model::StuckAt,
        model,
        k,
        vectors: 256,
        cases_per_second: 1.0,
        node_budget,
    }
}

#[test]
fn traced_runs_reproduce_untraced_counts_and_fingerprints() {
    for spec in [
        small(Model::StuckAt, 2, None),
        small(Model::Dedc, 2, Some(16)),
    ] {
        let (cases, _) = build_cases(&spec, 7, 2).expect("c432a injects");
        let tracer = Tracer::new();
        for (i, case) in cases.iter().enumerate() {
            let (_, plain) = diagnose(case).expect("engine accepts the case");
            let (_, traced) = diagnose_traced(case, &tracer, i as u64).expect("traced engine");
            assert_eq!(
                ledger_entry(&case.label, &plain),
                ledger_entry(&case.label, &traced),
                "{}",
                case.label
            );
            assert_eq!(plain.verdict, traced.verdict);
            assert_eq!(plain.stats.rounds, traced.stats.rounds);
            assert_eq!(
                plain.stats.matrix_cache_hits,
                traced.stats.matrix_cache_hits
            );
            check(case, &traced).expect("traced answers check out");
        }
        assert!(
            tracer.counts().prepare_calls > 0,
            "evaluator decorator saw work"
        );
        assert!(
            tracer.counts().schedule_calls > 0,
            "traversal decorator saw work"
        );
    }
}

#[test]
fn layer_self_times_sum_to_the_run_span() {
    let (cases, _) = build_cases(&small(Model::StuckAt, 2, None), 11, 2).expect("c432a injects");
    let tracer = Tracer::new();
    let mut results = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        results.push(
            diagnose_traced(case, &tracer, i as u64)
                .expect("traced engine")
                .1,
        );
    }
    let spans = tracer.spans();
    let own = self_times(&spans);
    for (i, run) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "rectifier.run")
    {
        let children: Vec<usize> = (0..spans.len())
            .filter(|&c| spans[c].parent == Some(i))
            .collect();
        assert!(!children.is_empty(), "run span has layer children");
        for &c in &children {
            let child = &spans[c];
            assert!(
                child.start_ns >= run.start_ns && child.end_ns <= run.end_ns,
                "child nests"
            );
            assert!(
                child.name.starts_with("evaluator.") || child.name == "traversal.schedule",
                "unexpected child {}",
                child.name
            );
        }
        let sum: u64 = own[i] + children.iter().map(|&c| own[c]).sum::<u64>();
        assert!(
            sum.abs_diff(run.ns()) * 100 <= run.ns(),
            "self times sum to the span"
        );
    }
    let refs: Vec<_> = results.iter().collect();
    let layers = engine_layers(&spans, tracer.counts(), &refs);
    assert!(layers.sum_error <= 0.01);
    let parts = layers.get("pipeline.self_s")
        + layers.get("evaluator.self_s")
        + layers.get("traversal.schedule_s");
    let run = layers.get("rectifier.run_s");
    assert!((parts - run).abs() <= run * 0.01, "{parts} vs {run}");
    assert_eq!(
        layers.get("search.nodes"),
        layers.get("evaluator.prepare_calls")
    );
}

#[test]
fn unsupported_stacks_are_refused() {
    let mut config = RectifyConfig::dedc(1);
    assert!(default_evaluator(&config).is_ok());
    config.audit = true;
    assert!(default_evaluator(&config).is_err());
}
