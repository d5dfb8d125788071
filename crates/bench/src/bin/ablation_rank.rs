//! Ablation A — the §3.3 claim "in all of the cases valid corrections
//! rank in the top 5% in their respective node". For single-error trials
//! this binary computes every screened candidate at the root node, applies
//! each in rank order, and reports the rank position of the first
//! candidate that fully rectifies the design.
//!
//! `cargo run -p incdx-bench --release --bin ablation_rank -- [--trials N]
//! [--circuits a,b] [--seed N] [--vectors N]`

use incdx_bench::{run_parallel, scan_core, Args, Table};
use incdx_core::{default_ladder, Rectifier, RectifyConfig};
use incdx_fault::{inject_design_errors, InjectionConfig};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trial(golden: &Netlist, vectors: usize, seed: u64, sparse: bool) -> Option<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let injection = inject_design_errors(
        golden,
        &InjectionConfig {
            count: 1,
            require_individually_observable: true,
            check_vectors: vectors,
            max_attempts: 100,
        },
        &mut rng,
    )
    .ok()?;
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0xAB1A);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let spec = Response::capture(golden, &sim.run(golden, &pi));
    let mut config = RectifyConfig::dedc(1);
    config.max_candidates_per_node = usize::MAX;
    config.sparse = sparse;
    let mut rect = Rectifier::new(
        injection.corrupted.clone(),
        pi.clone(),
        spec.clone(),
        config,
    )
    .ok()?;
    // First ladder level with any candidates (the level the engine's run
    // would operate at).
    for level in default_ladder() {
        let candidates = rect.rank_candidates(&[], &level);
        if candidates.is_empty() {
            continue;
        }
        let total = candidates.len();
        for (pos, rc) in candidates.iter().enumerate() {
            let mut fixed = injection.corrupted.clone();
            if rc.correction.apply(&mut fixed).is_err() {
                continue;
            }
            let check = Response::compare(
                &fixed,
                &sim.run_for_inputs(&fixed, golden.inputs(), &pi),
                &spec,
            );
            if check.matches() {
                return Some((pos + 1, total));
            }
        }
        // No candidate at this level rectifies — relax like the engine.
    }
    None
}

fn main() {
    let args = Args::parse();
    let circuits: Vec<String> = if args.circuits.is_empty() {
        vec![
            "c432a".into(),
            "c880a".into(),
            "c1355a".into(),
            "c499a".into(),
        ]
    } else {
        args.circuits.clone()
    };
    println!(
        "Ablation A — rank position of the first valid correction at the root node \
         (single error; paper claims top 5%). seed={} trials={}",
        args.seed, args.trials
    );
    let mut table = Table::new([
        "ckt",
        "trials",
        "median rank",
        "worst rank",
        "median list",
        "top-5% rate",
    ]);
    for circuit in &circuits {
        let golden = scan_core(circuit);
        let results = run_parallel(args.trials, args.jobs, |t| {
            for attempt in 0..20u64 {
                let seed = args.trial_seed("ablation_rank", circuit, 1, t, attempt);
                if let Some(r) = trial(&golden, args.vectors, seed, args.sparse) {
                    return Some(r);
                }
            }
            None
        });
        let mut done: Vec<(usize, usize)> = results.into_iter().flatten().collect();
        if done.is_empty() {
            table.row([circuit.as_str(), "0", "-", "-", "-", "-"]);
            continue;
        }
        done.sort();
        let ranks: Vec<usize> = done.iter().map(|r| r.0).collect();
        let lists: Vec<usize> = done.iter().map(|r| r.1).collect();
        let median_rank = ranks[ranks.len() / 2];
        let worst = *ranks.iter().max().expect("non-empty");
        let mut sorted_lists = lists.clone();
        sorted_lists.sort();
        let median_list = sorted_lists[sorted_lists.len() / 2];
        let top5 = done
            .iter()
            .filter(|(r, n)| (*r as f64) <= (*n as f64 * 0.05).max(1.0))
            .count();
        table.row([
            circuit.clone(),
            done.len().to_string(),
            median_rank.to_string(),
            worst.to_string(),
            median_list.to_string(),
            format!("{}/{}", top5, done.len()),
        ]);
    }
    println!("{table}");
}
