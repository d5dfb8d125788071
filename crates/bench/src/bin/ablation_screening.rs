//! Ablation C — the §3.2 claims about the screening heuristics: the
//! `V_err` test (heuristic 2) "disqualifies the majority of inappropriate
//! corrections", and the `V_corr` test (heuristic 3) trims the rest while
//! the thresholds stay high. This binary sweeps `h2` and `h3` at the root
//! node of single-error DEDC runs, reporting the surviving candidate
//! count and whether a verified fix survives each setting.
//!
//! `cargo run -p incdx-bench --release --bin ablation_screening --
//! [--trials N] [--circuits a,b] [--seed N]`

use incdx_bench::{run_parallel, scan_core, Args, Table};
use incdx_core::{ParamLevel, Rectifier, RectifyConfig};
use incdx_fault::{inject_design_errors, InjectionConfig};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Sweep {
    survivors: usize,
    screened: usize,
    fix_survives: bool,
}

fn sweep_point(
    golden: &Netlist,
    vectors: usize,
    seed: u64,
    level: ParamLevel,
    sparse: bool,
) -> Option<Sweep> {
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
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0x5C4E);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let spec = Response::capture(golden, &sim.run(golden, &pi));
    let mut config = RectifyConfig::dedc(1);
    config.max_candidates_per_node = usize::MAX;
    config.theorem_floor = false; // sweep the raw threshold
    config.sparse = sparse;
    let mut rect = Rectifier::new(
        injection.corrupted.clone(),
        pi.clone(),
        spec.clone(),
        config,
    )
    .ok()?;
    let candidates = rect.rank_candidates(&[], &level);
    let fix_survives = candidates.iter().any(|rc| {
        let mut fixed = injection.corrupted.clone();
        rc.correction.apply(&mut fixed).is_ok()
            && Response::compare(
                &fixed,
                &sim.run_for_inputs(&fixed, golden.inputs(), &pi),
                &spec,
            )
            .matches()
    });
    Some(Sweep {
        survivors: candidates.len(),
        screened: 1, // per-trial marker; aggregated below
        fix_survives,
    })
}

fn main() {
    let args = Args::parse();
    // These ablations stop at the root node (rank_candidates), so the
    // node dispatcher never engages; still honour --dispatch's CPU
    // ownership convention by serializing trials when it is set.
    let trial_jobs = if args.dispatch { 1 } else { args.jobs };
    let circuits: Vec<String> = if args.circuits.is_empty() {
        vec!["c432a".into(), "c880a".into()]
    } else {
        args.circuits.clone()
    };
    println!(
        "Ablation C — screening thresholds at the root node (single error). \
         seed={} trials={}",
        args.seed, args.trials
    );
    let mut table = Table::new(["ckt", "h2", "h3", "avg survivors", "fix survives"]);
    // Sweep h2 with h3 open, then h3 with h2 open.
    let mut points: Vec<(f64, f64)> = [0.9, 0.7, 0.5, 0.3, 0.1]
        .into_iter()
        .map(|h2| (h2, 0.0))
        .collect();
    points.extend([0.99, 0.95, 0.85, 0.5].into_iter().map(|h3| (0.0, h3)));
    for circuit in &circuits {
        let golden = scan_core(circuit);
        for &(h2, h3) in &points {
            let level = ParamLevel::new(0.0, h2, h3)
                .and_then(|l| l.with_promote(1.0))
                .expect("sweep points are in range");
            let results = run_parallel(args.trials, trial_jobs, |t| {
                for attempt in 0..20u64 {
                    let seed = args.trial_seed("ablation_screening", circuit, 1, t, attempt);
                    if let Some(s) = sweep_point(&golden, args.vectors, seed, level, args.sparse) {
                        return Some(s);
                    }
                }
                None
            });
            let done: Vec<Sweep> = results.into_iter().flatten().collect();
            if done.is_empty() {
                continue;
            }
            let n: usize = done.iter().map(|s| s.screened).sum();
            let survivors = done.iter().map(|s| s.survivors).sum::<usize>() as f64 / n as f64;
            let fix = done.iter().filter(|s| s.fix_survives).count();
            table.row([
                circuit.clone(),
                format!("{h2:.2}"),
                format!("{h3:.2}"),
                format!("{survivors:.0}"),
                format!("{}/{}", fix, done.len()),
            ]);
        }
    }
    println!("{table}");
    println!(
        "reading: higher h2 shrinks the candidate space sharply (heuristic 2's \
         job); overly strict h3 can screen out the true fix (the Fig. 1 \
         masking effect) — the paper's motivation for the relaxation ladder."
    );
}
