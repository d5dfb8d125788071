//! Regenerates the **Figure 2** illustration: the round-based BFS/DFS
//! trade-off. A multi-error DEDC run is repeated with an increasing round
//! budget; the node count per budget shows the tree growing in both depth
//! and breadth while staying within the `≤ 2^rounds` doubling envelope,
//! and the round in which the first solution lands.
//!
//! `cargo run -p incdx-bench --release --bin fig2_rounds -- [--seed N]
//! [--vectors N] [--circuits NAME] [--jobs N] [--dispatch]
//! [--deadline-ms N] [--max-nodes N] [--chaos SEED,RATE]
//! [--checkpoint PATH] [--resume PATH]`
//!
//! Exit codes follow the lint convention: 0 success, 1 engine error
//! (with a one-line JSON record on stdout), 2 usage error.

use std::process::ExitCode;

use incdx_bench::{
    engine_error, finish_with_checkpoint, load_checkpoint, try_scan_core, usage_error, Args, Table,
};
use incdx_core::{Checkpoint, Rectifier, RectifyConfig, RectifyReport};
use incdx_fault::{inject_design_errors, InjectionConfig};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Regenerates the figure's 3-error DEDC workload from a (seed, vector
/// count) pair — shared by fresh runs and `--resume`, which must rebuild
/// the exact checkpointed netlist/vector set.
fn build_workload(
    golden: &Netlist,
    seed: u64,
    vectors: usize,
) -> Option<(Netlist, PackedMatrix, Response)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let injection = inject_design_errors(
        golden,
        &InjectionConfig {
            count: 3,
            require_individually_observable: true,
            check_vectors: vectors,
            max_attempts: 300,
        },
        &mut rng,
    )
    .ok()?;
    for e in &injection.injected {
        println!("  injected: {e}");
    }
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0xF16);
    let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let spec = Response::capture(golden, &sim.run(golden, &pi));
    Some((injection.corrupted, pi, spec))
}

/// Builds the per-budget engine config from the flags.
fn budget_config(args: &Args, budget: usize) -> RectifyConfig {
    let mut config = RectifyConfig::dedc(3);
    config.max_rounds = budget;
    config.time_limit = Some(args.time_limit);
    config.incremental = args.incremental;
    config.sparse = args.sparse;
    config.hierarchical = args.hierarchical;
    config.traversal = args.traversal;
    config.audit = args.audit;
    config.limits = args.limits();
    config.chaos = args.chaos;
    // A single engine run at a time — parallelism goes inside the
    // engine (screening workers, or the speculative node dispatcher
    // under --dispatch) rather than across trials.
    config.jobs = args.jobs;
    config.dispatch = args.dispatch;
    config
}

/// `--resume PATH`: finishes exactly one checkpointed budget run.
fn resume_run(args: &Args, path: &str) -> ExitCode {
    let checkpoint = match load_checkpoint(path) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    let label = checkpoint.label.clone();
    let budget = label
        .strip_prefix("fig2/")
        .and_then(|rest| rest.split_once('/'))
        .and_then(|(_, b)| b.strip_prefix("budget"))
        .and_then(|b| b.parse::<usize>().ok());
    let circuit = label
        .strip_prefix("fig2/")
        .and_then(|rest| rest.split_once('/').map(|(circuit, _)| circuit.to_string()));
    let (Some(budget), Some(circuit)) = (budget, circuit) else {
        return usage_error(&format!("checkpoint label `{label}` is not a fig2 run"));
    };
    let golden = match try_scan_core(&circuit) {
        Ok(g) => g,
        Err(e) => return usage_error(&e),
    };
    let Some((corrupted, pi, spec)) =
        build_workload(&golden, checkpoint.trial_seed, checkpoint.vectors)
    else {
        return usage_error(&format!("checkpoint workload `{label}` did not regenerate"));
    };
    let mut engine = match Rectifier::new(corrupted, pi, spec, budget_config(args, budget)) {
        Ok(engine) => engine,
        Err(e) => return engine_error(&label, &e),
    };
    engine.set_checkpoint_meta(label.clone(), checkpoint.trial_seed);
    let result = match engine.resume(&checkpoint) {
        Ok(result) => result,
        Err(e) => return engine_error(&label, &e),
    };
    println!(
        "{}",
        RectifyReport::new(&label, args.jobs, &result).to_json()
    );
    finish_with_checkpoint(args.checkpoint.as_deref(), result.checkpoint.as_ref())
}

fn main() -> ExitCode {
    let args = Args::parse();
    if let Some(path) = args.resume.clone() {
        return resume_run(&args, &path);
    }
    let circuit = args.circuits.first().map(String::as_str).unwrap_or("c432a");
    let golden = match try_scan_core(circuit) {
        Ok(g) => g,
        Err(e) => return usage_error(&e),
    };
    println!(
        "Fig. 2 — decision-tree rounds on {circuit} with 3 design errors (seed={})",
        args.seed
    );
    let Some((corrupted, pi, spec)) = build_workload(&golden, args.seed, args.vectors) else {
        return usage_error(&format!(
            "seed {} is not injectable on {circuit}",
            args.seed
        ));
    };
    let mut captured: Option<Checkpoint> = None;

    let mut table = Table::new(["round budget", "nodes", "2^budget", "rounds used", "solved"]);
    for budget in 1..=10usize {
        let label = format!("fig2/{circuit}/budget{budget}");
        let mut engine = match Rectifier::new(
            corrupted.clone(),
            pi.clone(),
            spec.clone(),
            budget_config(&args, budget),
        ) {
            Ok(engine) => engine,
            Err(e) => return engine_error(&label, &e),
        };
        engine.set_checkpoint_meta(label.clone(), args.seed);
        let result = engine.run();
        if captured.is_none() {
            captured = result.checkpoint.clone();
        }
        if args.json {
            println!(
                "{}",
                RectifyReport::new(&label, args.jobs, &result).to_json()
            );
        }
        table.row([
            budget.to_string(),
            result.stats.nodes.to_string(),
            (1usize << budget).to_string(),
            result.stats.rounds.to_string(),
            (!result.solutions.is_empty()).to_string(),
        ]);
        if !result.solutions.is_empty() {
            println!(
                "first solution within a {budget}-round budget (ladder level {})",
                result.stats.deepest_ladder_level
            );
            break;
        }
    }
    println!("\n{table}");
    println!(
        "note: per parameter-ladder level the node count honours the ≤ 2^rounds \
         doubling envelope of Fig. 2; budgets are per level, so cumulative \
         node counts may exceed a single level's envelope."
    );
    finish_with_checkpoint(args.checkpoint.as_deref(), captured.as_ref())
}
