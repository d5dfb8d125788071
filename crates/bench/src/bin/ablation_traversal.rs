//! Ablation B — the §3 claim that the round-based traversal "overcomes
//! the pitfalls of BFS and DFS". The same multi-error DEDC workload runs
//! under the built-in traversal strategies with identical node budgets;
//! success rate and nodes-to-solution are compared.
//!
//! `cargo run -p incdx-bench --release --bin ablation_traversal --
//! [--trials N] [--circuits a,b] [--seed N] [--traversal bfs|dfs|naive-bfs|best-first]`
//!
//! Without `--traversal` every strategy runs (the ablation); with it only
//! the requested one does (a single-strategy measurement run). `--json`
//! additionally emits one `RectifyReport` record per engine run, tagged
//! `ablation_traversal/<circuit>/<strategy>/t<trial>`.

use std::process::ExitCode;

use incdx_bench::{
    dedc_trial, engine_error, run_parallel, try_scan_core, usage_error, Args, Table, TrialOptions,
};
use incdx_core::{RectifyReport, TraversalKind};

fn main() -> ExitCode {
    let args = Args::parse();
    let base_opts = TrialOptions::from_args(&args);
    // --dispatch hands the cores to the engine's node dispatcher, so
    // trials serialize; otherwise the harness fans out across trials.
    let trial_jobs = if args.dispatch { 1 } else { args.jobs };
    let engine_jobs = if args.dispatch { args.jobs } else { 1 };
    let circuits: Vec<String> = if args.circuits.is_empty() {
        vec!["c432a".into(), "c880a".into(), "c1908a".into()]
    } else {
        args.circuits.clone()
    };
    // `--traversal` narrows the ablation to a single strategy; the flag's
    // default value means "compare all of them".
    let strategies: Vec<TraversalKind> = if std::env::args().any(|a| a == "--traversal") {
        vec![args.traversal]
    } else {
        TraversalKind::ALL.to_vec()
    };
    let errors = 3usize;
    println!(
        "Ablation B — traversal strategies on {errors}-error DEDC. seed={} trials={}",
        args.seed, args.trials
    );
    let mut table = Table::new(["ckt", "traversal", "solved", "avg nodes", "avg time_s"]);
    for circuit in &circuits {
        let golden = match try_scan_core(circuit) {
            Ok(g) => g,
            Err(e) => return usage_error(&e),
        };
        for &traversal in &strategies {
            let label = traversal.as_str();
            let outcomes = run_parallel(args.trials, trial_jobs, |t| {
                for attempt in 0..20u64 {
                    let seed = args.trial_seed("ablation_traversal", circuit, errors, t, attempt);
                    let mut opts =
                        base_opts.labelled(format!("ablation_traversal/{circuit}/{label}/t{t}"));
                    opts.traversal = traversal;
                    match dedc_trial(&golden, errors, args.vectors, seed, args.time_limit, &opts) {
                        Ok(Some(out)) => return Ok(Some(out)),
                        Ok(None) => continue,
                        Err(e) => return Err((t, e)),
                    }
                }
                Ok(None)
            });
            let mut done = Vec::new();
            for outcome in outcomes {
                match outcome {
                    Ok(Some(out)) => done.push(out),
                    Ok(None) => {}
                    Err((t, e)) => {
                        return engine_error(
                            &format!("ablation_traversal/{circuit}/{label}/t{t}"),
                            &e,
                        )
                    }
                }
            }
            if args.json {
                for (trial, out) in done.iter().enumerate() {
                    let tag = format!("ablation_traversal/{circuit}/{label}/t{trial}");
                    let report = RectifyReport::from_parts(
                        &tag,
                        engine_jobs,
                        out.solutions,
                        out.sites,
                        out.solutions_fp,
                        out.verdict,
                        out.partials,
                        out.stats.clone(),
                    );
                    println!("{}", report.to_json());
                }
            }
            if done.is_empty() {
                table.row([circuit.as_str(), label, "-", "-", "-"]);
                continue;
            }
            let n = done.len() as f64;
            let solved = done.iter().filter(|o| o.solved).count();
            let nodes = done.iter().map(|o| o.stats.nodes).sum::<usize>() as f64 / n;
            let time = done.iter().map(|o| o.total.as_secs_f64()).sum::<f64>() / n;
            table.row([
                circuit.clone(),
                label.to_string(),
                format!("{}/{}", solved, done.len()),
                format!("{nodes:.0}"),
                format!("{time:.2}"),
            ]);
        }
    }
    println!("{table}");
    ExitCode::SUCCESS
}
