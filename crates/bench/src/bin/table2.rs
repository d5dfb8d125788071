//! Regenerates **Table 2** of the paper: design error diagnosis and
//! correction with 3 and 4 injected errors on the original
//! (redundancy-bearing) circuits. Reports, per circuit and error count,
//! the average per-node diagnosis and correction times, the number of
//! decision-tree nodes, the total time, and the success rate.
//!
//! `cargo run -p incdx-bench --release --bin table2 -- [--trials N]
//! [--vectors N] [--circuits a,b,c] [--seed N] [--time-limit SECS]
//! [--jobs N] [--deadline-ms N] [--max-nodes N]
//! [--chaos SEED,RATE] [--checkpoint PATH] [--resume PATH]`
//!
//! `--jobs` parallelizes across trials; each engine runs serially, so
//! results do not depend on it.
//!
//! Exit codes follow the lint convention: 0 success, 1 engine error
//! (with a one-line JSON record on stdout), 2 usage error.

use std::process::ExitCode;

use incdx_bench::{
    dedc_trial, engine_error, finish_with_checkpoint, load_checkpoint, parse_run_label,
    run_parallel, try_scan_core, usage_error, Args, Table, TrialOptions, DEFAULT_COMB_CIRCUITS,
    DEFAULT_SEQ_CIRCUITS,
};
use incdx_core::{Checkpoint, RectifyReport};

/// `--resume PATH`: re-runs exactly one checkpointed trial (to completion,
/// or to the next armed limit) and reports it.
fn resume_run(args: &Args, path: &str) -> ExitCode {
    let checkpoint = match load_checkpoint(path) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    let Some((experiment, circuit, k, _trial)) = parse_run_label(&checkpoint.label) else {
        return usage_error(&format!(
            "unrecognized checkpoint label `{}`",
            checkpoint.label
        ));
    };
    if experiment != "table2" {
        return usage_error(&format!(
            "checkpoint label `{}` is not a table2 run",
            checkpoint.label
        ));
    }
    // §4.2: table2 diagnoses the original (unoptimized) netlists.
    let golden = match try_scan_core(circuit) {
        Ok(g) => g,
        Err(e) => return usage_error(&e),
    };
    let label = checkpoint.label.clone();
    let (seed, vectors) = (checkpoint.trial_seed, checkpoint.vectors);
    let mut opts = TrialOptions::from_args(args).labelled(label.clone());
    opts.resume = Some(checkpoint);
    match dedc_trial(&golden, k, vectors, seed, args.time_limit, &opts) {
        Err(e) => engine_error(&label, &e),
        Ok(None) => usage_error(&format!("checkpoint workload `{label}` did not regenerate")),
        Ok(Some(out)) => {
            let report = RectifyReport::from_parts(
                &label,
                1,
                out.solutions,
                out.sites,
                out.solutions_fp,
                out.verdict,
                out.partials,
                out.stats,
            );
            println!("{}", report.to_json());
            finish_with_checkpoint(args.checkpoint.as_deref(), out.checkpoint.as_ref())
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    if let Some(path) = args.resume.clone() {
        return resume_run(&args, &path);
    }
    let base_opts = TrialOptions::from_args(&args);
    let mut captured: Option<Checkpoint> = None;
    let error_counts = [3usize, 4];
    let circuits: Vec<String> = if args.circuits.is_empty() {
        DEFAULT_COMB_CIRCUITS
            .iter()
            .chain(DEFAULT_SEQ_CIRCUITS)
            .map(|s| s.to_string())
            .collect()
    } else {
        args.circuits.clone()
    };
    println!(
        "Table 2 — design error diagnosis & correction. seed={} trials={} vectors={} \
         time-limit={:?}",
        args.seed, args.trials, args.vectors, args.time_limit
    );
    let mut header = vec!["ckt".to_string()];
    for k in error_counts {
        header.push(format!("{k}e:diag_s"));
        header.push(format!("{k}e:corr_s"));
        header.push(format!("{k}e:nodes"));
        header.push(format!("{k}e:total_s"));
        header.push(format!("{k}e:solved"));
    }
    let mut table = Table::new(header);

    for circuit in &circuits {
        // §4.2: original (unoptimized) netlists, observable errors.
        let golden = match try_scan_core(circuit) {
            Ok(g) => g,
            Err(e) => return usage_error(&e),
        };
        let mut row = vec![circuit.clone()];
        for k in error_counts {
            let outcomes = run_parallel(args.trials, args.jobs, |trial| {
                for attempt in 0..20u64 {
                    let seed = args.trial_seed("table2", circuit, k, trial, attempt);
                    let opts = base_opts.labelled(format!("table2/{circuit}/k{k}/t{trial}"));
                    match dedc_trial(&golden, k, args.vectors, seed, args.time_limit, &opts) {
                        Ok(Some(out)) => return Ok(Some(out)),
                        Ok(None) => continue,
                        Err(e) => return Err((trial, e)),
                    }
                }
                Ok(None)
            });
            let mut done = Vec::new();
            for outcome in outcomes {
                match outcome {
                    Ok(Some(out)) => done.push(out),
                    Ok(None) => {}
                    Err((trial, e)) => {
                        return engine_error(&format!("table2/{circuit}/k{k}/t{trial}"), &e)
                    }
                }
            }
            if captured.is_none() {
                captured = done.iter().find_map(|o| o.checkpoint.clone());
            }
            if args.json {
                // Trials parallelize above and each engine runs with
                // jobs = 1, which is what the reports record.
                for (trial, out) in done.iter().enumerate() {
                    let label = format!("table2/{circuit}/k{k}/t{trial}");
                    let report = RectifyReport::from_parts(
                        &label,
                        1,
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
                row.extend(["-".into(), "-".into(), "-".into(), "-".into(), "-".into()]);
                continue;
            }
            let n = done.len() as f64;
            // The paper's diag./corr. columns are per-execution (per-node)
            // averages of the two stages.
            let nodes_total: usize = done.iter().map(|o| o.stats.nodes).sum();
            let diag_per_node = done
                .iter()
                .map(|o| o.stats.diagnosis_time.as_secs_f64())
                .sum::<f64>()
                / nodes_total.max(1) as f64;
            let corr_per_node = done
                .iter()
                .map(|o| o.stats.correction_time.as_secs_f64())
                .sum::<f64>()
                / nodes_total.max(1) as f64;
            let nodes = nodes_total as f64 / n;
            let total = done.iter().map(|o| o.total.as_secs_f64()).sum::<f64>() / n;
            let solved = done.iter().filter(|o| o.solved).count();
            row.push(format!("{diag_per_node:.4}"));
            row.push(format!("{corr_per_node:.4}"));
            row.push(format!("{nodes:.1}"));
            row.push(format!("{total:.2}"));
            row.push(format!("{}/{}", solved, done.len()));
        }
        table.row(row);
        println!("{}", table.render().lines().last().unwrap_or(""));
    }
    println!("\n{table}");
    finish_with_checkpoint(args.checkpoint.as_deref(), captured.as_ref())
}
