//! Regenerates **Table 1** of the paper: exact multiple stuck-at fault
//! diagnosis on area-optimized circuits. For each (circuit, k) cell the
//! harness injects k random stuck-at faults, captures the faulty device's
//! responses, runs the exhaustive diagnosis, and reports the averages over
//! the trials: distinct suspect sites, time per trial, and equivalent
//! tuples — the paper's `# sites / time / # tuples` columns — plus the
//! masking rate the paper discusses for the 4-fault s-circuit runs.
//!
//! `cargo run -p incdx-bench --release --bin table1 -- [--trials N]
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
    engine_error, finish_with_checkpoint, load_checkpoint, optimize_for_table1, parse_run_label,
    run_parallel, stuck_at_trial, try_scan_core, usage_error, Args, Table, TrialOptions,
    DEFAULT_COMB_CIRCUITS, DEFAULT_SEQ_CIRCUITS,
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
    if experiment != "table1" {
        return usage_error(&format!(
            "checkpoint label `{}` is not a table1 run",
            checkpoint.label
        ));
    }
    let golden = match try_scan_core(circuit) {
        Ok(g) => optimize_for_table1(&g),
        Err(e) => return usage_error(&e),
    };
    let label = checkpoint.label.clone();
    let (seed, vectors) = (checkpoint.trial_seed, checkpoint.vectors);
    let mut opts = TrialOptions::from_args(args).labelled(label.clone());
    opts.resume = Some(checkpoint);
    match stuck_at_trial(&golden, k, vectors, seed, args.time_limit, &opts) {
        Err(e) => engine_error(&label, &e),
        Ok(None) => usage_error(&format!("checkpoint workload `{label}` did not regenerate")),
        Ok(Some(out)) => {
            let report = RectifyReport::from_parts(
                &label,
                1,
                out.tuples,
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
    let fault_counts = [1usize, 2, 3, 4];
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
        "Table 1 — multiple stuck-at fault diagnosis (exhaustive). \
         seed={} trials={} vectors={} time-limit={:?}",
        args.seed, args.trials, args.vectors, args.time_limit
    );
    let mut header = vec!["ckt".to_string(), "lines".to_string()];
    for k in fault_counts {
        header.push(format!("{k}f:sites"));
        header.push(format!("{k}f:time_s"));
        header.push(format!("{k}f:tuples"));
    }
    header.push("masked@4".to_string());
    let mut table = Table::new(header);

    for circuit in &circuits {
        // §4.1: optimize for area first (stuck-at experiments).
        let golden = match try_scan_core(circuit) {
            Ok(g) => optimize_for_table1(&g),
            Err(e) => return usage_error(&e),
        };
        let lines = golden.stats().lines;
        let mut row = vec![circuit.clone(), lines.to_string()];
        let mut masked_at_4 = String::from("-");
        for k in fault_counts {
            let outcomes = run_parallel(args.trials, args.jobs, |trial| {
                // Each trial gets a derived seed; re-draw on un-injectable
                // seeds so every cell reports `trials` real runs.
                for attempt in 0..20u64 {
                    let seed = args.trial_seed("table1", circuit, k, trial, attempt);
                    let opts = base_opts.labelled(format!("table1/{circuit}/k{k}/t{trial}"));
                    match stuck_at_trial(&golden, k, args.vectors, seed, args.time_limit, &opts) {
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
                        return engine_error(&format!("table1/{circuit}/k{k}/t{trial}"), &e)
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
                    let label = format!("table1/{circuit}/k{k}/t{trial}");
                    let report = RectifyReport::from_parts(
                        &label,
                        1,
                        out.tuples,
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
                row.extend(["-".into(), "-".into(), "-".into()]);
                continue;
            }
            let n = done.len() as f64;
            let sites = done.iter().map(|o| o.sites).sum::<usize>() as f64 / n;
            let time = done.iter().map(|o| o.total.as_secs_f64()).sum::<f64>() / n;
            let tuples = done.iter().map(|o| o.tuples).sum::<usize>() as f64 / n;
            let recovered = done.iter().filter(|o| o.recovered).count();
            let truncated = done.iter().filter(|o| o.stats.truncated).count();
            let mut cell_sites = format!("{sites:.1}");
            if recovered < done.len() {
                cell_sites.push('!'); // injected tuple missed in ≥1 trial
            }
            if truncated > 0 {
                cell_sites.push('*'); // ≥1 trial hit a budget
            }
            row.push(cell_sites);
            row.push(format!("{time:.3}"));
            row.push(format!("{tuples:.1}"));
            if k == 4 {
                let masked = done.iter().filter(|o| o.masked).count();
                masked_at_4 = format!("{}/{}", masked, done.len());
            }
        }
        row.push(masked_at_4);
        table.row(row);
        // Stream rows as they complete (long experiment).
        println!("{}", table.render().lines().last().unwrap_or(""));
    }
    println!("\n{table}");
    println!("legend: '!' = an injected tuple was missed; '*' = a budget truncated ≥1 trial");
    finish_with_checkpoint(args.checkpoint.as_deref(), captured.as_ref())
}
