//! Extension experiment — the paper's conclusion: "we plan to apply this
//! approach to other types of physical faults ... by adopting a suitable
//! fault model in the correction stage." A wired bridge between two lines
//! is, on the correction side, exactly two `InsertGate` corrections (one
//! per bridged line), so the design-error engine diagnoses bridges with
//! no new machinery. This binary injects random wired bridges and
//! measures how often a 2-correction rectification is found and verified.
//!
//! `cargo run -p incdx-bench --release --bin bridging -- [--trials N]
//! [--circuits a,b] [--seed N] [--jobs N]` plus the engine flags every
//! binary shares (`--no-incremental`, `--traversal`, `--audit`,
//! `--deadline-ms`, `--max-nodes`, `--chaos`; see `TrialOptions::apply`)

use incdx_bench::{run_parallel, scan_core, Args, Table, TrialOptions};
use incdx_core::{Rectifier, RectifyConfig};
use incdx_fault::{BridgeKind, BridgingFault};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Trial {
    solved: bool,
    nodes: usize,
}

fn trial(golden: &Netlist, seed: u64, args: &Args) -> Option<Trial> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Draw a bridgeable random pair of logic lines.
    let lines: Vec<_> = golden
        .iter()
        .filter(|(_, g)| g.kind().is_logic())
        .map(|(id, _)| id)
        .collect();
    let mut bridged = golden.clone();
    let mut injected = None;
    for _ in 0..50 {
        let a = lines[rng.random_range(0..lines.len())];
        let b = lines[rng.random_range(0..lines.len())];
        if a == b {
            continue;
        }
        let kind = if rng.random_bool(0.5) {
            BridgeKind::WiredAnd
        } else {
            BridgeKind::WiredOr
        };
        let fault = BridgingFault::new(a, b, kind);
        let mut candidate = golden.clone();
        if fault.apply(&mut candidate).is_ok() {
            bridged = candidate;
            injected = Some(fault);
            break;
        }
    }
    let fault = injected?;
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0xB41D);
    let pi = PackedMatrix::random(golden.inputs().len(), args.vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let device = Response::capture(
        &bridged,
        &sim.run_for_inputs(&bridged, golden.inputs(), &pi),
    );
    // The bridge must be excited on these vectors.
    {
        let vals = sim.run(golden, &pi);
        if Response::compare(golden, &vals, &device).matches() {
            return None;
        }
    }
    // Rectify the *correct* netlist toward the bridged device using the
    // design-error correction model (two InsertGate fixes max).
    let mut config = RectifyConfig::dedc(2);
    config.time_limit = Some(args.time_limit);
    TrialOptions::from_args(args).apply(&mut config);
    let result = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
        .ok()?
        .run();
    let solved = match result.solutions.first() {
        Some(solution) => {
            let mut modeled = golden.clone();
            solution
                .corrections
                .iter()
                .all(|c| c.apply(&mut modeled).is_ok())
                && Response::compare(
                    &modeled,
                    &sim.run_for_inputs(&modeled, golden.inputs(), &pi),
                    &device,
                )
                .matches()
        }
        None => false,
    };
    let _ = fault;
    Some(Trial {
        solved,
        nodes: result.stats.nodes,
    })
}

fn main() {
    let args = Args::parse();
    let circuits: Vec<String> = if args.circuits.is_empty() {
        vec!["c432a".into(), "c880a".into(), "c1908a".into()]
    } else {
        args.circuits.clone()
    };
    println!(
        "Extension — wired-bridge diagnosis through the correction stage. \
         seed={} trials={}",
        args.seed, args.trials
    );
    let mut table = Table::new(["ckt", "modeled", "avg nodes"]);
    for circuit in &circuits {
        let golden = scan_core(circuit);
        let outcomes = run_parallel(args.trials, args.jobs, |t| {
            for attempt in 0..20u64 {
                let seed = args.trial_seed("bridging", circuit, 1, t, attempt);
                if let Some(r) = trial(&golden, seed, &args) {
                    return Some(r);
                }
            }
            None
        });
        let done: Vec<Trial> = outcomes.into_iter().flatten().collect();
        if done.is_empty() {
            table.row([circuit.as_str(), "-", "-"]);
            continue;
        }
        let solved = done.iter().filter(|t| t.solved).count();
        let nodes = done.iter().map(|t| t.nodes).sum::<usize>() as f64 / done.len() as f64;
        table.row([
            circuit.clone(),
            format!("{}/{}", solved, done.len()),
            format!("{nodes:.0}"),
        ]);
    }
    println!("{table}");
}
