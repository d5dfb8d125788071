//! Scale benchmark for two-level hierarchical diagnosis: flat vs
//! hierarchical runs of the same multiple-fault trials under one shared
//! node budget, on c6288-scale circuits from `incdx_gen`. Flat diagnosis
//! must search the concrete netlist directly; the hierarchical engine
//! first diagnoses the fanout-free-cone abstraction and then expands only
//! the implicated super-gates, so on circuits with abstraction leverage
//! it reaches a validated solution well inside a budget the flat search
//! exhausts.
//!
//! Both modes run per trial (pairwise, identical injection and vectors),
//! so `--hierarchical`/`--flat` are ignored here — the binary *is* the
//! comparison. Circuits accept suite names (`c6288a`) plus the generated
//! scale circuits `parity<N>` ([`incdx_gen::parity_tree`]) and `sec<N>`
//! ([`incdx_gen::sec_circuit`]).
//!
//! Fault sites are drawn on super-gate **stem** lines — lines that stay
//! visible in the abstraction. This is the classic hierarchical-diagnosis
//! fault model (a faulty module observed at its port): the abstract
//! search can express the fault exactly, so phase 1 localizes the
//! suspect modules instead of exhausting its budget on an inexpressible
//! syndrome. Faults buried strictly inside a collapsed cone degrade
//! hierarchical mode to the flat engine's phase-3 pass (correctness is
//! pinned by the property suite); this benchmark measures the leverage
//! case.
//!
//! `cargo run -p incdx-bench --release --bin hier_scale -- [--trials N]
//! [--circuits c6288a,parity2048,sec256] [--max-nodes N] [--json]`

use std::time::Instant;

use std::process::ExitCode;

use incdx_bench::{run_parallel, try_scan_core, usage_error, Args, Table};
use incdx_core::{json_obj, Rectifier, RectifyConfig, Verdict};
use incdx_fault::StuckAt;
use incdx_netlist::{Abstraction, Netlist};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Faults injected per trial. Two faults force the tree past depth one,
/// where the flat candidate cross-product dwarfs the focused phase-2
/// search.
const FAULTS: usize = 2;

/// Default shared node budget when `--max-nodes` is absent.
const DEFAULT_BUDGET: u64 = 2_000;

/// One engine run of a prepared trial in one mode.
struct Run {
    solved: bool,
    nodes: usize,
    verdict: &'static str,
    wall_ms: u64,
    abstract_gates: usize,
    collapse_ratio: f64,
}

/// Paired flat + hierarchical outcome of one trial.
struct Trial {
    flat: Run,
    hier: Run,
}

/// Resolves a circuit name: suite entries via [`try_scan_core`], plus
/// `parity<N>` / `sec<N>` generated at the requested width.
fn circuit(name: &str) -> Result<Netlist, String> {
    if let Some(n) = name.strip_prefix("parity").and_then(|s| s.parse().ok()) {
        return Ok(incdx_gen::parity_tree(n));
    }
    if let Some(n) = name.strip_prefix("sec").and_then(|s| s.parse().ok()) {
        return Ok(incdx_gen::sec_circuit(n));
    }
    try_scan_core(name)
}

fn run_mode(
    golden: &Netlist,
    pi: &PackedMatrix,
    device: &Response,
    hierarchical: bool,
    budget: u64,
    args: &Args,
) -> Option<Run> {
    // First-solution stuck-at search: exhaustive mode would always run
    // the unrestricted phase-3 merge (identical solution sets by
    // construction), so the node savings only show where the paper's
    // engine normally operates — stop at the first validated tuple.
    let mut config = RectifyConfig::stuck_at_exhaustive(FAULTS);
    config.exhaustive = false;
    config.max_solutions = 1;
    config.max_nodes = budget as usize;
    config.time_limit = Some(args.time_limit);
    config.limits.max_total_nodes = Some(budget);
    config.incremental = args.incremental;
    config.sparse = args.sparse;
    config.traversal = args.traversal;
    config.hierarchical = hierarchical;
    config.prune = args.prune;
    config.batch_obs = args.batch_obs;
    let started = Instant::now();
    let result = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
        .ok()?
        .run();
    let wall_ms = started.elapsed().as_millis() as u64;
    let (abstract_gates, collapse_ratio) = result
        .stats
        .abstraction
        .as_ref()
        .map_or((0, 1.0), |a| (a.abstract_gates, a.collapse_ratio));
    Some(Run {
        solved: !result.solutions.is_empty(),
        nodes: result.stats.nodes,
        verdict: result.verdict.tag(),
        wall_ms,
        abstract_gates,
        collapse_ratio,
    })
}

fn trial(
    golden: &Netlist,
    stems: &[incdx_netlist::GateId],
    seed: u64,
    budget: u64,
    args: &Args,
) -> Option<Trial> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Draw FAULTS distinct stuck-at sites among the abstraction-visible
    // stem lines (see the module docs for why).
    let mut corrupted = golden.clone();
    let mut sites = Vec::new();
    for _ in 0..100 {
        if sites.len() == FAULTS {
            break;
        }
        let line = stems[rng.random_range(0..stems.len())];
        if sites.contains(&line) {
            continue;
        }
        let fault = StuckAt::new(line, rng.random_bool(0.5));
        if fault.apply(&mut corrupted).is_ok() {
            sites.push(line);
        }
    }
    if sites.len() != FAULTS {
        return None;
    }
    let mut vec_rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
    let pi = PackedMatrix::random(golden.inputs().len(), args.vectors, &mut vec_rng);
    let mut sim = Simulator::new();
    let device = Response::capture(
        &corrupted,
        &sim.run_for_inputs(&corrupted, golden.inputs(), &pi),
    );
    {
        let vals = sim.run(golden, &pi);
        if Response::compare(golden, &vals, &device).matches() {
            return None; // not excited on these vectors
        }
    }
    let flat = run_mode(golden, &pi, &device, false, budget, args)?;
    let hier = run_mode(golden, &pi, &device, true, budget, args)?;
    Some(Trial { flat, hier })
}

fn main() -> ExitCode {
    let args = Args::parse();
    let budget = args.max_nodes.unwrap_or(DEFAULT_BUDGET);
    let circuits: Vec<String> = if args.circuits.is_empty() {
        vec!["c6288a".into(), "parity2048".into(), "sec256".into()]
    } else {
        args.circuits.clone()
    };
    println!(
        "Hierarchical scale benchmark — flat vs two-level diagnosis under a \
         shared node budget. seed={} trials={} budget={}",
        args.seed, args.trials, budget
    );
    let mut table = Table::new([
        "ckt",
        "gates",
        "abs gates",
        "ratio",
        "flat solved",
        "flat nodes",
        "hier solved",
        "hier nodes",
    ]);
    for name in &circuits {
        let golden = match circuit(name) {
            Ok(n) => n,
            Err(e) => return usage_error(&format!("{name}: {e}")),
        };
        // Static leverage summary, independent of any trial.
        let abs = Abstraction::build(&golden);
        // Fault sites: logic lines visible in the abstraction, preferring
        // stems of actually-collapsed super-gates (module ports). Too few
        // such stems (a near-degenerate abstraction, e.g. the multiplier)
        // leaves every logic line eligible — the comparison is then
        // flat-vs-flat, honest.
        let map = abs.map();
        let mut stems: Vec<_> = golden
            .ids()
            .filter(|&c| {
                golden.gate(c).kind().is_logic()
                    && map.concrete_of(map.abstract_of(c)) == c
                    && map.members(map.abstract_of(c)).len() >= 2
            })
            .collect();
        if stems.len() < FAULTS.max(8) {
            stems = golden
                .ids()
                .filter(|&c| golden.gate(c).kind().is_logic())
                .collect();
        }
        let outcomes = run_parallel(args.trials, args.jobs, |t| {
            for attempt in 0..20u64 {
                let seed = args.trial_seed("hier_scale", name, FAULTS, t, attempt);
                if let Some(r) = trial(&golden, &stems, seed, budget, &args) {
                    return Some(r);
                }
            }
            None
        });
        let done: Vec<Trial> = outcomes.into_iter().flatten().collect();
        if args.json {
            for (t, tr) in done.iter().enumerate() {
                for (mode, run) in [("flat", &tr.flat), ("hierarchical", &tr.hier)] {
                    let record = json_obj! {
                        "report": "hier_scale", "circuit": name, "trial": t, "mode": mode,
                        "gates": golden.len(), "faults": FAULTS, "budget": budget,
                        "solved": run.solved, "nodes": run.nodes, "verdict": run.verdict,
                        "wall_ms": run.wall_ms, "abstract_gates": run.abstract_gates,
                        "collapse_ratio": run.collapse_ratio,
                    };
                    println!("{record}");
                }
            }
        }
        if done.is_empty() {
            table.row([name.as_str(), "-", "-", "-", "-", "-", "-", "-"]);
            continue;
        }
        let n = done.len();
        let flat_solved = done.iter().filter(|t| t.flat.solved).count();
        let hier_solved = done.iter().filter(|t| t.hier.solved).count();
        let flat_nodes = done.iter().map(|t| t.flat.nodes).sum::<usize>() as f64 / n as f64;
        let hier_nodes = done.iter().map(|t| t.hier.nodes).sum::<usize>() as f64 / n as f64;
        table.row([
            name.clone(),
            golden.len().to_string(),
            abs.netlist().len().to_string(),
            format!("{:.3}", abs.map().collapse_ratio()),
            format!("{flat_solved}/{n}"),
            format!("{flat_nodes:.0}"),
            format!("{hier_solved}/{n}"),
            format!("{hier_nodes:.0}"),
        ]);
    }
    println!("{table}");
    println!(
        "reading: where the abstraction collapses cones (ratio < 1), the \
         hierarchical run reaches a validated tuple inside a node budget the \
         flat search exhausts ({}).",
        Verdict::BudgetExhausted.tag()
    );
    ExitCode::SUCCESS
}
