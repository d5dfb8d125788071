//! Baseline comparison: classic single-fault **fault dictionary**
//! diagnosis vs the paper's incremental engine, across 1–3 injected
//! faults. The dictionary matches single faults exactly but returns
//! nothing (or a wrong closest match) for multiples — the paper's §1
//! motivation; the incremental method keeps resolving.
//!
//! `cargo run -p incdx-bench --release --bin baseline_dictionary --
//! [--trials N] [--circuits a,b] [--seed N] [--jobs N]` plus the engine
//! flags every binary shares (`--no-incremental`, `--traversal`,
//! `--audit`, `--deadline-ms`, `--max-nodes`, `--chaos`; see
//! `TrialOptions::apply`)

use incdx_atpg::{all_stuck_at_faults, FaultDictionary};
use incdx_bench::{run_parallel, scan_core, Args, Table, TrialOptions};
use incdx_core::{Rectifier, RectifyConfig};
use incdx_fault::{inject_stuck_at_faults, InjectionConfig, StuckAt};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Trial {
    dictionary_exact: bool,
    dictionary_closest_hits: bool,
    incremental_recovers: bool,
}

fn trial(
    golden: &Netlist,
    dict: &FaultDictionary,
    pi: &PackedMatrix,
    faults: usize,
    seed: u64,
    args: &Args,
) -> Option<Trial> {
    let mut rng = StdRng::seed_from_u64(seed);
    let injection = inject_stuck_at_faults(
        golden,
        &InjectionConfig {
            count: faults,
            require_individually_observable: false,
            check_vectors: pi.num_vectors(),
            max_attempts: 100,
        },
        &mut rng,
    )
    .ok()?;
    let mut sim = Simulator::new();
    let device = Response::capture(
        &injection.corrupted,
        &sim.run_for_inputs(&injection.corrupted, golden.inputs(), pi),
    );
    let syndrome = dict.device_syndrome(golden, &device, pi);
    if syndrome.iter().all(|&w| w == 0) {
        return None; // not excited on these vectors
    }
    let mut injected: Vec<StuckAt> = injection.injected.clone();
    injected.sort();

    let exact = dict.diagnose(&syndrome);
    let dictionary_exact = !exact.is_empty() && faults == 1 && exact.contains(&injected[0]);
    let (closest, _) = dict.diagnose_closest(&syndrome);
    let dictionary_closest_hits = closest.iter().any(|f| injected.contains(f));

    let mut config = RectifyConfig::stuck_at_exhaustive(faults);
    config.time_limit = Some(args.time_limit);
    TrialOptions::from_args(args).apply(&mut config);
    let result = Rectifier::new(golden.clone(), pi.clone(), device, config)
        .ok()?
        .run();
    let incremental_recovers = result.solutions.iter().any(|s| {
        let t = s.stuck_at_tuple().expect("stuck-at mode");
        t == injected || (!t.is_empty() && t.iter().all(|f| injected.contains(f)))
    });
    Some(Trial {
        dictionary_exact,
        dictionary_closest_hits,
        incremental_recovers,
    })
}

fn main() {
    let args = Args::parse();
    let circuits: Vec<String> = if args.circuits.is_empty() {
        vec!["c432a".into(), "c880a".into()]
    } else {
        args.circuits.clone()
    };
    println!(
        "Baseline — fault dictionary vs incremental diagnosis. seed={} trials={}",
        args.seed, args.trials
    );
    let mut table = Table::new([
        "ckt",
        "faults",
        "dict exact",
        "dict closest hits a site",
        "incremental recovers",
    ]);
    for circuit in &circuits {
        let golden = scan_core(circuit);
        let mut vec_rng = StdRng::seed_from_u64(args.seed);
        let pi = PackedMatrix::random(golden.inputs().len(), args.vectors, &mut vec_rng);
        let dict = FaultDictionary::build(&golden, all_stuck_at_faults(&golden), &pi);
        for faults in [1usize, 2, 3] {
            let outcomes = run_parallel(args.trials, args.jobs, |t| {
                for attempt in 0..20u64 {
                    let seed = args.trial_seed("baseline_dictionary", circuit, faults, t, attempt);
                    if let Some(r) = trial(&golden, &dict, &pi, faults, seed, &args) {
                        return Some(r);
                    }
                }
                None
            });
            let done: Vec<Trial> = outcomes.into_iter().flatten().collect();
            if done.is_empty() {
                continue;
            }
            let n = done.len();
            table.row([
                circuit.clone(),
                faults.to_string(),
                format!("{}/{n}", done.iter().filter(|t| t.dictionary_exact).count()),
                format!(
                    "{}/{n}",
                    done.iter().filter(|t| t.dictionary_closest_hits).count()
                ),
                format!(
                    "{}/{n}",
                    done.iter().filter(|t| t.incremental_recovers).count()
                ),
            ]);
        }
    }
    println!("{table}");
    println!(
        "reading: the dictionary's exact match collapses beyond one fault; the \
         incremental engine keeps recovering the injected tuple — the paper's \
         central claim."
    );
}
