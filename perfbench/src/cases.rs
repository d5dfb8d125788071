//! Input generation: suite circuits, area optimisation, fault/error
//! injection and reference responses, each timed separately.

use std::time::{Duration, Instant};

use incdx_core::RectifyConfig;
use incdx_fault::{inject_design_errors, inject_stuck_at_faults, InjectionConfig, StuckAt};
use incdx_netlist::{scan_convert, Netlist};
use incdx_opt::{optimize_for_area, OptConfig};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which diagnosis problem a case poses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Exhaustive multiple stuck-at diagnosis (Table 1).
    StuckAt,
    /// First-solution design-error diagnosis and correction (Table 2).
    Dedc,
}

/// What a batch workload diagnoses.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Suite circuits, visited round-robin.
    pub circuits: &'static [&'static str],
    /// Area-optimise each core first (the Table 1 setting).
    pub optimize: bool,
    /// Problem kind.
    pub model: Model,
    /// Injected faults/errors per case.
    pub k: usize,
    /// Test vectors per case.
    pub vectors: usize,
    /// Diagnoses per second of `--seconds` a run is sized for. A run
    /// diagnoses a fixed count of cases, this times `--seconds`, so every
    /// build diagnoses the same inputs however fast it is.
    pub cases_per_second: f64,
    /// Total node budget per diagnosis (`RectifyLimits::max_total_nodes`).
    pub node_budget: Option<u64>,
}

impl BatchSpec {
    /// Cases a run of `seconds` diagnoses.
    pub fn count(&self, seconds: f64) -> usize {
        (self.cases_per_second * seconds).round().max(1.0) as usize
    }
}

/// One generated diagnosis input.
#[derive(Debug, Clone)]
pub struct Case {
    /// `circuit/seed`, stable across runs with the same seed.
    pub label: String,
    /// The netlist handed to the engine (golden core for stuck-at, the
    /// corrupted design for DEDC).
    pub base: Netlist,
    /// Test vectors.
    pub pi: PackedMatrix,
    /// Reference responses (faulty device for stuck-at, specification
    /// for DEDC).
    pub reference: Response,
    /// The injected stuck-at tuple, sorted (empty for DEDC).
    pub injected: Vec<StuckAt>,
    /// Engine configuration: the model's default plus the node budget.
    pub config: RectifyConfig,
}

/// Wall time of each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `incdx_gen::generate` (+ scan conversion).
    pub generate: Duration,
    /// `incdx_opt::optimize_for_area`.
    pub optimize: Duration,
    /// `incdx_fault` injection.
    pub inject: Duration,
    /// Vector generation and reference simulation.
    pub reference: Duration,
}

/// SplitMix64 step: derives independent seeds from one run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A suite circuit's combinational core.
///
/// # Errors
///
/// Unknown circuit names.
pub fn suite_core(name: &str) -> Result<Netlist, String> {
    let n = incdx_gen::generate(name).map_err(|e| e.to_string())?;
    if n.is_combinational() {
        Ok(n)
    } else {
        Ok(scan_convert(&n).map_err(|e| e.to_string())?.0)
    }
}

/// The bounded area optimisation of the Table 1 harness.
pub fn optimize(netlist: &Netlist) -> Netlist {
    optimize_for_area(
        netlist,
        &OptConfig {
            redundancy_rounds: 2,
            backtrack_limit: 500,
            prefilter_vectors: 256,
        },
    )
    .netlist
}

/// Attempts per case before a circuit is declared uninjectable.
const INJECT_ATTEMPTS: u64 = 64;

/// Generates `count` cases of `spec` for run seed `seed`, circuits
/// interleaved (case `i` is on circuit `i % circuits`).
///
/// # Errors
///
/// Unknown circuits, or a circuit on which no observable injection was
/// found.
pub fn build_cases(
    spec: &BatchSpec,
    seed: u64,
    count: usize,
) -> Result<(Vec<Case>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut goldens = Vec::with_capacity(spec.circuits.len());
    for name in spec.circuits {
        let t = Instant::now();
        let core = suite_core(name)?;
        times.generate += t.elapsed();
        let t = Instant::now();
        let core = if spec.optimize { optimize(&core) } else { core };
        times.optimize += t.elapsed();
        goldens.push(core);
    }
    let mut cases = Vec::with_capacity(count);
    for i in 0..count {
        let c = i % goldens.len();
        let case_seed = mix(seed, i as u64);
        let case = (0..INJECT_ATTEMPTS)
            .find_map(|a| {
                let seed = mix(case_seed, a);
                let label = format!("{}/{seed:016x}", spec.circuits[c]);
                let seeds = (seed, mix(seed, 0x7EC7));
                make_case(spec, label, &goldens[c], seeds, &mut times)
            })
            .ok_or_else(|| format!("no observable injection on {}", spec.circuits[c]))?;
        cases.push(case);
    }
    Ok((cases, times))
}

/// Injects `spec.k` faults or errors into `golden` and simulates the
/// reference responses; `None` when the injection is not observable.
/// `seeds` are the injection and the test-vector seeds.
fn make_case(
    spec: &BatchSpec,
    label: String,
    golden: &Netlist,
    seeds: (u64, u64),
    times: &mut SetupTimes,
) -> Option<Case> {
    let mut rng = StdRng::seed_from_u64(seeds.0);
    let injection_config = InjectionConfig {
        count: spec.k,
        require_individually_observable: spec.model == Model::Dedc,
        check_vectors: spec.vectors,
        max_attempts: if spec.model == Model::Dedc { 300 } else { 100 },
    };
    let mut sim = Simulator::new();
    let (base, reference, injected) = match spec.model {
        Model::StuckAt => {
            let t = Instant::now();
            let injection = inject_stuck_at_faults(golden, &injection_config, &mut rng).ok();
            times.inject += t.elapsed();
            let injection = injection?;
            let t = Instant::now();
            let pi = random_vectors(golden, spec.vectors, seeds.1);
            let device = Response::capture(
                &injection.corrupted,
                &sim.run_for_inputs(&injection.corrupted, golden.inputs(), &pi),
            );
            let observable = device.po_values().rows() == golden.outputs().len()
                && !Response::compare(golden, &sim.run(golden, &pi), &device).matches();
            times.reference += t.elapsed();
            if !observable {
                return None;
            }
            let mut injected = injection.injected;
            injected.sort();
            (golden.clone(), (pi, device), injected)
        }
        Model::Dedc => {
            let t = Instant::now();
            let injection = inject_design_errors(golden, &injection_config, &mut rng).ok();
            times.inject += t.elapsed();
            let injection = injection?;
            let t = Instant::now();
            let pi = random_vectors(golden, spec.vectors, seeds.1);
            let reference = Response::capture(golden, &sim.run(golden, &pi));
            times.reference += t.elapsed();
            (injection.corrupted, (pi, reference), Vec::new())
        }
    };
    let mut config = match spec.model {
        Model::StuckAt => RectifyConfig::stuck_at_exhaustive(spec.k),
        Model::Dedc => RectifyConfig::dedc(spec.k),
    };
    config.limits.max_total_nodes = spec.node_budget;
    Some(Case {
        label,
        base,
        pi: reference.0,
        reference: reference.1,
        injected,
        config,
    })
}

fn random_vectors(golden: &Netlist, vectors: usize, seed: u64) -> PackedMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    PackedMatrix::random(golden.inputs().len(), vectors, &mut rng)
}
