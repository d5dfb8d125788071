//! The incdx benchmark: three workloads run against the engine's default
//! configuration, every answer checked, end-to-end metrics from a plain
//! run and per-layer metrics from a traced one. See `README.md`.

pub mod batch;
pub mod calib;
pub mod cases;
pub mod engine;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;

use cases::{BatchSpec, Model, SetupTimes};
use engine::EngineLayers;
use report::Metrics;
use trace::Span;

/// Table 1 style: k=2 exhaustive stuck-at diagnosis on area-optimised
/// cores. Most c499a and c880a diagnoses cost 40-110 ms, so the two
/// circuits form one cost population and the latency percentiles stay
/// put from seed to seed.
pub const STUCKAT_EXHAUSTIVE: BatchSpec = BatchSpec {
    circuits: &["c499a", "c880a"],
    optimize: true,
    model: Model::StuckAt,
    k: 2,
    vectors: 1024,
    cases_per_second: 15.0,
    node_budget: None,
};

/// Table 2 style: k=3 design errors on unoptimised cores, first
/// solution, under a total node budget per diagnosis.
pub const DEDC_FIRST: BatchSpec = BatchSpec {
    circuits: &["c432a", "c880a", "c3540a"],
    optimize: false,
    model: Model::Dedc,
    k: 3,
    vectors: 1024,
    cases_per_second: 30.0,
    node_budget: Some(16),
};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Directory for the determinism ledger, traces and spools.
    pub state: PathBuf,
    /// The `incdx-serve` binary.
    pub daemon: PathBuf,
}

/// Set-up repetitions per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 11;

/// What a run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// Every answer checked out.
    pub correct: bool,
    /// Diagnoses (or jobs) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// Serve-layer numbers of the traced run (zero on batch workloads,
/// which do not go through the daemon).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    /// Median submit → ack round trip, ms.
    pub submit_rtt_ms: f64,
    /// Median ack → first subscribed event, ms.
    pub first_event_ms: f64,
    /// Mean engine slices per job.
    pub slices: f64,
    /// Interned-artifact hits ÷ lookups, from `stats`.
    pub intern_hit_ratio: f64,
    /// Submits rejected by admission control.
    pub rejected: f64,
    /// Bytes the daemon sent to storage (`/proc/<pid>/io`).
    pub write_bytes: f64,
    /// Daemon user+system CPU, s.
    pub daemon_cpu_s: f64,
    /// Spool directory size at the end of the run.
    pub spool_bytes: f64,
    /// Mean lateness of sends against their schedule, ms.
    pub lag_ms: f64,
}

fn engine_unit(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_bytes_max") {
        "bytes"
    } else {
        "count"
    }
}

/// Emits every per-layer metric, in the order `BENCHMARK.json` lists
/// them.
pub fn per_layer(
    m: &mut Metrics,
    setup: &SetupTimes,
    engine: &EngineLayers,
    serve: &ServeLayers,
    overhead_frac: f64,
    speed_factor: f64,
) {
    m.put("gen.generate_s", setup.generate.as_secs_f64(), "s");
    m.put("opt.optimize_s", setup.optimize.as_secs_f64(), "s");
    m.put("fault.inject_s", setup.inject.as_secs_f64(), "s");
    m.put("sim.reference_s", setup.reference.as_secs_f64(), "s");
    for (name, value) in &engine.values {
        m.put(name, *value, engine_unit(name));
    }
    m.put("serve.submit_rtt_ms", serve.submit_rtt_ms, "ms");
    m.put("serve.first_event_ms", serve.first_event_ms, "ms");
    m.put("serve.slices", serve.slices, "count");
    m.put("serve.rejected", serve.rejected, "count");
    m.put("intern.hit_ratio", serve.intern_hit_ratio, "ratio");
    m.put("daemon.cpu_s", serve.daemon_cpu_s, "s");
    m.put("daemon.write_bytes", serve.write_bytes, "bytes");
    m.put("spool.bytes", serve.spool_bytes, "bytes");
    m.put("trace.overhead_frac", overhead_frac, "frac");
    m.put("loadgen.lag_ms", serve.lag_ms, "ms");
    m.put("host.speed_factor", speed_factor, "ratio");
}
