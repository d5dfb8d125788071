//! The batch workloads: a fixed count of inputs generated up front, then
//! diagnosed one at a time, then every answer checked.

use std::path::Path;
use std::time::{Duration, Instant};

use incdx_core::RectifyResult;

use crate::calib::Calibration;
use crate::cases::{build_cases, BatchSpec, SetupTimes};
use crate::engine::{check, diagnose, diagnose_traced, engine_layers, ledger_entry};
use crate::report::{check_ledger, cpu_seconds, percentile, status_bytes, Metrics};
use crate::trace::Tracer;
use crate::{per_layer, RunArgs, RunOutput, ServeLayers, SETUP_REPS};

struct Outcome {
    case: usize,
    latency: Duration,
    result: RectifyResult,
    /// Traced run only: the traced twin and its latency.
    traced: Option<(Duration, RectifyResult)>,
}

/// Runs one batch workload.
///
/// # Errors
///
/// Set-up failures and engine errors; wrong answers are reported in the
/// output instead.
pub fn run(spec: &BatchSpec, args: &RunArgs, ledger: &Path) -> Result<RunOutput, String> {
    // Set up several times; the median is the reported set-up time.
    // The calibration kernel runs before every timed step (set-up or
    // diagnosis) and after the last, so sample `i` precedes step `i`.
    let mut calib = Calibration::new();
    let mut setups: Vec<(Duration, SetupTimes)> = Vec::new();
    let mut cases = Vec::new();
    let count = spec.count(args.seconds);
    for _ in 0..SETUP_REPS {
        calib.sample();
        let t = Instant::now();
        let (built, times) = build_cases(spec, args.seed, count)?;
        setups.push((t.elapsed(), times));
        cases = built;
    }

    let tracer = Tracer::new();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(cases.len());
    let first = calib.samples().len();
    let cpu0 = cpu_seconds("self")?;
    let t0 = Instant::now();
    for (i, case) in cases.iter().enumerate() {
        calib.sample();
        let (latency, result, traced): (Duration, RectifyResult, _) = if args.trace {
            // Alternate which twin runs first so warm caches favour neither.
            if i.is_multiple_of(2) {
                let (l, r) = diagnose(case)?;
                (l, r, Some(diagnose_traced(case, &tracer, i as u64)?))
            } else {
                let t = diagnose_traced(case, &tracer, i as u64)?;
                let (l, r) = diagnose(case)?;
                (l, r, Some(t))
            }
        } else {
            let (l, r) = diagnose(case)?;
            (l, r, None)
        };
        outcomes.push(Outcome {
            case: i,
            latency,
            result,
            traced,
        });
    }
    calib.sample();
    let wall = t0.elapsed().as_secs_f64();
    let kernel_s: f64 = calib.samples()[first..].iter().sum::<f64>() * 1e-9;
    let cpu = cpu_seconds("self")? - cpu0 - kernel_s;
    let peak_rss = status_bytes("self", "VmHWM")? as f64 / (1 << 20) as f64;

    // Set-up times in reference-host seconds, now that the samples after
    // the last set-up exist too.
    let mut setups: Vec<(f64, Duration, SetupTimes)> = setups
        .into_iter()
        .enumerate()
        .map(|(rep, (wall, times))| (wall.as_secs_f64() * calib.factor(rep), wall, times))
        .collect();
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (setup_s, setup_wall, setup_times) = setups[setups.len() / 2];

    // Answers, determinism, and the traced twins.
    let mut failures: Vec<String> = Vec::new();
    let mut solved = 0u64;
    let mut entries = Vec::new();
    for o in &outcomes {
        let case = &cases[o.case];
        match check(case, &o.result) {
            Ok(s) => solved += u64::from(s),
            Err(e) => failures.push(e),
        }
        let entry = ledger_entry(&case.label, &o.result);
        if let Some((_, traced)) = &o.traced {
            if ledger_entry(&case.label, traced) != entry {
                failures.push(format!("{}: traced run differs from untraced", case.label));
            }
        }
        entries.push(entry);
    }
    if let Err(e) = check_ledger(ledger, &entries) {
        failures.push(e);
    }

    // Latencies in reference-host milliseconds.
    let n = outcomes.len();
    let raw_s: f64 = outcomes.iter().map(|o| o.latency.as_secs_f64()).sum();
    let mut lat_ms: Vec<f64> = outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3 * calib.factor(first + o.case))
        .collect();
    let ref_s = lat_ms.iter().sum::<f64>() * 1e-3;
    lat_ms.sort_by(f64::total_cmp);
    let mut raw_ms: Vec<f64> = outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    raw_ms.sort_by(f64::total_cmp);
    let mut metrics = Metrics::default();
    if args.trace {
        let traced: Vec<&RectifyResult> = outcomes
            .iter()
            .filter_map(|o| o.traced.as_ref().map(|t| &t.1))
            .collect();
        let layers = engine_layers(&tracer.spans(), tracer.counts(), &traced);
        if layers.sum_error > 0.01 {
            failures.push(format!(
                "layer self times miss their parent span by {:.3}%",
                layers.sum_error * 100.0
            ));
        }
        let with_trace: f64 = outcomes
            .iter()
            .filter_map(|o| o.traced.as_ref().map(|t| t.0.as_secs_f64()))
            .sum();
        per_layer(
            &mut metrics,
            &setup_times,
            &layers,
            &ServeLayers::default(),
            with_trace / raw_s - 1.0,
            calib.overall_factor(),
        );
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("throughput_per_s", n as f64 / ref_s, "1/s");
        metrics.put("latency_p50_ms", percentile(&lat_ms, 0.5), "ms");
        metrics.put("latency_p90_ms", percentile(&lat_ms, 0.9), "ms");
        metrics.put("cpu_s", cpu * ref_s / raw_s, "s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        metrics.put("solved_frac", solved as f64 / n as f64, "frac");
    }
    for f in failures.iter().take(10) {
        eprintln!("perfbench: FAIL {f}");
    }
    let failed = failures.len().min(n) as u64;
    eprintln!(
        "perfbench: {n} diagnoses in {wall:.2} s ({raw_s:.2} s diagnosing, {:.2}/s, \
         p50 {:.2} ms, p90 {:.2} ms, cpu {cpu:.2} s); setup median {:.4} s; \
         host speed factor {:.3}; all unscaled",
        n as f64 / raw_s,
        percentile(&raw_ms, 0.5),
        percentile(&raw_ms, 0.9),
        setup_wall.as_secs_f64(),
        calib.overall_factor(),
    );
    Ok(RunOutput {
        correct: failures.is_empty(),
        attempted: n as u64,
        failed,
        metrics,
        spans: tracer.spans(),
    })
}
