//! The serve workload: an `incdx-serve` daemon driven open-loop over
//! the wire by one client process.
//!
//! Jobs are due at a fixed rate. Each of the client's connections takes
//! the next due job, submits it, subscribes to it and reads events until
//! the job's terminal `verdict` event; a job's latency runs from the
//! time it was due to that event, so a connection that is still busy
//! when a job falls due charges the wait to the job (and to
//! `loadgen.lag_ms`). The client is a plain line-JSON client with
//! default socket options, so it pays whatever a real client would.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use incdx_core::json::{self, Json};
use incdx_core::RectifyResult;
use incdx_netlist::write_bench;
use incdx_serve::{build_workload, BuiltWorkload, JobSpec, Model as ServeModel, Source};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::calib::Calibration;
use crate::cases::{mix, optimize, suite_core, Case, SetupTimes};
use crate::engine::{diagnose, diagnose_traced, engine_layers, ledger_entry};
use crate::report::{
    check_ledger, cpu_seconds, dir_bytes, percentile, status_bytes, write_bytes, Metrics,
};
use crate::trace::Tracer;
use crate::{per_layer, RunArgs, RunOutput, ServeLayers, SETUP_REPS};

/// Jobs due per second.
const RATE: f64 = 6.0;
/// Client connections (and daemon workers).
const CONNECTIONS: usize = 2;

/// One kind of job in the mix.
struct JobClass {
    circuit: &'static str,
    /// Sent as the area-optimised core in `.bench` text, as a user would
    /// send their own netlist, instead of by suite name.
    optimized: bool,
    model: ServeModel,
    k: usize,
    vectors: usize,
    /// Jobs of this class in every `PERIOD` consecutive jobs.
    share: usize,
    /// Distinct specs of this class; jobs cycle through them, so a spec's
    /// first job misses the intern layer and its repeats hit it.
    specs: usize,
}

/// Consecutive jobs over which the mix is exact.
const PERIOD: usize = 20;

/// Mostly stuck-at jobs whose engine time sets their latency:
/// optimised c499a (one slice) below the 80th percentile of latency,
/// optimised c1908a (several slices, a spool write each) above it, so
/// `latency_p50_ms` and `latency_p90_ms` each fall inside one class.
/// Their many specs keep a run's cost from resting on a few draws. The
/// small DEDC jobs by suite name have few specs, so they mostly hit the
/// intern layer.
const MIX: &[JobClass] = &[
    JobClass {
        circuit: "c499a",
        optimized: true,
        model: ServeModel::StuckAt,
        k: 2,
        vectors: 1024,
        share: 12,
        specs: 48,
    },
    JobClass {
        circuit: "c1908a",
        optimized: true,
        model: ServeModel::StuckAt,
        k: 2,
        vectors: 1024,
        share: 4,
        specs: 32,
    },
    JobClass {
        circuit: "c432a",
        optimized: false,
        model: ServeModel::Dedc,
        k: 1,
        vectors: 128,
        share: 2,
        specs: 4,
    },
    JobClass {
        circuit: "c880a",
        optimized: false,
        model: ServeModel::Dedc,
        k: 1,
        vectors: 128,
        share: 2,
        specs: 4,
    },
];

/// The daemon's workload for `spec`, built in process by the daemon's
/// own `build_workload`; `None` when it has no failing behaviour.
fn replica(spec: &JobSpec) -> Result<Option<Case>, String> {
    Ok(match build_workload(spec)? {
        BuiltWorkload::Ready(w) => Some(Case {
            label: spec.intern_key(),
            base: w.base,
            pi: w.pi,
            reference: w.resp,
            injected: Vec::new(),
            config: spec.rectify_config(),
        }),
        BuiltWorkload::NoFailingBehaviour => None,
    })
}

/// The distinct job specs of a run, each class's `specs` in `MIX`
/// order, and their in-process replicas.
fn build_specs(seed: u64, times: &mut SetupTimes) -> Result<Vec<(JobSpec, Case)>, String> {
    let mut out = Vec::new();
    for (c, class) in MIX.iter().enumerate() {
        let source = if class.optimized {
            let t = Instant::now();
            let core = suite_core(class.circuit)?;
            times.generate += t.elapsed();
            let t = Instant::now();
            let text = write_bench(&optimize(&core));
            times.optimize += t.elapsed();
            Source::Bench(text)
        } else {
            Source::Suite(class.circuit.to_string())
        };
        for s in 0..class.specs {
            let salt = mix(seed, (c as u64) << 32 | s as u64);
            let mut found = None;
            for attempt in 0..64 {
                let spec = JobSpec {
                    source: source.clone(),
                    model: class.model,
                    k: class.k,
                    vectors: class.vectors,
                    seed: mix(salt, attempt),
                    max_nodes: None,
                    deadline_ms: None,
                };
                let t = Instant::now();
                let case = replica(&spec)?;
                times.inject += t.elapsed();
                if let Some(case) = case {
                    found = Some((spec, case));
                    break;
                }
            }
            out.push(found.ok_or(format!("no failing behaviour on {}", class.circuit))?);
        }
    }
    Ok(out)
}

struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    fn start(bin: &Path, spool: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(spool);
        std::fs::create_dir_all(spool).map_err(|e| format!("{}: {e}", spool.display()))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(CONNECTIONS.to_string())
            .arg("--spool")
            .arg(spool)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .ok_or("daemon stdout missing".to_string())
            .and_then(|out| {
                BufReader::new(out)
                    .read_line(&mut line)
                    .map_err(|e| format!("ready line: {e}"))
            });
        let port = read.and_then(|_| {
            let ready = json::parse(line.trim())?;
            let addr = ready.get("addr")?.as_str()?.to_string();
            addr.rsplit(':')
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or(format!("no port in ready line {line}"))
        });
        match port {
            Ok(port) => Ok(Daemon { child, port }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks for a clean shutdown and waits for the process to end.
    fn stop(mut self) -> Result<(), String> {
        let asked =
            Client::connect(self.port).and_then(|mut c| c.request("{\"req\":\"shutdown\"}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not shut down".to_string());
                }
            }
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Result<Client, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => json::parse(line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.read()
    }
}

/// What the client saw of one job.
/// The measured phase: jobs seen, wall s, daemon CPU s, the daemon's
/// `stats` reply, and (peak RSS MB, bytes written, spool bytes).
type LoadOutcome = (Vec<JobSeen>, f64, f64, Json, (f64, u64, u64));

#[derive(Debug, Default, Clone)]
struct JobSeen {
    spec: usize,
    /// Due → verdict event.
    latency_ms: f64,
    /// Send time minus due time.
    lag_ms: f64,
    submit_rtt_ms: f64,
    /// Submit ack → first event after the subscription.
    first_event_ms: f64,
    state: String,
    verdict: String,
    fp: u64,
    slices: u64,
    error: Option<String>,
}

fn drive_one(
    client: &mut Client,
    line: &str,
    due: Instant,
    seen: &mut JobSeen,
) -> Result<(), String> {
    let sent = Instant::now();
    seen.lag_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
    let ack = client.request(line)?;
    let acked = Instant::now();
    seen.submit_rtt_ms = (acked - sent).as_secs_f64() * 1e3;
    if !ack.get("ok")?.as_bool()? {
        return Err(format!("submit rejected: {ack:?}"));
    }
    let id = ack.get("job")?.as_u64()?;
    let sub = client.request(&format!("{{\"req\":\"subscribe\",\"job\":{id}}}"))?;
    if sub.get_opt("subscribed").is_none() {
        return Err(format!("subscribe refused: {sub:?}"));
    }
    let mut first = true;
    loop {
        let event = client.read()?;
        let now = Instant::now();
        if first {
            seen.first_event_ms = (now - acked).as_secs_f64() * 1e3;
            first = false;
        }
        if event.get("event")?.as_str()? == "verdict" {
            seen.latency_ms = (now - due).as_secs_f64() * 1e3;
            seen.state = event.get("state")?.as_str()?.to_string();
            seen.verdict = event.get("verdict")?.as_str()?.to_string();
            seen.fp = event.get("solutions_fp")?.as_u64()?;
            seen.slices = event.get("slices")?.as_u64()?;
            return Ok(());
        }
    }
}

/// Runs the serve workload.
///
/// # Errors
///
/// Set-up failures and a daemon that cannot be started or stopped;
/// wrong answers are reported in the output instead.
pub fn run(args: &RunArgs, ledger: &Path) -> Result<RunOutput, String> {
    if !args.daemon.is_file() {
        return Err(format!("daemon binary {} not found", args.daemon.display()));
    }
    let spool = args.state.join(format!("spool-{}", std::process::id()));
    // Set-up: the in-process replicas of every distinct job, then the
    // daemon from spawn to its ready line. Repeated; the median counts.
    // Each repetition is scaled to reference time, as on the batch
    // workloads; the jobs' times are not.
    let mut calib = Calibration::new();
    let mut setups: Vec<(Duration, SetupTimes)> = Vec::new();
    let mut specs = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let mut times = SetupTimes::default();
        calib.sample();
        let t = Instant::now();
        specs = build_specs(args.seed, &mut times)?;
        let started = Daemon::start(&args.daemon, &spool)?;
        setups.push((t.elapsed(), times));
        if rep + 1 < SETUP_REPS {
            started.stop()?;
        } else {
            daemon = Some(started);
        }
    }
    calib.sample();
    let daemon = daemon.ok_or("no daemon".to_string())?;
    let mut setups: Vec<(f64, Duration, SetupTimes)> = setups
        .into_iter()
        .enumerate()
        .map(|(rep, (wall, times))| (wall.as_secs_f64() * calib.factor(rep), wall, times))
        .collect();
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (setup_s, setup_wall, setup_times) = setups[setups.len() / 2];

    // The schedule: every PERIOD jobs hold each class's share, in a
    // seeded order; each class cycles through its specs.
    let total = (RATE * args.seconds).ceil() as usize;
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 0x5EED));
    let first_spec: Vec<usize> = MIX
        .iter()
        .scan(0, |next, class| {
            let first = *next;
            *next += class.specs;
            Some(first)
        })
        .collect();
    let mut used = vec![0usize; MIX.len()];
    let mut slots: Vec<usize> = Vec::with_capacity(PERIOD);
    let mut plan: Vec<(usize, String)> = Vec::with_capacity(total);
    while plan.len() < total {
        slots.clear();
        for (c, class) in MIX.iter().enumerate() {
            slots.extend(std::iter::repeat_n(c, class.share));
        }
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.random_range(0..=i));
        }
        for &c in &slots {
            let spec = first_spec[c] + used[c] % MIX[c].specs;
            used[c] += 1;
            let line = format!(
                "{{\"req\":\"submit\",\"tenant\":\"{}\",\"job\":{}}}",
                MIX[c].circuit,
                specs[spec].0.to_json()
            );
            plan.push((spec, line));
        }
    }
    plan.truncate(total);
    let plan = Arc::new(plan);

    let result = (|| -> Result<LoadOutcome, String> {
        let cpu0 = cpu_seconds(&daemon.pid())?;
        let next = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now() + Duration::from_millis(20);
        let period = Duration::from_secs_f64(1.0 / RATE);
        let port = daemon.port;
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (plan, next) = (Arc::clone(&plan), Arc::clone(&next));
                std::thread::spawn(move || -> Result<Vec<JobSeen>, String> {
                    let mut client = Client::connect(port)?;
                    let mut seen = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some((spec, line)) = plan.get(j) else {
                            return Ok(seen);
                        };
                        let due = t0 + period * j as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let mut job = JobSeen {
                            spec: *spec,
                            ..JobSeen::default()
                        };
                        if let Err(e) = drive_one(&mut client, line, due, &mut job) {
                            job.error = Some(e);
                            client = Client::connect(port)?;
                        }
                        seen.push(job);
                    }
                })
            })
            .collect();
        let mut seen = Vec::new();
        for t in threads {
            seen.extend(
                t.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        let wall = t0.elapsed().as_secs_f64();
        let pid = daemon.pid();
        let cpu = cpu_seconds(&pid)? - cpu0;
        let mut c = Client::connect(port)?;
        let stats = c.request("{\"req\":\"stats\"}")?;
        let proc_numbers = (
            status_bytes(&pid, "VmHWM")? as f64 / (1 << 20) as f64,
            write_bytes(&pid).unwrap_or(0),
            dir_bytes(&spool),
        );
        Ok((seen, wall, cpu, stats, proc_numbers))
    })();
    let stopped = daemon.stop();
    let _ = std::fs::remove_dir_all(&spool);
    let (seen, wall, cpu, stats, (peak_rss, daemon_writes, spool_bytes)) = result?;
    stopped?;

    // Expected answers: every distinct spec run in process, unsliced.
    let tracer = Tracer::new();
    let mut failures: Vec<String> = Vec::new();
    let mut expected = Vec::with_capacity(specs.len());
    let mut engine_ms = Vec::with_capacity(specs.len());
    let mut traced_results: Vec<RectifyResult> = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut entries = Vec::new();
    for (i, (_, case)) in specs.iter().enumerate() {
        calib.sample();
        let (latency, result) = diagnose(case)?;
        engine_ms.push(latency.as_secs_f64() * 1e3);
        let entry = ledger_entry(&case.label, &result);
        if args.trace {
            let (t, traced) = diagnose_traced(case, &tracer, i as u64)?;
            plain_s += latency.as_secs_f64();
            traced_s += t.as_secs_f64();
            if ledger_entry(&case.label, &traced) != entry {
                failures.push(format!("{}: traced run differs from untraced", case.label));
            }
            traced_results.push(traced);
        }
        expected.push(entry.fp);
        entries.push(entry);
    }
    if let Err(e) = check_ledger(ledger, &entries) {
        failures.push(e);
    }
    let mut solved = 0u64;
    for job in &seen {
        let label = &specs[job.spec].1.label;
        match &job.error {
            Some(e) => failures.push(format!("{label}: {e}")),
            None if job.state != "done" => {
                failures.push(format!("{label}: ended {} / {}", job.state, job.verdict))
            }
            None if job.fp != expected[job.spec] => {
                failures.push(format!(
                    "{label}: fingerprint differs from the in-process run"
                ));
            }
            None => solved += 1,
        }
    }

    let n = seen.len();
    let ok: Vec<&JobSeen> = seen.iter().filter(|j| j.error.is_none()).collect();
    let sorted = |f: &dyn Fn(&JobSeen) -> f64| {
        let mut v: Vec<f64> = ok.iter().map(|j| f(j)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let lat = sorted(&|j| j.latency_ms);
    let mut metrics = Metrics::default();
    if args.trace {
        let refs: Vec<&RectifyResult> = traced_results.iter().collect();
        let layers = engine_layers(&tracer.spans(), tracer.counts(), &refs);
        if layers.sum_error > 0.01 {
            failures.push(format!(
                "layer self times miss their parent span by {:.3}%",
                layers.sum_error * 100.0
            ));
        }
        let stat = |path: &[&str]| -> f64 {
            let mut v = &stats;
            for key in path {
                match v.get_opt(key) {
                    Some(inner) => v = inner,
                    None => return 0.0,
                }
            }
            v.as_u64().map_or(0.0, |x| x as f64)
        };
        let hits = stat(&["intern", "hits"]);
        let serve = ServeLayers {
            submit_rtt_ms: percentile(&sorted(&|j| j.submit_rtt_ms), 0.5),
            first_event_ms: percentile(&sorted(&|j| j.first_event_ms), 0.5),
            slices: ok.iter().map(|j| j.slices as f64).sum::<f64>() / ok.len().max(1) as f64,
            intern_hit_ratio: hits / (hits + stat(&["intern", "misses"])).max(1.0),
            rejected: stat(&["rejected"]),
            write_bytes: daemon_writes as f64,
            daemon_cpu_s: cpu,
            spool_bytes: spool_bytes as f64,
            lag_ms: sorted(&|j| j.lag_ms).iter().sum::<f64>() / ok.len().max(1) as f64,
        };
        per_layer(
            &mut metrics,
            &setup_times,
            &layers,
            &serve,
            traced_s / plain_s - 1.0,
            calib.overall_factor(),
        );
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("throughput_per_s", ok.len() as f64 / wall, "1/s");
        metrics.put("latency_p50_ms", percentile(&lat, 0.5), "ms");
        metrics.put("latency_p90_ms", percentile(&lat, 0.9), "ms");
        metrics.put("cpu_s", cpu, "s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        metrics.put("solved_frac", solved as f64 / n.max(1) as f64, "frac");
    }
    for f in failures.iter().take(10) {
        eprintln!("perfbench: FAIL {f}");
    }
    eprintln!(
        "perfbench: {n} jobs over {} specs in {wall:.2} s; setup median {:.4} s unscaled; \
         host speed factor {:.3}",
        specs.len(),
        setup_wall.as_secs_f64(),
        calib.overall_factor(),
    );
    for (c, class) in MIX.iter().enumerate() {
        let mine = first_spec[c]..first_spec[c] + class.specs;
        let mut lat: Vec<f64> = ok
            .iter()
            .filter(|j| mine.contains(&j.spec))
            .map(|j| j.latency_ms)
            .collect();
        lat.sort_by(f64::total_cmp);
        let engine: Vec<f64> = ok
            .iter()
            .filter(|j| mine.contains(&j.spec))
            .map(|j| engine_ms[j.spec])
            .collect();
        eprintln!(
            "perfbench:   {} {:?}: {} jobs, latency p50 {:.1} ms p90 {:.1} ms, in-process engine mean {:.1} ms",
            class.circuit,
            class.model,
            lat.len(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.9),
            engine.iter().sum::<f64>() / engine.len().max(1) as f64
        );
    }
    Ok(RunOutput {
        correct: failures.is_empty(),
        attempted: n as u64,
        failed: failures.len().min(n) as u64,
        metrics,
        spans: tracer.spans(),
    })
}
