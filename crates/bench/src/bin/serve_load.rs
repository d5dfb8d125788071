//! Load generator and crash-recovery harness for the `incdx-serve`
//! daemon (`BENCH_MODE=serve` in `scripts/bench.sh`).
//!
//! ```text
//! cargo run -p incdx-bench --bin serve_load -- --daemon target/release/incdx-serve
//!     [--small N] [--giants N] [--threads N] [--workers N] [--spool DIR] [--json]
//! ```
//!
//! Two scenarios run back to back, both against real daemon processes
//! over the line-JSON TCP protocol (this binary deliberately shares no
//! code with `crates/serve` beyond the core JSON codec — it measures
//! the wire, not the internals):
//!
//! 1. **load** — `--threads` closed-loop clients push `--small` tiny
//!    jobs (c17, one slice each) through a shared daemon while
//!    `--giants` multi-slice c432a jobs grind in the background.
//!    Queue-full rejections are honoured by sleeping the daemon's
//!    `retry_after_ms` hint and retrying. Reported: p50/p99/max
//!    submit→terminal latency, throughput, the interned-artifact hit
//!    rate (a fraction — nonzero is the sharing proof), rejections
//!    and retries.
//! 2. **recovery** — a control daemon runs one giant job uninterrupted
//!    and records its solution fingerprint; a second daemon is
//!    SIGKILLed mid-job (after >= 2 checkpointed slices), restarted
//!    over the same spool, and must auto-resume the interrupted job to
//!    the *identical* fingerprint. Reported: `jobs_recovered` and
//!    `recovery_identical`.
//!
//! The single-line JSON summary (`--json`) becomes `BENCH_serve.json`.
//! Exit code 0 on success, 1 when any scenario fails, 2 on usage
//! errors.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use incdx_core::json::{self, Json};
use incdx_core::json_obj;

struct LoadArgs {
    daemon: PathBuf,
    spool_root: PathBuf,
    small: usize,
    giants: usize,
    threads: usize,
    workers: usize,
    json: bool,
}

fn parse_args<I: IntoIterator<Item = String>>(iter: I) -> Result<LoadArgs, String> {
    let mut args = LoadArgs {
        daemon: PathBuf::new(),
        spool_root: std::env::temp_dir().join(format!("incdx-serve-load-{}", std::process::id())),
        small: 1500,
        giants: 3,
        threads: 4,
        workers: 4,
        json: false,
    };
    let mut it = iter.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--daemon" => args.daemon = PathBuf::from(value("--daemon")?),
            "--spool" => args.spool_root = PathBuf::from(value("--spool")?),
            "--small" => args.small = value("--small")?.parse().map_err(|e| format!("{e}"))?,
            "--giants" => args.giants = value("--giants")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("{e}"))?
            }
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.daemon.as_os_str().is_empty() {
        // Default: the daemon binary built next to this one.
        let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        args.daemon = me
            .parent()
            .ok_or("current_exe has no parent".to_string())?
            .join("incdx-serve");
    }
    if !args.daemon.exists() {
        return Err(format!(
            "daemon binary {} not found (build incdx-serve or pass --daemon)",
            args.daemon.display()
        ));
    }
    args.threads = args.threads.max(1);
    Ok(args)
}

// ---------------------------------------------------------------------
// Wire client (mirrors the daemon integration tests, TCP only)
// ---------------------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Result<Client, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        let mut out = String::new();
        let n = self
            .reader
            .read_line(&mut out)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        json::parse(out.trim_end())
    }

    /// Polls `status` until the job reaches a terminal state.
    fn wait_terminal(&mut self, job: u64, timeout: Duration) -> Result<Json, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.request(&status_request(job))?;
            let state = s.get("state").and_then(|v| v.as_str()).unwrap_or("");
            if matches!(state, "done" | "cancelled" | "failed") {
                return Ok(s);
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting on job {job} (state {state})"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn status_request(job: u64) -> String {
    json_obj! { "req": "status", "job": job }.to_string()
}

struct Daemon {
    child: Child,
    port: u16,
    recovered: u64,
}

fn spawn_daemon(bin: &Path, spool: &Path, workers: usize, quantum: u64) -> Result<Daemon, String> {
    let mut child = Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--spool",
            &spool.display().to_string(),
            "--workers",
            &workers.to_string(),
            "--quantum",
            &quantum.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("daemon stdout missing")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("ready line: {e}"))?;
    let ready = json::parse(line.trim()).map_err(|e| format!("ready line: {e}: {line}"))?;
    let addr = ready
        .get("addr")
        .and_then(|v| v.as_str())
        .map_err(|e| format!("ready line: {e}"))?;
    let port = addr
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or(format!("no port in ready addr {addr}"))?;
    let recovered = ready.get("recovered").and_then(|v| v.as_u64()).unwrap_or(0);
    Ok(Daemon {
        child,
        port,
        recovered,
    })
}

fn shutdown(mut daemon: Daemon) {
    if let Ok(mut c) = Client::connect(daemon.port) {
        let _ = c.request("{\"req\":\"shutdown\"}");
    }
    let _ = daemon.child.wait();
}

const SMALL_SUBMIT: &str = "{\"req\":\"submit\",\"tenant\":\"load\",\"job\":{\"circuit\":\"c17\",\"model\":\"dedc\",\"k\":1,\"vectors\":32,\"seed\":1}}";
const GIANT_SUBMIT: &str = "{\"req\":\"submit\",\"tenant\":\"giant\",\"job\":{\"circuit\":\"c432a\",\"model\":\"stuck-at\",\"k\":2,\"vectors\":64,\"seed\":5}}";

/// Submits one job, honouring queue-full backpressure by sleeping the
/// daemon's `retry_after_ms` hint. Returns (job id, retries used).
fn submit_with_backoff(client: &mut Client, line: &str) -> Result<(u64, u64), String> {
    let mut retries = 0u64;
    loop {
        let r = client.request(line)?;
        if r.get("ok").and_then(|v| v.as_bool()) == Ok(true) {
            let id = r.get("job").and_then(|v| v.as_u64())?;
            return Ok((id, retries));
        }
        let code = r
            .get_opt("code")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("");
        if code != "queue-full" {
            return Err(format!("submit rejected: {r:?}"));
        }
        let wait = r
            .get_opt("retry_after_ms")
            .and_then(|v| v.as_u64().ok())
            .unwrap_or(50);
        retries += 1;
        if retries > 10_000 {
            return Err("backpressure never cleared".to_string());
        }
        std::thread::sleep(Duration::from_millis(wait));
    }
}

struct LoadSummary {
    latencies_ms: Vec<f64>,
    wall: Duration,
    retries: u64,
    stats: Json,
}

/// The load scenario: closed-loop client threads over one daemon.
fn run_load(args: &LoadArgs) -> Result<LoadSummary, String> {
    let spool = args.spool_root.join("load");
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).map_err(|e| format!("spool dir: {e}"))?;
    let daemon = spawn_daemon(&args.daemon, &spool, args.workers, 400)?;
    let port = daemon.port;

    // Giants first, so the small-job latencies are measured against a
    // daemon that is genuinely busy with multi-slice work.
    let mut main_client = Client::connect(port)?;
    let mut giant_ids = Vec::new();
    for _ in 0..args.giants {
        let (id, _) = submit_with_backoff(&mut main_client, GIANT_SUBMIT)?;
        giant_ids.push(id);
    }

    let retries_total = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..args.threads {
        let share = args.small / args.threads + usize::from(t < args.small % args.threads);
        let retries_total = Arc::clone(&retries_total);
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let mut client = Client::connect(port)?;
            let mut lat = Vec::with_capacity(share);
            for _ in 0..share {
                let t0 = Instant::now();
                let (id, retries) = submit_with_backoff(&mut client, SMALL_SUBMIT)?;
                retries_total.fetch_add(retries, Ordering::Relaxed);
                let s = client.wait_terminal(id, Duration::from_secs(120))?;
                let state = s.get("state").and_then(|v| v.as_str()).unwrap_or("");
                if state != "done" {
                    return Err(format!("small job {id} ended {state}"));
                }
                lat.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            Ok(lat)
        }));
    }
    let mut latencies_ms = Vec::with_capacity(args.small);
    for h in handles {
        latencies_ms.extend(
            h.join()
                .map_err(|_| "client thread panicked".to_string())??,
        );
    }
    for id in giant_ids {
        let s = main_client.wait_terminal(id, Duration::from_secs(600))?;
        let state = s.get("state").and_then(|v| v.as_str()).unwrap_or("");
        if state != "done" {
            return Err(format!("giant job {id} ended {state}"));
        }
    }
    let wall = t0.elapsed();
    let stats = main_client.request("{\"req\":\"stats\"}")?;
    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&spool);
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Ok(LoadSummary {
        latencies_ms,
        wall,
        retries: retries_total.load(Ordering::Relaxed),
        stats,
    })
}

struct RecoverySummary {
    control_fp: u64,
    recovered_fp: u64,
    jobs_recovered: u64,
    slices_before_kill: u64,
    identical: bool,
}

/// The recovery scenario: control fingerprint, SIGKILL mid-job,
/// restart, compare.
fn run_recovery(args: &LoadArgs) -> Result<RecoverySummary, String> {
    // Control: one giant job, uninterrupted.
    let spool = args.spool_root.join("control");
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).map_err(|e| format!("spool dir: {e}"))?;
    let daemon = spawn_daemon(&args.daemon, &spool, 1, 50)?;
    let mut client = Client::connect(daemon.port)?;
    let (id, _) = submit_with_backoff(&mut client, GIANT_SUBMIT)?;
    let s = client.wait_terminal(id, Duration::from_secs(600))?;
    let control_fp = s
        .get("solutions_fp")
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("control fp: {e}"))?;
    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&spool);

    // Crash run: same job, SIGKILL after >= 2 checkpointed slices.
    let spool = args.spool_root.join("crash");
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).map_err(|e| format!("spool dir: {e}"))?;
    let daemon = spawn_daemon(&args.daemon, &spool, 1, 50)?;
    let mut client = Client::connect(daemon.port)?;
    let (id, _) = submit_with_backoff(&mut client, GIANT_SUBMIT)?;
    let deadline = Instant::now() + Duration::from_secs(120);
    let slices_before_kill = loop {
        let s = client.request(&status_request(id))?;
        let state = s.get("state").and_then(|v| v.as_str()).unwrap_or("");
        let slices = s.get("slices").and_then(|v| v.as_u64()).unwrap_or(0);
        if matches!(state, "done" | "cancelled" | "failed") {
            return Err(format!(
                "giant finished (after {slices} slices) before the kill landed"
            ));
        }
        if slices >= 2 {
            break slices;
        }
        if Instant::now() >= deadline {
            return Err("job never reached 2 slices".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let mut child = daemon.child;
    child.kill().map_err(|e| format!("kill -9: {e}"))?; // SIGKILL on unix
    let _ = child.wait();

    // Restart over the same spool: the ready line counts the recovered
    // job and auto-resume carries it to completion.
    let daemon = spawn_daemon(&args.daemon, &spool, 1, 50)?;
    let jobs_recovered = daemon.recovered;
    let mut client = Client::connect(daemon.port)?;
    let s = client.wait_terminal(id, Duration::from_secs(600))?;
    let state = s.get("state").and_then(|v| v.as_str()).unwrap_or("");
    if state != "done" {
        return Err(format!("recovered job ended {state}: {s:?}"));
    }
    let recovered_fp = s
        .get("solutions_fp")
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("recovered fp: {e}"))?;
    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&spool);
    Ok(RecoverySummary {
        control_fp,
        recovered_fp,
        jobs_recovered,
        slices_before_kill,
        identical: control_fp == recovered_fp,
    })
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn stat<'a>(stats: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(stats, |v, key| v.get_opt(key))
}

fn stat_u64(stats: &Json, path: &[&str]) -> u64 {
    stat(stats, path).and_then(|v| v.as_u64().ok()).unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve_load: {e}");
            eprintln!(
                "usage: serve_load [--daemon BIN] [--spool DIR] [--small N] [--giants N] \
                 [--threads N] [--workers N] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::create_dir_all(&args.spool_root);

    eprintln!(
        "==> load: {} small + {} giant jobs, {} client threads, {} workers",
        args.small, args.giants, args.threads, args.workers
    );
    let load = match run_load(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_load: load scenario failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p50 = percentile(&load.latencies_ms, 0.50);
    let p99 = percentile(&load.latencies_ms, 0.99);
    let max = load.latencies_ms.last().copied().unwrap_or(0.0);
    let jobs = load.latencies_ms.len() + args.giants;
    let throughput = jobs as f64 / load.wall.as_secs_f64();
    let hit_rate = stat(&load.stats, &["intern", "hit_rate"])
        .and_then(|v| v.as_f64().ok())
        .unwrap_or(0.0);
    eprintln!(
        "    p50 {p50:.1} ms, p99 {p99:.1} ms, max {max:.1} ms; {throughput:.1} jobs/s; \
         intern hit rate {:.2}%; {} retries",
        hit_rate * 100.0,
        load.retries
    );

    eprintln!("==> recovery: kill -9 mid-job, restart, compare fingerprints");
    let rec = match run_recovery(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_load: recovery scenario failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "    killed after {} slices; {} job(s) recovered; identical: {}",
        rec.slices_before_kill, rec.jobs_recovered, rec.identical
    );
    let _ = std::fs::remove_dir_all(&args.spool_root);

    if args.json {
        let count = |path: &[&str]| stat_u64(&load.stats, path);
        let record = json_obj! {
            "bench": "serve", "workers": args.workers, "client_threads": args.threads,
            "small_jobs": load.latencies_ms.len(), "giant_jobs": args.giants,
            "latency_ms": json_obj! { "p50": p50, "p99": p99, "max": max },
            "throughput_jobs_per_s": throughput,
            "intern": json_obj! {
                "hits": count(&["intern", "hits"]), "misses": count(&["intern", "misses"]),
                "hit_rate": hit_rate,
            },
            "rejected": count(&["rejected"]), "retries": load.retries,
            "checkpoint_repairs": count(&["checkpoint_repairs"]),
            "recovery": json_obj! {
                "control_fp": rec.control_fp, "recovered_fp": rec.recovered_fp,
                "jobs_recovered": rec.jobs_recovered,
                "slices_before_kill": rec.slices_before_kill, "identical": rec.identical,
            },
        };
        println!("{record}");
    }

    if !rec.identical || rec.jobs_recovered != 1 || hit_rate <= 0.0 {
        eprintln!(
            "serve_load: acceptance failed (identical recovery + nonzero intern hit rate required)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
