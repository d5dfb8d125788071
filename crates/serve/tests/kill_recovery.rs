//! The headline robustness test: `kill -9` the daemon process mid-job,
//! restart it over the same spool, and assert the interrupted job
//! resumes to the solution set an uninterrupted run produces — alone on
//! one worker, and beside small jobs that share two workers and the
//! spool writer's queue.
//!
//! This drives the real `incdx-serve` binary (not an in-process
//! server), so the recovery path exercised is exactly the production
//! one: torn-write-safe spool records on disk, a new process, a cold
//! intern cache, and checkpoint resume across an abrupt SIGKILL.

mod common;

use std::io::{BufRead as _, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{
    giant_spec, giant_submit_line, is_terminal, reference_outcome, spool_dir, spool_record,
    state_of, Client,
};
use incdx_core::json;
use incdx_serve::job::{JobSpec, Model, Source};

/// A daemon child process plus its parsed ready line.
struct Daemon {
    child: Child,
    port: u16,
    recovered: u64,
}

/// Waits until job `id`'s record on disk holds a checkpoint from at
/// least two slices. `status` may run a slice ahead of the spool, so
/// only the record shows what a kill from here on resumes from.
fn wait_durable_checkpoint(spool: &Path, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !spool_record(spool, id).is_some_and(|rec| rec.checkpoint.is_some() && rec.slices >= 2) {
        assert!(
            Instant::now() < deadline,
            "job {id} never spooled a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The slice count of the checkpoint a killed daemon left for job `id`.
fn checkpoint_left_by_the_kill(spool: &Path, id: u64) -> u64 {
    let rec = spool_record(spool, id).expect("the record survives the kill");
    assert!(
        rec.checkpoint.is_some() && rec.slices >= 2,
        "the kill must leave job {id} a checkpoint to resume from"
    );
    rec.slices
}

/// The restarted daemon picked job `id` up from the record on disk: its
/// slice count starts at the record's, not at zero.
fn assert_resumed(client: &mut Client, id: u64, from_slices: u64) {
    let s = client.request(&format!("{{\"req\":\"status\",\"job\":{id}}}"));
    assert!(
        s.get("slices").and_then(|v| v.as_u64()).unwrap() >= from_slices,
        "job {id} must resume from its slice-{from_slices} checkpoint"
    );
}

fn spawn_daemon(spool: &std::path::Path, workers: usize, quantum: u64) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_incdx-serve"))
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
        .expect("spawn incdx-serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read ready line");
    let ready = json::parse(line.trim()).expect("ready line is JSON");
    assert_eq!(ready.get("serve").and_then(|v| v.as_str()), Ok("ready"));
    let addr = ready.get("addr").and_then(|v| v.as_str()).expect("addr");
    let port: u16 = addr
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .expect("port in ready line");
    let recovered = ready.get("recovered").and_then(|v| v.as_u64()).unwrap();
    Daemon {
        child,
        port,
        recovered,
    }
}

#[test]
fn kill_minus_nine_mid_job_recovery_is_deterministic() {
    let spec = giant_spec();
    let (expected_fp, expected_verdict) = reference_outcome(&spec);
    let dir = spool_dir("kill9");

    // Phase 1: slice the giant job in a real daemon process, then
    // SIGKILL it mid-search (no shutdown handler runs, no flush — the
    // only survivor is what the atomic spool writes already made
    // durable).
    let daemon = spawn_daemon(&dir, 1, 50);
    assert_eq!(daemon.recovered, 0);
    let mut client = Client::connect(daemon.port);
    let submit = client.request(&giant_submit_line("t"));
    assert_eq!(submit.get("ok").and_then(|v| v.as_bool()), Ok(true));
    let id = submit.get("job").and_then(|v| v.as_u64()).unwrap();
    wait_durable_checkpoint(&dir, id);
    let mid = client.request(&format!("{{\"req\":\"status\",\"job\":{id}}}"));
    assert!(!is_terminal(&mid), "must kill mid-search, not after");
    let mut child = daemon.child;
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();
    let resume_from = checkpoint_left_by_the_kill(&dir, id);

    // Phase 2: restart over the same spool. The ready line reports the
    // recovered job; auto-resume reruns it from its last durable
    // checkpoint to completion.
    let daemon = spawn_daemon(&dir, 1, 50);
    assert_eq!(
        daemon.recovered, 1,
        "the interrupted job must be recovered from the spool"
    );
    let mut client = Client::connect(daemon.port);
    assert_resumed(&mut client, id, resume_from);
    let s = client.wait_status(id, Duration::from_secs(300), is_terminal);
    assert_eq!(state_of(&s), "done");
    assert_eq!(
        s.get("verdict").and_then(|v| v.as_str()).unwrap(),
        expected_verdict
    );
    assert_eq!(
        s.get("solutions_fp").and_then(|v| v.as_u64()).unwrap(),
        expected_fp,
        "recovery must reach the uninterrupted run's exact solution set"
    );
    let stats = client.request("{\"req\":\"stats\"}");
    assert_eq!(stats.get("recovered").and_then(|v| v.as_u64()), Ok(1));

    // Graceful shutdown ends the process with exit code 0.
    let bye = client.request("{\"req\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(|v| v.as_bool()), Ok(true));
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown must exit 0");
}

/// A kill while several jobs share the workers and the spool writer's
/// queue: after the restart, every job, finished or not when the
/// daemon died, ends `done` with its uninterrupted fingerprint.
#[test]
fn kill_minus_nine_under_concurrent_load_recovers_every_job() {
    let small = |seed| JobSpec {
        source: Source::Suite("c432a".to_string()),
        model: Model::Dedc,
        k: 1,
        vectors: 64,
        seed,
        max_nodes: None,
        deadline_ms: None,
    };
    let specs: Vec<JobSpec> = std::iter::once(giant_spec())
        .chain((1..=4).map(small))
        .collect();
    let expected: Vec<(u64, String)> = specs.iter().map(reference_outcome).collect();
    let dir = spool_dir("kill9-load");

    let daemon = spawn_daemon(&dir, 2, 50);
    let mut client = Client::connect(daemon.port);
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let line = format!(
                "{{\"req\":\"submit\",\"tenant\":\"t\",\"job\":{}}}",
                spec.to_json()
            );
            let submit = client.request(&line);
            assert_eq!(submit.get("ok").and_then(|v| v.as_bool()), Ok(true));
            submit.get("job").and_then(|v| v.as_u64()).unwrap()
        })
        .collect();
    wait_durable_checkpoint(&dir, ids[0]);
    let mid = client.request(&format!("{{\"req\":\"status\",\"job\":{}}}", ids[0]));
    assert!(!is_terminal(&mid), "must kill mid-search, not after");
    let mut child = daemon.child;
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();
    let resume_from = checkpoint_left_by_the_kill(&dir, ids[0]);

    let daemon = spawn_daemon(&dir, 2, 50);
    assert!(daemon.recovered >= 1, "the giant job must be recovered");
    let mut client = Client::connect(daemon.port);
    assert_resumed(&mut client, ids[0], resume_from);
    for (id, (fp, verdict)) in ids.iter().zip(&expected) {
        let s = client.wait_status(*id, Duration::from_secs(300), is_terminal);
        assert_eq!(state_of(&s), "done", "job {id}");
        assert_eq!(s.get("verdict").and_then(|v| v.as_str()).unwrap(), verdict);
        assert_eq!(
            s.get("solutions_fp").and_then(|v| v.as_u64()).unwrap(),
            *fp,
            "job {id} must reach its uninterrupted solution set"
        );
    }
    let bye = client.request("{\"req\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(|v| v.as_bool()), Ok(true));
    let mut child = daemon.child;
    assert!(child.wait().expect("daemon exits").success());
}
