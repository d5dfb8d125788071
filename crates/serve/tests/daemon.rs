//! In-process daemon integration tests: protocol round trips, artifact
//! interning, fair-share preemption, cancellation, typed backpressure,
//! spool quarantine, and graceful-interrupt recovery determinism.

mod common;

use std::time::Duration;

use common::{
    giant_spec, giant_submit_line, is_terminal, reference_outcome, spool_dir, state_of,
    submit_line, Client,
};
use incdx_serve::{ServeConfig, Server};

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("daemon starts")
}

fn submit_ok(client: &mut Client, line: &str) -> u64 {
    let r = client.request(line);
    assert_eq!(
        r.get("ok").and_then(|v| v.as_bool()),
        Ok(true),
        "submit accepted"
    );
    r.get("job").and_then(|v| v.as_u64()).expect("job id")
}

#[test]
fn small_jobs_complete_and_share_interned_artifacts() {
    let server = start(ServeConfig {
        spool_dir: spool_dir("small"),
        workers: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.port());
    // Two identical tiny jobs: the second must hit the intern map.
    let a = submit_ok(&mut client, &submit_line("t1", "c17", "stuck-at", 1, 32, 1));
    let b = submit_ok(&mut client, &submit_line("t2", "c17", "stuck-at", 1, 32, 1));
    assert_ne!(a, b);
    let sa = client.wait_status(a, Duration::from_secs(60), is_terminal);
    let sb = client.wait_status(b, Duration::from_secs(60), is_terminal);
    for s in [&sa, &sb] {
        assert_eq!(state_of(s), "done");
        assert_eq!(s.get("verdict").and_then(|v| v.as_str()), Ok("exact"));
        assert!(s.get("solutions").and_then(|v| v.as_u64()).unwrap() >= 1);
    }
    // Identical specs reach identical solution fingerprints.
    assert_eq!(
        sa.get("solutions_fp").and_then(|v| v.as_u64()).unwrap(),
        sb.get("solutions_fp").and_then(|v| v.as_u64()).unwrap()
    );
    let stats = client.request("{\"req\":\"stats\"}");
    let intern = stats.get("intern").expect("stats has intern block");
    assert!(
        intern.get("hits").and_then(|v| v.as_u64()).unwrap() >= 1,
        "second job must be served from the intern map"
    );
    assert!(intern.get("hit_rate").and_then(|v| v.as_f64()).unwrap() > 0.0);
    // Subscribing to an already-terminal job yields its verdict line
    // immediately.
    client.send(&format!("{{\"req\":\"subscribe\",\"job\":{a}}}"));
    let ack = client.recv();
    assert_eq!(ack.get("subscribed").and_then(|v| v.as_bool()), Ok(true));
    let verdict = client.recv();
    assert_eq!(verdict.get("event").and_then(|v| v.as_str()), Ok("verdict"));
    assert_eq!(verdict.get("state").and_then(|v| v.as_str()), Ok("done"));
    server.stop();
    server.join();
}

#[test]
fn fair_share_lets_small_jobs_through_while_a_giant_runs() {
    let server = start(ServeConfig {
        spool_dir: spool_dir("fair"),
        workers: 1,
        quantum: 50,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.port());
    let giant = submit_ok(&mut client, &giant_submit_line("big"));
    // Wait until the giant job is actually being sliced, then admit a
    // tiny job behind it.
    client.wait_status(giant, Duration::from_secs(60), |s| {
        s.get("slices").and_then(|v| v.as_u64()).unwrap() >= 1
    });
    let small = submit_ok(&mut client, &submit_line("small", "c17", "dedc", 1, 32, 1));
    let s = client.wait_status(small, Duration::from_secs(60), is_terminal);
    assert_eq!(state_of(&s), "done");
    // DRR preemption: the giant job must still be mid-flight when the
    // small one finishes — a FIFO scheduler would have starved it.
    let g = client.request(&format!("{{\"req\":\"status\",\"job\":{giant}}}"));
    assert!(
        !is_terminal(&g),
        "giant job should still be sliced, got {}",
        state_of(&g)
    );
    // A subscriber on the giant job sees progress events between
    // slices, then (after cancel) the terminal verdict event.
    let mut sub = Client::connect(server.port());
    sub.send(&format!("{{\"req\":\"subscribe\",\"job\":{giant}}}"));
    let ack = sub.recv();
    assert_eq!(ack.get("subscribed").and_then(|v| v.as_bool()), Ok(true));
    let first = sub.recv();
    assert_eq!(
        first.get("event").and_then(|v| v.as_str()).unwrap(),
        "progress",
        "multi-slice jobs emit progress events"
    );
    let c = client.request(&format!("{{\"req\":\"cancel\",\"job\":{giant}}}"));
    assert_eq!(c.get("ok").and_then(|v| v.as_bool()), Ok(true));
    loop {
        let ev = sub.recv();
        if ev.get("event").and_then(|v| v.as_str()).unwrap() == "verdict" {
            assert_eq!(ev.get("state").and_then(|v| v.as_str()), Ok("cancelled"));
            break;
        }
    }
    server.stop();
    server.join();
}

#[test]
fn admission_control_rejects_with_typed_backpressure() {
    let server = start(ServeConfig {
        spool_dir: spool_dir("backpressure"),
        workers: 1,
        quantum: 50,
        max_queue: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.port());
    let mut accepted = Vec::new();
    let mut rejection = None;
    for _ in 0..10 {
        let r = client.request(&giant_submit_line("flood"));
        if r.get("ok").and_then(|v| v.as_bool()).unwrap() {
            accepted.push(r.get("job").and_then(|v| v.as_u64()).unwrap());
        } else {
            rejection = Some(r);
            break;
        }
    }
    let r = rejection.expect("a one-deep queue must reject a flood of giant jobs");
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Ok("queue-full"));
    let retry = r.get("retry_after_ms").and_then(|v| v.as_u64()).unwrap();
    assert!(retry > 0, "backpressure must carry a retry hint");
    assert!(r.get("queue_depth").and_then(|v| v.as_u64()).unwrap() >= 1);
    let stats = client.request("{\"req\":\"stats\"}");
    assert!(stats.get("rejected").and_then(|v| v.as_u64()).unwrap() >= 1);
    for id in accepted {
        client.request(&format!("{{\"req\":\"cancel\",\"job\":{id}}}"));
    }
    server.stop();
    server.join();
}

#[test]
fn cancel_lands_mid_run_and_between_slices() {
    let server = start(ServeConfig {
        spool_dir: spool_dir("cancel"),
        workers: 1,
        quantum: 50,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.port());
    // Mid-run: cancel once slices are flowing; the engine's cooperative
    // token stops the slice and the job finalizes as cancelled.
    let running = submit_ok(&mut client, &giant_submit_line("t"));
    client.wait_status(running, Duration::from_secs(60), |s| {
        s.get("slices").and_then(|v| v.as_u64()).unwrap() >= 1
    });
    client.request(&format!("{{\"req\":\"cancel\",\"job\":{running}}}"));
    let s = client.wait_status(running, Duration::from_secs(60), is_terminal);
    assert_eq!(state_of(&s), "cancelled");
    assert_eq!(s.get("verdict").and_then(|v| v.as_str()), Ok("cancelled"));
    // Queued: with the worker busy, a second job cancelled while still
    // in the ring finalizes immediately and never runs a slice.
    let busy = submit_ok(&mut client, &giant_submit_line("t"));
    let queued = submit_ok(&mut client, &giant_submit_line("t2"));
    let c = client.request(&format!("{{\"req\":\"cancel\",\"job\":{queued}}}"));
    assert_eq!(c.get("state").and_then(|v| v.as_str()), Ok("cancelled"));
    client.request(&format!("{{\"req\":\"cancel\",\"job\":{busy}}}"));
    client.wait_status(busy, Duration::from_secs(60), is_terminal);
    server.stop();
    server.join();
}

#[test]
fn malformed_and_out_of_domain_requests_get_typed_rejections() {
    let server = start(ServeConfig {
        spool_dir: spool_dir("reject"),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.port());
    for (line, code) in [
        ("this is not json", "bad-request"),
        ("{\"req\":\"teleport\"}", "bad-request"),
        (
            "{\"req\":\"submit\",\"job\":{\"circuit\":\"c17\",\"model\":\"dedc\",\"k\":99,\"vectors\":32,\"seed\":1}}",
            "bad-request",
        ),
        ("{\"req\":\"status\",\"job\":424242}", "unknown-job"),
        ("{\"req\":\"cancel\",\"job\":424242}", "unknown-job"),
        ("{\"req\":\"resume\",\"job\":424242}", "unknown-job"),
    ] {
        let r = client.request(line);
        assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Ok(false), "{line}");
        assert_eq!(r.get("code").and_then(|v| v.as_str()).unwrap(), code, "{line}");
    }
    // `resume` on a job that is not interrupted is a bad-state error.
    let id = submit_ok(&mut client, &submit_line("t", "c17", "dedc", 1, 32, 1));
    client.wait_status(id, Duration::from_secs(60), is_terminal);
    let r = client.request(&format!("{{\"req\":\"resume\",\"job\":{id}}}"));
    assert_eq!(r.get("code").and_then(|v| v.as_str()), Ok("bad-state"));
    // An unknown circuit fails the job with a typed outcome — the
    // daemon keeps serving.
    let bad = submit_ok(&mut client, &submit_line("t", "c9999z", "dedc", 1, 32, 1));
    let s = client.wait_status(bad, Duration::from_secs(60), is_terminal);
    assert_eq!(state_of(&s), "failed");
    assert_eq!(s.get("verdict").and_then(|v| v.as_str()), Ok("error"));
    assert!(client
        .request("{\"req\":\"stats\"}")
        .get("ok")
        .and_then(|v| v.as_bool())
        .unwrap());
    server.stop();
    server.join();
}

#[test]
fn torn_spool_files_are_quarantined_not_fatal() {
    let dir = spool_dir("quarantine");
    // A torn (truncated mid-JSON) record and outright garbage.
    std::fs::write(dir.join("job-7.json"), "{\"spool\":\"incdx-serve\",\"ver").unwrap();
    std::fs::write(dir.join("job-8.json"), "not a record at all\n").unwrap();
    let server = start(ServeConfig {
        spool_dir: dir.clone(),
        ..ServeConfig::default()
    });
    assert_eq!(server.quarantined(), 2);
    assert_eq!(server.recovered(), 0);
    assert!(dir.join("job-7.json.quarantined").exists());
    assert!(dir.join("job-8.json.quarantined").exists());
    assert!(!dir.join("job-7.json").exists());
    let mut client = Client::connect(server.port());
    let stats = client.request("{\"req\":\"stats\"}");
    assert_eq!(stats.get("quarantined").and_then(|v| v.as_u64()), Ok(2));
    // The daemon still serves jobs normally afterwards.
    let id = submit_ok(&mut client, &submit_line("t", "c17", "dedc", 1, 32, 1));
    let s = client.wait_status(id, Duration::from_secs(60), is_terminal);
    assert_eq!(state_of(&s), "done");
    server.stop();
    server.join();
}

#[test]
fn graceful_interrupt_resumes_to_the_identical_solution_set() {
    let spec = giant_spec();
    let (expected_fp, expected_verdict) = reference_outcome(&spec);
    let dir = spool_dir("graceful");
    // Phase 1: slice the giant job, then stop the daemon mid-search.
    let server = start(ServeConfig {
        spool_dir: dir.clone(),
        workers: 1,
        quantum: 50,
        ..ServeConfig::default()
    });
    let port = server.port();
    let mut client = Client::connect(port);
    let id = submit_ok(&mut client, &giant_submit_line("t"));
    client.wait_status(id, Duration::from_secs(120), |s| {
        s.get("slices").and_then(|v| v.as_u64()).unwrap() >= 2
    });
    let mid = client.request(&format!("{{\"req\":\"status\",\"job\":{id}}}"));
    assert!(!is_terminal(&mid), "job must be interrupted mid-search");
    server.stop();
    server.join();
    // Phase 2: a fresh daemon over the same spool auto-resumes the
    // interrupted job and must reach the uninterrupted run's exact
    // solution set — the lossless checkpoint/resume contract, stitched
    // across a daemon restart.
    let server = start(ServeConfig {
        spool_dir: dir,
        workers: 1,
        quantum: 50,
        ..ServeConfig::default()
    });
    assert_eq!(server.recovered(), 1);
    let mut client = Client::connect(server.port());
    let s = client.wait_status(id, Duration::from_secs(300), is_terminal);
    assert_eq!(state_of(&s), "done");
    assert_eq!(
        s.get("verdict").and_then(|v| v.as_str()).unwrap(),
        expected_verdict
    );
    assert_eq!(
        s.get("solutions_fp").and_then(|v| v.as_u64()).unwrap(),
        expected_fp,
        "resumed job must reach the uninterrupted solution set"
    );
    assert!(
        s.get("slices").and_then(|v| v.as_u64()).unwrap() >= 3,
        "the job must actually have been sliced across the restart"
    );
    server.stop();
    server.join();
}

#[test]
fn fingerprint_mismatch_on_resume_quarantines_the_record() {
    use incdx_core::{Checkpoint, CHECKPOINT_VERSION};
    use incdx_serve::{JobSpec, JobState, SpoolRecord};

    let dir = spool_dir("fpguard");
    // A record that parses fine but pins a fingerprint no rebuild of
    // its spec can produce — as if the spool survived a generator
    // change or bit rot in the spec fields.
    let rec = SpoolRecord {
        id: 5,
        tenant: "t".to_string(),
        spec: JobSpec {
            source: incdx_serve::job::Source::Suite("c17".to_string()),
            model: incdx_serve::job::Model::StuckAt,
            k: 1,
            vectors: 32,
            seed: 1,
            max_nodes: None,
            deadline_ms: None,
        },
        state: JobState::Waiting,
        nodes: 10,
        slices: 1,
        fingerprint: 0xDEAD_BEEF,
        checkpoint: Some(Checkpoint {
            version: CHECKPOINT_VERSION,
            label: "serve/job-5".to_string(),
            trial_seed: 1,
            vectors: 32,
            base_gates: 11,
            base_hash: 0xDEAD_BEEF,
            level: 0,
            phase: 0,
            iterations: 1,
            plan: vec![],
            plan_pos: 0,
            nodes: vec![],
            visited: vec![],
            solutions: vec![],
        }),
        outcome: None,
        repairs: 0,
    };
    std::fs::write(dir.join("job-5.json"), format!("{}\n", rec.to_json())).unwrap();
    let server = start(ServeConfig {
        spool_dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    });
    assert_eq!(server.recovered(), 1);
    let mut client = Client::connect(server.port());
    let s = client.wait_status(5, Duration::from_secs(60), is_terminal);
    assert_eq!(state_of(&s), "failed");
    let detail = s
        .get("detail")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    assert!(
        detail.contains("fingerprint mismatch"),
        "typed outcome must name the guard: {detail}"
    );
    assert!(
        dir.join("job-5.json.quarantined").exists(),
        "the stale record must be kept as evidence"
    );
    assert_eq!(server.quarantined(), 1);
    server.stop();
    server.join();
}
