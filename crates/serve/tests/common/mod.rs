//! Shared helpers for the daemon integration tests: a line-JSON TCP
//! client, unique spool directories under `target/tmp`, spool records
//! read back from disk, and the uninterrupted-run reference
//! fingerprint.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use incdx_core::json::{self, Json};
use incdx_core::Rectifier;
use incdx_serve::job::{build_workload, solution_fingerprint, BuiltWorkload, JobSpec};
use incdx_serve::SpoolRecord;

/// A blocking line-JSON client for one daemon connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the daemon on localhost.
    pub fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        self.writer.flush().expect("flush request");
    }

    /// Reads and parses one response/event line.
    pub fn recv(&mut self) -> Json {
        let line = self.recv_raw();
        json::parse(&line).unwrap_or_else(|e| panic!("bad line from daemon: {e}: {line}"))
    }

    /// Reads one raw line.
    pub fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// One request/response round trip.
    pub fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }

    /// Polls `status` until `pred` holds or `timeout` elapses; returns
    /// the matching status object.
    pub fn wait_status(
        &mut self,
        job: u64,
        timeout: Duration,
        pred: impl Fn(&Json) -> bool,
    ) -> Json {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.request(&format!("{{\"req\":\"status\",\"job\":{job}}}"));
            if pred(&s) {
                return s;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting on job {job}: {}",
                status_line(&s)
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Human-readable digest of a status object for assertion messages.
pub fn status_line(s: &Json) -> String {
    format!(
        "state={:?} slices={:?}",
        s.get_opt("state").and_then(|v| v.as_str().ok()),
        s.get_opt("slices").and_then(|v| v.as_u64().ok())
    )
}

/// The job's wire state tag, or a rejection's code.
pub fn state_of(s: &Json) -> String {
    s.get("state")
        .and_then(|v| v.as_str())
        .expect("status has state")
        .to_string()
}

/// True once the status object shows a terminal state.
pub fn is_terminal(s: &Json) -> bool {
    matches!(state_of(s).as_str(), "done" | "cancelled" | "failed")
}

/// A unique empty spool directory under `target/tmp`.
pub fn spool_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spool-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

/// Job `id`'s spool record as it stands on disk, if it is there.
pub fn spool_record(dir: &Path, id: u64) -> Option<SpoolRecord> {
    let text = std::fs::read_to_string(dir.join(format!("job-{id}.json"))).ok()?;
    SpoolRecord::from_json(text.trim()).ok()
}

/// A submit request line for a suite-circuit job.
pub fn submit_line(
    tenant: &str,
    circuit: &str,
    model: &str,
    k: usize,
    vectors: usize,
    seed: u64,
) -> String {
    format!(
        "{{\"req\":\"submit\",\"tenant\":\"{tenant}\",\"job\":{{\"circuit\":\"{circuit}\",\"model\":\"{model}\",\"k\":{k},\"vectors\":{vectors},\"seed\":{seed}}}}}"
    )
}

/// The giant multi-slice workload used by the preemption/recovery
/// tests: c432a under exhaustive double-stuck-at diagnosis runs 1,633
/// decision-tree nodes, so a small DRR quantum (50 nodes) dices it into
/// dozens of checkpointed slices.
pub fn giant_spec() -> JobSpec {
    JobSpec {
        source: incdx_serve::job::Source::Suite("c432a".to_string()),
        model: incdx_serve::job::Model::StuckAt,
        k: 2,
        vectors: 64,
        seed: 5,
        max_nodes: None,
        deadline_ms: None,
    }
}

/// The submit line matching [`giant_spec`].
pub fn giant_submit_line(tenant: &str) -> String {
    submit_line(tenant, "c432a", "stuck-at", 2, 64, 5)
}

/// Runs `spec` uninterrupted in-process and returns the solution-set
/// fingerprint plus the verdict tag — the determinism oracle for the
/// sliced/recovered daemon runs.
pub fn reference_outcome(spec: &JobSpec) -> (u64, String) {
    let workload = match build_workload(spec).expect("reference workload builds") {
        BuiltWorkload::Ready(w) => w,
        BuiltWorkload::NoFailingBehaviour => panic!("reference spec must produce failures"),
    };
    let mut engine = Rectifier::new(
        workload.base.clone(),
        workload.pi.clone(),
        workload.resp.clone(),
        spec.rectify_config(),
    )
    .expect("reference engine");
    let result = engine.run();
    (
        solution_fingerprint(&result.solutions),
        result.verdict.tag().to_string(),
    )
}
