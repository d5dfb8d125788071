//! The serve wire protocol: newline-delimited JSON over a TCP socket.
//!
//! Every client line is one request object tagged by its `"req"` field;
//! every request gets exactly one response line, except `subscribe`,
//! which follows its acknowledgement with a stream of event lines
//! ending in the job's terminal `verdict` event. Requests are parsed
//! with the workspace's shared minimal JSON reader
//! ([`incdx_core::json`]): malformed bytes from a client surface as a
//! typed `bad-request` rejection, never a daemon panic. The schemas are
//! documented in `EXPERIMENTS.md`.

use incdx_core::json::{self, Json};
use incdx_core::json_obj;

use crate::job::JobSpec;

/// Stable rejection codes carried in `{"ok":false,"code":...}`
/// responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The request line was not valid protocol JSON, or a field was
    /// missing or out of domain.
    BadRequest,
    /// Admission control refused the job: the work queue is at
    /// capacity. The response carries `retry_after_ms` — backpressure
    /// is typed, never a silent drop.
    QueueFull,
    /// The referenced job id is unknown to this daemon.
    UnknownJob,
    /// The requested transition is illegal in the job's current state
    /// (e.g. `resume` on a job that is not interrupted).
    BadState,
}

impl RejectCode {
    /// Stable lowercase tag used on the wire.
    pub fn tag(&self) -> &'static str {
        match self {
            RejectCode::BadRequest => "bad-request",
            RejectCode::QueueFull => "queue-full",
            RejectCode::UnknownJob => "unknown-job",
            RejectCode::BadState => "bad-state",
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a new diagnosis job.
    Submit {
        /// Client-chosen tenant label (fair-share is per *job*; the
        /// tenant string is carried through to status and events).
        tenant: String,
        /// The deterministic workload description.
        spec: JobSpec,
    },
    /// Report a job's state, progress, and outcome.
    Status {
        /// Job id from the submit response.
        job: u64,
    },
    /// Cooperatively cancel a queued or running job.
    Cancel {
        /// Job id from the submit response.
        job: u64,
    },
    /// Requeue a job recovered from the spool in the interrupted state
    /// (only needed when the daemon runs with auto-resume disabled).
    Resume {
        /// Job id from the submit response.
        job: u64,
    },
    /// Stream progress/degradation/verdict events for a job until it
    /// reaches a terminal state.
    Subscribe {
        /// Job id from the submit response.
        job: u64,
    },
    /// Daemon-wide counters: queue depth, intern hit rate, recovery and
    /// quarantine tallies.
    Stats,
    /// Gracefully stop the daemon (in-flight slices finish and spool
    /// their checkpoints first).
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem, suitable for
    /// the `detail` field of a `bad-request` rejection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let root = json::parse(line)?;
        let req = root.get("req")?.as_str()?.to_string();
        let job_id = |root: &Json| root.get("job")?.as_u64();
        match req.as_str() {
            "submit" => {
                let tenant = match root.get_opt("tenant") {
                    Some(t) => t.as_str()?.to_string(),
                    None => "default".to_string(),
                };
                let spec = JobSpec::from_json(root.get("job")?)?;
                Ok(Request::Submit { tenant, spec })
            }
            "status" => Ok(Request::Status {
                job: job_id(&root)?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: job_id(&root)?,
            }),
            "resume" => Ok(Request::Resume {
                job: job_id(&root)?,
            }),
            "subscribe" => Ok(Request::Subscribe {
                job: job_id(&root)?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
    }
}

/// Renders a rejection response line (without trailing newline).
pub fn reject(code: RejectCode, detail: &str) -> String {
    json_obj! { "ok": false, "code": code.tag(), "detail": detail }.to_string()
}

/// Renders the typed backpressure rejection: the queue is full, try
/// again after `retry_after_ms`.
pub fn reject_queue_full(depth: usize, retry_after_ms: u64) -> String {
    json_obj! {
        "ok": false, "code": RejectCode::QueueFull.tag(), "queue_depth": depth,
        "retry_after_ms": retry_after_ms,
    }
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_kind() {
        let r = Request::parse(
            "{\"req\":\"submit\",\"tenant\":\"t1\",\"job\":{\"circuit\":\"c432a\",\"model\":\"dedc\",\"k\":1,\"vectors\":64,\"seed\":5}}",
        )
        .unwrap();
        match r {
            Request::Submit { tenant, spec } => {
                assert_eq!(tenant, "t1");
                assert_eq!(spec.vectors, 64);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            Request::parse("{\"req\":\"status\",\"job\":3}").unwrap(),
            Request::Status { job: 3 }
        );
        assert_eq!(
            Request::parse("{\"req\":\"cancel\",\"job\":3}").unwrap(),
            Request::Cancel { job: 3 }
        );
        assert_eq!(
            Request::parse("{\"req\":\"resume\",\"job\":9}").unwrap(),
            Request::Resume { job: 9 }
        );
        assert_eq!(
            Request::parse("{\"req\":\"subscribe\",\"job\":0}").unwrap(),
            Request::Subscribe { job: 0 }
        );
        assert_eq!(
            Request::parse("{\"req\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse("{\"req\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_lines_without_panicking() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"req\":\"nope\"}",
            "{\"req\":\"status\"}",
            "{\"req\":\"submit\"}",
            "{\"req\":\"submit\",\"job\":{}}",
            "{\"req\":\"status\",\"job\":\"three\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejection_lines_are_well_formed() {
        assert_eq!(
            reject(RejectCode::BadRequest, "bad \"x\"\\\n\t\u{7} é"),
            "{\"ok\":false,\"code\":\"bad-request\",\"detail\":\"bad \\\"x\\\"\\\\\\n\\t\\u0007 é\"}"
        );
        assert_eq!(
            reject(RejectCode::UnknownJob, "no job 7"),
            "{\"ok\":false,\"code\":\"unknown-job\",\"detail\":\"no job 7\"}"
        );
        assert_eq!(
            reject_queue_full(64, 1600),
            "{\"ok\":false,\"code\":\"queue-full\",\"queue_depth\":64,\"retry_after_ms\":1600}"
        );
    }

    #[test]
    fn decodes_surrogate_pairs_in_tenant_labels() {
        // Python's `json.dumps` sends non-BMP characters as escaped
        // UTF-16 surrogate pairs.
        let r = Request::parse(
            "{\"req\":\"submit\",\"tenant\":\"t\\ud83d\\ude00\",\"job\":{\"circuit\":\"c17\",\"model\":\"dedc\",\"k\":1,\"vectors\":32,\"seed\":1}}",
        )
        .unwrap();
        match r {
            Request::Submit { tenant, .. } => assert_eq!(tenant, "t\u{1F600}"),
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
