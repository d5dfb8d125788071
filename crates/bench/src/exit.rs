//! Shared process-exit conventions for the experiment binaries,
//! mirroring the lint binary's contract: **0** on success, **1** with a
//! structured one-line JSON error record when the engine rejects a
//! workload ([`IncdxError`]), **2** on usage errors (malformed flags or
//! unusable checkpoint files). The record schema is documented in
//! EXPERIMENTS.md so CI wrappers can key off it without scraping stderr.

use std::process::ExitCode;

use incdx_core::{json_obj, Checkpoint, IncdxError};

use crate::experiments::save_checkpoint;

/// The one-line record [`engine_error`] prints (separate for testing).
pub fn engine_error_record(label: &str, err: &IncdxError) -> String {
    json_obj! { "error": "incdx", "label": label, "detail": err.to_string() }.to_string()
}

/// Terminates a binary on a failed engine run: prints the machine-readable
/// record on stdout (next to the run reports) and exits 1.
pub fn engine_error(label: &str, err: &IncdxError) -> ExitCode {
    println!("{}", engine_error_record(label, err));
    ExitCode::from(1)
}

/// Terminates a binary on a malformed invocation: message on stderr and
/// exit 2, matching `Args::parse`'s own flag errors.
pub fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Final step of a checkpoint-aware binary: writes the captured
/// checkpoint (if any) to the `--checkpoint` path (if given) and turns
/// the outcome into the process exit code.
pub fn finish_with_checkpoint(path: Option<&str>, checkpoint: Option<&Checkpoint>) -> ExitCode {
    match (path, checkpoint) {
        (Some(path), Some(checkpoint)) => match save_checkpoint(path, checkpoint) {
            Ok(()) => {
                eprintln!("checkpoint written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
        (Some(path), None) => {
            eprintln!("no checkpoint captured (run finished cleanly); {path} not written");
            ExitCode::SUCCESS
        }
        _ => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_error_record_is_one_escaped_json_line() {
        let err = IncdxError::WidthMismatch {
            expected: 3,
            got: 1,
        };
        let record = engine_error_record("table1/c432a/k2/t0 \"x\"\n", &err);
        assert_eq!(
            record,
            format!(
                "{{\"error\":\"incdx\",\"label\":\"table1/c432a/k2/t0 \\\"x\\\"\\n\",\"detail\":\"{err}\"}}"
            )
        );
    }
}
