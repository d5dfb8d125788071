//! The durable job spool: one atomically-written JSON line per job,
//! under the daemon's spool directory.
//!
//! Every admission, slice boundary, and terminal transition rewrites
//! the job's record via temp-file-plus-rename (with the file and its
//! directory synced; see [`atomic_write_line`]), so the spool always
//! holds a *complete* document for every job — a `kill -9` between any
//! two instructions leaves either the previous record or the new one,
//! never a torn hybrid under the final name. On restart the daemon
//! scans the directory: parsable records become jobs again (non-
//! terminal ones in the interrupted state, carrying their engine
//! checkpoint), and unparsable files are **quarantined** — renamed to
//! `*.quarantined`, counted, and reported — never trusted and never a
//! panic. A second guard runs at resume time: the workload is rebuilt
//! from the spec and its netlist fingerprint must equal the one
//! recorded at admission, catching records that parse fine but
//! describe a different circuit than the checkpoint they carry.
//!
//! The spool is also a chaos site (`--chaos`): the serialized record
//! can be deterministically torn before the write, and the
//! write-then-read-back validation must detect the damage and rewrite
//! the line from memory, recording a `CheckpointRepair` degradation —
//! injected tears map 1:1 onto repairs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use incdx_core::json::{self, Json};
use incdx_core::{
    atomic_write_line, json_fields, ChaosState, Checkpoint, DegradationEvent, DegradationKind,
};

use crate::job::{JobOutcome, JobSpec, JobState};

/// Schema version written into every spool record.
pub const SPOOL_VERSION: u32 = 1;

/// One job's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoolRecord {
    /// Daemon-assigned job id (also names the file: `job-<id>.json`).
    pub id: u64,
    /// Client-supplied tenant label.
    pub tenant: String,
    /// The deterministic workload spec.
    pub spec: JobSpec,
    /// Lifecycle state at the last rewrite.
    pub state: JobState,
    /// Decision-tree nodes consumed so far (across all slices).
    pub nodes: u64,
    /// Slices run so far.
    pub slices: u64,
    /// Base-netlist fingerprint recorded after the first slice
    /// (0 = not yet known); the recovery guard.
    pub fingerprint: u64,
    /// The engine checkpoint to resume from, when interrupted mid-run.
    pub checkpoint: Option<Checkpoint>,
    /// Terminal summary, once the job finished.
    pub outcome: Option<JobOutcome>,
    /// Spool-repair events survived so far (checkpoint chaos tears).
    pub repairs: u64,
}

impl SpoolRecord {
    /// Renders the record as one line of JSON. The engine checkpoint is
    /// embedded as an escaped string, so the record stays a single
    /// self-contained line no matter how deep the checkpoint nests.
    pub fn to_json(&self) -> String {
        let head = json_fields! {
            "spool": "incdx-serve", "version": SPOOL_VERSION, "id": self.id,
            "tenant": &self.tenant, "state": self.state.tag(), "nodes": self.nodes,
            "slices": self.slices, "fingerprint": self.fingerprint, "repairs": self.repairs,
            "spec": self.spec.to_json_value(),
        };
        let checkpoint = self
            .checkpoint
            .as_ref()
            .map(|c| ("checkpoint", c.to_json().into()));
        let outcome = self
            .outcome
            .as_ref()
            .map(|o| ("outcome", Json::obj(o.fields())));
        Json::obj(head.into_iter().chain(checkpoint).chain(outcome)).to_string()
    }

    /// Parses a spool line.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field — the caller's cue to
    /// quarantine the file.
    pub fn from_json(text: &str) -> Result<SpoolRecord, String> {
        let root = json::parse(text)?;
        if root.get("spool")?.as_str()? != "incdx-serve" {
            return Err("not an incdx-serve spool record".to_string());
        }
        let version = root.get("version")?.as_u64()?;
        if version != u64::from(SPOOL_VERSION) {
            return Err(format!("unsupported spool version {version}"));
        }
        let checkpoint = match root.get_opt("checkpoint") {
            Some(c) => Some(Checkpoint::from_json(c.as_str()?).map_err(|e| e.to_string())?),
            None => None,
        };
        let outcome = match root.get_opt("outcome") {
            Some(o) => Some(JobOutcome {
                verdict: o.get("verdict")?.as_str()?.to_string(),
                solutions: o.get("solutions")?.as_usize()?,
                sites: o.get("sites")?.as_usize()?,
                solutions_fp: o.get("solutions_fp")?.as_u64()?,
                detail: o.get("detail")?.as_str()?.to_string(),
            }),
            None => None,
        };
        Ok(SpoolRecord {
            id: root.get("id")?.as_u64()?,
            tenant: root.get("tenant")?.as_str()?.to_string(),
            spec: JobSpec::from_json(root.get("spec")?)?,
            state: JobState::from_tag(root.get("state")?.as_str()?)?,
            nodes: root.get("nodes")?.as_u64()?,
            slices: root.get("slices")?.as_u64()?,
            fingerprint: root.get("fingerprint")?.as_u64()?,
            checkpoint,
            outcome,
            repairs: root.get("repairs")?.as_u64()?,
        })
    }
}

/// What a startup scan found.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Every parsable record, sorted by job id.
    pub records: Vec<SpoolRecord>,
    /// Files that failed to parse and were renamed to `*.quarantined`.
    pub quarantined: Vec<String>,
}

/// The spool directory handle.
pub struct Spool {
    dir: PathBuf,
    chaos: Option<Arc<ChaosState>>,
}

impl Spool {
    /// Opens (creating if needed) the spool directory.
    ///
    /// # Errors
    ///
    /// If the directory cannot be created.
    pub fn open(dir: &Path, chaos: Option<Arc<ChaosState>>) -> Result<Spool, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Spool {
            dir: dir.to_path_buf(),
            chaos,
        })
    }

    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id}.json"))
    }

    /// Durably writes `rec`, atomically (temp file, fsync, rename and a
    /// directory fsync; see [`atomic_write_line`]), then reads the file
    /// back and re-parses it. If the read-back fails — a chaos-injected
    /// tear, or real media trouble — the clean line is rewritten from
    /// memory and the repair is reported as a
    /// [`DegradationKind::CheckpointRepair`] event (1:1 with injected
    /// faults).
    ///
    /// # Errors
    ///
    /// Only if the filesystem refuses both attempts.
    pub fn write(&self, rec: &SpoolRecord) -> Result<Option<DegradationEvent>, String> {
        let path = self.path_of(rec.id);
        let write_line = |line: &str| {
            atomic_write_line(&path, line).map_err(|e| format!("{}: {e}", path.display()))
        };
        let mut line = rec.to_json();
        if let Some(chaos) = &self.chaos {
            chaos.maybe_corrupt_checkpoint(&mut line);
        }
        write_line(&line)?;
        // Read-back validation: the spool must never leave a record it
        // cannot itself recover from.
        let damaged = match std::fs::read_to_string(&path) {
            Ok(text) => SpoolRecord::from_json(text.trim_end_matches(['\n', '\r'])).is_err(),
            Err(_) => true,
        };
        if damaged {
            write_line(&rec.to_json())?;
            return Ok(Some(DegradationEvent::new(
                DegradationKind::CheckpointRepair,
                1,
                format!("spool record for job {} torn on write; rewritten", rec.id),
            )));
        }
        Ok(None)
    }

    /// Removes a job's record (used only by tests and explicit cleanup;
    /// terminal records are kept so clients can query them after a
    /// restart).
    pub fn remove(&self, id: u64) {
        let _ = std::fs::remove_file(self.path_of(id));
    }

    /// Moves a job's record aside as `*.quarantined` (called when a
    /// record parses but fails the fingerprint guard at resume time).
    /// Returns the quarantined file name.
    pub fn quarantine(&self, id: u64) -> String {
        let path = self.path_of(id);
        let target = quarantine_name(&path);
        let _ = std::fs::rename(&path, &target);
        target
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// Scans the directory: every `job-*.json` is parsed; failures are
    /// quarantined and reported. Never panics, whatever the bytes.
    pub fn scan(&self) -> ScanReport {
        let mut report = ScanReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return report,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with("job-") || !name.ends_with(".json") {
                continue;
            }
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    SpoolRecord::from_json(text.trim_end_matches(['\n', '\r']))
                        .map_err(|e| e.to_string())
                });
            match parsed {
                Ok(rec) => report.records.push(rec),
                Err(_) => {
                    let target = quarantine_name(&path);
                    let _ = std::fs::rename(&path, &target);
                    report.quarantined.push(name);
                }
            }
        }
        report.records.sort_by_key(|r| r.id);
        report
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn quarantine_name(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".quarantined");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Model, Source};
    use incdx_core::{ChaosConfig, CHECKPOINT_VERSION};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incdx-spool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(id: u64) -> SpoolRecord {
        SpoolRecord {
            id,
            tenant: "t1".to_string(),
            spec: JobSpec {
                source: Source::Suite("c432a".to_string()),
                model: Model::Dedc,
                k: 1,
                vectors: 64,
                seed: 5,
                max_nodes: None,
                deadline_ms: None,
            },
            state: JobState::Waiting,
            nodes: 120,
            slices: 3,
            fingerprint: 0xfeed,
            checkpoint: Some(Checkpoint {
                version: CHECKPOINT_VERSION,
                label: "serve/c432a/k1/t5".to_string(),
                trial_seed: 5,
                vectors: 64,
                base_gates: 10,
                base_hash: 0xfeed,
                level: 0,
                phase: 0,
                iterations: 2,
                plan: vec![],
                plan_pos: 0,
                nodes: vec![],
                visited: vec![],
                solutions: vec![],
            }),
            outcome: None,
            repairs: 0,
        }
    }

    #[test]
    fn record_round_trips_with_embedded_checkpoint() {
        let rec = record(7);
        let back = SpoolRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        let mut terminal = record(8);
        terminal.state = JobState::Done;
        terminal.checkpoint = None;
        terminal.outcome = Some(JobOutcome {
            verdict: "exact".to_string(),
            solutions: 2,
            sites: 3,
            solutions_fp: 99,
            detail: String::new(),
        });
        let back = SpoolRecord::from_json(&terminal.to_json()).unwrap();
        assert_eq!(back, terminal);
    }

    #[test]
    fn write_is_atomic_and_scan_recovers() {
        let dir = tmpdir("atomic");
        let spool = Spool::open(&dir, None).unwrap();
        assert!(spool.write(&record(1)).unwrap().is_none());
        assert!(spool.write(&record(2)).unwrap().is_none());
        assert!(
            !dir.join("job-1.json.tmp").exists(),
            "temp file must not survive"
        );
        let report = spool.scan();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].id, 1);
        assert!(report.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_files_are_quarantined_not_trusted() {
        let dir = tmpdir("torn");
        let spool = Spool::open(&dir, None).unwrap();
        spool.write(&record(1)).unwrap();
        // A torn copy of a legitimate record, and pure garbage.
        let line = record(2).to_json();
        std::fs::write(dir.join("job-2.json"), &line[..line.len() / 2]).unwrap();
        std::fs::write(dir.join("job-3.json"), "}} definitely not json").unwrap();
        let report = spool.scan();
        assert_eq!(report.records.len(), 1, "only the intact record survives");
        assert_eq!(report.quarantined.len(), 2);
        assert!(dir.join("job-2.json.quarantined").exists());
        assert!(!dir.join("job-2.json").exists());
        // A re-scan is clean: quarantined files are out of the way.
        assert!(spool.scan().quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_tear_is_repaired_with_one_event_per_fault() {
        let dir = tmpdir("chaos");
        let chaos = ChaosState::new(ChaosConfig { seed: 3, rate: 1.0 });
        let spool = Spool::open(&dir, Some(Arc::clone(&chaos))).unwrap();
        let mut repairs = 0u64;
        for i in 0..8 {
            if let Some(event) = spool.write(&record(i)).unwrap() {
                assert_eq!(event.kind, DegradationKind::CheckpointRepair);
                repairs += event.count;
            }
        }
        let injected = chaos.summary().checkpoint_corruptions;
        assert!(injected > 0, "rate 1.0 must inject");
        assert_eq!(repairs, injected, "1:1 fault-to-repair accounting");
        // After repair, every record is readable.
        let report = spool.scan();
        assert_eq!(report.records.len(), 8);
        assert!(report.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_quarantine_moves_the_file() {
        let dir = tmpdir("explicit");
        let spool = Spool::open(&dir, None).unwrap();
        spool.write(&record(4)).unwrap();
        let name = spool.quarantine(4);
        assert_eq!(name, "job-4.json.quarantined");
        assert!(spool.scan().records.is_empty());
        spool.remove(4); // no-op on a quarantined id, must not panic
        std::fs::remove_dir_all(&dir).ok();
    }
}
