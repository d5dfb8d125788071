//! Output helpers: percentiles, `/proc` readings, the result line and
//! the determinism ledger.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Linear-interpolated percentile (`p` in 0..=1) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// User+system CPU seconds of process `pid` (`"self"` for this one),
/// all threads, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("stat field {i} missing"))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Clock ticks per second in `/proc/<pid>/stat`: Linux has reported 100
/// to user space on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// A `key:   N kB` field of `/proc/<pid>/status`, in bytes.
pub fn status_bytes(pid: &str, key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("{key} missing from /proc/{pid}/status"))
}

/// The `write_bytes` field of `/proc/<pid>/io` (bytes sent to storage).
pub fn write_bytes(pid: &str) -> Result<u64, String> {
    let io = std::fs::read_to_string(format!("/proc/{pid}/io"))
        .map_err(|e| format!("/proc/{pid}/io: {e}"))?;
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("write_bytes missing from /proc/{pid}/io"))
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The benchmark's result line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The machine-independent record of one diagnosis or job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Case label.
    pub label: String,
    /// Decision-tree nodes.
    pub nodes: u64,
    /// Packed words simulated.
    pub words: u64,
    /// Corrections screened.
    pub screened: u64,
    /// Solution-set fingerprint.
    pub fp: u64,
}

impl LedgerEntry {
    fn line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:016x}",
            self.label, self.nodes, self.words, self.screened, self.fp
        )
    }

    fn parse(line: &str) -> Option<LedgerEntry> {
        let mut f = line.split('\t');
        Some(LedgerEntry {
            label: f.next()?.to_string(),
            nodes: f.next()?.parse().ok()?,
            words: f.next()?.parse().ok()?,
            screened: f.next()?.parse().ok()?,
            fp: u64::from_str_radix(f.next()?, 16).ok()?,
        })
    }
}

/// Checks `entries` against themselves (a label seen twice must repeat
/// its counts) and against the ledger file from earlier runs of the same
/// workload and seed, then stores the union.
///
/// # Errors
///
/// The first disagreement, or a ledger that cannot be written.
pub fn check_ledger(path: &Path, entries: &[LedgerEntry]) -> Result<(), String> {
    let mut known: BTreeMap<String, LedgerEntry> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for entry in text.lines().filter_map(LedgerEntry::parse) {
            known.insert(entry.label.clone(), entry);
        }
    }
    for entry in entries {
        match known.get(&entry.label) {
            Some(prev) if prev != entry => {
                return Err(format!(
                    "determinism: {} differs from an earlier run ({} vs {})",
                    entry.label,
                    entry.line(),
                    prev.line()
                ))
            }
            Some(_) => {}
            None => {
                known.insert(entry.label.clone(), entry.clone());
            }
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut text = String::new();
    for entry in known.values() {
        text.push_str(&entry.line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
