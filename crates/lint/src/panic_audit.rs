//! Source-level audit: no panicking constructs in first-party non-test
//! code.
//!
//! This replaces the old `awk`/`grep` gate in `scripts/verify.sh`, which
//! had two defects: it only covered `incdx-core`, and it stopped
//! scanning a file at the *first* `#[cfg(test)]` occurrence — everything
//! after an early test module (including non-test code) went unchecked.
//! This scanner tracks `#[cfg(test)]` items by brace balance and resumes
//! scanning after each one, so interleaved test/non-test code is audited
//! correctly.
//!
//! Policy is tiered:
//!
//! * **strict** paths (the `incdx-core` engine) must be free of every
//!   panicking construct — `.unwrap(`, `.expect(`, `panic!(`,
//!   `unreachable!(`, `todo!(`, `unimplemented!(`, `dbg!(` — because the
//!   engine's contract is typed errors, never aborts;
//! * every other first-party crate may use targeted panics (generators
//!   and benches assert on internal invariants) but must never ship
//!   `todo!(`, `unimplemented!(`, or leftover `dbg!(` calls;
//! * `catch_unwind(` is denied in strict paths *except* at the two
//!   sanctioned boundaries ([`UNWIND_SANCTIONED`]) — panic isolation
//!   lives in `run_parallel_with`'s workers and the serve daemon's
//!   per-job slice boundary, and swallowing panics anywhere else in
//!   the engine would hide real bugs from the recovery accounting.
//!
//! A line ending in a `panic-audit: allow` comment is exempt; use it for
//! deliberate, reviewed exceptions.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Constructs denied everywhere in first-party non-test code.
pub const BASE_DENY: &[&str] = &["todo!(", "unimplemented!(", "dbg!("]; // panic-audit: allow

/// Additional constructs denied in strict (engine) paths.
pub const STRICT_DENY: &[&str] = &[".unwrap(", ".expect(", "panic!(", "unreachable!("]; // panic-audit: allow

/// Denied in strict paths outside the two sanctioned boundaries
/// ([`UNWIND_SANCTIONED`]): panic isolation is their job alone.
pub const UNWIND_DENY: &[&str] = &["catch_unwind("];

/// Strict-path files allowed to use `catch_unwind(` — the two
/// boundaries where panic isolation is implemented and every recovery
/// is counted into the run's telemetry: the parallel screening workers
/// (`run_parallel_with`) and the serve daemon's per-job slice boundary
/// (a panicking job fails alone and increments `panics_isolated`).
pub const UNWIND_SANCTIONED: &[&str] =
    &["crates/core/src/parallel.rs", "crates/serve/src/server.rs"];

/// Repo-relative source roots audited under the strict policy: the
/// engine itself, the optimizer pre-pass that feeds it (a panic in
/// a function-preserving rewrite must degrade to a no-op, not take a
/// diagnosis run down), and the static substrates that read arbitrary
/// netlists — the constant and reachability analyses behind the NL011
/// and NL012 lints, and the SCOAP/collapsing passes behind traversal
/// seeding and fault-class reporting. The serve daemon is held to the
/// same bar: a long-running multi-tenant process whose contract is
/// typed rejections and degradations, never aborts.
pub const STRICT_ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/opt/src",
    "crates/analysis/src",
    "crates/atpg/src",
    "crates/serve/src",
];

/// Repo-relative source roots audited under the base policy. `bin/` and
/// example code live under the same roots and are held to the same bar.
pub const BASE_ROOTS: &[&str] = &[
    "crates/netlist/src",
    "crates/sim/src",
    "crates/fault/src",
    "crates/gen/src",
    "crates/bench/src",
    "crates/lint/src",
    "src",
];

/// The opt-out marker; putting it in a trailing comment exempts a line.
pub const ALLOW_MARKER: &str = "panic-audit: allow";

/// One disallowed construct found in non-test code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The construct that matched.
    pub construct: &'static str,
    /// The offending line, trimmed.
    pub text: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: `{}` in non-test code: {}",
            self.path.display(),
            self.line,
            self.construct,
            self.text
        )
    }
}

/// Audits every first-party source root under `repo_root`, returning all
/// violations sorted by path and line.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading sources.
pub fn audit_workspace(repo_root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for (roots, strict) in [(STRICT_ROOTS, true), (BASE_ROOTS, false)] {
        for rel in roots {
            let root = repo_root.join(rel);
            if !root.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&root, &mut files)?;
            files.sort();
            for file in files {
                let src = fs::read_to_string(&file)?;
                let rel_path = file.strip_prefix(repo_root).unwrap_or(&file).to_path_buf();
                let deny = deny_for(strict, &rel_path);
                for (line, construct, text) in scan_source_with(&src, &deny) {
                    violations.push(Violation {
                        path: rel_path.clone(),
                        line,
                        construct,
                        text,
                    });
                }
            }
        }
    }
    violations.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Ok(violations)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The deny list applying to one repo-relative file under the given
/// tier: strict paths add the panicking constructs and — outside the
/// sanctioned worker boundary — `catch_unwind(`.
pub fn deny_for(strict: bool, rel_path: &Path) -> Vec<&'static str> {
    let mut deny: Vec<&'static str> = BASE_DENY.to_vec();
    if strict {
        deny.extend(STRICT_DENY);
        let normalized: String = rel_path
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if !UNWIND_SANCTIONED.contains(&normalized.as_str()) {
            deny.extend(UNWIND_DENY);
        }
    }
    deny
}

/// Scans one source file under the path-independent tier policy (no
/// `catch_unwind` sanctioning — use [`scan_source_with`] and
/// [`deny_for`] when the file's path is known).
pub fn scan_source(src: &str, strict: bool) -> Vec<(usize, &'static str, String)> {
    // Strict paths deny the base set too.
    let strict_deny: Vec<&'static str> = STRICT_DENY.iter().chain(BASE_DENY).copied().collect();
    let deny: &[&'static str] = if strict { &strict_deny } else { BASE_DENY };
    scan_source_with(src, deny)
}

/// Scans one source file against an explicit deny list, returning
/// `(line, construct, text)` for every denied construct outside
/// `#[cfg(test)]` items.
pub fn scan_source_with(src: &str, deny: &[&'static str]) -> Vec<(usize, &'static str, String)> {
    #[derive(Clone, Copy)]
    enum Mode {
        /// Auditing normal code.
        Code,
        /// Saw `#[cfg(test)]`; waiting for the item's opening brace (or a
        /// `;` meaning a braceless item like `mod tests;`).
        AwaitItem,
        /// Inside a `#[cfg(test)]` item at the given brace depth.
        Skipping(i64),
    }
    /// Transition for a line that follows (or contains) `#[cfg(test)]`
    /// but has not yet committed to a brace-delimited item.
    fn await_or_skip(code: &str, stay: Mode) -> Mode {
        if code.contains('{') {
            let depth = brace_delta(code);
            if depth > 0 {
                Mode::Skipping(depth)
            } else {
                // The whole item opened and closed on this line.
                Mode::Code
            }
        } else if code.contains(';') {
            // `#[cfg(test)] mod tests;` — nothing inline to skip.
            Mode::Code
        } else {
            stay
        }
    }

    let mut mode = Mode::Code;
    let mut found = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        // Strip line comments before both matching and brace counting;
        // doc-comment examples legitimately use `.unwrap()`.
        let code = match raw.find("//") {
            Some(i) => &raw[..i],
            None => raw,
        };
        match mode {
            Mode::Code => {
                if code.trim_start().starts_with("#[cfg(test)]") {
                    // The attribute and item (possibly the whole item)
                    // may share the line: `#[cfg(test)] mod t { .. }`.
                    mode = await_or_skip(code, Mode::AwaitItem);
                    continue;
                }
                if raw.contains(ALLOW_MARKER) {
                    continue;
                }
                for &construct in deny {
                    if code.contains(construct) {
                        found.push((idx + 1, construct, raw.trim().to_string()));
                    }
                }
            }
            Mode::AwaitItem => {
                mode = await_or_skip(code, Mode::AwaitItem);
            }
            Mode::Skipping(depth) => {
                let depth = depth + brace_delta(code);
                mode = if depth <= 0 {
                    Mode::Code
                } else {
                    Mode::Skipping(depth)
                };
            }
        }
    }
    found
}

/// Net brace depth change of a line, ignoring braces inside string and
/// char literals well enough for real-world Rust (escaped quotes and
/// `'{'` literals are handled; raw strings with unbalanced braces are
/// not, and none exist in this workspace).
fn brace_delta(code: &str) -> i64 {
    let mut delta = 0i64;
    let mut chars = code.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                let _ = chars.next();
            }
            '"' => in_str = !in_str,
            '\'' if !in_str => {
                // Char literal or lifetime; consume a possible `'x'`.
                if let Some(&n) = chars.peek() {
                    if n == '\\' {
                        let _ = chars.next();
                        let _ = chars.next();
                        if chars.peek() == Some(&'\'') {
                            let _ = chars.next();
                        }
                    } else if chars.clone().nth(1) == Some('\'') {
                        let _ = chars.next();
                        let _ = chars.next();
                    }
                }
            }
            '{' if !in_str => delta += 1,
            '}' if !in_str => delta -= 1,
            _ => {}
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_in_strict_code() {
        let src = "fn f() {\n    let x = y.unwrap();\n}\n";
        let found = scan_source(src, true);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 2);
        assert_eq!(found[0].1, ".unwrap(");
    }

    #[test]
    fn base_tier_allows_unwrap_but_not_todo() {
        let src = "fn f() {\n    let x = y.unwrap();\n    todo!()\n}\n";
        let found = scan_source(src, false);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, "todo!(");
    }

    #[test]
    fn test_modules_are_skipped_and_scanning_resumes_after() {
        // The old awk gate stopped at the first `#[cfg(test)]` forever;
        // the construct *after* the test module must still be caught.
        let src = "\
fn a() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
fn b() { y.unwrap(); }
";
        let found = scan_source(src, true);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 7, "only the post-module line is flagged");
    }

    #[test]
    fn multiple_test_modules_are_each_skipped() {
        let src = "\
#[cfg(test)]
mod t1 { fn a() { x.unwrap(); } }
fn live() { b.unwrap(); }
#[cfg(test)]
mod t2 { fn c() { d.unwrap(); } }
fn live2() { e.unwrap(); }
";
        let found = scan_source(src, true);
        let lines: Vec<usize> = found.iter().map(|f| f.0).collect();
        assert_eq!(lines, vec![3, 6]);
    }

    #[test]
    fn comments_and_allow_marker_are_exempt() {
        let src = "\
// x.unwrap() in a comment is fine
/// doc example: x.unwrap()
fn f() { x.unwrap(); } // panic-audit: allow
";
        assert!(scan_source(src, true).is_empty());
    }

    #[test]
    fn braces_in_strings_do_not_confuse_the_skipper() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { let s = \"}\"; }
    fn u() { x.unwrap(); }
}
fn live() { y.unwrap(); }
";
        let found = scan_source(src, true);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 6);
    }

    #[test]
    fn braceless_test_item_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { y.unwrap(); }\n";
        let found = scan_source(src, true);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 3);
    }

    #[test]
    fn catch_unwind_denied_outside_sanctioned_boundary() {
        let engine_file = Path::new("crates/core/src/session.rs");
        let worker_file = Path::new("crates/core/src/parallel.rs");
        let retired_file = Path::new("crates/core/src/dispatch.rs");
        let base_file = Path::new("crates/bench/src/lib.rs");
        assert!(deny_for(true, engine_file).contains(&"catch_unwind("));
        assert!(!deny_for(true, worker_file).contains(&"catch_unwind("));
        assert!(
            deny_for(true, retired_file).contains(&"catch_unwind("),
            "a deleted worker loop's path is no longer a sanctioned boundary"
        );
        let serve_file = Path::new("crates/serve/src/server.rs");
        let serve_other = Path::new("crates/serve/src/spool.rs");
        assert!(
            !deny_for(true, serve_file).contains(&"catch_unwind("),
            "the daemon's slice boundary is the second sanctioned boundary"
        );
        assert!(
            deny_for(true, serve_other).contains(&"catch_unwind("),
            "only server.rs is sanctioned in the serve crate"
        );
        assert!(!deny_for(false, base_file).contains(&"catch_unwind("));

        let src = "fn f() {\n    let r = std::panic::catch_unwind(|| work());\n}\n";
        let found = scan_source_with(src, &deny_for(true, engine_file));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, "catch_unwind(");
        assert!(scan_source_with(src, &deny_for(true, worker_file)).is_empty());
    }

    #[test]
    fn char_literal_braces_are_ignored() {
        assert_eq!(brace_delta("let c = '{';"), 0);
        assert_eq!(brace_delta("fn f() {"), 1);
        assert_eq!(brace_delta("format!(\"{{x}}\")"), 0);
    }
}
