//! Workspace lint driver: run the `incdx-lint` analyses over `.bench`
//! files and/or the generated benchmark suite.
//!
//! ```text
//! cargo run -p incdx-bench --bin lint -- [FILES...] [--suite] [--json]
//!     [--deny error|warning|info|NLxxx]...
//! ```
//!
//! Each positional argument is parsed as an ISCAS-89 `.bench` file; a
//! parse failure is itself reported as an `NL000` diagnostic rather
//! than aborting the sweep. `--suite` appends every `incdx-gen` suite
//! circuit (s-circuits are linted as generated, *and* as their
//! full-scan cores, labelled `<name>/scan-core`). `--json` switches the
//! human layout for one JSON line per target (schema in
//! `EXPERIMENTS.md`); `--deny` makes findings fatal — by severity
//! (`error` denies `error` and above, `warning` denies `warning` and
//! above) or by individual code (`NL004`). The exit code is 0 when no
//! denied finding exists, 1 otherwise, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use incdx_core::json::Json;
use incdx_core::json_obj;
use incdx_lint::{lint_netlist, Diagnostic, LintCode, LintExt, Severity};

/// One `--deny` selector.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Deny {
    /// Deny findings at or above a severity.
    AtLeast(Severity),
    /// Deny one specific code.
    Code(LintCode),
}

impl Deny {
    fn matches(self, d: &Diagnostic) -> bool {
        match self {
            Deny::AtLeast(s) => d.severity >= s,
            Deny::Code(c) => d.code == c,
        }
    }
}

struct LintArgs {
    files: Vec<PathBuf>,
    suite: bool,
    json: bool,
    codes: bool,
    deny: Vec<Deny>,
}

fn parse_args<I: IntoIterator<Item = String>>(iter: I) -> Result<LintArgs, String> {
    let mut args = LintArgs {
        files: Vec::new(),
        suite: false,
        json: false,
        codes: false,
        deny: Vec::new(),
    };
    let mut it = iter.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--suite" => args.suite = true,
            "--json" => args.json = true,
            "--codes" => args.codes = true,
            "--deny" => {
                let v = it.next().ok_or("missing value for --deny")?;
                let spec = match v.to_ascii_lowercase().as_str() {
                    "error" => Deny::AtLeast(Severity::Error),
                    "warning" | "warn" => Deny::AtLeast(Severity::Warning),
                    "info" => Deny::AtLeast(Severity::Info),
                    _ => Deny::Code(
                        LintCode::parse(&v)
                            .ok_or_else(|| format!("unknown --deny selector `{v}`"))?,
                    ),
                };
                args.deny.push(spec);
            }
            "--help" | "-h" => {
                return Err("usage: lint [FILES...] [--suite] [--json] [--codes] \
                     [--deny error|warning|info|NLxxx]..."
                    .to_string())
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}` (try --help)"))
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if args.files.is_empty() && !args.suite && !args.codes {
        return Err("nothing to lint: pass .bench files, --suite, or --codes".to_string());
    }
    Ok(args)
}

/// Prints every registered `NLxxx` code with its kebab-case name and
/// one-line description. `NL000` is listed first by hand: it is emitted
/// by tooling on parse failure, not by a registry analysis.
fn emit_codes() {
    println!("NL000 parse-error: the input could not be parsed at all");
    for lint in incdx_lint::registry() {
        let code = lint.code();
        println!("{} {}: {}", code.as_str(), code.name(), lint.description());
    }
}

/// Lints one target, already resolved to diagnostics.
struct TargetReport {
    label: String,
    diagnostics: Vec<Diagnostic>,
}

fn lint_file(path: &PathBuf) -> TargetReport {
    let label = path.display().to_string();
    let diagnostics = match std::fs::read_to_string(path) {
        Ok(text) => match incdx_netlist::parse_bench(&text) {
            Ok(netlist) => netlist.lint(),
            Err(e) => vec![Diagnostic::from_netlist_error(&e)],
        },
        Err(e) => vec![Diagnostic::global(
            LintCode::ParseError,
            Severity::Error,
            format!("cannot read `{label}`: {e}"),
            "check the path and permissions",
        )],
    };
    TargetReport { label, diagnostics }
}

fn lint_suite() -> Vec<TargetReport> {
    let mut out = Vec::new();
    for spec in incdx_gen::SUITE {
        let netlist = match incdx_gen::generate(spec.name) {
            Ok(n) => n,
            Err(e) => {
                out.push(TargetReport {
                    label: spec.name.to_string(),
                    diagnostics: vec![Diagnostic::global(
                        LintCode::ParseError,
                        Severity::Error,
                        format!("suite circuit failed to generate: {e}"),
                        "fix the generator",
                    )],
                });
                continue;
            }
        };
        let combinational = netlist.is_combinational();
        out.push(TargetReport {
            label: spec.name.to_string(),
            diagnostics: lint_netlist(&netlist),
        });
        if !combinational {
            if let Ok((core, _)) = incdx_netlist::scan_convert(&netlist) {
                out.push(TargetReport {
                    label: format!("{}/scan-core", spec.name),
                    diagnostics: lint_netlist(&core),
                });
            }
        }
    }
    out
}

/// One diagnostic as a JSON object (schema in `EXPERIMENTS.md`).
fn diagnostic_json(d: &Diagnostic) -> Json {
    json_obj! {
        "code": d.code.as_str(), "name": d.code.name(), "severity": d.severity.as_str(),
        "gate": d.gate.map(|g| g.index()), "wire": d.wire.as_deref(), "message": &d.message,
        "hint": &d.hint,
    }
}

/// One target's `--json` line.
fn target_json(t: &TargetReport) -> Json {
    json_obj! {
        "report": "lint", "target": &t.label, "findings": t.diagnostics.len(),
        "diagnostics": Json::arr(t.diagnostics.iter().map(diagnostic_json)),
    }
}

fn emit_human(t: &TargetReport) {
    if t.diagnostics.is_empty() {
        println!("{}: clean", t.label);
        return;
    }
    println!("{}: {} finding(s)", t.label, t.diagnostics.len());
    for d in &t.diagnostics {
        println!("  {d}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.codes {
        emit_codes();
        if args.files.is_empty() && !args.suite {
            return ExitCode::SUCCESS;
        }
    }
    let mut targets: Vec<TargetReport> = args.files.iter().map(lint_file).collect();
    if args.suite {
        targets.extend(lint_suite());
    }
    let mut denied = 0usize;
    for t in &targets {
        if args.json {
            println!("{}", target_json(t));
        } else {
            emit_human(t);
        }
        denied += t
            .diagnostics
            .iter()
            .filter(|d| args.deny.iter().any(|spec| spec.matches(d)))
            .count();
    }
    if denied > 0 {
        eprintln!("lint: {denied} denied finding(s)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<LintArgs, String> {
        parse_args(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_files_and_flags() {
        let a = parse(&["a.bench", "--suite", "--json", "--deny", "error"]).unwrap();
        assert_eq!(a.files, vec![PathBuf::from("a.bench")]);
        assert!(a.suite && a.json);
        assert_eq!(a.deny, vec![Deny::AtLeast(Severity::Error)]);
    }

    #[test]
    fn deny_accepts_codes_and_severities() {
        let a = parse(&["--suite", "--deny", "NL004", "--deny", "warning"]).unwrap();
        assert_eq!(
            a.deny,
            vec![
                Deny::Code(LintCode::DeadCone),
                Deny::AtLeast(Severity::Warning)
            ]
        );
        assert!(parse(&["--suite", "--deny", "bogus"]).is_err());
    }

    #[test]
    fn empty_invocation_is_a_usage_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--json"]).is_err());
    }

    #[test]
    fn codes_flag_needs_no_targets_and_covers_every_code() {
        let a = parse(&["--codes"]).unwrap();
        assert!(a.codes && a.files.is_empty() && !a.suite);
        // Every registry code resolves a name and description for the
        // listing, and the registry covers ALL_CODES exactly.
        let registry = incdx_lint::registry();
        assert_eq!(registry.len(), incdx_lint::ALL_CODES.len());
        for lint in &registry {
            assert!(!lint.description().is_empty());
            assert!(lint.code().as_str().starts_with("NL"));
        }
    }

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::global(
            LintCode::FloatingOutput,
            Severity::Error,
            "netlist declares no \"outputs\"",
            "add OUTPUT(...)",
        );
        assert_eq!(
            diagnostic_json(&d).to_string(),
            "{\"code\":\"NL005\",\"name\":\"floating-output\",\"severity\":\"error\",\
             \"gate\":null,\"wire\":null,\"message\":\"netlist declares no \\\"outputs\\\"\",\
             \"hint\":\"add OUTPUT(...)\"}"
        );
        let anchored =
            Diagnostic::from_netlist_error(&incdx_netlist::NetlistError::DanglingOutput {
                gate: incdx_netlist::GateId::from_index(4),
            });
        let j = diagnostic_json(&anchored).to_string();
        assert!(j.contains("\"gate\":4,\"wire\":\"n4\""), "{j}");
    }

    #[test]
    fn target_labels_are_escaped() {
        let t = TargetReport {
            label: "dir\twith\ttabs/new\nline \"quoted\".bench".to_string(),
            diagnostics: vec![Diagnostic::global(
                LintCode::ParseError,
                Severity::Error,
                "m",
                "h",
            )],
        };
        let line = target_json(&t).to_string();
        assert!(!line.contains('\n') && !line.contains('\t'), "{line}");
        let back = incdx_core::json::parse(&line).unwrap();
        assert_eq!(back.get("target").unwrap().as_str(), Ok(t.label.as_str()));
        assert_eq!(back.get("findings").unwrap().as_u64(), Ok(1));
    }

    #[test]
    fn deny_matching_honours_severity_order() {
        let d = Diagnostic::global(LintCode::DeadCone, Severity::Warning, "m", "h");
        assert!(Deny::AtLeast(Severity::Info).matches(&d));
        assert!(Deny::AtLeast(Severity::Warning).matches(&d));
        assert!(!Deny::AtLeast(Severity::Error).matches(&d));
        assert!(Deny::Code(LintCode::DeadCone).matches(&d));
        assert!(!Deny::Code(LintCode::ScanChain).matches(&d));
    }
}
