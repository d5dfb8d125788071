//! The lint driver: the [`Lint`] trait, the registry of built-in
//! analyses, [`lint_netlist`], the one-call entry point, and
//! [`lint_errors`], the pre-flight subset that can block a run.

use incdx_netlist::Netlist;

use crate::checks;
use crate::diagnostic::{Diagnostic, LintCode, Severity};

/// One static analysis over a netlist.
///
/// Implementations must tolerate *arbitrary* structures — including the
/// hazardous ones admitted by [`Netlist::from_parts_unchecked`] (cycles,
/// out-of-range fanins, empty output lists) — without panicking: a lint
/// that crashes on the very netlists it exists to report is useless.
pub trait Lint {
    /// The stable code every diagnostic from this lint carries.
    fn code(&self) -> LintCode;

    /// One-line description of what the analysis looks for.
    fn description(&self) -> &'static str;

    /// The most severe level this lint ever reports. [`lint_errors`]
    /// skips every lint whose maximum is below [`Severity::Error`].
    fn max_severity(&self) -> Severity {
        Severity::Error
    }

    /// Runs the analysis, appending findings to `out`.
    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>);
}

/// All built-in analyses, in code order.
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(checks::structure::CombinationalCycle),
        Box::new(checks::structure::UndrivenWire),
        Box::new(checks::names::MultiDrivenWire),
        Box::new(checks::reach::DeadCone),
        Box::new(checks::reach::FloatingOutput),
        Box::new(checks::names::ShadowedName),
        Box::new(checks::structure::ArityViolation),
        Box::new(checks::xregion::ConstantRegion),
        Box::new(checks::scan_chain::ScanChain),
        Box::new(checks::abstraction::DegenerateAbstraction),
        Box::new(checks::observability::UnobservableLine),
        Box::new(checks::redundant::RedundantGate),
    ]
}

/// Runs every registered lint over `netlist` and returns the findings
/// sorted most-severe first (ties broken by code, then anchor gate id).
pub fn lint_netlist(netlist: &Netlist) -> Vec<Diagnostic> {
    run(netlist, registry())
}

/// The [`Severity::Error`] findings of [`lint_netlist`], in its order,
/// from only the lints that can report an error — the rectifier's
/// pre-flight, which the advisory analyses never block.
pub fn lint_errors(netlist: &Netlist) -> Vec<Diagnostic> {
    let lints = registry()
        .into_iter()
        .filter(|l| l.max_severity() == Severity::Error);
    let mut out = run(netlist, lints);
    out.retain(|d| d.severity == Severity::Error);
    out
}

fn run(netlist: &Netlist, lints: impl IntoIterator<Item = Box<dyn Lint>>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for lint in lints {
        let before = out.len();
        lint.check(netlist, &mut out);
        debug_assert!(
            out[before..]
                .iter()
                .all(|d| d.code == lint.code() && d.severity <= lint.max_severity()),
            "lint {} emitted a foreign code or exceeded its severity",
            lint.code()
        );
    }
    out.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.code.cmp(&b.code))
            .then(a.gate.map(|g| g.index()).cmp(&b.gate.map(|g| g.index())))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::ALL_CODES;

    #[test]
    fn registry_covers_every_code_exactly_once() {
        let codes: Vec<LintCode> = registry().iter().map(|l| l.code()).collect();
        assert_eq!(codes.len(), ALL_CODES.len());
        for code in ALL_CODES {
            assert_eq!(codes.iter().filter(|&&c| c == code).count(), 1, "{code}");
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        for lint in registry() {
            assert!(!lint.description().is_empty(), "{}", lint.code());
        }
    }

    #[test]
    fn clean_netlist_lints_clean() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
        let n = incdx_netlist::parse_bench(src).unwrap();
        assert!(lint_netlist(&n).is_empty());
    }
}
