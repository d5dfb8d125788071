//! The structured diagnostic every lint produces: a stable code, a
//! severity, an optional circuit location, and a fix hint.

use std::fmt;

use incdx_netlist::{GateId, Netlist, NetlistError};

/// How bad a finding is.
///
/// Ordered so that `Info < Warning < Error`; the rectifier pre-flight
/// rejects netlists with any [`Severity::Error`] diagnostic, while
/// warnings and advisories are reported but do not block a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: worth knowing, never blocks anything (e.g. a constant
    /// region the generators produce on purpose).
    Info,
    /// Suspicious structure that simulates deterministically but usually
    /// indicates a netlist capture mistake.
    Warning,
    /// A hazard that makes simulation results undefined or wrong; the
    /// engine refuses to diagnose such a netlist.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON and human-readable output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identifier of a lint analysis.
///
/// Codes are append-only: a code never changes meaning once released,
/// so `--deny NLxxx` pins behave across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `NL000` — the input could not be parsed at all (binary-level code;
    /// no registry analysis emits it).
    ParseError,
    /// `NL001` — combinational cycle (strongly connected component over
    /// combinational edges).
    CombinationalCycle,
    /// `NL002` — a fanin or output references a line no gate drives.
    UndrivenWire,
    /// `NL003` — two gates declare the same wire name (two drivers).
    MultiDrivenWire,
    /// `NL004` — gate unreachable from every primary output (dead cone).
    DeadCone,
    /// `NL005` — floating/degenerate primary output list.
    FloatingOutput,
    /// `NL006` — a declared name shadows another line's synthetic name,
    /// or collides with another name case-insensitively.
    ShadowedName,
    /// `NL007` — fanin count outside the gate kind's arity range.
    ArityViolation,
    /// `NL008` — region that cannot carry an X under 3-valued propagation
    /// (constant/input-masked logic; fault effects cannot be excited).
    ConstantRegion,
    /// `NL009` — full-scan consistency: a flip-flop with a constant load
    /// cone or with unobservable state.
    ScanChain,
    /// `NL010` — fanout-free-cone abstraction with no leverage: two-level
    /// hierarchical diagnosis would fall back to the flat engine.
    DegenerateAbstraction,
    /// `NL011` — a line that structurally reaches primary outputs but
    /// whose value changes are provably invisible at every one of them
    /// (constant side-inputs block every sensitization path); faults
    /// there are statically untestable.
    UnobservableLine,
    /// `NL012` — a gate provably equivalent to (the complement of) a
    /// single fanin by static implication: every other fanin is a proven
    /// constant at the gate's identity element, or all fanins are the
    /// same line.
    RedundantGate,
}

/// Every registry-backed code, in code order. [`LintCode::ParseError`] is
/// deliberately absent: it is emitted by tooling when parsing fails, not
/// by an analysis over a parsed netlist.
pub const ALL_CODES: [LintCode; 12] = [
    LintCode::CombinationalCycle,
    LintCode::UndrivenWire,
    LintCode::MultiDrivenWire,
    LintCode::DeadCone,
    LintCode::FloatingOutput,
    LintCode::ShadowedName,
    LintCode::ArityViolation,
    LintCode::ConstantRegion,
    LintCode::ScanChain,
    LintCode::DegenerateAbstraction,
    LintCode::UnobservableLine,
    LintCode::RedundantGate,
];

impl LintCode {
    /// The stable `NLxxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::ParseError => "NL000",
            LintCode::CombinationalCycle => "NL001",
            LintCode::UndrivenWire => "NL002",
            LintCode::MultiDrivenWire => "NL003",
            LintCode::DeadCone => "NL004",
            LintCode::FloatingOutput => "NL005",
            LintCode::ShadowedName => "NL006",
            LintCode::ArityViolation => "NL007",
            LintCode::ConstantRegion => "NL008",
            LintCode::ScanChain => "NL009",
            LintCode::DegenerateAbstraction => "NL010",
            LintCode::UnobservableLine => "NL011",
            LintCode::RedundantGate => "NL012",
        }
    }

    /// A short kebab-case name for human-readable listings.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::ParseError => "parse-error",
            LintCode::CombinationalCycle => "combinational-cycle",
            LintCode::UndrivenWire => "undriven-wire",
            LintCode::MultiDrivenWire => "multi-driven-wire",
            LintCode::DeadCone => "dead-cone",
            LintCode::FloatingOutput => "floating-output",
            LintCode::ShadowedName => "shadowed-name",
            LintCode::ArityViolation => "arity-violation",
            LintCode::ConstantRegion => "constant-region",
            LintCode::ScanChain => "scan-chain",
            LintCode::DegenerateAbstraction => "degenerate-abstraction",
            LintCode::UnobservableLine => "unobservable-line",
            LintCode::RedundantGate => "redundant-gate",
        }
    }

    /// Parses a `NLxxx` code string (case-insensitive).
    pub fn parse(s: &str) -> Option<LintCode> {
        let up = s.to_ascii_uppercase();
        [LintCode::ParseError]
            .into_iter()
            .chain(ALL_CODES)
            .find(|c| c.as_str() == up)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from one lint: what, how bad, where, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable analysis code.
    pub code: LintCode,
    /// How bad the finding is.
    pub severity: Severity,
    /// The gate/line the finding anchors to, if it has one.
    pub gate: Option<GateId>,
    /// The anchored line's declared name (or `n<id>` synthetic name).
    pub wire: Option<String>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// A concrete suggestion for repairing the netlist.
    pub hint: String,
}

impl Diagnostic {
    /// Builds a diagnostic anchored at `gate`, resolving its wire name
    /// from the netlist (synthetic `n<id>` when unnamed).
    pub fn at(
        code: LintCode,
        severity: Severity,
        netlist: &Netlist,
        gate: GateId,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            gate: Some(gate),
            wire: Some(wire_name(netlist, gate)),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Builds a diagnostic about the netlist as a whole (no anchor gate).
    pub fn global(
        code: LintCode,
        severity: Severity,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            gate: None,
            wire: None,
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Maps a [`NetlistError`] from a validating constructor or the
    /// `.bench` parser onto the equivalent diagnostic, so tooling can
    /// report construction failures in the same structured stream as
    /// lint findings.
    pub fn from_netlist_error(err: &NetlistError) -> Diagnostic {
        let (code, gate) = match err {
            NetlistError::ParseBench { .. } => (LintCode::ParseError, None),
            NetlistError::CombinationalCycle { gate } => {
                (LintCode::CombinationalCycle, Some(*gate))
            }
            NetlistError::DanglingFanin { gate, .. } | NetlistError::DanglingOutput { gate } => {
                (LintCode::UndrivenWire, Some(*gate))
            }
            NetlistError::BadArity { gate, .. } => (LintCode::ArityViolation, Some(*gate)),
            NetlistError::NoOutputs => (LintCode::FloatingOutput, None),
            _ => (LintCode::ParseError, None),
        };
        Diagnostic {
            code,
            severity: Severity::Error,
            gate,
            wire: gate.map(|g| format!("n{}", g.index())),
            message: err.to_string(),
            hint: "fix the netlist source and re-parse".into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if let Some(w) = &self.wire {
            write!(f, " {w}:")?;
        }
        write!(f, " {}", self.message)?;
        if !self.hint.is_empty() {
            write!(f, " (hint: {})", self.hint)?;
        }
        Ok(())
    }
}

/// The display name of a line: its declared name, else `n<id>`.
pub(crate) fn wire_name(netlist: &Netlist, id: GateId) -> String {
    netlist
        .name(id)
        .map(str::to_string)
        .unwrap_or_else(|| format!("n{}", id.index()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn codes_are_stable_and_parse_back() {
        for code in [LintCode::ParseError].into_iter().chain(ALL_CODES) {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
            assert_eq!(LintCode::parse(&code.as_str().to_lowercase()), Some(code));
        }
        assert_eq!(LintCode::parse("NL999"), None);
        assert_eq!(LintCode::CombinationalCycle.as_str(), "NL001");
        assert_eq!(LintCode::ScanChain.as_str(), "NL009");
    }

    #[test]
    fn netlist_error_maps_to_codes() {
        let e = NetlistError::NoOutputs;
        assert_eq!(
            Diagnostic::from_netlist_error(&e).code,
            LintCode::FloatingOutput
        );
        let e = NetlistError::ParseBench {
            line: 3,
            reason: "x".into(),
        };
        assert_eq!(
            Diagnostic::from_netlist_error(&e).code,
            LintCode::ParseError
        );
    }
}
