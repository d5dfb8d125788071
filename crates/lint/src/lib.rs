//! Static analysis for the `incdx` workspace.
//!
//! Two halves live here:
//!
//! * **Netlist lints** — structural analyses over [`incdx_netlist::Netlist`]
//!   that catch hazards *before* simulation: combinational cycles, undriven
//!   and multi-driven wires, dead cones, floating outputs, shadowed names,
//!   arity violations, constant (non-X-capable) regions, and full-scan
//!   consistency. Each finding is a [`Diagnostic`] with a stable `NLxxx`
//!   code, a severity, a circuit location, and a fix hint; the rectifier's
//!   pre-flight ([`lint_errors`], which runs only the lints that can report
//!   an error) rejects any netlist carrying a [`Severity::Error`] finding.
//! * **Source audits** — the [`panic_audit`] scanner that keeps panicking
//!   constructs out of first-party non-test code, backing both the
//!   `panic_audit` binary `scripts/verify.sh` runs and an in-tree test.
//!
//! # Example
//!
//! ```
//! use incdx_lint::{LintCode, LintExt, Severity};
//!
//! // A 2-gate combinational loop: u = AND(v, a), v = OR(u, a).
//! use incdx_netlist::{Gate, GateId, GateKind, Netlist};
//! let gates = vec![
//!     Gate::new(GateKind::Input, vec![]),
//!     Gate::new(GateKind::And, vec![GateId(2), GateId(0)]),
//!     Gate::new(GateKind::Or, vec![GateId(1), GateId(0)]),
//! ];
//! let n = Netlist::from_parts_unchecked(gates, vec![None; 3], vec![GateId(1)]);
//! let findings = n.lint();
//! assert!(findings
//!     .iter()
//!     .any(|d| d.code == LintCode::CombinationalCycle && d.severity == Severity::Error));
//! ```

mod checks;
mod diagnostic;
mod engine;
mod ext;
pub mod panic_audit;

pub use checks::xregion::propagate_x;
pub use diagnostic::{Diagnostic, LintCode, Severity, ALL_CODES};
pub use engine::{lint_errors, lint_netlist, registry, Lint};
pub use ext::LintExt;
