//! Observability lints: dead cones (`NL004`) and floating or degenerate
//! primary outputs (`NL005`).

use incdx_netlist::{DenseBitSet, GateId, GateKind, Netlist};

use crate::diagnostic::{wire_name, Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// `NL004`: gates unreachable from every primary output.
///
/// Reachability is computed backward from the output list, crossing DFF
/// fanin edges (state that eventually feeds an output is observable over
/// multiple cycles, and under full scan every flip-flop is a
/// pseudo-output anyway). An unused primary input is only an advisory —
/// benchmarks routinely carry spare pins — but unreachable *logic* can
/// never influence any measured response, so faults inside it are
/// undiagnosable and the area is wasted.
pub struct DeadCone;

impl Lint for DeadCone {
    fn code(&self) -> LintCode {
        LintCode::DeadCone
    }

    fn description(&self) -> &'static str {
        "gate unreachable from every primary output"
    }

    fn max_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let n = netlist.len();
        if n == 0 {
            return;
        }
        let mut live = DenseBitSet::new(n);
        let mut stack: Vec<GateId> = Vec::new();
        for &o in netlist.outputs() {
            if o.index() < n && live.insert(o.index()) {
                stack.push(o);
            }
        }
        while let Some(g) = stack.pop() {
            for &f in netlist.gate(g).fanins() {
                if f.index() < n && live.insert(f.index()) {
                    stack.push(f);
                }
            }
        }
        for (id, gate) in netlist.iter() {
            if live.contains(id.index()) {
                continue;
            }
            if gate.kind() == GateKind::Input {
                out.push(Diagnostic::at(
                    LintCode::DeadCone,
                    Severity::Info,
                    netlist,
                    id,
                    format!(
                        "primary input `{}` drives no primary output",
                        wire_name(netlist, id)
                    ),
                    "remove the unused input or connect it",
                ));
            } else {
                out.push(Diagnostic::at(
                    LintCode::DeadCone,
                    Severity::Warning,
                    netlist,
                    id,
                    format!(
                        "gate `{}` is unreachable from every primary output",
                        wire_name(netlist, id)
                    ),
                    "delete the dead cone or route it to an output",
                ));
            }
        }
    }
}

/// `NL005`: floating or degenerate primary outputs — an empty output
/// list (nothing is observable at all), an output that is a bare primary
/// input or constant (no logic between pin and pad), or the same line
/// listed as an output more than once.
pub struct FloatingOutput;

impl Lint for FloatingOutput {
    fn code(&self) -> LintCode {
        LintCode::FloatingOutput
    }

    fn description(&self) -> &'static str {
        "floating or degenerate primary output list"
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let n = netlist.len();
        if netlist.outputs().is_empty() {
            out.push(Diagnostic::global(
                LintCode::FloatingOutput,
                Severity::Error,
                "netlist declares no primary outputs; no line is observable",
                "declare at least one OUTPUT",
            ));
            return;
        }
        let mut seen = DenseBitSet::new(n);
        for &o in netlist.outputs() {
            if o.index() >= n {
                continue; // NL002's finding.
            }
            if !seen.insert(o.index()) {
                out.push(Diagnostic::at(
                    LintCode::FloatingOutput,
                    Severity::Info,
                    netlist,
                    o,
                    format!(
                        "line `{}` is listed as a primary output more than once",
                        wire_name(netlist, o)
                    ),
                    "drop the duplicate OUTPUT declaration",
                ));
                continue;
            }
            match netlist.gate(o).kind() {
                GateKind::Const0 | GateKind::Const1 => {
                    out.push(Diagnostic::at(
                        LintCode::FloatingOutput,
                        Severity::Warning,
                        netlist,
                        o,
                        format!(
                            "primary output `{}` is a constant and carries no information",
                            wire_name(netlist, o)
                        ),
                        "drive the output from logic or remove it",
                    ));
                }
                _ => {}
            }
        }
    }
}
