//! `NL008`: regions that cannot carry an X — constant logic under
//! 3-valued propagation.
//!
//! The engine's 5-valued D-calculus (see `incdx_sim::logic5`) factors
//! into a good-machine and a faulty-machine 3-valued component. Driving
//! every controllable line (primary inputs, scan flip-flop outputs) to X
//! and propagating forward partitions the netlist into *X-capable* lines
//! — those an input assignment can still steer — and lines that evaluate
//! to a constant no matter what. A fault effect (`D`/`D̄`) can never be
//! excited on a constant line, so the diagnosis engine is structurally
//! blind inside such a region; the lint surfaces them as advisories.

use incdx_netlist::{GateKind, Netlist};
use incdx_sim::logic5::V3;

use crate::diagnostic::{wire_name, Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// `NL008`: logic whose output is constant under 3-valued propagation
/// with all controllable lines at X.
pub struct ConstantRegion;

impl Lint for ConstantRegion {
    fn code(&self) -> LintCode {
        LintCode::ConstantRegion
    }

    fn description(&self) -> &'static str {
        "logic that is constant under 3-valued propagation (not X-capable)"
    }

    fn max_severity(&self) -> Severity {
        Severity::Info
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let values = propagate_x(netlist);
        for (id, gate) in netlist.iter() {
            if !gate.kind().is_logic() {
                continue;
            }
            let v = values[id.index()];
            if v == V3::X {
                continue;
            }
            let masked = gate
                .fanins()
                .iter()
                .any(|f| f.index() < netlist.len() && values[f.index()] == V3::X);
            let bit = if v == V3::One { 1 } else { 0 };
            let message = if masked {
                format!(
                    "gate `{}` always evaluates to {bit}: a constant fanin masks its X-capable inputs",
                    wire_name(netlist, id)
                )
            } else {
                format!(
                    "gate `{}` always evaluates to {bit}: its entire fanin cone is constant",
                    wire_name(netlist, id)
                )
            };
            out.push(Diagnostic::at(
                LintCode::ConstantRegion,
                Severity::Info,
                netlist,
                id,
                message,
                "faults here cannot be excited; simplify the constant logic away",
            ));
        }
    }
}

/// Propagates 3-valued values in topological order: primary inputs and
/// flip-flop outputs are X (controllable / unknown), constants are their
/// values, and logic folds its fanins. Out-of-range fanins and gates on
/// combinational cycles (possible via `from_parts_unchecked`) read the X
/// default, so the pass is total on hazardous structures.
pub fn propagate_x(netlist: &Netlist) -> Vec<V3> {
    let n = netlist.len();
    let mut values = vec![V3::X; n];
    for &id in netlist.topo_order() {
        let gate = netlist.gate(id);
        let v = match gate.kind() {
            GateKind::Input | GateKind::Dff => V3::X,
            GateKind::Const0 => V3::Zero,
            GateKind::Const1 => V3::One,
            kind => {
                let mut fanins = gate.fanins().iter().map(|f| {
                    if f.index() < n {
                        values[f.index()]
                    } else {
                        V3::X
                    }
                });
                match kind {
                    GateKind::Not => fanins.next().unwrap_or(V3::X).not(),
                    GateKind::And => fanins.fold(V3::One, V3::and),
                    GateKind::Nand => fanins.fold(V3::One, V3::and).not(),
                    GateKind::Or => fanins.fold(V3::Zero, V3::or),
                    GateKind::Nor => fanins.fold(V3::Zero, V3::or).not(),
                    GateKind::Xor => fanins.fold(V3::Zero, V3::xor),
                    GateKind::Xnor => fanins.fold(V3::Zero, V3::xor).not(),
                    // Buf, plus the non-logic kinds handled above (kept
                    // total so `from_parts_unchecked` structures with
                    // surprising shapes still evaluate).
                    _ => fanins.next().unwrap_or(V3::X),
                }
            }
        };
        values[id.index()] = v;
    }
    values
}
