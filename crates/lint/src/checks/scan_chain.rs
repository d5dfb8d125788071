//! `NL009`: full-scan consistency for sequential netlists.
//!
//! The paper's sequential flow assumes *full scan*: every flip-flop is
//! directly loadable and observable through the scan chain, which is
//! what lets `scan_convert` treat each DFF output as a pseudo primary
//! input and each DFF data input as a pseudo primary output. Two shapes
//! break that assumption in practice and this lint reports both:
//!
//! * a flip-flop whose data-input cone is constant — the scan cell can
//!   be *loaded* with either value but every functional capture writes
//!   the same bit, so capture cycles carry no information through it;
//! * a flip-flop whose output reaches neither a primary output nor any
//!   flip-flop data input — its state is captured by nothing and the
//!   pseudo-input created for it during scan conversion is dead weight.

use incdx_netlist::{DenseBitSet, GateId, GateKind, Netlist};
use incdx_sim::logic5::V3;

use crate::checks::xregion::propagate_x;
use crate::diagnostic::{wire_name, Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// `NL009`: scan-chain consistency (constant loads, unobservable state).
pub struct ScanChain;

impl Lint for ScanChain {
    fn code(&self) -> LintCode {
        LintCode::ScanChain
    }

    fn description(&self) -> &'static str {
        "full-scan consistency: constant flip-flop loads, unobservable state"
    }

    fn max_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let dffs = netlist.dffs();
        if dffs.is_empty() {
            return;
        }
        let n = netlist.len();
        let values = propagate_x(netlist);
        for &d in &dffs {
            let Some(&data) = netlist.gate(d).fanins().first() else {
                continue; // Arity violation, NL007's finding.
            };
            if data.index() < n && values[data.index()] != V3::X {
                let bit = if values[data.index()] == V3::One {
                    1
                } else {
                    0
                };
                out.push(Diagnostic::at(
                    LintCode::ScanChain,
                    Severity::Warning,
                    netlist,
                    d,
                    format!(
                        "flip-flop `{}` always captures the constant {bit}",
                        wire_name(netlist, d)
                    ),
                    "replace the flip-flop with the constant or fix its data cone",
                ));
            }
        }
        // Forward reachability from each DFF output, stopping at DFF
        // readers (the next scan cell observes the value) and primary
        // outputs. Shared visited set is not possible — observability is
        // per-source — but one BFS per DFF over the fanout graph keeps
        // this linear in practice (DFF counts are small next to gates).
        let po: DenseBitSet = {
            let mut s = DenseBitSet::new(n);
            for &o in netlist.outputs() {
                if o.index() < n {
                    s.insert(o.index());
                }
            }
            s
        };
        for &d in &dffs {
            if !observable(netlist, d, &po) {
                out.push(Diagnostic::at(
                    LintCode::ScanChain,
                    Severity::Warning,
                    netlist,
                    d,
                    format!(
                        "state of flip-flop `{}` reaches no primary output and no flip-flop",
                        wire_name(netlist, d)
                    ),
                    "route the state somewhere observable or drop the flip-flop",
                ));
            }
        }
    }
}

/// Does `from`'s value reach a primary output or any flip-flop data
/// input through combinational logic?
fn observable(netlist: &Netlist, from: GateId, po: &DenseBitSet) -> bool {
    let n = netlist.len();
    let mut visited = DenseBitSet::new(n);
    let mut stack = vec![from];
    visited.insert(from.index());
    while let Some(g) = stack.pop() {
        if po.contains(g.index()) {
            return true;
        }
        for &r in netlist.fanouts(g) {
            if netlist.gate(r).kind() == GateKind::Dff {
                // A flip-flop captures the value: observable on the next
                // scan-out (do not traverse through the sequential edge).
                if r != from {
                    return true;
                }
                continue;
            }
            if visited.insert(r.index()) {
                stack.push(r);
            }
        }
    }
    false
}
