//! `NL011`: lines that reach primary outputs structurally but whose
//! value changes are provably invisible at every one of them.
//!
//! Dead cones (`NL004`) catch lines with *no* structural path to any
//! output. This lint catches the subtler case: a path exists, but every
//! path is blocked by a constant side-input — re-propagating ternary
//! constants with the line forced to an unknown value
//! ([`incdx_analysis::observable_changes`]) pins every downstream gate
//! to the same constant it held before. No input assignment can ever
//! distinguish the line's value at an output, so a fault on it is
//! statically untestable and the diagnosis engine can never implicate
//! or repair it.

use incdx_analysis::{observable_changes, Constants, PoReach};
use incdx_netlist::Netlist;

use crate::diagnostic::{wire_name, Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// `NL011`: statically unobservable (untestable) line.
pub struct UnobservableLine;

impl Lint for UnobservableLine {
    fn code(&self) -> LintCode {
        LintCode::UnobservableLine
    }

    fn description(&self) -> &'static str {
        "line reaches outputs but constant side-inputs block every path"
    }

    fn max_severity(&self) -> Severity {
        Severity::Info
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        // Cyclic structures are NL001's finding; the fixed-point facts
        // below are only meaningful on a DAG.
        if !netlist.is_acyclic() {
            return;
        }
        let consts = Constants::compute(netlist);
        // Fast path: with no proven-constant line anywhere, observability
        // equals reachability, and reach-empty lines are NL004's finding.
        if consts.const_lines() == 0 {
            return;
        }
        let reach = PoReach::compute(netlist);
        for id in netlist.ids() {
            if reach.reach(id).is_empty() {
                continue; // NL004 (dead cone) already reports these.
            }
            let cone = netlist.fanout_cone_sorted(id);
            if observable_changes(netlist, &consts, id, &cone).is_empty() {
                out.push(Diagnostic::at(
                    LintCode::UnobservableLine,
                    Severity::Info,
                    netlist,
                    id,
                    format!(
                        "line `{}` reaches primary outputs but no change on it is \
                         observable: constant side-inputs block every path",
                        wire_name(netlist, id)
                    ),
                    "faults here are statically untestable; simplify the blocking constant logic",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::{GateKind, NetlistBuilder};

    fn run(netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        UnobservableLine.check(netlist, &mut out);
        out
    }

    #[test]
    fn input_masked_by_constant_is_flagged() {
        // a only reaches the output through AND(a, 0), which is pinned.
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let c0 = b.add_gate(GateKind::Const0, vec![]);
        let g = b.add_gate(GateKind::And, vec![a, c0]);
        b.add_output(g);
        let n = b.build().expect("valid");
        let out = run(&n);
        assert!(
            out.iter().any(|d| d.gate == Some(a)),
            "masked input must be flagged: {out:?}"
        );
        // The PO driver itself is observable (it *is* the output).
        assert!(out.iter().all(|d| d.gate != Some(g)));
        assert!(out.iter().all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn constant_free_netlist_is_clean() {
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let x = b.add_input("x");
        let g = b.add_gate(GateKind::Nand, vec![a, x]);
        b.add_output(g);
        let n = b.build().expect("valid");
        assert!(run(&n).is_empty());
    }

    #[test]
    fn observable_despite_other_constants_is_clean() {
        // The constant feeds an OR identity: a stays observable.
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let c0 = b.add_gate(GateKind::Const0, vec![]);
        let g = b.add_gate(GateKind::Or, vec![a, c0]);
        b.add_output(g);
        let n = b.build().expect("valid");
        assert!(run(&n).iter().all(|d| d.gate != Some(a)));
    }
}
