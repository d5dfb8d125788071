//! `NL012`: gates provably equivalent to (the complement of) a single
//! fanin by static implication.
//!
//! Two proofs are used, both purely structural:
//!
//! * **Implied identity** — ternary constant propagation
//!   ([`incdx_analysis::Constants`]) proves every fanin but one constant
//!   while the gate itself still varies. For AND/OR families the
//!   surviving constants are then necessarily the identity element (a
//!   controlling constant would pin the whole gate — `NL008`'s finding),
//!   so the gate is a buffer or inverter of the one varying fanin. For
//!   XOR/XNOR the parity of the constant ones decides the polarity.
//! * **Duplicate fanins** — AND/OR of the same line repeated is that
//!   line; NAND/NOR is its complement.
//!
//! Either way the gate adds no logic: the netlist simulates and
//! diagnoses identically with the gate replaced by a wire (or an
//! inverter), and every candidate correction on it aliases one on its
//! surviving fanin.

use incdx_analysis::{Constants, Ternary};
use incdx_netlist::{GateId, GateKind, Netlist};

use crate::diagnostic::{wire_name, Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// `NL012`: provably redundant gate (wire-equivalent by implication).
pub struct RedundantGate;

impl Lint for RedundantGate {
    fn code(&self) -> LintCode {
        LintCode::RedundantGate
    }

    fn description(&self) -> &'static str {
        "gate provably equivalent to (the complement of) one fanin"
    }

    fn max_severity(&self) -> Severity {
        Severity::Info
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        if !netlist.is_acyclic() {
            return;
        }
        let n = netlist.len();
        let consts = Constants::compute(netlist);
        for (id, gate) in netlist.iter() {
            let kind = gate.kind();
            if !kind.is_logic() || gate.fanins().len() < 2 {
                continue;
            }
            let fanins = gate.fanins();
            if fanins.iter().any(|f| f.index() >= n) {
                continue; // NL002's finding.
            }
            // Duplicate-fanin proof: AND/OR(a, a, …) ≡ a, NAND/NOR ≡ ¬a.
            if fanins.windows(2).all(|w| w[0] == w[1]) {
                let inverted = match kind {
                    GateKind::And | GateKind::Or => false,
                    GateKind::Nand | GateKind::Nor => true,
                    _ => continue, // XOR parity depends on arity; skip.
                };
                push(
                    out,
                    netlist,
                    id,
                    fanins[0],
                    inverted,
                    "all fanins are the same line",
                );
                continue;
            }
            // Implied-identity proof: exactly one fanin still varies and
            // the gate itself is not pinned (a pinned gate is NL008).
            if consts.value(id).constant().is_some() {
                continue;
            }
            let mut varying = fanins
                .iter()
                .filter(|f| consts.value(**f).constant().is_none());
            let (Some(&survivor), None) = (varying.next(), varying.next()) else {
                continue;
            };
            let const_ones = fanins
                .iter()
                .filter(|&&f| consts.value(f) == Ternary::Const1)
                .count();
            let inverted = match kind {
                GateKind::And | GateKind::Or => false,
                GateKind::Nand | GateKind::Nor => true,
                GateKind::Xor => const_ones % 2 == 1,
                GateKind::Xnor => const_ones % 2 == 0,
                _ => continue,
            };
            push(
                out,
                netlist,
                id,
                survivor,
                inverted,
                "every other fanin is a proven constant at the identity",
            );
        }
    }
}

fn push(
    out: &mut Vec<Diagnostic>,
    netlist: &Netlist,
    id: GateId,
    survivor: GateId,
    inverted: bool,
    why: &str,
) {
    let relation = if inverted {
        "the complement of"
    } else {
        "equal to"
    };
    out.push(Diagnostic::at(
        LintCode::RedundantGate,
        Severity::Info,
        netlist,
        id,
        format!(
            "gate `{}` is provably {relation} `{}`: {why}",
            wire_name(netlist, id),
            wire_name(netlist, survivor),
        ),
        if inverted {
            "replace the gate with an inverter of the surviving fanin"
        } else {
            "replace the gate with a wire to the surviving fanin"
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::NetlistBuilder;

    fn run(netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        RedundantGate.check(netlist, &mut out);
        out
    }

    #[test]
    fn and_with_const1_side_is_redundant() {
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let c1 = b.add_gate(GateKind::Const1, vec![]);
        let g = b.add_named_gate(GateKind::And, vec![a, c1], "g");
        b.add_output(g);
        let n = b.build().expect("valid");
        let out = run(&n);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("equal to `a`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn xor_parity_decides_polarity() {
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let c1 = b.add_gate(GateKind::Const1, vec![]);
        let g = b.add_named_gate(GateKind::Xor, vec![a, c1], "g");
        b.add_output(g);
        let n = b.build().expect("valid");
        let out = run(&n);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("the complement of `a`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn duplicate_fanins_are_redundant() {
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let g = b.add_named_gate(GateKind::Nor, vec![a, a], "g");
        b.add_output(g);
        let n = b.build().expect("valid");
        let out = run(&n);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("the complement of `a`"));
    }

    #[test]
    fn genuine_two_input_logic_is_clean() {
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let x = b.add_input("x");
        let g = b.add_gate(GateKind::And, vec![a, x]);
        b.add_output(g);
        let n = b.build().expect("valid");
        assert!(run(&n).is_empty());
    }

    #[test]
    fn controlling_constant_is_not_reported_here() {
        // AND with a Const0 side is pinned — NL008's finding, not NL012.
        let mut b = NetlistBuilder::new();
        let a = b.add_input("a");
        let c0 = b.add_gate(GateKind::Const0, vec![]);
        let g = b.add_gate(GateKind::And, vec![a, c0]);
        b.add_output(g);
        let n = b.build().expect("valid");
        assert!(run(&n).is_empty());
    }
}
