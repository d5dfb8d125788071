//! `NL010`: netlists whose fanout-free-cone abstraction is degenerate.
//!
//! Two-level hierarchical diagnosis (`RectifyConfig::hierarchical`)
//! leans on [`Abstraction::build`] collapsing fanout-free regions into
//! super-gates; when nothing (or almost nothing) collapses, phase 1
//! diagnoses a netlist the same size as the concrete one and the engine
//! falls back to flat search — the mode is pure overhead. The lint
//! surfaces that ahead of time as an advisory, so harnesses can drop
//! `--hierarchical` for such circuits instead of discovering the
//! fallback in the run telemetry.

use incdx_netlist::{Abstraction, GateKind, Netlist};

use crate::diagnostic::{Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// Logic-gate count below which hierarchical diagnosis is pointless
/// anyway (the flat search is already cheap), so the lint stays quiet.
const MIN_LOGIC_GATES: usize = 64;

/// Collapse ratio (abstract gates / concrete gates) at or above which an
/// abstraction is reported as having no useful leverage even when a few
/// super-gates formed.
const NEAR_DEGENERATE_RATIO: f64 = 0.99;

/// `NL010`: the fanout-free-cone abstraction collapses (almost) nothing,
/// so hierarchical diagnosis degrades to the flat engine.
pub struct DegenerateAbstraction;

impl Lint for DegenerateAbstraction {
    fn code(&self) -> LintCode {
        LintCode::DegenerateAbstraction
    }

    fn description(&self) -> &'static str {
        "abstraction with no leverage: hierarchical diagnosis would fall back to flat search"
    }

    fn max_severity(&self) -> Severity {
        Severity::Info
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let logic = netlist.iter().filter(|(_, g)| g.kind().is_logic()).count();
        if logic < MIN_LOGIC_GATES {
            return;
        }
        // `Abstraction::build` assumes a structurally sound netlist
        // (valid topo order, in-range fanins); the hazardous structures
        // admitted by `from_parts_unchecked` are NL001/NL002/NL007
        // territory, not this lint's.
        let sound = netlist.is_acyclic()
            && !netlist.outputs().is_empty()
            && netlist.outputs().iter().all(|o| o.index() < netlist.len())
            && netlist
                .iter()
                .all(|(_, g)| g.fanins().iter().all(|f| f.index() < netlist.len()))
            && netlist.iter().all(|(_, g)| match g.kind() {
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => true,
                GateKind::Not | GateKind::Buf => g.fanins().len() == 1,
                _ => !g.fanins().is_empty(),
            });
        if !sound {
            return;
        }
        let abs = Abstraction::build(netlist);
        let ratio = abs.map().collapse_ratio();
        if abs.is_degenerate() {
            out.push(Diagnostic::global(
                LintCode::DegenerateAbstraction,
                Severity::Info,
                format!(
                    "no fanout-free region collapses into a super-gate \
                     ({logic} logic gates, collapse ratio 1.00)"
                ),
                "run diagnosis flat: hierarchical mode would fall back after building the map",
            ));
        } else if ratio >= NEAR_DEGENERATE_RATIO {
            out.push(Diagnostic::global(
                LintCode::DegenerateAbstraction,
                Severity::Info,
                format!(
                    "abstraction leverage is negligible: {} super-gates over \
                     {logic} logic gates (collapse ratio {ratio:.2})",
                    abs.map().super_gates()
                ),
                "prefer flat diagnosis: phase 1 would search a netlist as large as the concrete one",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use incdx_netlist::expand_xor_to_nand;

    use super::*;

    fn run(netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        DegenerateAbstraction.check(netlist, &mut out);
        out
    }

    #[test]
    fn parity_tree_has_leverage_and_lints_clean() {
        let n = incdx_gen::parity_tree(128);
        assert!(run(&n).is_empty());
    }

    #[test]
    fn nand_expanded_parity_is_flagged_as_info() {
        // XOR→NAND expansion introduces internal multi-fanout everywhere,
        // so fanout-free cones stop collapsing.
        let n = expand_xor_to_nand(&incdx_gen::parity_tree(128)).unwrap();
        let out = run(&n);
        assert_eq!(out.len(), 1, "expected one finding, got {out:?}");
        assert_eq!(out[0].code, LintCode::DegenerateAbstraction);
        assert_eq!(out[0].severity, Severity::Info);
        assert_eq!(out[0].gate, None);
    }

    #[test]
    fn small_netlists_stay_quiet() {
        let n =
            incdx_netlist::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        assert!(run(&n).is_empty());
    }

    #[test]
    fn hazardous_structures_are_skipped_without_panicking() {
        use incdx_netlist::{Gate, GateId};
        // 70 logic gates whose fanins point out of range — NL002's
        // business; this lint must stay total and silent.
        let gates: Vec<Gate> = (0..70)
            .map(|_| Gate::new(GateKind::And, vec![GateId(900), GateId(901)]))
            .collect();
        let n = Netlist::from_parts_unchecked(gates, Vec::new(), vec![GateId(0)]);
        assert!(run(&n).is_empty());
    }
}
