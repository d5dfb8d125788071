//! Property tests of the lint engine: every generated suite circuit
//! lints clean, and every class of injected structural mutation maps to
//! its expected lint code.

use incdx_lint::{lint_errors, Diagnostic, LintCode, LintExt, Severity};
use incdx_netlist::{Gate, GateId, GateKind, Netlist};
use proptest::prelude::*;

/// "Clean" for the suite: no warnings, no errors (advisories allowed —
/// a generator may legitimately emit constant stubs).
fn assert_clean(name: &str, diags: &[Diagnostic]) {
    let bad: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .collect();
    assert!(bad.is_empty(), "{name} should lint clean, got {bad:?}");
}

/// The full run's error findings, in its order: what the pre-flight
/// entry [`lint_errors`] must return, so `IncdxError::Lint` carries the
/// same payload whichever entry produced it.
fn errors_of(n: &Netlist) -> Vec<Diagnostic> {
    n.lint()
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

#[test]
fn every_suite_circuit_lints_clean() {
    for spec in incdx_gen::SUITE {
        let n = incdx_gen::generate(spec.name).expect("suite circuit generates");
        assert_clean(spec.name, &n.lint());
        assert_eq!(lint_errors(&n), errors_of(&n), "{}", spec.name);
        if !n.is_combinational() {
            let (core, _) = incdx_netlist::scan_convert(&n).expect("suite scan-converts");
            assert_clean(&format!("{}/scan-core", spec.name), &core.lint());
            assert_eq!(lint_errors(&core), errors_of(&core), "{}", spec.name);
        }
    }
}

/// Raw parts of a suite circuit, ready for mutation.
fn parts(name: &str) -> (Vec<Gate>, Vec<Option<String>>, Vec<GateId>) {
    let n = incdx_gen::generate(name).expect("suite circuit generates");
    let gates: Vec<Gate> = n.ids().map(|id| n.gate(id).clone()).collect();
    let names: Vec<Option<String>> = n.ids().map(|id| n.name(id).map(str::to_string)).collect();
    (gates, names, n.outputs().to_vec())
}

fn codes(n: &Netlist) -> Vec<LintCode> {
    n.lint().into_iter().map(|d| d.code).collect()
}

/// Every mutation strategy below picks a random victim gate inside one
/// of the smaller combinational suite circuits.
const MUTATION_HOSTS: &[&str] = &["c17", "c432a", "c880a"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dropping a driver (re-pointing a fanin past the end of the gate
    /// list) triggers `NL002`.
    #[test]
    fn dropped_driver_triggers_undriven_wire(
        host in prop::sample::select(MUTATION_HOSTS.to_vec()),
        pick in 0usize..10_000,
    ) {
        let (mut gates, names, outputs) = parts(host);
        let victims: Vec<usize> = (0..gates.len())
            .filter(|&i| !gates[i].fanins().is_empty())
            .collect();
        let v = victims[pick % victims.len()];
        let missing = GateId::from_index(gates.len() + 7);
        let mut fanins = gates[v].fanins().to_vec();
        let slot = pick % fanins.len();
        fanins[slot] = missing;
        gates[v] = Gate::new(gates[v].kind(), fanins);
        let n = Netlist::from_parts_unchecked(gates, names, outputs);
        prop_assert!(codes(&n).contains(&LintCode::UndrivenWire));
        prop_assert_eq!(lint_errors(&n), errors_of(&n));
    }

    /// Adding a back-edge (a fanin pointing into the gate's own fanout
    /// cone) closes a combinational loop and triggers `NL001`.
    #[test]
    fn injected_back_edge_triggers_cycle(
        host in prop::sample::select(MUTATION_HOSTS.to_vec()),
        pick in 0usize..10_000,
    ) {
        let (mut gates, names, outputs) = parts(host);
        let original = Netlist::from_parts_unchecked(gates.clone(), names.clone(), outputs.clone());
        // Pick a logic gate and wire one of its fanins to a gate that
        // (transitively) reads it: any strictly-later gate in topo order
        // within its fanout cone. Simplest robust choice: its own output.
        let victims: Vec<usize> = (0..gates.len())
            .filter(|&i| {
                gates[i].kind().is_logic()
                    && original
                        .fanouts(GateId::from_index(i))
                        .iter()
                        .any(|r| original.gate(*r).kind() != GateKind::Dff)
            })
            .collect();
        let v = victims[pick % victims.len()];
        let reader = original.fanouts(GateId::from_index(v))
            .iter()
            .copied()
            .find(|r| original.gate(*r).kind() != GateKind::Dff)
            .expect("victim chosen to have a combinational reader");
        // reader already reads v; now make v read reader: a 2-cycle.
        let mut fanins = gates[v].fanins().to_vec();
        let slot = pick % fanins.len();
        fanins[slot] = reader;
        gates[v] = Gate::new(gates[v].kind(), fanins);
        let n = Netlist::from_parts_unchecked(gates, names, outputs);
        prop_assert!(!n.is_acyclic());
        prop_assert!(codes(&n).contains(&LintCode::CombinationalCycle));
        prop_assert_eq!(lint_errors(&n), errors_of(&n));
    }

    /// Widening a fixed-arity gate (NOT/BUF with an extra fanin)
    /// triggers `NL007`.
    #[test]
    fn widened_gate_triggers_arity_violation(
        host in prop::sample::select(MUTATION_HOSTS.to_vec()),
        pick in 0usize..10_000,
    ) {
        let (mut gates, names, outputs) = parts(host);
        let victims: Vec<usize> = (0..gates.len())
            .filter(|&i| matches!(gates[i].kind(), GateKind::Not | GateKind::Buf))
            .collect();
        // Every mutation host contains inverters; if a future host does
        // not, widen an Input instead (0-arity violation).
        let (v, extra) = if victims.is_empty() {
            (0, GateId::from_index(0))
        } else {
            let v = victims[pick % victims.len()];
            (v, gates[v].fanins()[0])
        };
        let mut fanins = gates[v].fanins().to_vec();
        fanins.push(extra);
        gates[v] = Gate::new(gates[v].kind(), fanins);
        let n = Netlist::from_parts_unchecked(gates, names, outputs);
        prop_assert!(codes(&n).contains(&LintCode::ArityViolation));
        prop_assert_eq!(lint_errors(&n), errors_of(&n));
    }

    /// Duplicating a wire name triggers `NL003`.
    #[test]
    fn duplicated_name_triggers_multi_driven_wire(
        host in prop::sample::select(MUTATION_HOSTS.to_vec()),
        pick in 0usize..10_000,
    ) {
        let (gates, mut names, outputs) = parts(host);
        let named: Vec<usize> = (0..names.len()).filter(|&i| names[i].is_some()).collect();
        // Every host has at least two named lines (its primary inputs).
        prop_assert!(named.len() >= 2);
        let a_pos = pick % named.len();
        let b_pos = (a_pos + 1 + pick / named.len() % (named.len() - 1)) % named.len();
        let (a, b) = (named[a_pos], named[b_pos]);
        prop_assert!(a != b);
        names[b] = names[a].clone();
        let n = Netlist::from_parts_unchecked(gates, names, outputs);
        prop_assert!(codes(&n).contains(&LintCode::MultiDrivenWire));
        prop_assert_eq!(lint_errors(&n), errors_of(&n));
    }

    /// Emptying the output list triggers `NL005` at error severity.
    #[test]
    fn removed_outputs_trigger_floating_output(
        host in prop::sample::select(MUTATION_HOSTS.to_vec()),
    ) {
        let (gates, names, _) = parts(host);
        let n = Netlist::from_parts_unchecked(gates, names, vec![]);
        let diags = n.lint();
        prop_assert!(diags
            .iter()
            .any(|d| d.code == LintCode::FloatingOutput && d.severity == Severity::Error));
        prop_assert_eq!(lint_errors(&n), errors_of(&n));
    }

    /// Disconnecting a primary output (the only reader of its cone tip)
    /// leaves dead logic behind: `NL004`.
    #[test]
    fn severed_output_cone_triggers_dead_cone(
        host in prop::sample::select(MUTATION_HOSTS.to_vec()),
        pick in 0usize..10_000,
    ) {
        let (gates, names, outputs) = parts(host);
        prop_assert!(outputs.len() >= 2);
        let original = Netlist::from_parts_unchecked(gates.clone(), names.clone(), outputs.clone());
        // Drop a PO nothing else reads: its cone tip must die. Every
        // host has such a PO (output gates are cone tips, not stems).
        let start = pick % outputs.len();
        let dropped = (0..outputs.len())
            .map(|k| outputs[(start + k) % outputs.len()])
            .find(|&o| {
                original.fanouts(o).is_empty()
                    && outputs.iter().filter(|&&x| x == o).count() == 1
            });
        prop_assert!(dropped.is_some(), "host has a sole-reader PO");
        let dropped = dropped.expect("just checked");
        let kept: Vec<GateId> = outputs.iter().copied().filter(|&o| o != dropped).collect();
        let n = Netlist::from_parts_unchecked(gates, names, kept);
        prop_assert!(codes(&n).contains(&LintCode::DeadCone));
    }
}
