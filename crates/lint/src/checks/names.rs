//! Name-level lints: multi-driven wires (`NL003`) and shadowed or
//! ambiguous wire names (`NL006`).

use std::collections::HashMap;

use incdx_netlist::{GateId, Netlist};

use crate::diagnostic::{wire_name, Diagnostic, LintCode, Severity};
use crate::engine::Lint;

/// `NL003`: two gates declare the same wire name.
///
/// Each in-memory gate drives exactly one line, so a literal short is
/// unrepresentable — but two gates carrying the same *name* is the
/// netlist-capture form of a multi-driven wire: any tool resolving the
/// name (the `.bench` writer, fault-site reports, user scripts) will
/// silently pick one of the two drivers.
pub struct MultiDrivenWire;

impl Lint for MultiDrivenWire {
    fn code(&self) -> LintCode {
        LintCode::MultiDrivenWire
    }

    fn description(&self) -> &'static str {
        "two gates declare the same wire name (two drivers)"
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let mut first_by_name: HashMap<&str, usize> = HashMap::new();
        for (id, _) in netlist.iter() {
            let Some(name) = netlist.name(id) else {
                continue;
            };
            match first_by_name.entry(name) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(id.index());
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    out.push(Diagnostic::at(
                        LintCode::MultiDrivenWire,
                        Severity::Error,
                        netlist,
                        id,
                        format!(
                            "wire `{name}` is driven by both gate {} and gate {}",
                            e.get(),
                            id.index()
                        ),
                        "rename one of the drivers or delete the redundant one",
                    ));
                }
            }
        }
    }
}

/// `NL006`: declared names that shadow another line's synthetic `n<id>`
/// name, or collide with a different name case-insensitively.
///
/// The `.bench` writer emits `n<id>` for unnamed lines, so a user-chosen
/// name like `n7` attached to a gate *other than* gate 7 makes the
/// written file ambiguous; likewise `G1` vs `g1` survives the
/// case-preserving parser but breaks every case-folding downstream tool.
pub struct ShadowedName;

impl Lint for ShadowedName {
    fn code(&self) -> LintCode {
        LintCode::ShadowedName
    }

    fn description(&self) -> &'static str {
        "wire name shadows a synthetic name or collides case-insensitively"
    }

    fn max_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
        let n = netlist.len();
        let mut first_by_folded: HashMap<String, usize> = HashMap::new();
        for (id, _) in netlist.iter() {
            let Some(name) = netlist.name(id) else {
                continue;
            };
            // `n<k>` for a different, unnamed line k shadows that line's
            // synthetic name in written-out `.bench` text.
            if let Some(k) = synthetic_index(name) {
                if k != id.index() && k < n && netlist.name(GateId::from_index(k)).is_none() {
                    out.push(Diagnostic::at(
                        LintCode::ShadowedName,
                        Severity::Warning,
                        netlist,
                        id,
                        format!(
                            "name `{name}` on gate {} shadows the synthetic name of unnamed gate {k}",
                            id.index()
                        ),
                        "avoid `n<digits>` names that do not match the line's own id",
                    ));
                }
            }
            let folded = name.to_ascii_lowercase();
            match first_by_folded.entry(folded) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(id.index());
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let other = *e.get();
                    let other_name = wire_name(netlist, GateId::from_index(other));
                    // Exact duplicates are NL003's finding, not ours.
                    if other_name != name {
                        out.push(Diagnostic::at(
                            LintCode::ShadowedName,
                            Severity::Warning,
                            netlist,
                            id,
                            format!(
                                "name `{name}` collides with `{other_name}` (gate {other}) \
                                 when case is ignored"
                            ),
                            "rename so wires stay distinct under case-folding tools",
                        ));
                    }
                }
            }
        }
    }
}

/// Parses a synthetic `n<digits>` name, returning the index.
fn synthetic_index(name: &str) -> Option<usize> {
    let digits = name.strip_prefix('n')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}
