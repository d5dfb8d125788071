//! Correction enumeration — the "exhaustively compiles a list of
//! corrections from the design error or fault model" step of §3.2.
//!
//! A [`Correction`] is a local rewrite of the gate driving a suspect line:
//! in stuck-at diagnosis it models the fault (a constant); in DEDC it
//! *undoes* a hypothesised Abadir-model error (changes the gate's function,
//! toggles inversions, adds/removes/replaces input wires, bypasses or
//! inserts a gate). The diagnosis engine screens these candidates with the
//! paper's heuristics 2 and 3.

use std::fmt;

use incdx_netlist::{GateId, GateKind, Netlist, NetlistError};

/// Which candidate family [`enumerate_corrections`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionModel {
    /// Stuck-at-0/1 only (the fault diagnosis setting).
    StuckAt,
    /// The full design-error correction repertoire (the DEDC setting).
    DesignErrors,
}

/// The rewrite a [`Correction`] performs on its target gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CorrectionAction {
    /// Model a stuck-at fault: the line becomes a constant.
    SetConst(bool),
    /// The gate's type was wrong: change it (fanins unchanged).
    ChangeKind(GateKind),
    /// An inverter is missing/extra on input `port`: toggle it.
    InvertInput {
        /// The affected fanin port.
        port: usize,
    },
    /// The gate reads a wire the specification doesn't have: drop it.
    RemoveInput {
        /// The dropped fanin port.
        port: usize,
    },
    /// The gate misses a wire the specification has: add one.
    AddInput {
        /// The signal to connect.
        source: GateId,
    },
    /// An input is connected to the wrong signal: rewire it.
    ReplaceInput {
        /// The affected fanin port.
        port: usize,
        /// The replacement signal.
        source: GateId,
    },
    /// An extra gate sits in the design: bypass it (the line becomes a
    /// buffer of one of its fanins).
    WireThrough {
        /// The surviving fanin port.
        port: usize,
    },
    /// A gate is missing from the design: feed the line's old function
    /// and `other` through a new `kind` gate.
    InsertGate {
        /// The inserted gate's kind.
        kind: GateKind,
        /// Its second input.
        other: GateId,
    },
}

/// A candidate correction: an action at a specific line.
///
/// # Example
///
/// ```
/// use incdx_fault::{Correction, CorrectionAction};
/// use incdx_netlist::{parse_bench, GateKind};
///
/// let mut n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let y = n.find_by_name("y").unwrap();
/// Correction::new(y, CorrectionAction::ChangeKind(GateKind::Or)).apply(&mut n)?;
/// assert_eq!(n.gate(y).kind(), GateKind::Or);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Correction {
    line: GateId,
    action: CorrectionAction,
}

impl Correction {
    /// A correction performing `action` at `line`.
    pub fn new(line: GateId, action: CorrectionAction) -> Self {
        Correction { line, action }
    }

    /// The corrected line.
    pub fn line(&self) -> GateId {
        self.line
    }

    /// The rewrite performed.
    pub fn action(&self) -> CorrectionAction {
        self.action
    }

    /// If this correction models a stuck-at fault, its polarity.
    pub fn as_stuck_at(&self) -> Option<bool> {
        match self.action {
            CorrectionAction::SetConst(v) => Some(v),
            _ => None,
        }
    }

    /// Applies the rewrite. Existing gate ids stay stable (helper
    /// inverters / inserted gates are appended). A constant ties the line
    /// in place ([`Netlist::tie`]: the topological order is kept and only
    /// the line's fanout cone is re-levelled); every other action goes
    /// through [`Netlist::replace_gate`] or [`Netlist::append_gate`],
    /// which rebuild the structure and its fresh topological order.
    ///
    /// # Errors
    ///
    /// Returns an error — leaving the netlist unchanged — if the action is
    /// structurally inapplicable (bad port, arity violation, cycle).
    pub fn apply(&self, netlist: &mut Netlist) -> Result<(), NetlistError> {
        let gate = netlist.gate(self.line);
        let kind = gate.kind();
        let fanins = gate.fanins().to_vec();
        let bad_port = |port: usize| NetlistError::UnknownGate {
            gate: GateId::from_index(port),
        };
        match self.action {
            CorrectionAction::SetConst(v) => netlist.tie(self.line, v).map(drop),
            CorrectionAction::ChangeKind(new_kind) => {
                netlist.replace_gate(self.line, new_kind, fanins)
            }
            CorrectionAction::InvertInput { port } => {
                let &src = fanins.get(port).ok_or_else(|| bad_port(port))?;
                let mut f = fanins;
                // Toggling: if the wire already comes from an inverter,
                // bypass it; otherwise insert one.
                if netlist.gate(src).kind() == GateKind::Not {
                    f[port] = netlist.gate(src).fanins()[0];
                } else {
                    f[port] = netlist.append_gate(GateKind::Not, vec![src])?;
                }
                netlist.replace_gate(self.line, kind, f)
            }
            CorrectionAction::RemoveInput { port } => {
                if port >= fanins.len() {
                    return Err(bad_port(port));
                }
                let mut f = fanins;
                f.remove(port);
                netlist.replace_gate(self.line, kind, f)
            }
            CorrectionAction::AddInput { source } => {
                let mut f = fanins;
                if f.contains(&source) || source == self.line {
                    return Err(NetlistError::DanglingFanin {
                        gate: self.line,
                        fanin: source,
                    });
                }
                f.push(source);
                netlist.replace_gate(self.line, kind, f)
            }
            CorrectionAction::ReplaceInput { port, source } => {
                if port >= fanins.len() {
                    return Err(bad_port(port));
                }
                if fanins[port] == source || source == self.line {
                    return Err(NetlistError::DanglingFanin {
                        gate: self.line,
                        fanin: source,
                    });
                }
                let mut f = fanins;
                f[port] = source;
                netlist.replace_gate(self.line, kind, f)
            }
            CorrectionAction::WireThrough { port } => {
                let &src = fanins.get(port).ok_or_else(|| bad_port(port))?;
                netlist.replace_gate(self.line, GateKind::Buf, vec![src])
            }
            CorrectionAction::InsertGate {
                kind: new_kind,
                other,
            } => {
                if other == self.line {
                    return Err(NetlistError::CombinationalCycle { gate: self.line });
                }
                // Clone the original function into an appended gate, then
                // combine it with `other`.
                if !kind.is_logic() {
                    return Err(NetlistError::BadArity {
                        gate: self.line,
                        kind,
                        found: fanins.len(),
                    });
                }
                // Pre-check the cycle guard before appending the aux gate so
                // a failed apply leaves the netlist untouched.
                if netlist.fanout_cone(self.line).contains(other.index()) {
                    return Err(NetlistError::CombinationalCycle { gate: self.line });
                }
                let aux = netlist.append_gate(kind, fanins)?;
                netlist.replace_gate(self.line, new_kind, vec![aux, other])
            }
        }
    }
}

impl fmt::Display for Correction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            CorrectionAction::SetConst(v) => write!(f, "{} := const {}", self.line, v as u8),
            CorrectionAction::ChangeKind(k) => write!(f, "{} := {k}", self.line),
            CorrectionAction::InvertInput { port } => {
                write!(f, "{}: toggle inverter on port {port}", self.line)
            }
            CorrectionAction::RemoveInput { port } => {
                write!(f, "{}: remove input port {port}", self.line)
            }
            CorrectionAction::AddInput { source } => {
                write!(f, "{}: add input {source}", self.line)
            }
            CorrectionAction::ReplaceInput { port, source } => {
                write!(f, "{}: rewire port {port} to {source}", self.line)
            }
            CorrectionAction::WireThrough { port } => {
                write!(f, "{}: wire through port {port}", self.line)
            }
            CorrectionAction::InsertGate { kind, other } => {
                write!(f, "{}: insert {kind} with {other}", self.line)
            }
        }
    }
}

/// Exhaustively compiles the correction candidates for `line` under
/// `model`, "as in \[6\] \[10\]" (§3.2 of the paper).
///
/// `wire_sources` bounds the signals considered for wire additions,
/// replacements and gate insertions (the engine passes structural
/// neighbours plus a level-matched sample; an unrestricted enumeration is
/// quadratic in circuit size). Pass an empty slice to skip wire
/// corrections entirely.
///
/// Lines without a combinational function (PIs, constants) only admit
/// stuck-at corrections.
pub fn enumerate_corrections(
    netlist: &Netlist,
    line: GateId,
    model: CorrectionModel,
    wire_sources: &[GateId],
) -> Vec<Correction> {
    let mut out = Vec::new();
    let gate = netlist.gate(line);
    let kind = gate.kind();
    let nf = gate.fanins().len();
    match model {
        CorrectionModel::StuckAt => {
            out.push(Correction::new(line, CorrectionAction::SetConst(false)));
            out.push(Correction::new(line, CorrectionAction::SetConst(true)));
        }
        CorrectionModel::DesignErrors => {
            if !kind.is_logic() {
                return out;
            }
            // Gate type replacement (includes the missing/extra output
            // inverter via the complement kind).
            let mut kind_choices: Vec<GateKind> = GateKind::LOGIC_KINDS.to_vec();
            kind_choices.push(GateKind::Buf);
            kind_choices.push(GateKind::Not);
            for k in kind_choices {
                if k != kind && nf >= k.arity().0 && nf <= k.arity().1 {
                    out.push(Correction::new(line, CorrectionAction::ChangeKind(k)));
                }
            }
            // Input-wire inverters.
            for port in 0..nf {
                out.push(Correction::new(
                    line,
                    CorrectionAction::InvertInput { port },
                ));
            }
            // Extra wire in the design: remove it.
            if nf >= 2 {
                for port in 0..nf {
                    out.push(Correction::new(
                        line,
                        CorrectionAction::RemoveInput { port },
                    ));
                    out.push(Correction::new(
                        line,
                        CorrectionAction::WireThrough { port },
                    ));
                }
            }
            // Missing / wrong wires and missing gates need candidate
            // sources.
            for &src in wire_sources {
                if src == line {
                    continue;
                }
                if !gate.fanins().contains(&src) {
                    out.push(Correction::new(
                        line,
                        CorrectionAction::AddInput { source: src },
                    ));
                }
                for port in 0..nf {
                    if gate.fanins()[port] != src {
                        out.push(Correction::new(
                            line,
                            CorrectionAction::ReplaceInput { port, source: src },
                        ));
                    }
                }
                for k in [GateKind::And, GateKind::Or] {
                    out.push(Correction::new(
                        line,
                        CorrectionAction::InsertGate {
                            kind: k,
                            other: src,
                        },
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::parse_bench;

    fn base() -> Netlist {
        parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, c)\n")
            .unwrap()
    }

    #[test]
    fn stuck_at_model_enumerates_two() {
        let n = base();
        let x = n.find_by_name("x").unwrap();
        let cs = enumerate_corrections(&n, x, CorrectionModel::StuckAt, &[]);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].as_stuck_at(), Some(false));
        assert_eq!(cs[1].as_stuck_at(), Some(true));
    }

    #[test]
    fn design_error_model_enumerates_local_rewrites() {
        let n = base();
        let x = n.find_by_name("x").unwrap();
        let cs = enumerate_corrections(&n, x, CorrectionModel::DesignErrors, &[]);
        // 2-input AND: 5 kind changes (NAND/OR/NOR/XOR/XNOR), 2 input
        // inverters, 2 removals, 2 wire-throughs.
        assert_eq!(cs.len(), 11);
        assert!(cs
            .iter()
            .all(|c| !matches!(c.action(), CorrectionAction::SetConst(_))));
    }

    #[test]
    fn wire_sources_expand_the_space() {
        let n = base();
        let x = n.find_by_name("x").unwrap();
        let c = n.find_by_name("c").unwrap();
        let cs = enumerate_corrections(&n, x, CorrectionModel::DesignErrors, &[c]);
        // + AddInput, 2 ReplaceInput, 2 InsertGate.
        assert_eq!(cs.len(), 16);
    }

    #[test]
    fn pi_lines_admit_only_stuck_at() {
        let n = base();
        let a = n.find_by_name("a").unwrap();
        assert!(enumerate_corrections(&n, a, CorrectionModel::DesignErrors, &[]).is_empty());
        assert_eq!(
            enumerate_corrections(&n, a, CorrectionModel::StuckAt, &[]).len(),
            2
        );
    }

    #[test]
    fn every_enumerated_correction_applies_cleanly() {
        let n = base();
        let sources: Vec<GateId> = n.ids().collect();
        for line in n.ids() {
            for model in [CorrectionModel::StuckAt, CorrectionModel::DesignErrors] {
                for c in enumerate_corrections(&n, line, model, &sources) {
                    let mut m = n.clone();
                    // Wire corrections may still hit the cycle guard; that
                    // must be a clean error, not a panic or corruption.
                    match c.apply(&mut m) {
                        Ok(()) => {}
                        Err(_) => assert_eq!(m.len(), n.len(), "failed apply must not mutate"),
                    }
                }
            }
        }
    }

    #[test]
    fn invert_input_toggles_existing_inverter() {
        let mut n =
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nni = NOT(a)\ny = AND(ni, b)\n").unwrap();
        let y = n.find_by_name("y").unwrap();
        let a = n.find_by_name("a").unwrap();
        Correction::new(y, CorrectionAction::InvertInput { port: 0 })
            .apply(&mut n)
            .unwrap();
        // The inverter was bypassed, not doubled.
        assert_eq!(n.gate(y).fanins()[0], a);
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn insert_gate_preserves_old_function_as_aux() {
        let mut n = base();
        let x = n.find_by_name("x").unwrap();
        let c = n.find_by_name("c").unwrap();
        Correction::new(
            x,
            CorrectionAction::InsertGate {
                kind: GateKind::Or,
                other: c,
            },
        )
        .apply(&mut n)
        .unwrap();
        assert_eq!(n.gate(x).kind(), GateKind::Or);
        let aux = n.gate(x).fanins()[0];
        assert_eq!(n.gate(aux).kind(), GateKind::And);
        assert_eq!(n.gate(x).fanins()[1], c);
    }

    #[test]
    fn set_const_apply() {
        let mut n = base();
        let x = n.find_by_name("x").unwrap();
        Correction::new(x, CorrectionAction::SetConst(true))
            .apply(&mut n)
            .unwrap();
        assert_eq!(n.gate(x).kind(), GateKind::Const1);
    }

    #[test]
    fn display_is_informative() {
        let c = Correction::new(GateId(4), CorrectionAction::ChangeKind(GateKind::Nor));
        assert_eq!(c.to_string(), "n4 := NOR");
    }
}
