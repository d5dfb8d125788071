//! Static dataflow analyses over [`incdx_netlist::Netlist`].
//!
//! A netlist carries structural facts that hold for *every* vector. This
//! crate derives two of them on one shared fixed-point worklist engine
//! ([`dataflow`]):
//!
//! * [`Constants`] — ternary constant propagation: which lines are pinned
//!   to 0 or 1 by the structure alone (`Const0`/`Const1` gates and their
//!   downstream implications);
//! * [`PoReach`] — per-line primary-output reachability: the set of PO
//!   positions a line's fanout cone touches.
//!
//! On top of them, [`observable_changes`] answers: *which POs could
//! possibly change if line `l`'s function were modified in any way?* It
//! refines pure reachability by re-propagating the constant lattice with
//! `l` forced to [`Ternary::Varies`] — a gate inside `l`'s cone whose
//! forced value is still a constant is pinned to the *same* constant with
//! or without the modification (monotonicity of the transfer functions
//! guarantees the forced value can only move *up* the lattice, and a
//! constant that moves up to a constant is unchanged), so it blocks
//! propagation.
//!
//! The structural lints in `incdx-lint` are the consumers: NL011
//! (unobservable lines) reads [`Constants`], [`PoReach`] and
//! [`observable_changes`], and NL012 (redundant gates) reads
//! [`Constants`].
//!
//! All analyses terminate on arbitrary netlists, including the cyclic ones
//! `from_parts_unchecked` can build (the worklist engine relies on finite
//! lattice height, not on topological completeness); facts for gates on a
//! cycle may stay at bottom, which every consumer treats conservatively.

pub mod constants;
pub mod dataflow;
pub mod reach;

pub use constants::{Constants, Ternary};
pub use dataflow::{solve, Dataflow, Direction};
pub use reach::{PoReach, PoSet};

use incdx_netlist::{GateId, Netlist};

/// The set of PO positions whose value function could change under *any*
/// modification of `line`'s output function.
///
/// `cone_topo` must list the gates of `line`'s transitive fanout cone in
/// topological order (the engine's memoized cone sets provide exactly
/// this); gates outside the slice are never inspected. The result is
/// always a subset of `PoReach::reach(line)`; the refinement comes from
/// constant-blocked gates — see the crate docs for the soundness argument.
///
/// Passing an empty `cone_topo` (or one that omits `line` itself) still
/// counts `line`'s own PO positions: a line that *is* a primary output is
/// always observable there.
pub fn observable_changes(
    netlist: &Netlist,
    consts: &Constants,
    line: GateId,
    cone_topo: &[GateId],
) -> PoSet {
    let outputs = netlist.outputs();
    let mut result = PoSet::empty(outputs.len());
    let mut changed = vec![false; netlist.len()];
    if line.index() < changed.len() {
        changed[line.index()] = true;
    }
    for (po, &driver) in outputs.iter().enumerate() {
        if driver == line {
            result.insert(po);
        }
    }
    for &g in cone_topo {
        if g == line || g.index() >= changed.len() || changed[g.index()] {
            continue;
        }
        let gate = netlist.gate(g);
        // Out-of-range fanins (hazardous structures) count as unchanged.
        let is_changed = |f: GateId| changed.get(f.index()).copied().unwrap_or(false);
        if !gate.fanins().iter().any(|&f| is_changed(f)) {
            continue;
        }
        let forced = constants::eval_gate(gate.kind(), gate.fanins(), |f| {
            if is_changed(f) {
                Ternary::Varies
            } else {
                consts.value(f)
            }
        });
        if forced.constant().is_some() {
            // Pinned to the same constant with or without the change at
            // `line` — blocks propagation.
            continue;
        }
        changed[g.index()] = true;
        for (po, &driver) in outputs.iter().enumerate() {
            if driver == g {
                result.insert(po);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::{GateKind, NetlistBuilder};

    /// in0 ─┬─ AND(in0, c1) ── po0
    ///       └─ AND(in0, c0) ── po1
    fn blocked_net() -> (Netlist, GateId) {
        let mut b = NetlistBuilder::new();
        let i0 = b.add_input("i0");
        let c1 = b.add_gate(GateKind::Const1, vec![]);
        let c0 = b.add_gate(GateKind::Const0, vec![]);
        let a = b.add_gate(GateKind::And, vec![i0, c1]);
        let z = b.add_gate(GateKind::And, vec![i0, c0]);
        b.add_output(a);
        b.add_output(z);
        (b.build().expect("valid"), i0)
    }

    #[test]
    fn observable_changes_is_blocked_by_constants() {
        let (n, i0) = blocked_net();
        let consts = Constants::compute(&n);
        let cone: Vec<GateId> = n.topo_order().to_vec();
        let obs = observable_changes(&n, &consts, i0, &cone);
        // The AND with a Const0 side is pinned to 0 no matter what i0
        // does, so only po0 can observe a change at i0.
        assert!(obs.contains(0));
        assert!(!obs.contains(1));
        // Pure reachability says both POs are reachable.
        let reach = PoReach::compute(&n);
        assert!(reach.reach(i0).contains(0));
        assert!(reach.reach(i0).contains(1));
    }

    #[test]
    fn observable_changes_counts_own_po_bits() {
        let mut b = NetlistBuilder::new();
        let i0 = b.add_input("i0");
        b.add_output(i0);
        b.add_output(i0);
        let n = b.build().expect("valid");
        let consts = Constants::compute(&n);
        let obs = observable_changes(&n, &consts, i0, &[]);
        assert!(obs.contains(0) && obs.contains(1));
        assert_eq!(obs.count(), 2);
    }

    #[test]
    fn tables_compute_is_consistent() {
        let (n, i0) = blocked_net();
        let consts = Constants::compute(&n);
        assert_eq!(consts.len(), n.len());
        // c1, c0 are constant lines; z = AND(i0, c0) is constant too.
        assert_eq!(consts.const_lines(), 3);
        let reach = PoReach::compute(&n);
        assert_eq!(reach.reach(i0).count(), n.outputs().len());
    }
}
