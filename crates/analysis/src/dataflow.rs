//! The shared fixed-point worklist engine behind every analysis in this
//! crate.
//!
//! An analysis describes itself as a [`Dataflow`] problem — a direction, a
//! bottom fact per gate, and a monotone transfer function — and [`solve`]
//! iterates to the least fixed point. The engine makes no use of the
//! netlist's topological order beyond *seeding* the worklist in a
//! convergence-friendly order, so it terminates on cyclic netlists (which
//! `from_parts_unchecked` can build and the lint layer must tolerate) as
//! long as the transfer function is monotone over a finite-height lattice.

use std::collections::VecDeque;

use incdx_netlist::{GateId, Netlist};

/// Direction facts propagate in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from fanins to fanouts (e.g. constant propagation).
    Forward,
    /// Facts flow from fanouts to fanins (e.g. PO reachability).
    Backward,
}

/// A monotone dataflow problem over a [`Netlist`].
///
/// # Contract
///
/// `transfer` must be *monotone*: raising any input fact (in the
/// analysis's lattice order) must not lower the output fact. Together
/// with a finite-height lattice this guarantees [`solve`] terminates;
/// the engine does not enforce it.
pub trait Dataflow {
    /// The lattice element tracked per gate.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The initial (bottom) fact for `id`.
    fn init(&self, netlist: &Netlist, id: GateId) -> Self::Fact;

    /// Recomputes the fact for `id` from the current fact table.
    ///
    /// A forward analysis reads the facts of `id`'s fanins; a backward
    /// analysis reads the facts of `id`'s fanouts. Either way the whole
    /// table is available, indexed by `GateId::index`.
    fn transfer(&self, netlist: &Netlist, id: GateId, facts: &[Self::Fact]) -> Self::Fact;
}

/// Iterates `analysis` to its least fixed point over `netlist`, returning
/// one fact per gate (indexed by `GateId::index`).
pub fn solve<A: Dataflow>(netlist: &Netlist, analysis: &A) -> Vec<A::Fact> {
    let n = netlist.len();
    let mut facts: Vec<A::Fact> = (0..n)
        .map(|i| analysis.init(netlist, GateId::from_index(i)))
        .collect();
    let mut queued = vec![true; n];
    // Seeding in (reverse) topological order makes acyclic netlists
    // converge in a single sweep; correctness does not depend on it.
    let mut work: VecDeque<GateId> = match analysis.direction() {
        Direction::Forward => netlist.topo_order().iter().copied().collect(),
        Direction::Backward => netlist.topo_order().iter().rev().copied().collect(),
    };
    while let Some(id) = work.pop_front() {
        queued[id.index()] = false;
        let next = analysis.transfer(netlist, id, &facts);
        if next != facts[id.index()] {
            facts[id.index()] = next;
            let deps: &[GateId] = match analysis.direction() {
                Direction::Forward => netlist.fanouts(id),
                Direction::Backward => netlist.gate(id).fanins(),
            };
            for &d in deps {
                if !queued[d.index()] {
                    queued[d.index()] = true;
                    work.push_back(d);
                }
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::{Gate, GateKind, Netlist};

    /// A toy forward analysis: each gate's fact is its depth (input = 0,
    /// otherwise 1 + max fanin depth), capped at 1000 so the lattice has
    /// finite height even on cycles.
    struct Depth;

    impl Dataflow for Depth {
        type Fact = u32;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn init(&self, _netlist: &Netlist, _id: GateId) -> u32 {
            0
        }
        fn transfer(&self, netlist: &Netlist, id: GateId, facts: &[u32]) -> u32 {
            let gate = netlist.gate(id);
            let m = gate
                .fanins()
                .iter()
                .map(|f| facts[f.index()])
                .max()
                .map(|d| d + 1)
                .unwrap_or(0);
            m.min(1000)
        }
    }

    #[test]
    fn solve_terminates_on_cyclic_netlists() {
        // g1 = BUF(g2), g2 = BUF(g1): a combinational loop.
        let gates = vec![
            Gate::new(GateKind::Buf, vec![GateId(1)]),
            Gate::new(GateKind::Buf, vec![GateId(0)]),
        ];
        let n = Netlist::from_parts_unchecked(gates, vec![], vec![GateId(0)]);
        assert!(!n.is_acyclic());
        let facts = solve(&n, &Depth);
        // The depth cap (lattice top) is reached on the cycle.
        assert_eq!(facts, vec![1000, 1000]);
    }

    #[test]
    fn solve_matches_single_sweep_on_acyclic() {
        let mut b = Netlist::builder();
        let a = b.add_input("a");
        let x = b.add_gate(GateKind::Not, vec![a]);
        let y = b.add_gate(GateKind::And, vec![a, x]);
        b.add_output(y);
        let n = b.build().expect("valid");
        let facts = solve(&n, &Depth);
        assert_eq!(facts[a.index()], 0);
        assert_eq!(facts[x.index()], 1);
        assert_eq!(facts[y.index()], 2);
    }
}
