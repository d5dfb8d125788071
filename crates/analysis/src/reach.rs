//! Primary-output reachability.
//!
//! For every line, the set of *PO positions* (indices into
//! `Netlist::outputs()`, not gate ids — the same gate may drive several
//! output positions) its fanout cone touches. Computed as a backward
//! union dataflow on the shared worklist engine; the result is purely
//! structural and independent of any test set.

use incdx_netlist::{GateId, Netlist};

use crate::dataflow::{solve, Dataflow, Direction};

/// A set of primary-output positions, stored as a bitset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoSet {
    words: Vec<u64>,
}

impl PoSet {
    /// An empty set sized for `num_pos` output positions.
    pub fn empty(num_pos: usize) -> Self {
        PoSet {
            words: vec![0; num_pos.div_ceil(64)],
        }
    }

    /// Adds position `po` (ignored when out of range).
    pub fn insert(&mut self, po: usize) {
        if let Some(w) = self.words.get_mut(po / 64) {
            *w |= 1u64 << (po % 64);
        }
    }

    /// Is position `po` in the set?
    pub fn contains(&self, po: usize) -> bool {
        self.words
            .get(po / 64)
            .is_some_and(|w| w & (1u64 << (po % 64)) != 0)
    }

    /// True when no position is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of positions in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is `other` a subset of `self`? Positions beyond `self`'s width
    /// count as absent from `self`.
    pub fn contains_all(&self, other: &PoSet) -> bool {
        for (i, &b) in other.words.iter().enumerate() {
            let a = self.words.get(i).copied().unwrap_or(0);
            if b & !a != 0 {
                return false;
            }
        }
        true
    }

    /// Unions `other` into `self` (widening as needed).
    pub fn union_with(&mut self, other: &PoSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Iterates the positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w & (1u64 << b) != 0).then_some(wi * 64 + b))
        })
    }
}

/// Per-line PO reachability for one netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoReach {
    sets: Vec<PoSet>,
    empty: PoSet,
}

struct ReachProp {
    /// PO positions each gate drives directly.
    own: Vec<PoSet>,
}

impl Dataflow for ReachProp {
    type Fact = PoSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init(&self, _netlist: &Netlist, id: GateId) -> PoSet {
        self.own[id.index()].clone()
    }

    fn transfer(&self, netlist: &Netlist, id: GateId, facts: &[PoSet]) -> PoSet {
        let mut set = self.own[id.index()].clone();
        for &f in netlist.fanouts(id) {
            set.union_with(&facts[f.index()]);
        }
        set
    }
}

impl PoReach {
    /// Computes reachability for every line of `netlist`.
    pub fn compute(netlist: &Netlist) -> Self {
        let num_pos = netlist.outputs().len();
        let mut own = vec![PoSet::empty(num_pos); netlist.len()];
        for (po, &driver) in netlist.outputs().iter().enumerate() {
            // Out-of-range output references (hazardous structures) have
            // no driver to attribute the position to.
            if let Some(set) = own.get_mut(driver.index()) {
                set.insert(po);
            }
        }
        PoReach {
            sets: solve(netlist, &ReachProp { own }),
            empty: PoSet::empty(num_pos),
        }
    }

    /// The PO positions reachable from `line` (empty if out of range).
    pub fn reach(&self, line: GateId) -> &PoSet {
        self.sets.get(line.index()).unwrap_or(&self.empty)
    }

    /// Number of lines analysed.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no lines were analysed.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn reach_follows_fanout_cones() {
        let mut b = NetlistBuilder::new();
        let i0 = b.add_input("i0");
        let i1 = b.add_input("i1");
        let a = b.add_gate(GateKind::And, vec![i0, i1]);
        let n0 = b.add_gate(GateKind::Not, vec![i1]);
        b.add_output(a);
        b.add_output(n0);
        let n = b.build().expect("valid");
        let r = PoReach::compute(&n);
        assert!(r.reach(i0).contains(0) && !r.reach(i0).contains(1));
        assert!(r.reach(i1).contains(0) && r.reach(i1).contains(1));
        assert_eq!(r.reach(a).count(), 1);
    }

    #[test]
    fn duplicate_output_listings_get_distinct_positions() {
        let mut b = NetlistBuilder::new();
        let i0 = b.add_input("i0");
        b.add_output(i0);
        b.add_output(i0);
        let n = b.build().expect("valid");
        let r = PoReach::compute(&n);
        assert_eq!(r.reach(i0).count(), 2);
        assert_eq!(r.reach(i0).iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn poset_ops() {
        let mut a = PoSet::empty(70);
        a.insert(3);
        a.insert(65);
        let mut b = PoSet::empty(70);
        b.insert(65);
        assert!(a.contains_all(&b));
        assert!(!b.contains_all(&a));
        b.insert(4);
        assert!(!a.contains_all(&b));
        a.union_with(&b);
        assert!(a.contains(4));
        assert_eq!(a.count(), 3);
        assert!(PoSet::empty(8).is_empty());
    }
}
