//! The [`Netlist`] type and its builder.
//!
//! A netlist is cloned once per decision-tree node and edited by one
//! correction, so its storage makes both cheap without changing a single
//! answer to a structural query:
//!
//! * **Fanins** are one `Arc<[GateId]>` per gate. A clone shares every
//!   list; an edit swaps in a new list for the one gate it rewrites.
//! * **Fanouts** are one flat id array with per-line start offsets
//!   (compressed sparse row). Each line's readers are in ascending id
//!   order.
//! * **Names** are one table behind an `Arc`, shared by clones and copied
//!   only by [`Netlist::set_name`]. Ids past its end read as unnamed, so
//!   [`Netlist::append_gate`] leaves it alone.
//! * **Topological order and levels.** [`Netlist::replace_gate`] and
//!   [`Netlist::append_gate`] refill the fanouts by a counting sort and
//!   recompute the order and levels by a full Kahn pass, seeded with the
//!   zero in-degree gates in id order. Their order therefore depends only
//!   on the structure: it is the order a netlist built from the same
//!   parts gets. [`Netlist::tie`] only removes edges, so it keeps the
//!   current order (removing edges leaves any topological order valid)
//!   and recomputes levels over the tied line's fanout cone alone; after
//!   a tie the order may differ from the fresh one.
//!
//! A clone therefore copies a few flat arrays and bumps one reference
//! count per gate; neither a clone nor an edit allocates per gate.
//!
//! No engine result depends on which topological order a netlist holds.
//! The engine reads a node's order in three places: the batched
//! path-trace's reverse pass, [`ConeSet`](crate::ConeSet)'s sort, and the
//! change-bounded cone walks (dense and sparse). Every topological order
//! gives them the same marks, values and counters. A cone walk
//! re-evaluates a gate exactly when one of its fanins changed, and every
//! fanin is final before the walk reaches its reader. The reverse pass
//! reaches a gate only after all of its readers, so the gate's marks are
//! final before the pass reaches any of its fanins. The area optimiser
//! walks [`Netlist::topo_order`] only in passes that decide each gate from
//! its already-decided fanins and rebuild through the builder; its one
//! in-place edit, a stuck-at tie in redundancy removal, is followed by
//! such a rebuilding pass.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitset::DenseBitSet;
use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};

/// A flat, id-indexed gate-level netlist.
///
/// Gates are stored densely; [`GateId`] `i` names both the gate and the line
/// it drives. Structural caches (fanouts, topological order, levels) are
/// maintained automatically across mutations, so queries are always
/// consistent with the current structure.
///
/// Construct via [`Netlist::builder`]; mutate via [`Netlist::replace_gate`],
/// [`Netlist::append_gate`] and [`Netlist::tie`], which preserve the ids of
/// existing gates (the property the incremental rectification engine
/// relies on).
///
/// # Example
///
/// ```
/// use incdx_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), incdx_netlist::NetlistError> {
/// let mut b = Netlist::builder();
/// let a = b.add_input("a");
/// let bb = b.add_input("b");
/// let g = b.add_gate(GateKind::And, vec![a, bb]);
/// let h = b.add_gate(GateKind::Not, vec![g]);
/// b.add_output(h);
/// let mut n = b.build()?;
/// assert_eq!(n.level(h), 2);
/// // Rewriting `g` to OR keeps every id stable.
/// n.replace_gate(g, GateKind::Or, vec![a, bb])?;
/// assert_eq!(n.gate(g).kind(), GateKind::Or);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    gates: Vec<Gate>,
    // Shared by clones and copied on `set_name`; ids past its end are
    // unnamed, so `append_gate` leaves it alone.
    names: Arc<Vec<Option<String>>>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    // Caches, rebuilt by `rebuild` and patched by `tie`. The readers of
    // line `i` are `fanout_ids[fanout_start[i]..fanout_start[i + 1]]`, in
    // id order.
    fanout_start: Vec<u32>,
    fanout_ids: Vec<GateId>,
    topo: Vec<GateId>,
    topo_pos: Vec<u32>,
    levels: Vec<u32>,
    acyclic: bool,
}

impl Netlist {
    /// Starts building a new netlist.
    pub fn builder() -> NetlistBuilder {
        NetlistBuilder::new()
    }

    /// Number of gates (primary inputs included).
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Is the netlist empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(id, gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::from_index(i), g))
    }

    /// All gate ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + use<> {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Primary inputs, in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order. The same line may be listed
    /// more than once (some benchmarks do this).
    #[inline]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// The gates reading line `id` directly.
    #[inline]
    pub fn fanouts(&self, id: GateId) -> &[GateId] {
        let i = id.index();
        &self.fanout_ids[self.fanout_start[i] as usize..self.fanout_start[i + 1] as usize]
    }

    /// A topological order of the gates over combinational edges. DFF
    /// outputs order like primary inputs (their fanin edge is sequential).
    #[inline]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// The position of `id` in [`Self::topo_order`].
    #[inline]
    pub fn topo_position(&self, id: GateId) -> usize {
        self.topo_pos[id.index()] as usize
    }

    /// Combinational level of a line: 0 for PIs/constants/DFF outputs,
    /// `1 + max(fanin levels)` otherwise.
    #[inline]
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// The largest level in the netlist (0 for an all-input netlist).
    pub fn max_level(&self) -> u32 {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// The declared name of a line, if any.
    pub fn name(&self, id: GateId) -> Option<&str> {
        self.names.get(id.index())?.as_deref()
    }

    /// Finds a line by declared name (linear scan; intended for tests and
    /// tools, not hot paths).
    pub fn find_by_name(&self, name: &str) -> Option<GateId> {
        self.names
            .iter()
            .position(|n| n.as_deref() == Some(name))
            .map(GateId::from_index)
    }

    /// Ids of all DFF gates.
    pub fn dffs(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind() == GateKind::Dff)
            .map(|(id, _)| id)
            .collect()
    }

    /// Does the netlist contain no DFFs?
    pub fn is_combinational(&self) -> bool {
        self.gates.iter().all(|g| g.kind() != GateKind::Dff)
    }

    /// Is the combinational part acyclic?
    ///
    /// Always `true` for netlists built through the validating paths
    /// ([`NetlistBuilder::build`], [`Netlist::replace_gate`], …). Can be
    /// `false` only for structures admitted via
    /// [`Netlist::from_parts_unchecked`], which exists so static-analysis
    /// tooling can represent — and diagnose — hazardous circuits. For a
    /// cyclic netlist [`Netlist::topo_order`] is only a partial order (the
    /// gates on cycles are appended in id order), so simulation results
    /// are undefined until the cycle is repaired.
    #[inline]
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// Errors with [`NetlistError::Sequential`] unless the netlist is
    /// purely combinational — the precondition checked by consumers (such
    /// as the rectification engine) that have no time-frame model.
    pub fn ensure_combinational(&self) -> Result<(), NetlistError> {
        let dffs = self
            .gates
            .iter()
            .filter(|g| g.kind() == GateKind::Dff)
            .count();
        if dffs == 0 {
            Ok(())
        } else {
            Err(NetlistError::Sequential { dffs })
        }
    }

    /// The transitive fanout cone of `id` (including `id`), as a bit set.
    /// The cone does not propagate through DFFs: a DFF output does not
    /// change combinationally when its data input does.
    pub fn fanout_cone(&self, id: GateId) -> DenseBitSet {
        let mut cone = DenseBitSet::new(self.len());
        let mut stack = vec![id];
        cone.insert(id.index());
        while let Some(g) = stack.pop() {
            for &f in self.fanouts(g) {
                if self.gate(f).kind() != GateKind::Dff && cone.insert(f.index()) {
                    stack.push(f);
                }
            }
        }
        cone
    }

    /// The gates of the fanout cone of `id` (including `id`), sorted in
    /// topological order — the order event-driven resimulation must use.
    pub fn fanout_cone_sorted(&self, id: GateId) -> Vec<GateId> {
        let cone = self.fanout_cone(id);
        let mut v: Vec<GateId> = cone.iter().map(GateId::from_index).collect();
        v.sort_by_key(|&g| self.topo_pos[g.index()]);
        v
    }

    /// The transitive fanin cone of `id` (including `id`), not crossing DFF
    /// boundaries.
    pub fn fanin_cone(&self, id: GateId) -> DenseBitSet {
        let mut cone = DenseBitSet::new(self.len());
        let mut stack = vec![id];
        cone.insert(id.index());
        while let Some(g) = stack.pop() {
            if self.gate(g).kind() == GateKind::Dff {
                continue;
            }
            for &f in self.gate(g).fanins() {
                if cone.insert(f.index()) {
                    stack.push(f);
                }
            }
        }
        cone
    }

    /// Rewrites gate `id` in place to `(kind, fanins)`, keeping every id
    /// stable. This is how corrections and fault models are applied.
    ///
    /// # Errors
    ///
    /// Returns an error — and leaves the netlist unchanged — if a fanin id
    /// is out of range, the arity is invalid, or a fanin lies in the fanout
    /// cone of `id` (which would create a combinational cycle).
    pub fn replace_gate(
        &mut self,
        id: GateId,
        kind: GateKind,
        fanins: Vec<GateId>,
    ) -> Result<(), NetlistError> {
        if id.index() >= self.len() {
            return Err(NetlistError::UnknownGate { gate: id });
        }
        let (lo, hi) = kind.arity();
        if fanins.len() < lo || fanins.len() > hi {
            return Err(NetlistError::BadArity {
                gate: id,
                kind,
                found: fanins.len(),
            });
        }
        for &f in &fanins {
            if f.index() >= self.len() {
                return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
            }
        }
        if kind != GateKind::Dff {
            let cone = self.fanout_cone(id);
            for &f in &fanins {
                if cone.contains(f.index()) {
                    return Err(NetlistError::CombinationalCycle { gate: id });
                }
            }
        }
        let g = &mut self.gates[id.index()];
        g.set_kind(kind);
        g.set_fanins(fanins);
        self.rebuild();
        Ok(())
    }

    /// Ties line `id` to a constant in place: the gate becomes
    /// [`GateKind::Const1`] (`value`) or [`GateKind::Const0`] with no
    /// fanins, and every id stays stable. Stuck-at faults and constant
    /// corrections are applied this way.
    ///
    /// A tie only removes edges, so its work follows `id`'s fanout cone,
    /// not the netlist: `id` leaves each old fanin's reader list (the
    /// other readers keep ascending id order) and, if it was a primary
    /// input, [`Self::inputs`]; levels are recomputed over its fanout cone
    /// in topological order; and the current topological order is kept,
    /// since removing edges leaves any topological order valid. Unlike
    /// [`Self::replace_gate`], the order afterwards may differ from the
    /// fresh one a netlist rebuilt from the same parts gets (the module
    /// doc says why no engine result depends on it). A netlist that is
    /// not acyclic takes the full rebuild instead.
    ///
    /// Returns `id`'s fanout cone in topological order, stem first (what
    /// [`Self::fanout_cone_sorted`] now returns): the lines whose values
    /// the tie can change, in the order a resimulation visits them.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] — and leaves the netlist
    /// unchanged — if `id` is out of range.
    pub fn tie(&mut self, id: GateId, value: bool) -> Result<Vec<GateId>, NetlistError> {
        let n = self.len();
        if id.index() >= n {
            return Err(NetlistError::UnknownGate { gate: id });
        }
        let gate = &mut self.gates[id.index()];
        let was_input = gate.kind() == GateKind::Input;
        let first_fanin = gate
            .fanins()
            .iter()
            .map(|f| f.index())
            .filter(|&f| f < n)
            .min();
        gate.set_kind(if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        });
        gate.set_fanins(Vec::new());
        if !self.acyclic {
            self.rebuild();
            return Ok(self.fanout_cone_sorted(id));
        }
        let Netlist {
            inputs,
            fanout_start,
            fanout_ids,
            ..
        } = self;
        if let Some(first) = first_fanin {
            // `id` is listed only among its old fanins' readers: compact
            // the flat array from the first of them on, moving each later
            // line's start offset down past the removed entries.
            let mut kept = fanout_start[first] as usize;
            for line in first..n {
                let (start, end) = (fanout_start[line] as usize, fanout_start[line + 1] as usize);
                fanout_start[line] = kept as u32;
                for k in start..end {
                    let reader = fanout_ids[k];
                    if reader != id {
                        fanout_ids[kept] = reader;
                        kept += 1;
                    }
                }
            }
            fanout_start[n] = kept as u32;
            fanout_ids.truncate(kept);
        }
        if was_input {
            inputs.retain(|&pi| pi != id);
        }
        let cone = self.fanout_cone_sorted(id);
        // Only the cone's fanin edges changed, and a cone member's fanins
        // precede it in the order: one pass in that order settles every
        // level (cone members are never DFFs, whose level stays 0).
        let Netlist { gates, levels, .. } = self;
        levels[id.index()] = 0;
        for &g in &cone[1..] {
            levels[g.index()] = gates[g.index()]
                .fanins()
                .iter()
                .filter(|f| f.index() < n)
                .map(|f| levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        Ok(cone)
    }

    /// Appends a new gate, returning its id. Existing ids are unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if a fanin is out of range or the arity is invalid.
    pub fn append_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        let id = GateId::from_index(self.len());
        let (lo, hi) = kind.arity();
        if fanins.len() < lo || fanins.len() > hi {
            return Err(NetlistError::BadArity {
                gate: id,
                kind,
                found: fanins.len(),
            });
        }
        for &f in &fanins {
            if f.index() >= self.len() {
                return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
            }
        }
        self.gates.push(Gate::new(kind, fanins));
        self.rebuild();
        Ok(id)
    }

    /// Replaces the primary output list.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or references unknown gates.
    pub fn set_outputs(&mut self, outputs: Vec<GateId>) -> Result<(), NetlistError> {
        if outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        if let Some(&bad) = outputs.iter().find(|o| o.index() >= self.len()) {
            return Err(NetlistError::DanglingOutput { gate: bad });
        }
        self.outputs = outputs;
        Ok(())
    }

    /// Summary statistics (gate counts per kind, line counts, depth).
    pub fn stats(&self) -> NetlistStats {
        let mut by_kind = HashMap::new();
        for g in &self.gates {
            *by_kind.entry(g.kind()).or_insert(0usize) += 1;
        }
        // The classic "circuit lines" count: one line per driven stem plus
        // one per additional fanout branch (a stem with k>1 readers has k
        // branch lines).
        let branch_lines: usize = self
            .fanout_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .filter(|&k| k > 1)
            .sum();
        NetlistStats {
            gates: self.gates.len(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            dffs: by_kind.get(&GateKind::Dff).copied().unwrap_or(0),
            lines: self.gates.len() + branch_lines,
            depth: self.max_level(),
            by_kind,
        }
    }

    /// Sets or clears the declared name of a line.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_name(&mut self, id: GateId, name: Option<String>) {
        assert!(id.index() < self.len(), "set_name: {id} out of range");
        let names = Arc::make_mut(&mut self.names);
        if id.index() >= names.len() {
            names.resize(self.gates.len(), None);
        }
        names[id.index()] = name;
    }

    /// Rebuilds inputs, fanouts, topological order and levels, reusing
    /// the existing buffers.
    ///
    /// Fanouts are filled by a counting sort over the fanin lists, so each
    /// line's readers come out in ascending id order. The topological order
    /// is a fresh Kahn pass seeded with the zero in-degree gates in id
    /// order, so it depends only on the structure (see the module doc).
    ///
    /// The validating construction paths (builder validation /
    /// `replace_gate` cone check) guarantee an acyclic combinational part,
    /// so the Kahn pass consumes every gate and `acyclic` stays `true`.
    /// Structures admitted via [`Netlist::from_parts_unchecked`] may be
    /// cyclic or reference out-of-range fanins; the pass is tolerant of
    /// both (out-of-range edges are ignored, cyclic gates are appended to
    /// the topological order in id order) so the lint layer can inspect
    /// the structure instead of the constructor crashing.
    ///
    /// Returns how many gates the Kahn pass ordered: all of them unless
    /// the structure is cyclic.
    fn rebuild(&mut self) -> usize {
        let Netlist {
            gates,
            inputs,
            fanout_start,
            fanout_ids,
            topo,
            topo_pos,
            levels,
            acyclic,
            ..
        } = self;
        let n = gates.len();
        inputs.clear();
        inputs.extend(
            gates
                .iter()
                .enumerate()
                .filter(|(_, g)| g.kind() == GateKind::Input)
                .map(|(i, _)| GateId::from_index(i)),
        );
        // Counting sort: count each line's readers into the slot after it,
        // prefix-sum to start offsets, scatter readers while advancing each
        // line's start to its end, then shift the offsets back by one.
        fanout_start.clear();
        fanout_start.resize(n + 1, 0);
        for g in gates.iter() {
            for &f in g.fanins() {
                if f.index() < n {
                    fanout_start[f.index() + 1] += 1;
                }
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        fanout_ids.clear();
        fanout_ids.resize(fanout_start[n] as usize, GateId(0));
        for (i, g) in gates.iter().enumerate() {
            for &f in g.fanins() {
                if f.index() < n {
                    let slot = &mut fanout_start[f.index()];
                    fanout_ids[*slot as usize] = GateId::from_index(i);
                    *slot += 1;
                }
            }
        }
        fanout_start.copy_within(0..n, 1);
        fanout_start[0] = 0;
        // Kahn over combinational edges: a DFF ignores its fanin edge.
        // `topo` doubles as the queue (gates leave it in the order they
        // enter), and `topo_pos` holds the in-degrees until the end.
        let indeg = topo_pos;
        indeg.clear();
        indeg.extend(gates.iter().map(|g| {
            if g.kind() == GateKind::Dff {
                0
            } else {
                g.fanins().iter().filter(|f| f.index() < n).count() as u32
            }
        }));
        topo.clear();
        topo.extend((0..n).filter(|&i| indeg[i] == 0).map(GateId::from_index));
        levels.clear();
        levels.resize(n, 0);
        let mut head = 0;
        while head < topo.len() {
            let g = topo[head].index();
            head += 1;
            let lvl = levels[g] + 1;
            for &f in &fanout_ids[fanout_start[g] as usize..fanout_start[g + 1] as usize] {
                let f = f.index();
                if gates[f].kind() == GateKind::Dff {
                    continue;
                }
                if lvl > levels[f] {
                    levels[f] = lvl;
                }
                indeg[f] -= 1;
                if indeg[f] == 0 {
                    topo.push(GateId::from_index(f));
                }
            }
        }
        let ordered = topo.len();
        *acyclic = ordered == n;
        if !*acyclic {
            // Cyclic leftovers: append in id order so every gate has a
            // topo position (required by the structural queries the lint
            // analyses run); the order is only partial on the cycles.
            topo.extend((0..n).filter(|&i| indeg[i] > 0).map(GateId::from_index));
        }
        let topo_pos = indeg;
        for (pos, &g) in topo.iter().enumerate() {
            topo_pos[g.index()] = pos as u32;
        }
        ordered
    }

    pub(crate) fn from_parts(
        gates: Vec<Gate>,
        names: Vec<Option<String>>,
        outputs: Vec<GateId>,
    ) -> Result<Self, NetlistError> {
        let n = gates.len();
        for (i, g) in gates.iter().enumerate() {
            let id = GateId::from_index(i);
            let (lo, hi) = g.kind().arity();
            if g.fanins().len() < lo || g.fanins().len() > hi {
                return Err(NetlistError::BadArity {
                    gate: id,
                    kind: g.kind(),
                    found: g.fanins().len(),
                });
            }
            for &f in g.fanins() {
                if f.index() >= n {
                    return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
                }
            }
        }
        if outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        if let Some(&bad) = outputs.iter().find(|o| o.index() >= n) {
            return Err(NetlistError::DanglingOutput { gate: bad });
        }
        let mut nl = Netlist::unbuilt(gates, names, outputs);
        let ordered = nl.rebuild();
        if ordered < n {
            // The gates left on or behind a cycle follow the ordered ones
            // in id order: report the lowest of them.
            return Err(NetlistError::CombinationalCycle {
                gate: nl.topo[ordered],
            });
        }
        Ok(nl)
    }

    /// Builds a netlist from raw parts with **no structural validation**.
    ///
    /// This is the escape hatch for static-analysis tooling: it admits
    /// combinational cycles, out-of-range fanins and outputs, arity
    /// violations, and an empty output list — exactly the hazards
    /// `incdx-lint` exists to report. Out-of-range fanin references are
    /// ignored by the structural queries (`fanouts`, `topo_order`,
    /// `level`), and for a cyclic netlist the topological order is only
    /// partial (see [`Netlist::is_acyclic`]), so **simulation results are
    /// undefined** until the netlist lints clean. Every validating
    /// constructor ([`crate::NetlistBuilder::build`], the `.bench`
    /// parser) should be preferred when the structure is meant to be
    /// sound.
    pub fn from_parts_unchecked(
        gates: Vec<Gate>,
        names: Vec<Option<String>>,
        outputs: Vec<GateId>,
    ) -> Self {
        let mut nl = Netlist::unbuilt(gates, names, outputs);
        nl.rebuild();
        nl
    }

    /// The parts with empty structural caches, for `rebuild` to fill.
    fn unbuilt(gates: Vec<Gate>, mut names: Vec<Option<String>>, outputs: Vec<GateId>) -> Self {
        names.resize(gates.len(), None);
        Netlist {
            gates,
            names: Arc::new(names),
            inputs: Vec::new(),
            outputs,
            fanout_start: Vec::new(),
            fanout_ids: Vec::new(),
            topo: Vec::new(),
            topo_pos: Vec::new(),
            levels: Vec::new(),
            acyclic: true,
        }
    }
}

/// Summary statistics of a [`Netlist`], from [`Netlist::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total gate count, primary inputs included.
    pub gates: usize,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// DFF count (0 for combinational circuits).
    pub dffs: usize,
    /// Classic "circuit lines" count: stems plus fanout branches.
    pub lines: usize,
    /// Maximum combinational level.
    pub depth: u32,
    /// Gate count per kind.
    pub by_kind: HashMap<GateKind, usize>,
}

/// Incremental builder for [`Netlist`], created by [`Netlist::builder`].
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    gates: Vec<Gate>,
    names: Vec<Option<String>>,
    outputs: Vec<GateId>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named primary input, returning its line id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = GateId::from_index(self.gates.len());
        self.gates.push(Gate::new(GateKind::Input, Vec::new()));
        self.names.push(Some(name.into()));
        id
    }

    /// Adds an anonymous gate, returning its line id.
    pub fn add_gate(&mut self, kind: GateKind, fanins: Vec<GateId>) -> GateId {
        let id = GateId::from_index(self.gates.len());
        self.gates.push(Gate::new(kind, fanins));
        self.names.push(None);
        id
    }

    /// Adds a named gate, returning its line id.
    pub fn add_named_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<GateId>,
        name: impl Into<String>,
    ) -> GateId {
        let id = self.add_gate(kind, fanins);
        self.names[id.index()] = Some(name.into());
        id
    }

    /// Declares `id` a primary output.
    pub fn add_output(&mut self, id: GateId) -> &mut Self {
        self.outputs.push(id);
        self
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Has nothing been added yet?
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Validates and finalizes the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error on dangling fanins, invalid arities, combinational
    /// cycles, or a missing output list.
    pub fn build(self) -> Result<Netlist, NetlistError> {
        Netlist::from_parts(self.gates, self.names, self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        // c17-like: two-level NAND structure.
        let mut b = Netlist::builder();
        let i1 = b.add_input("i1");
        let i2 = b.add_input("i2");
        let i3 = b.add_input("i3");
        let g1 = b.add_gate(GateKind::Nand, vec![i1, i2]);
        let g2 = b.add_gate(GateKind::Nand, vec![i2, i3]);
        let g3 = b.add_gate(GateKind::Nand, vec![g1, g2]);
        b.add_output(g3);
        b.build().expect("valid netlist")
    }

    #[test]
    fn build_and_query() {
        let n = tiny();
        assert_eq!(n.len(), 6);
        assert_eq!(n.inputs().len(), 3);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.level(GateId(5)), 2);
        assert_eq!(n.level(GateId(0)), 0);
        assert_eq!(n.max_level(), 2);
        assert!(n.is_combinational());
        assert_eq!(n.find_by_name("i2"), Some(GateId(1)));
        assert_eq!(n.name(GateId(3)), None);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = tiny();
        let topo = n.topo_order();
        assert_eq!(topo.len(), n.len());
        for (id, g) in n.iter() {
            for &f in g.fanins() {
                assert!(
                    n.topo_position(f) < n.topo_position(id),
                    "fanin {f} must precede {id}"
                );
            }
        }
    }

    #[test]
    fn fanouts_are_consistent_with_fanins() {
        let n = tiny();
        // i2 feeds g1 (id 3) and g2 (id 4).
        assert_eq!(n.fanouts(GateId(1)), &[GateId(3), GateId(4)]);
        assert!(n.fanouts(GateId(5)).is_empty());
    }

    #[test]
    fn fanout_cone_and_fanin_cone() {
        let n = tiny();
        let cone = n.fanout_cone(GateId(1));
        assert_eq!(cone.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        let sorted = n.fanout_cone_sorted(GateId(1));
        assert_eq!(*sorted.last().unwrap(), GateId(5));
        let fic = n.fanin_cone(GateId(3));
        assert_eq!(fic.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn replace_gate_keeps_ids_and_rebuilds() {
        let mut n = tiny();
        n.replace_gate(GateId(3), GateKind::Or, vec![GateId(0), GateId(1)])
            .unwrap();
        assert_eq!(n.gate(GateId(3)).kind(), GateKind::Or);
        assert_eq!(n.len(), 6);
        // Level structure unchanged here.
        assert_eq!(n.level(GateId(5)), 2);
    }

    #[test]
    fn replace_gate_rejects_cycle() {
        let mut n = tiny();
        // Feeding g3 (the PO, in g1's fanout cone) back into g1 is a cycle.
        let err = n
            .replace_gate(GateId(3), GateKind::And, vec![GateId(0), GateId(5)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
        // Netlist is unchanged.
        assert_eq!(n.gate(GateId(3)).kind(), GateKind::Nand);
    }

    #[test]
    fn replace_gate_rejects_bad_arity() {
        let mut n = tiny();
        let err = n
            .replace_gate(GateId(3), GateKind::Not, vec![GateId(0), GateId(1)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn tie_keeps_the_order_and_relevels_the_cone() {
        let mut n = tiny();
        let order = n.topo_order().to_vec();
        let cone = n.tie(GateId(3), true).unwrap();
        assert_eq!(cone, vec![GateId(3), GateId(5)]);
        assert_eq!(n.gate(GateId(3)).kind(), GateKind::Const1);
        assert!(n.fanouts(GateId(0)).is_empty());
        assert_eq!(n.fanouts(GateId(1)), &[GateId(4)]);
        assert_eq!((n.level(GateId(3)), n.level(GateId(5))), (0, 2));
        assert_eq!(n.topo_order(), order.as_slice());
        // A tied primary input leaves the input list.
        n.tie(GateId(2), false).unwrap();
        assert_eq!(n.inputs(), &[GateId(0), GateId(1)]);
        n.tie(GateId(4), false).unwrap();
        assert_eq!(n.level(GateId(5)), 1);
        assert_eq!(n.topo_order(), order.as_slice());
        assert!(matches!(
            n.tie(GateId(9), false),
            Err(NetlistError::UnknownGate { .. })
        ));
    }

    #[test]
    fn append_gate_extends_without_disturbing() {
        let mut n = tiny();
        let inv = n.append_gate(GateKind::Not, vec![GateId(5)]).unwrap();
        assert_eq!(inv, GateId(6));
        assert_eq!(n.level(inv), 3);
        n.set_outputs(vec![inv]).unwrap();
        assert_eq!(n.outputs(), &[inv]);
    }

    #[test]
    fn builder_rejects_cycle() {
        let mut b = Netlist::builder();
        let a = b.add_input("a");
        // Forward reference forming a 2-cycle.
        let g1 = b.add_gate(GateKind::And, vec![a, GateId(2)]);
        let g2 = b.add_gate(GateKind::Or, vec![g1, a]);
        b.add_output(g2);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn builder_rejects_dangling_fanin() {
        let mut b = Netlist::builder();
        let a = b.add_input("a");
        let g = b.add_gate(GateKind::Not, vec![GateId(99)]);
        b.add_output(g);
        let _ = a;
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::DanglingFanin { .. }
        ));
    }

    #[test]
    fn builder_rejects_missing_outputs() {
        let mut b = Netlist::builder();
        b.add_input("a");
        assert!(matches!(b.build().unwrap_err(), NetlistError::NoOutputs));
    }

    #[test]
    fn dff_breaks_cycles_and_levels() {
        // A DFF feedback loop (counter bit): valid sequential structure.
        let mut b = Netlist::builder();
        let q = b.add_gate(GateKind::Dff, vec![GateId(1)]);
        let d = b.add_gate(GateKind::Not, vec![q]);
        b.add_output(d);
        let n = b.build().expect("dff cycle is legal");
        assert_eq!(n.level(q), 0);
        assert_eq!(n.level(d), 1);
        assert!(!n.is_combinational());
        assert_eq!(n.dffs(), vec![q]);
        // Fanout cone stops at the DFF.
        assert_eq!(n.fanout_cone(d).len(), 1);
    }

    #[test]
    fn ensure_combinational_reports_dff_count() {
        assert_eq!(tiny().ensure_combinational(), Ok(()));
        let mut b = Netlist::builder();
        let a = b.add_input("a");
        let q1 = b.add_gate(GateKind::Dff, vec![a]);
        let q2 = b.add_gate(GateKind::Dff, vec![q1]);
        b.add_output(q2);
        let n = b.build().expect("valid sequential netlist");
        assert_eq!(
            n.ensure_combinational(),
            Err(NetlistError::Sequential { dffs: 2 })
        );
    }

    #[test]
    fn stats_count_lines_with_branches() {
        let n = tiny();
        let s = n.stats();
        assert_eq!(s.gates, 6);
        assert_eq!(s.inputs, 3);
        // i2 has two fanout branches; every other line is stem-only:
        // 6 stems + 2 branches.
        assert_eq!(s.lines, 8);
        assert_eq!(s.by_kind[&GateKind::Nand], 3);
        assert_eq!(s.depth, 2);
    }
}
