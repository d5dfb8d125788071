//! The decision tree of §3.3 (Fig. 2): an arena of nodes, each holding
//! its ranked correction candidates and a cursor to the next untried
//! one. The [`Tree`] owns the depth bound (maximum tuple size) and the
//! node cap; [`Traversal`](crate::Traversal) strategies decide *which*
//! open node expands next, but admission is policed here so every
//! strategy shares identical cap semantics.

use incdx_fault::Correction;

/// A correction candidate that survived screening, with its scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedCorrection {
    /// The screened correction.
    pub correction: Correction,
    /// The ranking value `(1 − V_ratio)·h3 + V_ratio·h1` of §3.3.
    pub rank: f64,
    /// Fraction of failing vectors this correction fixes (its `h1`).
    pub h1_score: f64,
    /// Fraction of `V_err` bit-list entries it complements (heuristic 2).
    pub h2_fraction: f64,
    /// Fraction of previously-correct vectors it keeps correct (its `h3`).
    pub h3_score: f64,
}

/// One node of the decision tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The corrections applied on the path from the root.
    pub corrections: Vec<Correction>,
    /// Screened candidates, best rank first.
    pub candidates: Vec<RankedCorrection>,
    /// Index of the next candidate to expand.
    pub next: usize,
    /// Failing vectors observed when the node was evaluated (priority
    /// signal for [`BestFirst`](crate::BestFirst)).
    pub failing: usize,
}

impl Node {
    /// A fresh node with its cursor at the first candidate.
    pub fn new(
        corrections: Vec<Correction>,
        candidates: Vec<RankedCorrection>,
        failing: usize,
    ) -> Self {
        Node {
            corrections,
            candidates,
            next: 0,
            failing,
        }
    }

    /// Is there anything left to expand?
    pub fn open(&self) -> bool {
        self.next < self.candidates.len()
    }

    /// Depth in the tree — the length of the correction tuple.
    pub fn depth(&self) -> usize {
        self.corrections.len()
    }

    /// The next untried candidate, if any.
    pub fn peek(&self) -> Option<&RankedCorrection> {
        self.candidates.get(self.next)
    }
}

/// Outcome of [`Tree::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The node joined the tree at this index.
    Added(usize),
    /// Rejected: the tree is at its node cap (the search is truncated).
    NodeCapped,
    /// Rejected: the node sits at the depth bound, so it could never
    /// spawn children — keeping it would be dead weight, not truncation.
    DepthCapped,
}

/// Arena of decision-tree nodes with the engine's admission rules.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    max_depth: usize,
    max_nodes: usize,
}

impl Tree {
    /// An empty tree bounded by tuple size `max_depth` and node count
    /// `max_nodes`.
    pub fn new(max_depth: usize, max_nodes: usize) -> Self {
        Tree {
            nodes: Vec::new(),
            max_depth,
            max_nodes,
        }
    }

    /// All nodes, in creation order (index = node id).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by index.
    pub fn get(&self, idx: usize) -> Option<&Node> {
        self.nodes.get(idx)
    }

    /// Mutable node by index.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Node> {
        self.nodes.get_mut(idx)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// No nodes yet?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Any node with untried candidates left?
    pub fn has_open(&self) -> bool {
        self.nodes.iter().any(Node::open)
    }

    /// Would a child at `depth` be admitted *and* be allowed to expand?
    /// (Both caps: depth bound and node count.)
    pub fn expandable(&self, depth: usize) -> bool {
        depth < self.max_depth && self.nodes.len() < self.max_nodes
    }

    /// Admits the root unconditionally. The root is never subject to the
    /// caps: even a zero-budget search must evaluate it to detect an
    /// already-consistent circuit.
    pub fn push_root(&mut self, node: Node) {
        self.nodes.push(node);
    }

    /// Audit hook: counts violated structural invariants — the node cap
    /// (root exempt), the depth bound for non-root nodes, candidate
    /// cursors inside bounds, and candidate lists sorted best-rank-first.
    /// Returns 0 on a healthy tree; used by the opt-in engine audit
    /// ([`RectifyConfig::audit`](crate::RectifyConfig)).
    pub fn invariant_violations(&self) -> usize {
        let mut bad = 0;
        if self.nodes.len() > self.max_nodes.max(1) {
            bad += 1;
        }
        for n in &self.nodes {
            if n.depth() > 0 && n.depth() >= self.max_depth {
                bad += 1;
            }
            if n.next > n.candidates.len() {
                bad += 1;
            }
            if n.candidates
                .windows(2)
                .any(|w| w[0].rank.total_cmp(&w[1].rank).is_lt())
            {
                bad += 1;
            }
        }
        bad
    }

    /// Admits a child node under the cap rules: the node cap wins over
    /// the depth bound (a full tree is *truncation*, reported to the
    /// caller; a depth-capped child is merely uninteresting).
    pub fn push(&mut self, node: Node) -> PushOutcome {
        if self.nodes.len() >= self.max_nodes {
            return PushOutcome::NodeCapped;
        }
        if node.depth() >= self.max_depth {
            return PushOutcome::DepthCapped;
        }
        self.nodes.push(node);
        PushOutcome::Added(self.nodes.len() - 1)
    }

    /// Rehydrates a tree from checkpointed nodes, bypassing the
    /// admission rules (every node was admitted under them when the
    /// checkpoint was captured). Callers must re-validate with
    /// [`Tree::invariant_violations`]; `Checkpoint` resume does.
    pub fn from_saved(nodes: Vec<Node>, max_depth: usize, max_nodes: usize) -> Self {
        Tree {
            nodes,
            max_depth,
            max_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_fault::CorrectionAction;
    use incdx_netlist::GateId;

    fn rc(rank: f64) -> RankedCorrection {
        RankedCorrection {
            correction: Correction::new(GateId(0), CorrectionAction::SetConst(true)),
            rank,
            h1_score: rank,
            h2_fraction: 1.0,
            h3_score: 1.0,
        }
    }

    #[test]
    fn node_open_tracks_cursor() {
        let mut n = Node::new(vec![], vec![rc(1.0)], 3);
        assert!(n.open());
        assert_eq!(n.depth(), 0);
        assert_eq!(n.failing, 3);
        assert!(n.peek().is_some());
        n.next = 1;
        assert!(!n.open());
        assert!(n.peek().is_none());
    }

    #[test]
    fn push_respects_node_cap() {
        let mut t = Tree::new(4, 2);
        t.push_root(Node::new(vec![], vec![rc(1.0)], 1));
        let child = |k: u32| {
            Node::new(
                vec![Correction::new(
                    GateId(k),
                    CorrectionAction::SetConst(false),
                )],
                vec![rc(0.5)],
                1,
            )
        };
        assert_eq!(t.push(child(1)), PushOutcome::Added(1));
        assert_eq!(t.push(child(2)), PushOutcome::NodeCapped);
        assert_eq!(t.len(), 2);
        assert!(!t.expandable(1), "full tree admits nothing");
    }

    #[test]
    fn push_respects_depth_cap_without_truncating() {
        let mut t = Tree::new(1, 100);
        t.push_root(Node::new(vec![], vec![rc(1.0)], 1));
        // A depth-1 child in a depth-1 tree can never have children.
        let deep = Node::new(
            vec![Correction::new(GateId(1), CorrectionAction::SetConst(true))],
            vec![rc(0.5)],
            1,
        );
        assert_eq!(t.push(deep), PushOutcome::DepthCapped);
        assert_eq!(t.len(), 1);
        assert!(!t.expandable(1));
        assert!(t.expandable(0));
    }

    #[test]
    fn node_cap_wins_over_depth_cap() {
        // When both caps bind, the engine must see NodeCapped — that is
        // what sets `stats.truncated` (matching the pre-refactor logic).
        let mut t = Tree::new(1, 1);
        t.push_root(Node::new(vec![], vec![rc(1.0)], 1));
        let deep = Node::new(
            vec![Correction::new(GateId(1), CorrectionAction::SetConst(true))],
            vec![],
            0,
        );
        assert_eq!(t.push(deep), PushOutcome::NodeCapped);
    }

    #[test]
    fn root_bypasses_caps() {
        let mut t = Tree::new(0, 0);
        t.push_root(Node::new(vec![], vec![], 0));
        assert_eq!(t.len(), 1);
        assert!(!t.has_open());
    }

    #[test]
    fn open_bookkeeping_over_the_arena() {
        let mut t = Tree::new(3, 10);
        t.push_root(Node::new(vec![], vec![rc(1.0), rc(0.5)], 2));
        assert!(t.has_open());
        if let Some(n) = t.get_mut(0) {
            n.next = 2;
        }
        assert!(!t.has_open());
        assert!(t.get(1).is_none());
    }
}
