//! Traversal strategies: which open decision-tree node expands next.
//!
//! The paper's contribution (Fig. 2) is the round-based schedule of
//! [`RoundRobinBfs`]: every node present at the start of a *round*
//! applies its next-best candidate, so the tree grows in both depth and
//! breadth and at most doubles per round. [`DepthFirst`] and
//! [`NaiveBfs`] are the paper's strawmen ("a wrong decision at the top
//! may strand the search" / "excessive computation"); [`BestFirst`] is
//! a greedy policy ordering the frontier by the next candidate's
//! heuristic-1 score scaled down by the node's failing-vector count.
//!
//! Strategies only *schedule*; admission (depth/node caps) lives in
//! [`Tree`], and node evaluation is the engine's job — so every policy
//! explores the same node set semantics and differs purely in order.

use std::fmt::Debug;
use std::str::FromStr;

use crate::error::IncdxError;
use crate::tree::{Node, RankedCorrection, Tree};

/// A frontier-scheduling policy over the decision [`Tree`].
pub trait Traversal: Debug + Send {
    /// Stable name, reported in [`RectifyStats`](crate::RectifyStats)
    /// and the JSON reports.
    fn name(&self) -> &'static str;

    /// Iteration budget for one parameter-ladder level. The default is
    /// the single-step formula (each iteration expands one node, so the
    /// budget scales with the node cap); [`RoundRobinBfs`] overrides it
    /// to the round cap, since one of its iterations sweeps the whole
    /// frontier.
    fn iteration_budget(&self, max_rounds: usize, max_nodes: usize) -> usize {
        max_nodes
            .saturating_mul(4)
            .min(max_rounds.saturating_mul(1 << 12))
    }

    /// Fills `plan` with the node indices to expand this iteration, in
    /// order. `plan` arrives cleared. An empty plan ends the level.
    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>);

    /// The policy reduced to a priority for the child reached by
    /// applying `candidate` to `parent`: higher means sooner. The
    /// default is breadth-first (shallower children first), matching
    /// both BFS policies. The engine never reads this; it stays only
    /// because perfbench still forwards it, and goes once perfbench
    /// stops (ROADMAP item 2).
    fn frontier_priority(&self, parent: &Node, candidate: &RankedCorrection) -> f64 {
        let _ = candidate;
        -((parent.depth() + 1) as f64)
    }

    /// Offers the policy a per-line SCOAP observability table (`CO`,
    /// indexed by `GateId::index` on the session's base netlist; lower
    /// means easier to observe). Called once by the engine right after
    /// the strategy is built. The default ignores it; [`BestFirst`]
    /// stores it and uses it as an infinitesimal tie-break so that among
    /// equally promising candidates the most observable line goes first.
    fn seed_observability(&mut self, co: &[u32]) {
        let _ = co;
    }
}

/// The paper's round-based schedule: every node present at the start of
/// the round, oldest first. Closed nodes are deliberately kept in the
/// plan — the engine uses those visits to release their cached
/// matrices, exactly as the pre-refactor loop did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinBfs;

impl Traversal for RoundRobinBfs {
    fn name(&self) -> &'static str {
        "round-robin-bfs"
    }

    fn iteration_budget(&self, max_rounds: usize, _max_nodes: usize) -> usize {
        max_rounds
    }

    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>) {
        plan.extend(0..tree.len());
    }
}

/// Greedy depth-first: always extend the most recently created open
/// node.
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthFirst;

impl Traversal for DepthFirst {
    fn name(&self) -> &'static str {
        "depth-first"
    }

    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>) {
        plan.extend(tree.nodes().iter().rposition(Node::open));
    }

    fn frontier_priority(&self, parent: &Node, _candidate: &RankedCorrection) -> f64 {
        (parent.depth() + 1) as f64
    }
}

/// Naive breadth-first: exhaust every candidate of the oldest open node
/// before moving on.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBfs;

impl Traversal for NaiveBfs {
    fn name(&self) -> &'static str {
        "naive-bfs"
    }

    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>) {
        plan.extend(tree.nodes().iter().position(Node::open));
    }
}

/// Greedy best-first: expand the open node maximizing
/// `next-candidate h1 / failing-vector count` — prefer nodes whose best
/// untried correction promises the largest relative repair.
///
/// Tie-breaking is part of the contract, not an accident of iteration:
/// equal priorities (compared with the total order of
/// [`f64::total_cmp`], so NaN scores cannot poison the comparison)
/// resolve toward the *lowest node index*, i.e. stable creation order.
/// Node indices are the tree's push sequence numbers, so the scheduled
/// node is a deterministic function of the tree contents alone, so a
/// run replays identically.
#[derive(Debug, Clone, Default)]
pub struct BestFirst {
    /// SCOAP `CO` per line of the base netlist (empty until seeded).
    co: Vec<u32>,
}

impl BestFirst {
    /// An infinitesimal bonus favouring more observable lines. Scaled to
    /// `1e-9` so it can only reorder candidates whose heuristic scores
    /// tie exactly (distinct h1 ratios on realistic tree sizes differ by
    /// far more); unseeded strategies add nothing, preserving pure
    /// creation-order tie-breaks.
    fn co_bonus(&self, line: incdx_netlist::GateId) -> f64 {
        if self.co.is_empty() {
            return 0.0;
        }
        // Lines beyond the seeded table (grown by InsertGate corrections)
        // get the best-case CO of 0: a neutral, deterministic choice.
        let co = self.co.get(line.index()).copied().unwrap_or(0);
        1e-9 / (1.0 + co as f64)
    }

    fn priority(&self, node: &Node) -> Option<f64> {
        let cand = node.peek()?;
        Some(cand.h1_score / node.failing.max(1) as f64 + self.co_bonus(cand.correction.line()))
    }
}

impl Traversal for BestFirst {
    fn name(&self) -> &'static str {
        "best-first"
    }

    fn schedule(&mut self, tree: &Tree, plan: &mut Vec<usize>) {
        let mut best: Option<(usize, f64)> = None;
        for (idx, node) in tree.nodes().iter().enumerate() {
            let Some(p) = self.priority(node) else {
                continue;
            };
            let better = match best {
                None => true,
                Some((best_idx, bp)) => match p.total_cmp(&bp) {
                    std::cmp::Ordering::Greater => true,
                    // Explicit stable order: on an exact tie the lower
                    // (older) sequence number wins. Iteration is
                    // ascending so `idx > best_idx` here, but spelling
                    // the rule out keeps it load-bearing, not
                    // incidental.
                    std::cmp::Ordering::Equal => idx < best_idx,
                    std::cmp::Ordering::Less => false,
                },
            };
            if better {
                best = Some((idx, p));
            }
        }
        plan.extend(best.map(|(idx, _)| idx));
    }

    fn frontier_priority(&self, parent: &Node, candidate: &RankedCorrection) -> f64 {
        candidate.h1_score / parent.failing.max(1) as f64
            + self.co_bonus(candidate.correction.line())
    }

    fn seed_observability(&mut self, co: &[u32]) {
        self.co = co.to_vec();
    }
}

/// Selector for the built-in traversal strategies — the value carried
/// by [`RectifyConfig::traversal`](crate::RectifyConfig::traversal) and
/// the `--traversal` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraversalKind {
    /// [`RoundRobinBfs`] — the paper's rounds (default).
    #[default]
    RoundRobinBfs,
    /// [`DepthFirst`].
    DepthFirst,
    /// [`NaiveBfs`].
    NaiveBfs,
    /// [`BestFirst`].
    BestFirst,
}

impl TraversalKind {
    /// Every built-in strategy, in presentation order.
    pub const ALL: [TraversalKind; 4] = [
        TraversalKind::RoundRobinBfs,
        TraversalKind::DepthFirst,
        TraversalKind::NaiveBfs,
        TraversalKind::BestFirst,
    ];

    /// The canonical CLI token (`bfs`, `dfs`, `naive-bfs`, `best-first`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraversalKind::RoundRobinBfs => "bfs",
            TraversalKind::DepthFirst => "dfs",
            TraversalKind::NaiveBfs => "naive-bfs",
            TraversalKind::BestFirst => "best-first",
        }
    }

    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn Traversal> {
        match self {
            TraversalKind::RoundRobinBfs => Box::new(RoundRobinBfs),
            TraversalKind::DepthFirst => Box::new(DepthFirst),
            TraversalKind::NaiveBfs => Box::new(NaiveBfs),
            TraversalKind::BestFirst => Box::new(BestFirst::default()),
        }
    }
}

impl FromStr for TraversalKind {
    type Err = IncdxError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bfs" | "rounds" | "round-robin-bfs" => Ok(TraversalKind::RoundRobinBfs),
            "dfs" | "depth-first" => Ok(TraversalKind::DepthFirst),
            "naive-bfs" => Ok(TraversalKind::NaiveBfs),
            "best-first" | "best" => Ok(TraversalKind::BestFirst),
            other => Err(IncdxError::UnknownTraversal(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RankedCorrection;
    use incdx_fault::{Correction, CorrectionAction};
    use incdx_netlist::GateId;

    fn rc(h1: f64) -> RankedCorrection {
        RankedCorrection {
            correction: Correction::new(GateId(0), CorrectionAction::SetConst(true)),
            rank: h1,
            h1_score: h1,
            h2_fraction: 1.0,
            h3_score: 1.0,
        }
    }

    fn tree_with(nodes: Vec<Node>) -> Tree {
        let mut t = Tree::new(8, 64);
        let mut it = nodes.into_iter();
        if let Some(root) = it.next() {
            t.push_root(root);
        }
        for n in it {
            assert!(matches!(t.push(n), crate::tree::PushOutcome::Added(_)));
        }
        t
    }

    fn child(k: u32, cands: Vec<RankedCorrection>, failing: usize) -> Node {
        Node::new(
            vec![Correction::new(
                GateId(k),
                CorrectionAction::SetConst(false),
            )],
            cands,
            failing,
        )
    }

    #[test]
    fn round_robin_schedules_every_node_including_closed() {
        let t = tree_with(vec![
            Node::new(vec![], vec![], 1), // closed
            child(1, vec![rc(0.2)], 1),
        ]);
        let mut plan = Vec::new();
        RoundRobinBfs.schedule(&t, &mut plan);
        assert_eq!(plan, vec![0, 1]);
        assert_eq!(RoundRobinBfs.iteration_budget(48, 1024), 48);
    }

    #[test]
    fn dfs_picks_newest_open_and_bfs_oldest_open() {
        let t = tree_with(vec![
            Node::new(vec![], vec![], 1), // closed root
            child(1, vec![rc(0.2)], 1),
            child(2, vec![rc(0.9)], 1),
        ]);
        let mut plan = Vec::new();
        DepthFirst.schedule(&t, &mut plan);
        assert_eq!(plan, vec![2]);
        plan.clear();
        NaiveBfs.schedule(&t, &mut plan);
        assert_eq!(plan, vec![1]);
    }

    #[test]
    fn best_first_maximizes_h1_over_failing() {
        let t = tree_with(vec![
            Node::new(vec![], vec![rc(0.5)], 10), // 0.05
            child(1, vec![rc(0.4)], 2),           // 0.2  <- winner
            child(2, vec![rc(0.6)], 4),           // 0.15
            child(3, vec![], 1),                  // closed
        ]);
        let mut plan = Vec::new();
        BestFirst::default().schedule(&t, &mut plan);
        assert_eq!(plan, vec![1]);
    }

    #[test]
    fn best_first_breaks_ties_toward_oldest() {
        let t = tree_with(vec![
            Node::new(vec![], vec![rc(0.4)], 2),
            child(1, vec![rc(0.4)], 2),
        ]);
        let mut plan = Vec::new();
        BestFirst::default().schedule(&t, &mut plan);
        assert_eq!(plan, vec![0]);
    }

    #[test]
    fn best_first_tie_break_is_stable_sequence_order() {
        // Regression: a frontier full of exactly-equal priorities must
        // schedule the lowest sequence number (creation order), for any
        // frontier size and regardless of where the tied class sits.
        for tied in 2..6usize {
            let mut nodes = vec![Node::new(vec![], vec![], 1)]; // closed root
            for k in 0..tied {
                nodes.push(child(k as u32 + 1, vec![rc(0.25)], 4));
            }
            let t = tree_with(nodes);
            let mut plan = Vec::new();
            BestFirst::default().schedule(&t, &mut plan);
            assert_eq!(plan, vec![1], "tied class of {tied} must pick oldest");
        }
        // NaN h1 scores take a fixed place in total_cmp's total order
        // (positive NaN above every real) instead of poisoning the
        // comparison — what the determinism contract needs is a total,
        // stable order.
        let t = tree_with(vec![
            Node::new(vec![], vec![rc(f64::NAN)], 1),
            child(1, vec![rc(0.1)], 1),
        ]);
        let mut plan = Vec::new();
        BestFirst::default().schedule(&t, &mut plan);
        assert_eq!(plan, vec![0]);
    }

    #[test]
    fn seeded_best_first_breaks_exact_ties_by_observability() {
        fn rc_at(line: u32, h1: f64) -> RankedCorrection {
            RankedCorrection {
                correction: Correction::new(GateId(line), CorrectionAction::SetConst(true)),
                rank: h1,
                h1_score: h1,
                h2_fraction: 1.0,
                h3_score: 1.0,
            }
        }
        // Two open nodes with exactly tied h1/failing, differing only in
        // which line their next candidate touches.
        let t = tree_with(vec![
            Node::new(vec![], vec![rc_at(0, 0.25)], 4), // CO 9
            child(9, vec![rc_at(1, 0.25)], 4),          // CO 2 <- more observable
        ]);
        let mut seeded = BestFirst::default();
        seeded.seed_observability(&[9, 2]);
        let mut plan = Vec::new();
        seeded.schedule(&t, &mut plan);
        assert_eq!(plan, vec![1], "seeded CO must win exact ties");
        // Unseeded: pure creation order.
        let mut plan = Vec::new();
        BestFirst::default().schedule(&t, &mut plan);
        assert_eq!(plan, vec![0]);
        // The bonus never outweighs a real score difference.
        let t2 = tree_with(vec![
            Node::new(vec![], vec![rc_at(0, 0.26)], 4),
            child(9, vec![rc_at(1, 0.25)], 4),
        ]);
        let mut plan = Vec::new();
        seeded.schedule(&t2, &mut plan);
        assert_eq!(plan, vec![0]);
        // Frontier priorities see the same bonus.
        let parent = child(9, vec![rc_at(1, 0.5)], 4);
        assert!(
            seeded.frontier_priority(&parent, &rc_at(1, 0.8))
                > seeded.frontier_priority(&parent, &rc_at(0, 0.8))
        );
    }

    #[test]
    fn frontier_priorities_encode_the_policies() {
        let parent = child(1, vec![rc(0.5)], 4); // depth 1
        let cand = rc(0.8);
        // BFS policies: shallower children first (higher = sooner).
        assert_eq!(RoundRobinBfs.frontier_priority(&parent, &cand), -2.0);
        assert_eq!(NaiveBfs.frontier_priority(&parent, &cand), -2.0);
        // DFS: deeper children first.
        assert_eq!(DepthFirst.frontier_priority(&parent, &cand), 2.0);
        // Best-first: the candidate's own h1 per failing vector.
        assert_eq!(BestFirst::default().frontier_priority(&parent, &cand), 0.2);
    }

    #[test]
    fn single_step_budget_scales_with_node_cap() {
        assert_eq!(DepthFirst.iteration_budget(48, 1024), 4096);
        assert_eq!(BestFirst::default().iteration_budget(1, 1024), 4096);
        assert_eq!(NaiveBfs.iteration_budget(usize::MAX, 10), 40);
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in TraversalKind::ALL {
            assert_eq!(kind.as_str().parse::<TraversalKind>().unwrap(), kind);
            assert!(!kind.build().name().is_empty());
        }
        assert_eq!(
            "rounds".parse::<TraversalKind>().unwrap(),
            TraversalKind::RoundRobinBfs
        );
        assert_eq!(
            "best".parse::<TraversalKind>().unwrap(),
            TraversalKind::BestFirst
        );
        assert!(matches!(
            "zigzag".parse::<TraversalKind>(),
            Err(IncdxError::UnknownTraversal(_))
        ));
    }
}
