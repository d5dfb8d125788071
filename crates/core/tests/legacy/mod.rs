//! A frozen copy of the pre-refactor monolithic engine (the 1610-line
//! `session.rs` before the Traversal/Evaluator/CandidatePipeline split),
//! kept as the reference implementation for the old-vs-new equivalence
//! property test in `refactor_equivalence.rs`.
//!
//! Only the default policy is retained (the paper's round-based
//! traversal); the DFS/BFS ablation arms were dropped because the
//! refactored engine's strategies are pinned against the *default*
//! behaviour. Everything else — node preparation, the incremental
//! matrix-cache path, heuristic 1, screening, stat accounting — is a
//! line-for-line copy, rebased onto the crate's public API. One later
//! engine rule, the last-slot line filter, is copied in behind a
//! constructor argument, so the oracle runs with and without it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use incdx_core::{
    correction_output_row_into, path_trace_counts, run_parallel_with, CorrectionScratch,
    ParamLevel, RankedCorrection, RectifyConfig, RectifyResult, RectifyStats, Solution, Verdict,
};
use incdx_fault::{enumerate_corrections, Correction, CorrectionAction, CorrectionModel};
use incdx_netlist::{ConeCache, ConeSet, GateId, GateKind, Netlist};
use incdx_sim::{xor_masked_count_ones, PackedBits, PackedMatrix, Response, Simulator};

// ---------------------------------------------------------------------
// Private copies of the old engine's internal types.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Node {
    corrections: Vec<Correction>,
    candidates: Vec<RankedCorrection>,
    next: usize,
}

impl Node {
    fn open(&self) -> bool {
        self.next < self.candidates.len()
    }
}

#[derive(Debug)]
struct CacheEntry {
    netlist: Netlist,
    vals: PackedMatrix,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug)]
struct NodeMatrixCache {
    entries: HashMap<Vec<Correction>, CacheEntry>,
    budget_bytes: usize,
    bytes: usize,
    tick: u64,
}

impl NodeMatrixCache {
    fn new(budget_bytes: usize) -> Self {
        NodeMatrixCache {
            entries: HashMap::new(),
            budget_bytes,
            bytes: 0,
            tick: 0,
        }
    }

    fn get_clone(&mut self, key: &[Correction]) -> Option<(Netlist, PackedMatrix)> {
        self.tick += 1;
        let e = self.entries.get_mut(key)?;
        e.last_used = self.tick;
        Some((e.netlist.clone(), e.vals.clone()))
    }

    fn insert(&mut self, key: Vec<Correction>, netlist: Netlist, vals: PackedMatrix) -> u64 {
        if self.budget_bytes == 0 {
            return 0;
        }
        let bytes = vals.rows() * vals.words_per_row() * 8 + netlist.len() * 64;
        self.tick += 1;
        let entry = CacheEntry {
            netlist,
            vals,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evictions = 0;
        while self.bytes > self.budget_bytes && !self.entries.is_empty() {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            let e = self.entries.remove(&lru).expect("present");
            self.bytes -= e.bytes;
            evictions += 1;
        }
        evictions
    }

    fn remove(&mut self, key: &[Correction]) {
        if let Some(e) = self.entries.remove(key) {
            self.bytes -= e.bytes;
        }
    }
}

enum NodeEval {
    Solved,
    Dead,
    Open { candidates: Vec<RankedCorrection> },
}

/// The pre-refactor engine, round-based traversal only.
#[derive(Debug)]
pub struct LegacyRectifier {
    base: Netlist,
    base_inputs: Vec<GateId>,
    vectors: PackedMatrix,
    spec: Response,
    config: RectifyConfig,
    sim: Simulator,
    stats: RectifyStats,
    base_cones: ConeCache,
    base_vals: Option<PackedMatrix>,
    matrix_cache: NodeMatrixCache,
    last_slot_rule: bool,
}

impl LegacyRectifier {
    /// `last_slot_rule` gives the oracle the engine's last-slot rule
    /// (`CandidatePipeline::run`): with one slot left, screen only the
    /// lines marked on every traced vector. Without it the oracle is the
    /// pre-rule engine.
    pub fn new(
        netlist: Netlist,
        vectors: PackedMatrix,
        spec: Response,
        config: RectifyConfig,
        last_slot_rule: bool,
    ) -> Self {
        assert!(
            netlist.is_combinational(),
            "scan-convert sequential circuits first"
        );
        assert_eq!(vectors.rows(), netlist.inputs().len());
        assert_eq!(spec.po_values().rows(), netlist.outputs().len());
        assert_eq!(spec.po_values().num_vectors(), vectors.num_vectors());
        let base_inputs = netlist.inputs().to_vec();
        let base_cones = ConeCache::new(&netlist);
        let matrix_cache = NodeMatrixCache::new(if config.incremental {
            config.matrix_cache_bytes
        } else {
            0
        });
        LegacyRectifier {
            base: netlist,
            base_inputs,
            vectors,
            spec,
            config,
            sim: Simulator::new(),
            stats: RectifyStats::default(),
            base_cones,
            base_vals: None,
            matrix_cache,
            last_slot_rule,
        }
    }

    pub fn run(mut self) -> RectifyResult {
        let started = Instant::now();
        let ladder = self.config.ladder.clone();
        let mut solutions = Vec::new();
        for (level_idx, level) in ladder.iter().enumerate() {
            self.stats.deepest_ladder_level = level_idx;
            solutions = self.search_level(level, started);
            let out_of_time = self
                .config
                .time_limit
                .is_some_and(|limit| started.elapsed() > limit);
            if !solutions.is_empty() || out_of_time {
                break;
            }
        }
        if self.config.exhaustive {
            solutions = minimal_solutions(solutions);
        }
        RectifyResult {
            solutions,
            stats: self.stats,
            verdict: Verdict::default(),
            partials: Vec::new(),
            checkpoint: None,
        }
    }

    fn search_level(&mut self, level: &ParamLevel, started: Instant) -> Vec<Solution> {
        let mut solutions: Vec<Solution> = Vec::new();
        let mut seen_solutions: HashSet<Vec<Correction>> = HashSet::new();
        let mut visited: HashSet<Vec<Correction>> = HashSet::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut rounds_this_level = 0usize;

        let out_of_time = |s: &Self| {
            s.config
                .time_limit
                .is_some_and(|limit| started.elapsed() > limit)
        };

        match self.evaluate(&[], level, true) {
            NodeEval::Solved => {
                return vec![Solution {
                    corrections: vec![],
                }];
            }
            NodeEval::Dead => {
                return vec![];
            }
            NodeEval::Open { candidates } => {
                nodes.push(Node {
                    corrections: vec![],
                    candidates,
                    next: 0,
                });
            }
        }
        visited.insert(vec![]);

        let iteration_budget = self.config.max_rounds;
        'rounds: while rounds_this_level < iteration_budget {
            if nodes.iter().all(|n| !n.open()) {
                break;
            }
            rounds_this_level += 1;
            self.stats.rounds += 1;
            let plan: Vec<usize> = (0..nodes.len()).collect();
            for idx in plan {
                if out_of_time(self) {
                    self.stats.truncated = true;
                    break 'rounds;
                }
                if !nodes[idx].open() {
                    self.matrix_cache.remove(&nodes[idx].corrections);
                    continue;
                }
                let cand = nodes[idx].candidates[nodes[idx].next];
                nodes[idx].next += 1;
                let mut corrections = nodes[idx].corrections.clone();
                corrections.push(cand.correction);
                let mut canonical = corrections.clone();
                canonical.sort();
                if !visited.insert(canonical.clone()) {
                    continue;
                }
                if self.config.exhaustive
                    && seen_solutions
                        .iter()
                        .any(|s| s.iter().all(|c| canonical.contains(c)))
                {
                    continue;
                }
                let expandable = corrections.len() < self.config.max_corrections
                    && nodes.len() < self.config.max_nodes;
                match self.evaluate(&corrections, level, expandable) {
                    NodeEval::Solved => {
                        let mut key = corrections.clone();
                        key.sort();
                        if seen_solutions.insert(key) {
                            solutions.push(Solution { corrections });
                        }
                        if !self.config.exhaustive {
                            break 'rounds;
                        }
                        if solutions.len() >= self.config.max_solutions {
                            self.stats.truncated = true;
                            break 'rounds;
                        }
                    }
                    NodeEval::Dead => {}
                    NodeEval::Open { candidates } => {
                        if corrections.len() < self.config.max_corrections
                            && nodes.len() < self.config.max_nodes
                        {
                            nodes.push(Node {
                                corrections,
                                candidates,
                                next: 0,
                            });
                        } else if nodes.len() >= self.config.max_nodes {
                            self.stats.truncated = true;
                        }
                    }
                }
                if !nodes[idx].open() {
                    self.matrix_cache.remove(&nodes[idx].corrections);
                }
            }
        }
        if (self.config.exhaustive || solutions.is_empty())
            && rounds_this_level >= iteration_budget
            && nodes.iter().any(|n| n.open())
        {
            self.stats.truncated = true;
        }
        solutions
    }

    fn evaluate(
        &mut self,
        corrections: &[Correction],
        level: &ParamLevel,
        expand: bool,
    ) -> NodeEval {
        let t_eval = Instant::now();
        let outcome = self.evaluate_node(corrections, level, expand);
        self.stats.evaluate_time += t_eval.elapsed();
        outcome
    }

    fn evaluate_node(
        &mut self,
        corrections: &[Correction],
        level: &ParamLevel,
        expand: bool,
    ) -> NodeEval {
        self.stats.nodes += 1;
        let t0 = Instant::now();
        let words_before = self.sim.words_simulated();
        let events_before = self.sim.events_propagated();
        let skipped_before = self.sim.words_skipped();
        let prepared = self.prepare_node(corrections);
        self.stats.words_simulated += self.sim.words_simulated() - words_before;
        self.stats.events_propagated += self.sim.events_propagated() - events_before;
        self.stats.words_skipped += self.sim.words_skipped() - skipped_before;
        let Some((netlist, vals, mut cones)) = prepared else {
            self.stats.simulation_time += t0.elapsed();
            return NodeEval::Dead;
        };
        let response = Response::compare(&netlist, &vals, &self.spec);
        self.stats.simulation_time += t0.elapsed();
        let outcome = if response.matches() {
            NodeEval::Solved
        } else if corrections.len() >= self.config.max_corrections {
            NodeEval::Dead
        } else if !expand {
            self.stats.expansions_skipped += 1;
            NodeEval::Open {
                candidates: Vec::new(),
            }
        } else {
            self.expand_node(&netlist, &vals, &response, corrections, level, &mut cones)
        };
        self.stats.cone_cache_hits += cones.take_hits();
        if corrections.is_empty() {
            self.base_cones = cones;
        }
        if self.config.incremental
            && expand
            && corrections.len() < self.config.max_corrections
            && matches!(outcome, NodeEval::Open { .. })
        {
            self.stats.matrix_cache_evictions +=
                self.matrix_cache
                    .insert(corrections.to_vec(), netlist, vals);
        }
        outcome
    }

    fn prepare_node(
        &mut self,
        corrections: &[Correction],
    ) -> Option<(Netlist, PackedMatrix, ConeCache)> {
        if corrections.is_empty() {
            let netlist = self.base.clone();
            let vals = self.base_values();
            let cones = std::mem::take(&mut self.base_cones);
            return Some((netlist, vals, cones));
        }
        if self.config.incremental {
            let (prefix, last) = corrections.split_at(corrections.len() - 1);
            if let Some((mut netlist, mut vals)) = self.matrix_cache.get_clone(prefix) {
                self.stats.matrix_cache_hits += 1;
                if !self.apply_and_propagate(&mut netlist, &mut vals, &last[0]) {
                    return None;
                }
                let cones = ConeCache::new(&netlist);
                return Some((netlist, vals, cones));
            }
            let mut netlist = self.base.clone();
            let mut vals = self.base_values();
            for c in corrections {
                if !self.apply_and_propagate(&mut netlist, &mut vals, c) {
                    return None;
                }
            }
            let cones = ConeCache::new(&netlist);
            return Some((netlist, vals, cones));
        }
        let mut netlist = self.base.clone();
        for c in corrections {
            if c.apply(&mut netlist).is_err() {
                return None;
            }
        }
        let vals = self
            .sim
            .run_for_inputs(&netlist, &self.base_inputs, &self.vectors);
        let cones = ConeCache::new(&netlist);
        Some((netlist, vals, cones))
    }

    fn base_values(&mut self) -> PackedMatrix {
        if !self.config.incremental {
            return self
                .sim
                .run_for_inputs(&self.base, &self.base_inputs, &self.vectors);
        }
        if self.base_vals.is_none() {
            self.base_vals = Some(self.sim.run_for_inputs(
                &self.base,
                &self.base_inputs,
                &self.vectors,
            ));
        }
        self.base_vals.clone().expect("just filled")
    }

    fn apply_and_propagate(
        &mut self,
        netlist: &mut Netlist,
        vals: &mut PackedMatrix,
        c: &Correction,
    ) -> bool {
        let rows_before = netlist.len();
        if c.apply(netlist).is_err() {
            return false;
        }
        if netlist.len() > rows_before {
            vals.grow_rows(netlist.len());
            for idx in rows_before..netlist.len() {
                self.sim.eval_gate(netlist, GateId::from_index(idx), vals);
            }
        }
        self.sim.eval_gate(netlist, c.line(), vals);
        let cone = netlist.fanout_cone_sorted(c.line());
        self.sim.run_cone_events(netlist, vals, &cone);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn expand_node(
        &mut self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        corrections: &[Correction],
        level: &ParamLevel,
        cones: &mut ConeCache,
    ) -> NodeEval {
        let t1 = Instant::now();
        let counts = path_trace_counts(
            netlist,
            vals,
            response,
            &self.spec,
            self.config.path_trace_vector_cap,
        );
        let mut marked: Vec<GateId> = netlist.ids().filter(|id| counts[id.index()] > 0).collect();
        if self.last_slot_rule && corrections.len() + 1 == self.config.max_corrections {
            let traced = self
                .config
                .path_trace_vector_cap
                .min(response.num_failing());
            marked.retain(|id| counts[id.index()] as usize == traced);
        }
        marked.sort_by_key(|id| std::cmp::Reverse(counts[id.index()]));
        let fraction = self.config.path_trace_fraction.max(level.promote);
        let mut take = ((marked.len() as f64 * fraction).ceil() as usize)
            .max(8)
            .min(marked.len());
        while take < marked.len()
            && counts[marked[take].index()] == counts[marked[take - 1].index()]
        {
            take += 1;
        }
        if take > self.config.max_candidate_lines {
            self.stats.lines_truncated += take - self.config.max_candidate_lines;
            take = self.config.max_candidate_lines;
        }
        let promoted = &marked[..take];
        self.stats.path_trace_time += t1.elapsed();
        let t_rank = Instant::now();
        let scored_lines: Vec<(GateId, f64)> = if level.h1 <= 0.0 {
            let max_count = promoted
                .first()
                .map(|l| counts[l.index()] as f64)
                .unwrap_or(1.0)
                .max(1.0);
            promoted
                .iter()
                .map(|&l| (l, counts[l.index()] as f64 / max_count))
                .collect()
        } else {
            self.heuristic1(netlist, vals, response, promoted, cones)
        };
        self.stats.rank_time += t_rank.elapsed();
        self.stats.diagnosis_time += t1.elapsed();

        let t2 = Instant::now();
        let n_err = response.num_failing();
        let nv = self.vectors.num_vectors();
        let n_corr = nv - n_err;
        let remaining = (self.config.max_corrections - corrections.len()).max(1);
        let h2_threshold = if self.config.theorem_floor {
            level.h2.min(1.0 / remaining as f64)
        } else {
            level.h2
        };
        let mut ranked = self.screen_level(
            netlist,
            vals,
            response,
            &scored_lines,
            level,
            h2_threshold,
            n_err,
            n_corr,
            cones,
        );
        let outcome = if ranked.is_empty() {
            NodeEval::Dead
        } else {
            ranked.sort_by(|a, b| b.rank.total_cmp(&a.rank));
            if ranked.len() > self.config.max_candidates_per_node {
                self.stats.candidates_truncated +=
                    ranked.len() - self.config.max_candidates_per_node;
                ranked.truncate(self.config.max_candidates_per_node);
            }
            NodeEval::Open { candidates: ranked }
        };
        self.stats.correction_time += t2.elapsed();
        outcome
    }

    fn heuristic1(
        &mut self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        lines: &[GateId],
        cones: &mut ConeCache,
    ) -> Vec<(GateId, f64)> {
        let err_words: Vec<u64> = response.failing_vectors().words().to_vec();
        let err_cols: Vec<u32> = err_words
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != 0)
            .map(|(w, _)| w as u32)
            .collect();
        let total_bad = response.mismatch_bits().max(1);
        let wpr = vals.words_per_row();
        let nv = vals.num_vectors();
        let spec = &self.spec;
        let incremental = self.config.incremental;
        let cone_refs: Vec<Arc<ConeSet>> = lines.iter().map(|&l| cones.get(netlist, l)).collect();
        let outcome = run_parallel_with(
            lines.len(),
            self.config.jobs,
            || (Simulator::new(), vals.clone(), Vec::<u64>::new()),
            |(sim, vals, saved), i| {
                let line = lines[i];
                let words_before = sim.words_simulated();
                let events_before = sim.events_propagated();
                let skipped_before = sim.words_skipped();
                let cone = &cone_refs[i];
                saved.clear();
                if incremental {
                    for &g in cone.sorted() {
                        let row = vals.row(g.index());
                        for &w in &err_cols {
                            saved.push(row[w as usize]);
                        }
                    }
                } else {
                    for &g in cone.sorted() {
                        saved.extend_from_slice(vals.row(g.index()));
                    }
                }
                {
                    let row = vals.row_mut(line.index());
                    for (w, &m) in row.iter_mut().zip(&err_words) {
                        *w ^= m;
                    }
                }
                if incremental {
                    sim.run_cone_events_cols(netlist, vals, cone.sorted(), &err_cols);
                } else {
                    sim.run_cone(netlist, vals, cone.sorted());
                }
                let mut rectified = 0usize;
                for (po_idx, &po) in netlist.outputs().iter().enumerate() {
                    if !cone.contains(po) {
                        continue;
                    }
                    let after = vals.row(po.index());
                    let spec_row = spec.po_values().row(po_idx);
                    let before = response.po_values().row(po_idx);
                    for w in 0..wpr {
                        let was_bad = before[w] ^ spec_row[w];
                        let now_bad = after[w] ^ spec_row[w];
                        let mut fixed = was_bad & !now_bad;
                        if w == wpr - 1 {
                            fixed &= PackedBits::new(nv).tail_mask();
                        }
                        rectified += fixed.count_ones() as usize;
                    }
                }
                if incremental {
                    let nc = err_cols.len();
                    for (k, &g) in cone.sorted().iter().enumerate() {
                        let row = vals.row_mut(g.index());
                        for (j, &w) in err_cols.iter().enumerate() {
                            row[w as usize] = saved[k * nc + j];
                        }
                    }
                } else {
                    for (k, &g) in cone.sorted().iter().enumerate() {
                        vals.row_mut(g.index())
                            .copy_from_slice(&saved[k * wpr..(k + 1) * wpr]);
                    }
                }
                (
                    rectified,
                    sim.words_simulated() - words_before,
                    sim.events_propagated() - events_before,
                    sim.words_skipped() - skipped_before,
                )
            },
        );
        let mut scored = Vec::with_capacity(lines.len());
        for (i, (rectified, words, events, skipped)) in outcome.results.into_iter().enumerate() {
            self.stats.words_simulated += words;
            self.stats.events_propagated += events;
            self.stats.words_skipped += skipped;
            scored.push((lines[i], rectified as f64 / total_bad as f64));
        }
        self.stats.parallel.merge(&outcome.telemetry);
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored
    }

    #[allow(clippy::too_many_arguments)]
    fn screen_level(
        &mut self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        scored_lines: &[(GateId, f64)],
        level: &ParamLevel,
        h2_threshold: f64,
        n_err: usize,
        n_corr: usize,
        cones: &mut ConeCache,
    ) -> Vec<RankedCorrection> {
        let t_screen = Instant::now();
        let nv = self.vectors.num_vectors();
        let wpr = vals.words_per_row();
        let tail = PackedBits::new(nv).tail_mask();
        let err_words: Vec<u64> = response.failing_vectors().words().to_vec();
        let v_ratio = n_err as f64 / nv as f64;
        let old_diff: Vec<Vec<u64>> = netlist
            .outputs()
            .iter()
            .enumerate()
            .map(|(po_idx, _)| {
                let got = response.po_values().row(po_idx);
                let want = self.spec.po_values().row(po_idx);
                got.iter().zip(want).map(|(a, b)| a ^ b).collect()
            })
            .collect();
        let keep = scored_lines
            .iter()
            .take_while(|&&(_, s)| s + 1e-12 >= level.h1)
            .count();
        self.stats.lines_rejected_h1 += scored_lines.len() - keep;
        let active = &scored_lines[..keep];
        let spec = &self.spec;
        let config = &self.config;
        let incremental = config.incremental;
        let cone_refs: Vec<Arc<ConeSet>> =
            active.iter().map(|&(l, _)| cones.get(netlist, l)).collect();
        let outcome = run_parallel_with(
            active.len(),
            config.jobs,
            || {
                (
                    Simulator::new(),
                    vals.clone(),
                    Vec::<u64>::new(),
                    CorrectionScratch::default(),
                    Vec::<u32>::new(),
                )
            },
            |(sim, vals, saved, scratch, cols), li| {
                let (line, _) = active[li];
                let cone = &cone_refs[li];
                let mut delta = ScreenDelta::default();
                let words_before = sim.words_simulated();
                let events_before = sim.events_propagated();
                let skipped_before = sim.words_skipped();
                let mut pass: Vec<(Correction, f64)> = Vec::new();
                let cur = vals.row(line.index()).to_vec();
                let qualifies = |complemented: usize| -> bool {
                    complemented as f64 / n_err.max(1) as f64 + 1e-12 >= h2_threshold
                };
                for corr in enumerate_corrections(netlist, line, config.model, &[]) {
                    delta.screened += 1;
                    let Ok(Some(new_row)) =
                        correction_output_row_into(netlist, vals, &corr, scratch)
                    else {
                        continue;
                    };
                    let complemented = xor_masked_count_ones(new_row, &cur, &err_words);
                    if qualifies(complemented) {
                        pass.push((corr, complemented as f64 / n_err.max(1) as f64));
                    }
                }
                if config.model == CorrectionModel::DesignErrors
                    && netlist.gate(line).kind().is_logic()
                {
                    let gate = netlist.gate(line);
                    let kind = gate.kind();
                    let fanins = gate.fanins().to_vec();
                    enum Family {
                        And,
                        Or,
                        Xor,
                    }
                    let (family, identity, invert) = match kind {
                        GateKind::And => (Family::And, !0u64, false),
                        GateKind::Nand => (Family::And, !0u64, true),
                        GateKind::Buf => (Family::And, !0u64, false),
                        GateKind::Not => (Family::And, !0u64, true),
                        GateKind::Or => (Family::Or, 0u64, false),
                        GateKind::Nor => (Family::Or, 0u64, true),
                        GateKind::Xor => (Family::Xor, 0u64, false),
                        GateKind::Xnor => (Family::Xor, 0u64, true),
                        _ => unreachable!("is_logic checked"),
                    };
                    let fold = |skip: Option<usize>| -> Vec<u64> {
                        let mut acc = vec![identity; wpr];
                        for (p, &f) in fanins.iter().enumerate() {
                            if Some(p) == skip {
                                continue;
                            }
                            let row = vals.row(f.index());
                            for (a, &r) in acc.iter_mut().zip(row) {
                                match family {
                                    Family::And => *a &= r,
                                    Family::Or => *a |= r,
                                    Family::Xor => *a ^= r,
                                }
                            }
                        }
                        acc
                    };
                    let core = fold(None);
                    let base_wo: Vec<Vec<u64>> = (0..fanins.len()).map(|p| fold(Some(p))).collect();
                    let combine = |base: &[u64], src: &[u64], w: usize| -> u64 {
                        let v = match family {
                            Family::And => base[w] & src[w],
                            Family::Or => base[w] | src[w],
                            Family::Xor => base[w] ^ src[w],
                        };
                        if invert {
                            !v
                        } else {
                            v
                        }
                    };
                    let can_add = matches!(
                        kind,
                        GateKind::And
                            | GateKind::Nand
                            | GateKind::Or
                            | GateKind::Nor
                            | GateKind::Xor
                            | GateKind::Xnor
                    );
                    let mut eligible: Vec<GateId> = netlist
                        .ids()
                        .filter(|&s| {
                            s != line
                                && !cone.contains(s)
                                && !matches!(
                                    netlist.gate(s).kind(),
                                    GateKind::Const0 | GateKind::Const1 | GateKind::Dff
                                )
                        })
                        .collect();
                    if config.wire_source_limit > 0 && eligible.len() > config.wire_source_limit {
                        delta.wire_sources_truncated += eligible.len() - config.wire_source_limit;
                        let stride = eligible.len().div_ceil(config.wire_source_limit);
                        eligible = eligible.into_iter().step_by(stride).collect();
                    }
                    for src in eligible {
                        let srow = vals.row(src.index());
                        if can_add && !fanins.contains(&src) {
                            delta.screened += 1;
                            let mut complemented = 0usize;
                            for w in 0..wpr {
                                let diff = (combine(&core, srow, w) ^ cur[w]) & err_words[w];
                                complemented += diff.count_ones() as usize;
                            }
                            if qualifies(complemented) {
                                pass.push((
                                    Correction::new(
                                        line,
                                        CorrectionAction::AddInput { source: src },
                                    ),
                                    complemented as f64 / n_err.max(1) as f64,
                                ));
                            }
                        }
                        for (p, &old) in fanins.iter().enumerate() {
                            if old == src {
                                continue;
                            }
                            delta.screened += 1;
                            let mut complemented = 0usize;
                            for w in 0..wpr {
                                let diff = (combine(&base_wo[p], srow, w) ^ cur[w]) & err_words[w];
                                complemented += diff.count_ones() as usize;
                            }
                            if qualifies(complemented) {
                                pass.push((
                                    Correction::new(
                                        line,
                                        CorrectionAction::ReplaceInput {
                                            port: p,
                                            source: src,
                                        },
                                    ),
                                    complemented as f64 / n_err.max(1) as f64,
                                ));
                            }
                        }
                        let insert_kinds: &[GateKind] = if level.h3 <= 0.85 {
                            &[GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor]
                        } else {
                            &[GateKind::And, GateKind::Or]
                        };
                        for &k2 in insert_kinds {
                            delta.screened += 1;
                            let mut complemented = 0usize;
                            for w in 0..wpr {
                                let v = match k2 {
                                    GateKind::And => cur[w] & srow[w],
                                    GateKind::Or => cur[w] | srow[w],
                                    GateKind::Nand => !(cur[w] & srow[w]),
                                    _ => !(cur[w] | srow[w]),
                                };
                                let diff = (v ^ cur[w]) & err_words[w];
                                complemented += diff.count_ones() as usize;
                            }
                            if qualifies(complemented) {
                                pass.push((
                                    Correction::new(
                                        line,
                                        CorrectionAction::InsertGate {
                                            kind: k2,
                                            other: src,
                                        },
                                    ),
                                    complemented as f64 / n_err.max(1) as f64,
                                ));
                            }
                        }
                    }
                }
                delta.rejected_h2 = delta.screened - pass.len();
                let mut line_ranked: Vec<RankedCorrection> = Vec::new();
                for (corr, h2_fraction) in pass {
                    let Ok(Some(new_row)) =
                        correction_output_row_into(netlist, vals, &corr, scratch)
                    else {
                        delta.rejected_h3 += 1;
                        continue;
                    };
                    saved.clear();
                    if incremental {
                        cols.clear();
                        for (w, (&n, &c)) in new_row.iter().zip(&cur).enumerate() {
                            if n != c {
                                cols.push(w as u32);
                            }
                        }
                        for &g in cone.sorted() {
                            let row = vals.row(g.index());
                            for &w in cols.iter() {
                                saved.push(row[w as usize]);
                            }
                        }
                    } else {
                        for &g in cone.sorted() {
                            saved.extend_from_slice(vals.row(g.index()));
                        }
                    }
                    vals.row_mut(line.index()).copy_from_slice(new_row);
                    if incremental {
                        sim.run_cone_events_cols(netlist, vals, cone.sorted(), cols);
                    } else {
                        sim.run_cone(netlist, vals, cone.sorted());
                    }
                    let mut after_fail = vec![0u64; wpr];
                    for (po_idx, &po) in netlist.outputs().iter().enumerate() {
                        if cone.contains(po) {
                            let got = vals.row(po.index());
                            let want = spec.po_values().row(po_idx);
                            for w in 0..wpr {
                                after_fail[w] |= got[w] ^ want[w];
                            }
                        } else {
                            for w in 0..wpr {
                                after_fail[w] |= old_diff[po_idx][w];
                            }
                        }
                    }
                    let mut newly_err = 0usize;
                    let mut fixed = 0usize;
                    for w in 0..wpr {
                        let mut ne = after_fail[w] & !err_words[w];
                        let mut fx = err_words[w] & !after_fail[w];
                        if w == wpr - 1 {
                            ne &= tail;
                            fx &= tail;
                        }
                        newly_err += ne.count_ones() as usize;
                        fixed += fx.count_ones() as usize;
                    }
                    if incremental {
                        let nc = cols.len();
                        for (k, &g) in cone.sorted().iter().enumerate() {
                            let row = vals.row_mut(g.index());
                            for (j, &w) in cols.iter().enumerate() {
                                row[w as usize] = saved[k * nc + j];
                            }
                        }
                    } else {
                        for (k, &g) in cone.sorted().iter().enumerate() {
                            vals.row_mut(g.index())
                                .copy_from_slice(&saved[k * wpr..(k + 1) * wpr]);
                        }
                    }
                    let h3_score = 1.0 - newly_err as f64 / n_corr.max(1) as f64;
                    if h3_score + 1e-12 < level.h3 {
                        delta.rejected_h3 += 1;
                        continue;
                    }
                    delta.qualified += 1;
                    let corr_h1 = fixed as f64 / n_err.max(1) as f64;
                    line_ranked.push(RankedCorrection {
                        correction: corr,
                        rank: (1.0 - v_ratio) * h3_score + v_ratio * corr_h1,
                        h1_score: corr_h1,
                        h2_fraction,
                        h3_score,
                    });
                }
                delta.words = sim.words_simulated() - words_before;
                delta.events = sim.events_propagated() - events_before;
                delta.skipped = sim.words_skipped() - skipped_before;
                (line_ranked, delta)
            },
        );
        let mut ranked = Vec::new();
        for (line_ranked, delta) in outcome.results {
            ranked.extend(line_ranked);
            self.stats.corrections_screened += delta.screened;
            self.stats.corrections_qualified += delta.qualified;
            self.stats.corrections_rejected_h2 += delta.rejected_h2;
            self.stats.corrections_rejected_h3 += delta.rejected_h3;
            self.stats.wire_sources_truncated += delta.wire_sources_truncated;
            self.stats.words_simulated += delta.words;
            self.stats.events_propagated += delta.events;
            self.stats.words_skipped += delta.skipped;
        }
        self.stats.parallel.merge(&outcome.telemetry);
        self.stats.screen_time += t_screen.elapsed();
        ranked
    }
}

#[derive(Default)]
struct ScreenDelta {
    screened: usize,
    qualified: usize,
    rejected_h2: usize,
    rejected_h3: usize,
    wire_sources_truncated: usize,
    words: u64,
    events: u64,
    skipped: u64,
}

fn minimal_solutions(mut solutions: Vec<Solution>) -> Vec<Solution> {
    let sets: Vec<Vec<Correction>> = solutions
        .iter()
        .map(|s| {
            let mut v = s.corrections.clone();
            v.sort();
            v
        })
        .collect();
    let mut keep = vec![true; solutions.len()];
    for i in 0..sets.len() {
        for j in 0..sets.len() {
            if i != j
                && keep[i]
                && sets[j].len() < sets[i].len()
                && sets[j].iter().all(|c| sets[i].contains(c))
            {
                keep[i] = false;
            }
        }
    }
    let mut idx = 0;
    solutions.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    solutions
}
