//! The candidate pipeline: path-trace → rank (heuristic 1) → screen
//! (heuristics 2 + 3) → accept (sort + per-node cap).
//!
//! One [`CandidatePipeline`] runs per still-failing decision-tree node
//! and is shared by *every* traversal strategy and evaluation backend —
//! the stage logic that used to be duplicated across the serial,
//! parallel and incremental branches of the old monolithic session now
//! lives here exactly once. The pipeline is policy-free: it neither
//! schedules nodes nor prepares matrices; it turns one prepared node
//! into its ranked, screened candidate list (empty = a dead leaf,
//! §3.3's "leaf with failure").
//!
//! Heuristics 1 and 3 both ask how the primary outputs react to a change
//! on a suspect line, and one **sensitivity pass** per line answers for
//! every candidate at once: complement the line's row on every vector,
//! propagate once through its fanout cone, and keep, for each PO in the
//! cone, the vectors on which it flipped (`S_po`). A correction changes
//! only its line's row, and wire sources lie outside the line's cone, so
//! on each vector every PO bit depends on the line's bit alone: the
//! corrected PO row is exactly `po ^ ((new_row ^ cur_row) & S_po)`.
//! Heuristic 1 (§3.1) becomes `Σ popcount(mismatch_po & S_po)`, and each
//! heuristic-3 check (§3.2) a few masked popcounts — no cone walk per
//! candidate.
//!
//! The candidate list is a **pure function** of (netlist, value
//! matrix, reference response, applied corrections, ladder level,
//! config) — no hidden scheduling state leaks into the results. The
//! speculative dispatcher (`dispatch.rs`) relies on this contract: a
//! worker's pipeline output for a tuple is bit-identical to what the
//! master would compute inline, which is what lets speculation
//! substitute for inline evaluation without perturbing the search.

use std::sync::Arc;
use std::time::Instant;

use incdx_fault::{enumerate_corrections, Correction, CorrectionAction, CorrectionModel};
use incdx_netlist::{ConeCache, ConeSet, GateId, GateKind, Netlist};
use incdx_sim::{xor_masked_count_ones, PackedBits, PackedMatrix, Response, Simulator, SparseMask};

use crate::chaos::ChaosState;
use crate::limits::{CancelToken, DegradationEvent, DegradationKind};
use crate::parallel::run_parallel_with;
use crate::params::ParamLevel;
use crate::path_trace::path_trace_counts_batched;
use crate::screen::{correction_output_row_into, CorrectionScratch};
use crate::session::{RectifyConfig, RectifyStats};
use crate::tree::RankedCorrection;

/// The per-node diagnosis + correction stages, configured once per run.
#[derive(Debug)]
pub struct CandidatePipeline<'a> {
    config: &'a RectifyConfig,
    spec: &'a Response,
    jobs: usize,
    cancel: CancelToken,
    chaos: Option<Arc<ChaosState>>,
    analysis: Option<&'a incdx_analysis::AnalysisTables>,
}

impl<'a> CandidatePipeline<'a> {
    /// A pipeline over this run's configuration and reference response.
    /// `jobs` comes from the evaluation backend (it selects the parallel
    /// fan-out, not the results). The sparse kernel
    /// ([`RectifyConfig::sparse`]) restricts heuristic-2 popcounts to
    /// occupied blocks of the failing-vector mask.
    pub fn new(config: &'a RectifyConfig, spec: &'a Response, jobs: usize) -> Self {
        CandidatePipeline {
            config,
            spec,
            jobs,
            cancel: CancelToken::new(),
            chaos: None,
            analysis: None,
        }
    }

    /// Arms cooperative cancellation: once the token is cancelled, the
    /// stage workers drop out immediately (their partial output is
    /// discarded by the engine at its next limit check, never
    /// checkpointed as complete). Workers use the non-counting
    /// [`CancelToken::is_cancelled`], so the engine's deterministic
    /// poll count is unaffected.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Arms deterministic chaos fault injection in the stage workers
    /// (seeded one-shot panics; see [`ChaosState::maybe_panic`]). The
    /// panic-isolation boundary in
    /// [`run_parallel_with`](crate::parallel::run_parallel_with)
    /// recovers each one by a serial retry, so results are unchanged.
    pub fn with_chaos(mut self, chaos: Option<Arc<ChaosState>>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Lends the run-level static-analysis tables
    /// ([`incdx_analysis::AnalysisTables`], computed once over the base
    /// netlist when [`RectifyConfig::prune`] is armed). The pipeline
    /// consults them only at the search root, where the node netlist is
    /// the base netlist; deeper nodes carry applied corrections and
    /// recompute the (cheap) constant and reachability facts locally.
    pub fn with_analysis(mut self, analysis: Option<&'a incdx_analysis::AnalysisTables>) -> Self {
        self.analysis = analysis;
        self
    }

    /// Runs all four stages on one prepared, still-failing node and
    /// returns its ranked candidate list (best rank first, capped at
    /// [`RectifyConfig::max_candidates_per_node`]). Empty means the
    /// node is a dead leaf at this parameter level.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        corrections: &[Correction],
        level: &ParamLevel,
        cones: &mut ConeCache,
        stats: &mut RectifyStats,
    ) -> Vec<RankedCorrection> {
        // ---- Diagnosis (§3.1) ----
        let t1 = Instant::now();
        // One bit-parallel marking pass over the whole sampled
        // observation set; the per-line counts are bit-identical to the
        // per-vector walks of `path_trace_counts`.
        let counts = path_trace_counts_batched(
            netlist,
            vals,
            response,
            self.spec,
            self.config.path_trace_vector_cap,
        );
        let mut marked: Vec<GateId> = netlist.ids().filter(|id| counts[id.index()] > 0).collect();
        // Hierarchical phase 2 (or an explicit harness focus) restricts
        // diagnosis to the implicated region: marks outside the sorted
        // suspect set are discarded before ranking, so the tree never
        // proposes corrections on unfocused lines.
        if let Some(focus) = &self.config.focus {
            marked.retain(|id| focus.binary_search(id).is_ok());
        }
        let remaining = (self.config.max_corrections - corrections.len()).max(1);
        // Static pruning (when armed): drop marked lines the dataflow
        // facts prove can never repair every failing PO. Sound by
        // construction — see `prune_marked` for the argument.
        if self.config.prune && !marked.is_empty() {
            self.prune_marked(
                netlist,
                response,
                corrections,
                remaining,
                &mut marked,
                cones,
                stats,
            );
        }
        marked.sort_by_key(|id| std::cmp::Reverse(counts[id.index()]));
        let fraction = self.config.path_trace_fraction.max(level.promote);
        let mut take = ((marked.len() as f64 * fraction).ceil() as usize)
            .max(8)
            .min(marked.len());
        // Never cut inside a tie class: lines with equal path-trace counts
        // are indistinguishable to this heuristic, and the dropped half
        // could contain the only marked member of a valid tuple.
        while take < marked.len()
            && counts[marked[take].index()] == counts[marked[take - 1].index()]
        {
            take += 1;
        }
        if take > self.config.max_candidate_lines {
            stats.lines_truncated += take - self.config.max_candidate_lines;
            take = self.config.max_candidate_lines;
        }
        let promoted = &marked[..take];
        stats.path_trace_time += t1.elapsed();
        // Per-PO mismatch rows (tail-masked): heuristic 1 counts the bits
        // a line's flip repairs, heuristic 3 rebuilds every candidate's
        // failing-vector row from them.
        let t_rank = Instant::now();
        let tail = PackedBits::new(vals.num_vectors()).tail_mask();
        let mismatch: Vec<Vec<u64>> = (0..netlist.outputs().len())
            .map(|po_idx| {
                let got = response.po_values().row(po_idx);
                let want = self.spec.po_values().row(po_idx);
                let mut row: Vec<u64> = got.iter().zip(want).map(|(a, b)| a ^ b).collect();
                if let Some(last) = row.last_mut() {
                    *last &= tail;
                }
                row
            })
            .collect();
        // When the level disables the h1 filter (exhaustive stuck-at
        // mode), skip the sensitivity passes here and order lines by
        // path-trace count alone; screening then runs a pass only for
        // lines with a heuristic-2 survivor.
        let scored_lines: Vec<ScoredLine> = if level.h1 <= 0.0 {
            let max_count = promoted
                .first()
                .map(|l| counts[l.index()] as f64)
                .unwrap_or(1.0)
                .max(1.0);
            promoted
                .iter()
                .map(|&line| ScoredLine {
                    line,
                    score: counts[line.index()] as f64 / max_count,
                    flips: None,
                })
                .collect()
        } else {
            self.rank_lines(netlist, vals, response, &mismatch, promoted, cones, stats)
        };
        stats.rank_time += t_rank.elapsed();
        stats.diagnosis_time += t1.elapsed();

        // ---- Correction (§3.2) at the run's current parameter level ----
        let t2 = Instant::now();
        let n_err = response.num_failing();
        let nv = vals.num_vectors();
        let n_corr = nv - n_err;
        let h2_threshold = if self.config.theorem_floor {
            level.h2.min(1.0 / remaining as f64)
        } else {
            level.h2
        };
        // The sparse failing-vector mask is built once per node and
        // shared read-only by every screening worker. The summary is a
        // derived structure, so it is verified before use; a chaos-armed
        // run may corrupt it here ([`ChaosState::maybe_corrupt_mask`]),
        // and the verify/repair pair below catches exactly that —
        // recorded as a [`DegradationKind::SparseRepair`] recovery.
        let mask = if self.config.sparse {
            let mut m = SparseMask::from_bits(response.failing_vectors());
            if let Some(chaos) = &self.chaos {
                chaos.maybe_corrupt_mask(&mut m);
            }
            if !m.verify() {
                m.repair();
                stats.degradations.push(DegradationEvent::new(
                    DegradationKind::SparseRepair,
                    1,
                    "failing-vector block summary diverged from its words; rebuilt",
                ));
            }
            Some(m)
        } else {
            None
        };
        let mut ranked = self.screen(
            netlist,
            vals,
            response,
            &mismatch,
            &scored_lines,
            mask.as_ref(),
            level,
            h2_threshold,
            n_err,
            n_corr,
            cones,
            stats,
        );
        if !ranked.is_empty() {
            ranked.sort_by(|a, b| b.rank.total_cmp(&a.rank));
            if ranked.len() > self.config.max_candidates_per_node {
                stats.candidates_truncated += ranked.len() - self.config.max_candidates_per_node;
                ranked.truncate(self.config.max_candidates_per_node);
            }
        }
        stats.correction_time += t2.elapsed();
        ranked
    }

    /// Static candidate pruning over the marked-line set.
    ///
    /// Two rules, both sound:
    ///
    /// **Rule 1 (reachability, every mode).** A correction at `l` only
    /// changes functions inside `l`'s fanout cone, so if no failing PO
    /// is structurally reachable from `l`, no correction there can fix
    /// any mismatch. Path-trace already walks backward from failing
    /// POs, so every marked line reaches a failing PO by construction —
    /// this rule is a verified no-op that cross-checks the two
    /// traversals against each other. Because it never fires, the
    /// pruned and unpruned pipelines are bit-identical in every mode.
    ///
    /// **Rule 2 (observability covering, exhaustive last slot only).**
    /// With one correction slot left, a candidate at `l` must repair
    /// *every* failing PO by itself. Re-propagating ternary constants
    /// with `l` forced unknown ([`incdx_analysis::observable_changes`])
    /// yields the set of POs any change at `l` could possibly affect;
    /// a failing PO outside that set keeps its mismatch in every child,
    /// and a max-depth child that still fails is dead. Dropping `l`
    /// therefore removes no solutions — but it *does* shift pop-order
    /// interleaving, which in first-solution (DEDC) mode could change
    /// which of several valid solutions is reported first. Exhaustive
    /// mode collects the full minimal set, so the set is order-blind;
    /// the rule is gated on it.
    #[allow(clippy::too_many_arguments)]
    fn prune_marked(
        &self,
        netlist: &Netlist,
        response: &Response,
        corrections: &[Correction],
        remaining: usize,
        marked: &mut Vec<GateId>,
        cones: &mut ConeCache,
        stats: &mut RectifyStats,
    ) {
        use incdx_analysis::{observable_changes, Constants, PoReach, PoSet};
        let t = Instant::now();
        // The failing-PO position set F: POs whose captured row differs
        // from the specification row anywhere under the tail mask.
        let got = response.po_values();
        let want = self.spec.po_values();
        let wpr = got.words_per_row();
        let tail = PackedBits::new(got.num_vectors()).tail_mask();
        let mut failing = PoSet::empty(netlist.outputs().len());
        for po_idx in 0..netlist.outputs().len() {
            let differs = got
                .row(po_idx)
                .iter()
                .zip(want.row(po_idx))
                .enumerate()
                .any(|(w, (a, b))| {
                    let mut d = a ^ b;
                    if w + 1 == wpr {
                        d &= tail;
                    }
                    d != 0
                });
            if differs {
                failing.insert(po_idx);
            }
        }
        if failing.is_empty() {
            stats.prune_time += t.elapsed();
            return;
        }
        // Root nodes (no applied corrections) see the base netlist, so
        // the run-level tables apply verbatim; deeper nodes carry
        // rewrites and recompute the facts on their own netlist. Both
        // paths are pure functions of the node netlist, preserving the
        // pipeline's purity contract for the speculative dispatcher.
        let local: (Constants, PoReach);
        let (consts, reach) = match self.analysis {
            Some(tables) if corrections.is_empty() => (&tables.constants, &tables.reach),
            _ => {
                local = (Constants::compute(netlist), PoReach::compute(netlist));
                (&local.0, &local.1)
            }
        };
        // Rule 1: retain lines reaching at least one failing PO.
        stats.prune_checks += marked.len() as u64;
        let before = marked.len();
        marked.retain(|&l| reach.reach(l).intersects(&failing));
        // Rule 2: with one slot left in exhaustive mode, the candidate
        // must cover F outright. The cheap covering precheck
        // (F ⊆ reach(l)) short-circuits the cone re-propagation, which
        // is only consulted when structure alone cannot rule `l` out.
        if self.config.exhaustive && remaining == 1 {
            stats.prune_checks += marked.len() as u64;
            marked.retain(|&l| {
                if !reach.reach(l).contains_all(&failing) {
                    return false;
                }
                let cone = cones.get(netlist, l);
                observable_changes(netlist, consts, l, cone.sorted()).contains_all(&failing)
            });
        }
        stats.static_pruned += (before - marked.len()) as u64;
        stats.prune_time += t.elapsed();
    }

    /// Heuristic 1: run each promoted line's sensitivity pass and score
    /// the line by the fraction of erroneous PO bits its flip rectifies.
    /// The masks ride along to screening, which reads heuristic 3 off
    /// them.
    ///
    /// Lines are scored in parallel; each worker owns a simulator and a
    /// private copy of the value matrix (every pass restores the cone
    /// rows it perturbs, so the copy stays equal to `vals` between
    /// tasks). Scores merge in input order and the final sort is
    /// stable, so the ranking is bit-identical to the serial one.
    #[allow(clippy::too_many_arguments)]
    fn rank_lines(
        &self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        mismatch: &[Vec<u64>],
        lines: &[GateId],
        cones: &mut ConeCache,
        stats: &mut RectifyStats,
    ) -> Vec<ScoredLine> {
        let total_bad = response.mismatch_bits().max(1);
        // Memoize every line's cone up front (serially), then share the
        // `Arc`s read-only across workers.
        let cone_refs: Vec<Arc<ConeSet>> = lines.iter().map(|&l| cones.get(netlist, l)).collect();
        let cancel = &self.cancel;
        let chaos = self
            .chaos
            .as_ref()
            .map(|c| (Arc::clone(c), c.next_section()));
        let outcome = run_parallel_with(
            lines.len(),
            self.jobs,
            || (Simulator::new(), vals.clone(), Vec::<u64>::new()),
            |(sim, vals, saved), i| {
                if cancel.is_cancelled() {
                    return (Vec::new(), 0, 0, 0);
                }
                if let Some((chaos, section)) = &chaos {
                    chaos.maybe_panic(*section, i);
                }
                let words_before = sim.words_simulated();
                let events_before = sim.events_propagated();
                let skipped_before = sim.words_skipped();
                let flips = sensitivity(netlist, sim, vals, lines[i], &cone_refs[i], saved);
                (
                    flips,
                    sim.words_simulated() - words_before,
                    sim.events_propagated() - events_before,
                    sim.words_skipped() - skipped_before,
                )
            },
        );
        let mut scored = Vec::with_capacity(lines.len());
        for (&line, (flips, words, events, skipped)) in lines.iter().zip(outcome.results) {
            stats.words_simulated += words;
            stats.events_propagated += events;
            stats.words_skipped += skipped;
            // Count rectified erroneous (vector, PO) bits.
            let rectified: usize = flips
                .iter()
                .flat_map(|(po_idx, s)| mismatch[*po_idx].iter().zip(s))
                .map(|(m, s)| (m & s).count_ones() as usize)
                .sum();
            scored.push(ScoredLine {
                line,
                score: rectified as f64 / total_bad as f64,
                flips: Some(flips),
            });
        }
        stats.parallel.merge(&outcome.telemetry);
        scored.sort_by(|a, b| b.score.total_cmp(&a.score));
        scored
    }

    /// The screening stage: enumerate corrections per qualified line,
    /// filter with heuristics 2 and 3, and rank the survivors.
    ///
    /// Suspect lines fan out across workers, one task per line covering
    /// both screening phases. Workers carry a private simulator plus a
    /// private copy of the value matrix (a sensitivity pass run here,
    /// for lines heuristic 1 did not score, restores every cone row it
    /// perturbs, so the copy stays equal to `vals` between tasks);
    /// survivors merge in line order, preserving the serial candidate
    /// sequence bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn screen(
        &self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        mismatch: &[Vec<u64>],
        scored_lines: &[ScoredLine],
        mask: Option<&SparseMask>,
        level: &ParamLevel,
        h2_threshold: f64,
        n_err: usize,
        n_corr: usize,
        cones: &mut ConeCache,
        stats: &mut RectifyStats,
    ) -> Vec<RankedCorrection> {
        let t_screen = Instant::now();
        let nv = vals.num_vectors();
        let wpr = vals.words_per_row();
        let tail = PackedBits::new(nv).tail_mask();
        let err_words: Vec<u64> = response.failing_vectors().words().to_vec();
        let v_ratio = n_err as f64 / nv as f64;
        // Heuristic-2 popcounts only read words under the error mask, so
        // in sparse mode the wire loops walk just the occupied block
        // ranges — every skipped word contributes zero either way (the
        // sparse ≡ dense contract; see ARCHITECTURE.md). A mask with
        // nothing to skip falls back to the dense single range.
        let dense_range = [(0usize, wpr)];
        if matches!(mask, Some(m) if m.is_dense()) {
            stats.dense_fallbacks += 1;
        }
        // From here on `mask` is `Some` only when it actually skips work.
        let mask = mask.filter(|m| !m.is_dense());
        let sparse_ranges: Vec<(usize, usize)> =
            mask.map_or_else(Vec::new, |m| m.occupied_ranges());
        let (ranges, skip_per_op): (&[(usize, usize)], u64) = match mask {
            Some(m) => (&sparse_ranges, m.summary().skipped_blocks() as u64),
            None => (&dense_range, 0),
        };
        // scored_lines is sorted descending, so the h1 threshold keeps a
        // prefix; everything after it is rejected wholesale.
        let keep = scored_lines
            .iter()
            .take_while(|l| l.score + 1e-12 >= level.h1)
            .count();
        stats.lines_rejected_h1 += scored_lines.len() - keep;
        let active = &scored_lines[..keep];
        let config = self.config;
        // Memoize the active lines' cones up front (serially) and share the
        // `Arc`s read-only across workers — the sensitivity pass, the
        // out-of-cone failing row and the wire-source eligibility test
        // all read the same cones.
        let cone_refs: Vec<Arc<ConeSet>> =
            active.iter().map(|l| cones.get(netlist, l.line)).collect();
        let cancel = &self.cancel;
        let chaos = self
            .chaos
            .as_ref()
            .map(|c| (Arc::clone(c), c.next_section()));
        let outcome = run_parallel_with(
            active.len(),
            self.jobs,
            || {
                (
                    Simulator::new(),
                    vals.clone(),
                    Vec::<u64>::new(),
                    CorrectionScratch::default(),
                )
            },
            |(sim, vals, saved, scratch), li| {
                if cancel.is_cancelled() {
                    return (Vec::new(), ScreenDelta::default());
                }
                if let Some((chaos, section)) = &chaos {
                    chaos.maybe_panic(*section, li);
                }
                let line = active[li].line;
                let cone = &cone_refs[li];
                let mut delta = ScreenDelta::default();
                let mut sparse_ops = 0u64;
                let words_before = sim.words_simulated();
                let events_before = sim.events_propagated();
                let skipped_before = sim.words_skipped();
                // ---- Phase A: heuristic 2 on every candidate (cheap,
                // local, allocation-free for the wire corrections that
                // dominate). ----
                let mut pass: Vec<(Correction, f64)> = Vec::new();
                let cur = vals.row(line.index()).to_vec();
                let qualifies = |complemented: usize| -> bool {
                    complemented as f64 / n_err.max(1) as f64 + 1e-12 >= h2_threshold
                };
                // Non-wire candidates through the generic evaluator
                // (borrowed rows into the worker's scratch; the fused
                // masked popcount avoids a diff temporary — err_words is
                // already tail-masked).
                for corr in enumerate_corrections(netlist, line, config.model, &[]) {
                    delta.screened += 1;
                    let Ok(Some(new_row)) =
                        correction_output_row_into(netlist, vals, &corr, scratch)
                    else {
                        continue;
                    };
                    let complemented = match mask {
                        Some(m) => {
                            sparse_ops += 1;
                            m.xor_count_ones(new_row, &cur)
                        }
                        None => xor_masked_count_ones(new_row, &cur, &err_words),
                    };
                    if qualifies(complemented) {
                        pass.push((corr, complemented as f64 / n_err.max(1) as f64));
                    }
                }
                // Wire candidates: exhaustive over every cycle-safe source,
                // fused evaluation per gate family.
                if config.model == CorrectionModel::DesignErrors {
                    if let Some((family, identity, invert)) = wire_family(netlist.gate(line).kind())
                    {
                        let gate = netlist.gate(line);
                        let kind = gate.kind();
                        let fanins = gate.fanins().to_vec();
                        // Words outside the occupied ranges keep the fold
                        // identity — safe, because `combine` results are
                        // only read under the error mask, which is zero
                        // there.
                        let fold = |skip: Option<usize>| -> Vec<u64> {
                            let mut acc = vec![identity; wpr];
                            for (p, &f) in fanins.iter().enumerate() {
                                if Some(p) == skip {
                                    continue;
                                }
                                let row = vals.row(f.index());
                                for &(lo, hi) in ranges {
                                    for (a, &r) in acc[lo..hi].iter_mut().zip(&row[lo..hi]) {
                                        match family {
                                            Family::And => *a &= r,
                                            Family::Or => *a |= r,
                                            Family::Xor => *a ^= r,
                                        }
                                    }
                                }
                            }
                            acc
                        };
                        let core = fold(None);
                        let base_wo: Vec<Vec<u64>> =
                            (0..fanins.len()).map(|p| fold(Some(p))).collect();
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
                        // Eligible sources, optionally stride-sampled.
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
                        if config.wire_source_limit > 0 && eligible.len() > config.wire_source_limit
                        {
                            delta.wire_sources_truncated +=
                                eligible.len() - config.wire_source_limit;
                            let stride = eligible.len().div_ceil(config.wire_source_limit);
                            eligible = eligible.into_iter().step_by(stride).collect();
                        }
                        for src in eligible {
                            let srow = vals.row(src.index());
                            // AddInput.
                            if can_add && !fanins.contains(&src) {
                                delta.screened += 1;
                                sparse_ops += 1;
                                let mut complemented = 0usize;
                                for &(lo, hi) in ranges {
                                    for w in lo..hi {
                                        let diff =
                                            (combine(&core, srow, w) ^ cur[w]) & err_words[w];
                                        complemented += diff.count_ones() as usize;
                                    }
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
                            // ReplaceInput on every port.
                            for (p, &old) in fanins.iter().enumerate() {
                                if old == src {
                                    continue;
                                }
                                delta.screened += 1;
                                sparse_ops += 1;
                                let mut complemented = 0usize;
                                for &(lo, hi) in ranges {
                                    for w in lo..hi {
                                        let diff =
                                            (combine(&base_wo[p], srow, w) ^ cur[w]) & err_words[w];
                                        complemented += diff.count_ones() as usize;
                                    }
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
                            // InsertGate over the basic 2-input kinds (restores a
                            // dropped "simple gate" in one correction). The
                            // inverting kinds complement almost every V_err bit and
                            // so pass heuristic 2 for free, flooding the expensive
                            // heuristic-3 stage; they only join once the ladder has
                            // relaxed h3 — the point where such repairs become
                            // admissible at all.
                            let insert_kinds: &[GateKind] = if level.h3 <= 0.85 {
                                &[GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor]
                            } else {
                                &[GateKind::And, GateKind::Or]
                            };
                            for &k2 in insert_kinds {
                                delta.screened += 1;
                                sparse_ops += 1;
                                let mut complemented = 0usize;
                                for &(lo, hi) in ranges {
                                    for w in lo..hi {
                                        let v = match k2 {
                                            GateKind::And => cur[w] & srow[w],
                                            GateKind::Or => cur[w] | srow[w],
                                            GateKind::Nand => !(cur[w] & srow[w]),
                                            _ => !(cur[w] | srow[w]),
                                        };
                                        let diff = (v ^ cur[w]) & err_words[w];
                                        complemented += diff.count_ones() as usize;
                                    }
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
                }
                delta.rejected_h2 = delta.screened - pass.len();
                // ---- Phase B: heuristic 3 on the survivors, read off the
                // line's sensitivity masks (run here when heuristic 1 did
                // not score the line). ----
                let mut line_ranked: Vec<RankedCorrection> = Vec::new();
                if !pass.is_empty() {
                    let computed;
                    let flips = match &active[li].flips {
                        Some(flips) => flips,
                        None => {
                            computed = sensitivity(netlist, sim, vals, line, cone, saved);
                            &computed
                        }
                    };
                    // Mismatches on POs outside the cone survive every
                    // correction on this line.
                    let mut outside = vec![0u64; wpr];
                    for (po_idx, &po) in netlist.outputs().iter().enumerate() {
                        if !cone.contains(po) {
                            for (o, &m) in outside.iter_mut().zip(&mismatch[po_idx]) {
                                *o |= m;
                            }
                        }
                    }
                    for (corr, h2_fraction) in pass {
                        let Ok(Some(new_row)) =
                            correction_output_row_into(netlist, vals, &corr, scratch)
                        else {
                            delta.rejected_h3 += 1;
                            continue;
                        };
                        // The candidate's failing-vector row: PO `p` now
                        // fails where `mismatch_p ^ ((new ^ cur) & S_p)`.
                        let mut newly_err = 0usize;
                        let mut fixed = 0usize;
                        for w in 0..wpr {
                            let d = new_row[w] ^ cur[w];
                            let fail = flips
                                .iter()
                                .fold(outside[w], |f, (p, s)| f | (mismatch[*p][w] ^ (d & s[w])));
                            let mut ne = fail & !err_words[w];
                            let mut fx = err_words[w] & !fail;
                            if w == wpr - 1 {
                                ne &= tail;
                                fx &= tail;
                            }
                            newly_err += ne.count_ones() as usize;
                            fixed += fx.count_ones() as usize;
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
                }
                delta.words = sim.words_simulated() - words_before;
                delta.events = sim.events_propagated() - events_before;
                delta.skipped = sim.words_skipped() - skipped_before;
                if mask.is_some() {
                    delta.sparse_rows = sparse_ops;
                    delta.blocks_skipped = sparse_ops * skip_per_op;
                }
                (line_ranked, delta)
            },
        );
        let mut ranked = Vec::new();
        for (line_ranked, delta) in outcome.results {
            ranked.extend(line_ranked);
            stats.corrections_screened += delta.screened;
            stats.corrections_qualified += delta.qualified;
            stats.corrections_rejected_h2 += delta.rejected_h2;
            stats.corrections_rejected_h3 += delta.rejected_h3;
            stats.wire_sources_truncated += delta.wire_sources_truncated;
            stats.words_simulated += delta.words;
            stats.events_propagated += delta.events;
            stats.words_skipped += delta.skipped;
            stats.blocks_skipped += delta.blocks_skipped;
            stats.sparse_rows += delta.sparse_rows;
        }
        stats.parallel.merge(&outcome.telemetry);
        stats.screen_time += t_screen.elapsed();
        ranked
    }
}

/// Folded-evaluation family of a logic gate: its core word operation,
/// the fold identity, and whether the result is complemented.
enum Family {
    And,
    Or,
    Xor,
}

/// `None` for non-logic kinds (inputs, constants, state) — those lines
/// take no wire corrections.
fn wire_family(kind: GateKind) -> Option<(Family, u64, bool)> {
    match kind {
        GateKind::And => Some((Family::And, !0u64, false)),
        GateKind::Nand => Some((Family::And, !0u64, true)),
        GateKind::Buf => Some((Family::And, !0u64, false)),
        GateKind::Not => Some((Family::And, !0u64, true)),
        GateKind::Or => Some((Family::Or, 0u64, false)),
        GateKind::Nor => Some((Family::Or, 0u64, true)),
        GateKind::Xor => Some((Family::Xor, 0u64, false)),
        GateKind::Xnor => Some((Family::Xor, 0u64, true)),
        _ => None,
    }
}

/// Per-line stat deltas produced inside a screening task and merged, in
/// line order, into the run's [`RectifyStats`].
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
    blocks_skipped: u64,
    sparse_rows: u64,
}

/// A promoted line with its ranking score and — when heuristic 1 scored
/// it — the sensitivity masks the score was read from.
struct ScoredLine {
    line: GateId,
    score: f64,
    flips: Option<Sensitivity>,
}

/// One line's sensitivity masks: `(PO index, S_po)` for every PO in the
/// line's fanout cone, in [`Netlist::outputs`] order, where `S_po` holds
/// the vectors on which that PO flips when the line's value flips.
type Sensitivity = Vec<(usize, Vec<u64>)>;

/// The sensitivity pass: complements `line`'s row on every vector,
/// propagates the change once through its fanout `cone`
/// ([`Simulator::run_cone_events`]), and returns `S_po` for every PO in
/// the cone. The cone rows are saved into `saved` first and restored
/// after, so `vals` comes back bit for bit.
///
/// Exact for every correction on `line`: a correction changes only the
/// line's row, and its wire sources lie outside the cone, so on each
/// vector every PO bit is a function of the line's bit alone — it flips
/// with the line exactly where `S_po` is set.
fn sensitivity(
    netlist: &Netlist,
    sim: &mut Simulator,
    vals: &mut PackedMatrix,
    line: GateId,
    cone: &ConeSet,
    saved: &mut Vec<u64>,
) -> Sensitivity {
    let wpr = vals.words_per_row();
    let mut flips: Sensitivity = netlist
        .outputs()
        .iter()
        .enumerate()
        .filter(|&(_, &po)| cone.contains(po))
        .map(|(po_idx, &po)| (po_idx, vals.row(po.index()).to_vec()))
        .collect();
    saved.clear();
    for &g in cone.sorted() {
        saved.extend_from_slice(vals.row(g.index()));
    }
    for w in vals.row_mut(line.index()) {
        *w = !*w;
    }
    sim.run_cone_events(netlist, vals, cone.sorted());
    for (po_idx, s) in &mut flips {
        let after = vals.row(netlist.outputs()[*po_idx].index());
        for (s, &a) in s.iter_mut().zip(after) {
            *s ^= a;
        }
    }
    for (k, &g) in cone.sorted().iter().enumerate() {
        vals.row_mut(g.index())
            .copy_from_slice(&saved[k * wpr..(k + 1) * wpr]);
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_gen::{random_dag, RandomDagConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The identity heuristics 1 and 3 rest on: for every correction
        /// on a line, under both models and with wire sources outside the
        /// line's cone, the PO rows read off the line's sensitivity masks
        /// equal those of the corrected netlist resimulated from its
        /// inputs, on every valid bit. The pass hands the value matrix
        /// back bit for bit.
        #[test]
        fn sensitivity_masks_predict_every_correction(
            seed in 0u64..1_000_000,
            pick in 0usize..1000,
            vectors in 1usize..=200,
        ) {
            let dag = RandomDagConfig {
                inputs: 6,
                gates: 40,
                outputs: 5,
                max_fanin: 3,
                xor_fraction: 0.2,
                window: 16,
            };
            let netlist = random_dag(&dag, seed);
            let line = GateId::from_index(pick % netlist.len());
            let mut rng = StdRng::seed_from_u64(seed);
            let pi = PackedMatrix::random(netlist.inputs().len(), vectors, &mut rng);
            let mut sim = Simulator::new();
            let vals = sim.run(&netlist, &pi);
            let cone = ConeSet::compute(&netlist, line);
            let mut work = vals.clone();
            let flips = sensitivity(&netlist, &mut sim, &mut work, line, &cone, &mut Vec::new());
            prop_assert!(work == vals, "the pass must restore the value matrix");
            let sources: Vec<GateId> = netlist.ids().filter(|&s| !cone.contains(s)).collect();
            let wpr = vals.words_per_row();
            let tail = PackedBits::new(vectors).tail_mask();
            let cur = vals.row(line.index());
            let mut scratch = CorrectionScratch::default();
            for model in [CorrectionModel::StuckAt, CorrectionModel::DesignErrors] {
                for corr in enumerate_corrections(&netlist, line, model, &sources) {
                    let Ok(Some(new_row)) =
                        correction_output_row_into(&netlist, &vals, &corr, &mut scratch)
                    else {
                        continue; // the pipeline rejects these unscored
                    };
                    let mut fixed = netlist.clone();
                    if corr.apply(&mut fixed).is_err() {
                        continue; // e.g. an added input past the gate's arity
                    }
                    let after = sim.run_for_inputs(&fixed, netlist.inputs(), &pi);
                    for (po_idx, &po) in netlist.outputs().iter().enumerate() {
                        let mut predicted = vals.row(po.index()).to_vec();
                        if let Some((_, s)) = flips.iter().find(|(p, _)| *p == po_idx) {
                            for w in 0..wpr {
                                predicted[w] ^= (new_row[w] ^ cur[w]) & s[w];
                            }
                        }
                        let got = after.row(po.index());
                        for w in 0..wpr {
                            let valid = if w + 1 == wpr { tail } else { !0 };
                            prop_assert_eq!(
                                predicted[w] & valid,
                                got[w] & valid,
                                "{} PO {} word {}",
                                corr,
                                po_idx,
                                w
                            );
                        }
                    }
                }
            }
        }
    }
}
