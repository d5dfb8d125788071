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
//! Heuristic 1 (§3.1) becomes `Σ popcount(mismatch_po & S_po)`. For
//! heuristic 3 (§3.2) the masks fold once per line into the failing row
//! the line's flip leaves, and each survivor costs at most two masked
//! popcounts against it ([`FlipMasks`]) — no cone walk and no per-PO fold
//! per candidate.
//!
//! Heuristic 2 (§3.2) is counted, not evaluated, wherever a closed form
//! exists: stuck-at constants share one popcount per line, and every wire
//! candidate's count follows from a few per-line masks and at most
//! `1 + ports` popcounts per source ([`WireMasks`]). Only the remaining design-error
//! candidates (kind changes, inverted, removed or wired-through inputs)
//! evaluate their output row, with
//! [`correction_output_row_into`](crate::screen::correction_output_row_into);
//! heuristic 3 evaluates each survivor's row the same way. Every count is
//! the integer the candidate's evaluated row would give, so scores and
//! rankings are exact.
//!
//! The candidate list is a **pure function** of (netlist, value
//! matrix, reference response, applied corrections, ladder level,
//! config) — no hidden scheduling state leaks into the results.

use std::cell::OnceCell;
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

    /// Runs all four stages on one prepared, still-failing node and
    /// returns its ranked candidate list (best rank first, capped at
    /// [`RectifyConfig::max_candidates_per_node`]). Empty means the
    /// node is a dead leaf at this parameter level.
    ///
    /// **The last-slot rule.** When one correction slot is left
    /// (`corrections.len() + 1 == max_corrections`), only lines that
    /// path-trace marks on *every* traced vector — the first
    /// `min(path_trace_vector_cap, |V_err|)` failing vectors — go on to
    /// ranking and screening. A child at this node is a solution only if
    /// its one correction repairs every failing vector, and no correction
    /// on a line that is unmarked on some traced vector `v` repairs `v`:
    ///
    /// - A correction on line `l` rewrites only `l`'s gate, and any gate
    ///   it appends feeds only `l`. Every other gate keeps its function.
    /// - A marked AND/OR-family gate has all of its controlling fanins
    ///   marked, or all of its fanins when none controls; BUF, NOT and
    ///   XOR-family gates mark every fanin.
    /// - So, in topological order, each marked gate other than `l` sees
    ///   its marked fanins unchanged on `v`. A controlling fanin still
    ///   controls, and a gate without one sees every fanin unchanged, so
    ///   its value on `v` is unchanged too. With `l` unmarked, no marked
    ///   line changes on `v`. The erroneous POs are marked, so `v` still
    ///   fails.
    ///
    /// Every dropped candidate would have been closed as a failing leaf,
    /// so no last-slot solution is lost; the rule holds for every model,
    /// traversal, evaluator and hierarchical phase. Under
    /// [`RectifyConfig::audit`] each dropped line is checked by its
    /// sensitivity pass.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        corrections: &[Correction],
        level: &ParamLevel,
        cones: &ConeCache,
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
        // The last-slot rule (see the method doc): a lone correction must
        // sit on a line marked on every traced vector.
        let traced = self
            .config
            .path_trace_vector_cap
            .min(response.num_failing());
        let mut dropped = Vec::new();
        if corrections.len() + 1 == self.config.max_corrections {
            let everywhere = |id: &GateId| counts[id.index()] as usize == traced;
            if self.config.audit {
                dropped = marked
                    .iter()
                    .copied()
                    .filter(|id| !everywhere(id))
                    .collect();
            }
            marked.retain(everywhere);
        }
        let remaining = (self.config.max_corrections - corrections.len()).max(1);
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
        if !dropped.is_empty() {
            self.audit_dropped_lines(
                netlist, vals, response, &mismatch, &dropped, traced, cones, stats,
            );
        }
        // When the level disables the h1 filter (exhaustive stuck-at
        // mode), skip the sensitivity passes here and order lines by
        // path-trace count alone; screening then runs a pass, and
        // computes a cone, only for lines with a heuristic-2 survivor.
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

    /// Heuristic 1: run each promoted line's sensitivity pass and score
    /// the line by the fraction of erroneous PO bits its flip rectifies.
    /// The masks ride along to screening, which reads heuristic 3 off
    /// them.
    ///
    /// Lines are scored in parallel; each worker owns a simulator and a
    /// private copy of the value matrix (every pass restores the cone
    /// rows it perturbs, so the copy stays equal to `vals` between
    /// tasks), and fetches its line's cone from the shared `cones`,
    /// computing it there on first read. Scores merge in input order and
    /// the final sort is stable, so the ranking is bit-identical to the
    /// serial one.
    #[allow(clippy::too_many_arguments)]
    fn rank_lines(
        &self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        mismatch: &[Vec<u64>],
        lines: &[GateId],
        cones: &ConeCache,
        stats: &mut RectifyStats,
    ) -> Vec<ScoredLine> {
        let total_bad = response.mismatch_bits().max(1);
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
                    return (Sensitivity::default(), 0, 0, 0);
                }
                if let Some((chaos, section)) = &chaos {
                    chaos.maybe_panic(*section, i);
                }
                let words_before = sim.words_simulated();
                let events_before = sim.events_propagated();
                let skipped_before = sim.words_skipped();
                let cone = cones.get(netlist, lines[i]);
                let flips = sensitivity(netlist, sim, vals, lines[i], &cone, saved);
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
                .flat_map(|(po_idx, s)| mismatch[po_idx].iter().zip(s))
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

    /// The audit of the last-slot rule: runs each dropped line's
    /// sensitivity pass and checks that the failing row its flip leaves
    /// (`F` of [`FlipMasks`]) still holds one of the first `traced`
    /// failing vectors. The check is exact: a correction flips the line
    /// on some set of vectors and leaves `F`'s verdict on each of them,
    /// so one that repairs every traced vector must flip the line on all
    /// of them, and `F` must hold none. A dropped line that fails the
    /// check is a violation, fatal in debug builds. The passes run on a
    /// private simulator and count no simulation effort.
    #[allow(clippy::too_many_arguments)]
    fn audit_dropped_lines(
        &self,
        netlist: &Netlist,
        vals: &PackedMatrix,
        response: &Response,
        mismatch: &[Vec<u64>],
        dropped: &[GateId],
        traced: usize,
        cones: &ConeCache,
        stats: &mut RectifyStats,
    ) {
        let err_words = response.failing_vectors().words();
        let mut traced_words = vec![0u64; err_words.len()];
        for v in response.failing_vectors().iter_ones().take(traced) {
            traced_words[v / 64] |= 1 << (v % 64);
        }
        let tail = PackedBits::new(vals.num_vectors()).tail_mask();
        let (mut sim, mut vals, mut saved) = (Simulator::new(), vals.clone(), Vec::new());
        for &line in dropped {
            stats.audit_checks += 1;
            let cone = cones.get(netlist, line);
            let flips = sensitivity(netlist, &mut sim, &mut vals, line, &cone, &mut saved);
            let flip = FlipMasks::new(netlist, mismatch, &flips, &cone, err_words, tail);
            // Traced vectors fail, so `F` holds one exactly where `fix`
            // misses it.
            if traced_words
                .iter()
                .zip(&flip.fix)
                .all(|(&t, &f)| t & !f == 0)
            {
                stats.audit_violations += 1;
                debug_assert!(
                    false,
                    "audit: line {line}, dropped at the last slot, can repair every traced vector"
                );
            }
        }
    }

    /// The screening stage: enumerate corrections per qualified line,
    /// filter with heuristics 2 and 3, and rank the survivors.
    ///
    /// Every score comes from three integer counts per candidate —
    /// `complemented` (h2), `fixed` (h1) and `newly_err` (h3) — read off a
    /// few masks per line rather than evaluated candidate by candidate.
    /// Heuristic 2 is closed-form for stuck-at constants and wire
    /// candidates ([`WireMasks`]); heuristic 3 is at most two masked
    /// popcounts per survivor against the line's flip row
    /// ([`FlipMasks`]), the second only for candidates that pass it.
    ///
    /// Suspect lines fan out across workers, one task per line covering
    /// both screening phases. Workers carry a private simulator plus a
    /// private copy of the value matrix (a sensitivity pass run here,
    /// for lines heuristic 1 did not score, restores every cone row it
    /// perturbs, so the copy stays equal to `vals` between tasks). A
    /// task fetches its line's cone from the shared `cones` once, when
    /// it first reads it; survivors merge in line order, preserving the
    /// serial candidate sequence bit for bit.
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
        cones: &ConeCache,
        stats: &mut RectifyStats,
    ) -> Vec<RankedCorrection> {
        let t_screen = Instant::now();
        let nv = vals.num_vectors();
        let wpr = vals.words_per_row();
        let tail = PackedBits::new(nv).tail_mask();
        let err_words: Vec<u64> = response.failing_vectors().words().to_vec();
        let v_ratio = n_err as f64 / nv as f64;
        // Heuristic-2 popcounts only read words under the error mask, so
        // in sparse mode they walk just the occupied block ranges — every
        // skipped word contributes zero either way (the sparse ≡ dense
        // contract; see ARCHITECTURE.md). A mask with nothing to skip
        // falls back to the dense single range.
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
        // Heuristic 2 keeps a candidate whose `complemented / |V_err|`
        // reaches the threshold. That test is monotone in the integer
        // count, so it reduces to one least passing count per node.
        let err_fraction = |complemented: usize| complemented as f64 / n_err.max(1) as f64;
        let h2_min = least_accepted(n_err, |x| err_fraction(x) + 1e-12 >= h2_threshold);
        // `|src ∧ V_err|` of every signal, shared by every line's wire
        // candidates.
        let src_err: Vec<usize> = if self.config.model == CorrectionModel::DesignErrors {
            netlist
                .ids()
                .map(|g| and_count(vals.row(g.index()), &err_words, ranges))
                .collect()
        } else {
            Vec::new()
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
                // The line's cone, fetched from the shared cache on first
                // read: the wire-source eligibility test, the sensitivity
                // pass and the out-of-cone failing row all read it, but a
                // stuck-at line with no heuristic-2 survivor never does.
                let cone_cell = OnceCell::new();
                let cone = || cone_cell.get_or_init(|| cones.get(netlist, line));
                let mut delta = ScreenDelta::default();
                let mut sparse_ops = 0u64;
                let words_before = sim.words_simulated();
                let events_before = sim.events_propagated();
                let skipped_before = sim.words_skipped();
                // ---- Phase A: heuristic 2 on every candidate. ----
                let mut pass: Vec<(Correction, f64)> = Vec::new();
                let cur = vals.row(line.index()).to_vec();
                // `c = |cur ∧ V_err|`: the one popcount every closed form
                // below starts from.
                let c = and_count(&cur, &err_words, ranges);
                let qualifies = |complemented: usize| complemented >= h2_min;
                let mut consider = |corr: Correction, complemented: usize| {
                    if qualifies(complemented) {
                        pass.push((corr, err_fraction(complemented)));
                    }
                };
                for corr in enumerate_corrections(netlist, line, config.model, &[]) {
                    delta.screened += 1;
                    let complemented = match corr.action() {
                        // A constant complements the `V_err` bits where the
                        // line holds its opposite.
                        CorrectionAction::SetConst(false) => c,
                        CorrectionAction::SetConst(true) => n_err - c,
                        _ => {
                            let Ok(Some(new_row)) =
                                correction_output_row_into(netlist, vals, &corr, scratch)
                            else {
                                continue;
                            };
                            match mask {
                                Some(m) => m.xor_count_ones(new_row, &cur),
                                None => xor_masked_count_ones(new_row, &cur, &err_words),
                            }
                        }
                    };
                    sparse_ops += 1;
                    consider(corr, complemented);
                }
                // Wire candidates: exhaustive over every cycle-safe source,
                // each counted in closed form.
                if config.model == CorrectionModel::DesignErrors {
                    if let Some(wire) =
                        WireMasks::new(netlist, vals, line, &cur, &err_words, ranges, n_err, c)
                    {
                        let fanins = netlist.gate(line).fanins();
                        let cone = cone();
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
                        // InsertGate over the basic 2-input kinds (restores a
                        // dropped "simple gate" in one correction). The
                        // inverting kinds complement almost every V_err bit and
                        // so pass heuristic 2 for free, flooding the
                        // heuristic-3 stage; they only join once the ladder has
                        // relaxed h3 — the point where such repairs become
                        // admissible at all.
                        let insert_kinds: &[GateKind] = if level.h3 <= 0.85 {
                            &[GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor]
                        } else {
                            &[GateKind::And, GateKind::Or]
                        };
                        for src in eligible {
                            let srow = vals.row(src.index());
                            let p_all = src_err[src.index()];
                            // Bounds from `P` alone first: a source pays for
                            // its `q` popcount only once some candidate's
                            // bound reaches the threshold, and a port for
                            // its `r_p` popcount only once its bound at the
                            // exact `q` does.
                            let (q_lo, q_hi) = wire.q_range(p_all);
                            let (lo, hi) = (wire.counts(q_lo, p_all), wire.counts(q_hi, p_all));
                            let most =
                                |count: &dyn Fn(&SourceCounts) -> usize| count(&lo).max(count(&hi));
                            let mut known = None;
                            let mut exact =
                                || *known.get_or_insert_with(|| wire.counts(wire.q(srow), p_all));
                            if wire.can_add && !fanins.contains(&src) {
                                delta.screened += 1;
                                sparse_ops += 1;
                                if qualifies(most(&|s| wire.add_input(s))) {
                                    consider(
                                        Correction::new(
                                            line,
                                            CorrectionAction::AddInput { source: src },
                                        ),
                                        wire.add_input(&exact()),
                                    );
                                }
                            }
                            for (port, &old) in fanins.iter().enumerate() {
                                if old == src {
                                    continue;
                                }
                                delta.screened += 1;
                                sparse_ops += 1;
                                if qualifies(most(&|s| wire.replace_bound(s, port))) {
                                    let counts = exact();
                                    if qualifies(wire.replace_bound(&counts, port)) {
                                        consider(
                                            Correction::new(
                                                line,
                                                CorrectionAction::ReplaceInput {
                                                    port,
                                                    source: src,
                                                },
                                            ),
                                            wire.replace_input(&counts, srow, port),
                                        );
                                    }
                                }
                            }
                            for &kind in insert_kinds {
                                delta.screened += 1;
                                sparse_ops += 1;
                                if qualifies(most(&|s| wire.insert_gate(s, kind))) {
                                    consider(
                                        Correction::new(
                                            line,
                                            CorrectionAction::InsertGate { kind, other: src },
                                        ),
                                        wire.insert_gate(&exact(), kind),
                                    );
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
                    let cone = cone();
                    let computed;
                    let flips = match &active[li].flips {
                        Some(flips) => flips,
                        None => {
                            computed = sensitivity(netlist, sim, vals, line, cone, saved);
                            &computed
                        }
                    };
                    let flip = FlipMasks::new(netlist, mismatch, flips, cone, &err_words, tail);
                    for (corr, h2_fraction) in pass {
                        let Ok(Some(new_row)) =
                            correction_output_row_into(netlist, vals, &corr, scratch)
                        else {
                            delta.rejected_h3 += 1;
                            continue;
                        };
                        // Both scores stay exact ratios of these counts:
                        // `RankedCorrection::repairs_every_vector` (below)
                        // closes capped children on them.
                        let newly_err = flip.newly_err(new_row, &cur);
                        let h3_score = 1.0 - newly_err as f64 / n_corr.max(1) as f64;
                        if h3_score + 1e-12 < level.h3 {
                            delta.rejected_h3 += 1;
                            continue;
                        }
                        delta.qualified += 1;
                        let corr_h1 = flip.fixed(new_row, &cur) as f64 / n_err.max(1) as f64;
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

impl RankedCorrection {
    /// Does this correction, applied to the node it was screened on,
    /// leave no failing vector? The engine closes a child that can never
    /// join the tree (at the depth bound or the node cap) for which this
    /// is `false` without preparing it: only a child that repairs every
    /// vector can be a solution.
    ///
    /// The test is exact. [`CandidatePipeline::run`]'s screening stage
    /// computes `h1 = fixed / |V_err|` and `h3 = 1 − newly_err / |V_corr|`
    /// from integer counts read off the line's sensitivity masks, with
    /// `fixed ≤ |V_err|`. For integers `a ≤ b < 2⁵³` the quotient `a / b`
    /// rounds to `1.0` only when `a = b`, and `1 − x` stays below `1.0`
    /// for every `x ≥ 2⁻⁵³`, so both scores are exactly `1.0` if and only
    /// if `fixed = |V_err|` and `newly_err = 0` — that is, if and only if
    /// the child's failing-vector row is empty. Checkpoints store the
    /// scores as bit patterns, so a resumed search decides every leaf
    /// the same way.
    pub fn repairs_every_vector(&self) -> bool {
        self.h1_score == 1.0 && self.h3_score == 1.0
    }
}

/// Folded-evaluation family of a logic gate: its core word operation.
#[derive(Clone, Copy)]
enum Family {
    And,
    Or,
    Xor,
}

/// `(family, fold identity, inverted)` of a logic gate; `None` for
/// non-logic kinds (inputs, constants, state) — those lines take no wire
/// corrections.
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

/// The least `x ≤ n` that `accept` holds for, or `n + 1` when it holds for
/// none; `accept` must be monotone (once true, true for every larger `x`).
fn least_accepted(n: usize, accept: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if accept(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `Σ popcount(a ∧ m)` over the half-open word `ranges`.
fn and_count(a: &[u64], m: &[u64], ranges: &[(usize, usize)]) -> usize {
    ranges
        .iter()
        .map(|&(lo, hi)| {
            a[lo..hi]
                .iter()
                .zip(&m[lo..hi])
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum::<usize>()
        })
        .sum()
}

/// One line's heuristic-2 masks for its wire candidates (AddInput,
/// ReplaceInput, InsertGate), from which each candidate's `complemented`
/// count `|(new ⊕ cur) ∧ V_err|` follows in closed form.
///
/// With `E = V_err`, `n = |E|` and `c = |cur ∧ E|`, a source `src` needs
/// `q = |src ∧ cur ∧ E|` and `qn = |src ∧ ¬cur ∧ E| = P − q`, where
/// `P = |src ∧ E|`. Non-inverting kinds (AND, OR, XOR, BUF) take `k = c`
/// and `q_k = q`; inverting ones (NAND, NOR, XNOR, NOT) take `k = n − c`
/// and `q_k = qn`. Port `p` carries `X_p`: `E ∧ b_p ∧ ¬f_p` for the AND
/// family, `E ∧ ¬b_p ∧ f_p` for OR and `E ∧ f_p` for XOR, where `f_p` is
/// the port's row and `b_p` the fold of the other fanins; `r_p =
/// |src ∧ X_p|`. For the AND / OR / XOR family in that order:
///
/// - AddInput: `k − q_k` / `P − q_k` / `P`;
/// - ReplaceInput on port `p`: `(k − q_k) + r_p` / `(P − q_k) + |X_p| −
///   r_p` / `P + |X_p| − 2·r_p`;
/// - InsertGate AND / OR / NAND / NOR: `c − q` / `qn` / `n − c + q` /
///   `n − qn`.
///
/// Each follows from writing `new ⊕ cur` out per family (ReplaceInput on
/// the AND family gives `b_p ∧ (src ⊕ f_p)`, for example) and needs only
/// that `cur` is the gate's function of its fanins, which holds for every
/// simulated value matrix. Every mask lies under `E`, so the popcounts
/// walk only the sparse kernel's occupied `ranges`.
///
/// Screening also bounds each count before paying for its popcounts
/// ([`WireMasks::replace_bound`], [`WireMasks::q_range`]): a candidate
/// whose bound misses the heuristic-2 threshold is rejected uncounted,
/// which is exact because the test is monotone in the count.
struct WireMasks<'r> {
    family: Family,
    invert: bool,
    /// AddInput applies (multi-input kinds only).
    can_add: bool,
    n: usize,
    c: usize,
    /// `cur ∧ E`.
    cur_err: Vec<u64>,
    /// `(X_p, |X_p|)` per fanin port.
    ports: Vec<(Vec<u64>, usize)>,
    ranges: &'r [(usize, usize)],
}

/// One source's counts against a [`WireMasks`] line: everything but the
/// per-port `r_p`.
#[derive(Clone, Copy)]
struct SourceCounts {
    q: usize,
    qn: usize,
    /// `k − q_k`.
    k_rest: usize,
    /// `P − q_k`.
    p_rest: usize,
}

impl<'r> WireMasks<'r> {
    /// The masks of `line` with row `cur`; `None` when the line's kind
    /// takes no wire corrections.
    #[allow(clippy::too_many_arguments)]
    fn new(
        netlist: &Netlist,
        vals: &PackedMatrix,
        line: GateId,
        cur: &[u64],
        err: &[u64],
        ranges: &'r [(usize, usize)],
        n: usize,
        c: usize,
    ) -> Option<Self> {
        let gate = netlist.gate(line);
        let kind = gate.kind();
        let (family, identity, invert) = wire_family(kind)?;
        let fanins = gate.fanins();
        let op = |a: u64, b: u64| match family {
            Family::And => a & b,
            Family::Or => a | b,
            Family::Xor => a ^ b,
        };
        let wpr = cur.len();
        let mut cur_err = vec![0u64; wpr];
        for &(lo, hi) in ranges {
            for w in lo..hi {
                cur_err[w] = cur[w] & err[w];
            }
        }
        debug_assert!(
            ranges.iter().flat_map(|&(lo, hi)| lo..hi).all(|w| {
                let core = fanins
                    .iter()
                    .fold(identity, |a, f| op(a, vals.row(f.index())[w]));
                let out = if invert { !core } else { core };
                (out ^ cur[w]) & err[w] == 0
            }),
            "{line}: the value matrix disagrees with the gate's function"
        );
        let ports = (0..fanins.len())
            .map(|p| {
                let mut x = vec![0u64; wpr];
                for &(lo, hi) in ranges {
                    for w in lo..hi {
                        let b = fanins
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != p)
                            .fold(identity, |a, (_, f)| op(a, vals.row(f.index())[w]));
                        let f = vals.row(fanins[p].index())[w];
                        x[w] = err[w]
                            & match family {
                                Family::And => b & !f,
                                Family::Or => !b & f,
                                Family::Xor => f,
                            };
                    }
                }
                let count = and_count(&x, err, ranges);
                (x, count)
            })
            .collect();
        Some(WireMasks {
            family,
            invert,
            can_add: matches!(
                kind,
                GateKind::And
                    | GateKind::Nand
                    | GateKind::Or
                    | GateKind::Nor
                    | GateKind::Xor
                    | GateKind::Xnor
            ),
            n,
            c,
            cur_err,
            ports,
            ranges,
        })
    }

    /// `q = |src ∧ cur ∧ E|` of source row `src`.
    fn q(&self, src: &[u64]) -> usize {
        and_count(src, &self.cur_err, self.ranges)
    }

    /// The range `q` can take for a source with `p_all = |src ∧ E|`: at
    /// most `c` of its `V_err` bits lie under `cur`, and at most `n − c`
    /// outside it. Every count is monotone in `q` (and so is
    /// [`WireMasks::replace_bound`]), so the larger of its values at the
    /// two ends bounds it before `q` is counted.
    fn q_range(&self, p_all: usize) -> (usize, usize) {
        (p_all.saturating_sub(self.n - self.c), p_all.min(self.c))
    }

    /// The counts of a source with `q` and `p_all = |src ∧ E|`, for `q` in
    /// [`WireMasks::q_range`].
    fn counts(&self, q: usize, p_all: usize) -> SourceCounts {
        let qn = p_all - q;
        let (k, q_k) = if self.invert {
            (self.n - self.c, qn)
        } else {
            (self.c, q)
        };
        SourceCounts {
            q,
            qn,
            k_rest: k - q_k,
            p_rest: p_all - q_k,
        }
    }

    /// AddInput's count.
    fn add_input(&self, s: &SourceCounts) -> usize {
        match self.family {
            Family::And => s.k_rest,
            Family::Or => s.p_rest,
            Family::Xor => s.q + s.qn,
        }
    }

    /// An upper bound on ReplaceInput's count on fanin `port` that needs
    /// no `r_p`. With `core` the un-inverted fold of every fanin, `X_p`
    /// lies in `E ∧ ¬core` for the AND family, so `r_p ≤ P − q_k`; it
    /// lies in `E ∧ core` for OR, so `|X_p| − r_p ≤ k − q_k`; and for XOR
    /// `r_p ≥ P + |X_p| − n`.
    fn replace_bound(&self, s: &SourceCounts, port: usize) -> usize {
        let x_count = self.ports[port].1;
        match self.family {
            Family::And => s.k_rest + x_count.min(s.p_rest),
            Family::Or => s.p_rest + x_count.min(s.k_rest),
            Family::Xor => {
                let sum = s.q + s.qn + x_count;
                sum.min(2 * self.n - sum)
            }
        }
    }

    /// ReplaceInput's count for source row `src` on fanin `port`.
    fn replace_input(&self, s: &SourceCounts, src: &[u64], port: usize) -> usize {
        let (x, x_count) = &self.ports[port];
        let r = and_count(src, x, self.ranges);
        match self.family {
            Family::And => s.k_rest + r,
            Family::Or => s.p_rest + x_count - r,
            Family::Xor => s.q + s.qn + x_count - 2 * r,
        }
    }

    /// InsertGate's count for the inserted `kind` (AND, OR, NAND or NOR).
    fn insert_gate(&self, s: &SourceCounts, kind: GateKind) -> usize {
        match kind {
            GateKind::And => self.c - s.q,
            GateKind::Or => s.qn,
            GateKind::Nand => self.n - self.c + s.q,
            // NOR
            _ => self.n - s.qn,
        }
    }
}

/// One line's heuristic-3 masks. `F = outside ∨ ⋁_{p in cone}(mismatch_p
/// ⊕ S_p)` is the failing-vector row when the line's value flips, where
/// `outside` holds the mismatches on POs outside the line's cone. A
/// candidate leaves every vector on which it keeps the line's value as it
/// was, and makes a vector on which it flips the line fail exactly where
/// `F` says; so with `d = new ⊕ cur` it fixes `|d ∧ fix|` failing vectors
/// and breaks `|d ∧ brk|` passing ones.
struct FlipMasks {
    /// `V_err ∧ ¬F`.
    fix: Vec<u64>,
    /// `F ∧ ¬V_err`, tail-masked.
    brk: Vec<u64>,
}

impl FlipMasks {
    fn new(
        netlist: &Netlist,
        mismatch: &[Vec<u64>],
        flips: &Sensitivity,
        cone: &ConeSet,
        err: &[u64],
        tail: u64,
    ) -> Self {
        let mut fail = vec![0u64; err.len()];
        for (po_idx, &po) in netlist.outputs().iter().enumerate() {
            if !cone.contains(po) {
                for (f, &m) in fail.iter_mut().zip(&mismatch[po_idx]) {
                    *f |= m;
                }
            }
        }
        for (po_idx, s) in flips.iter() {
            for ((f, &m), &s) in fail.iter_mut().zip(&mismatch[po_idx]).zip(s) {
                *f |= m ^ s;
            }
        }
        let fix = err.iter().zip(&fail).map(|(&e, &f)| e & !f).collect();
        let mut brk: Vec<u64> = err.iter().zip(&fail).map(|(&e, &f)| f & !e).collect();
        if let Some(last) = brk.last_mut() {
            *last &= tail;
        }
        FlipMasks { fix, brk }
    }

    /// Failing vectors fixed by a candidate with output row `new_row` on
    /// a line whose row is `cur`.
    fn fixed(&self, new_row: &[u64], cur: &[u64]) -> usize {
        xor_masked_count_ones(new_row, cur, &self.fix)
    }

    /// Passing vectors broken by a candidate with output row `new_row` on
    /// a line whose row is `cur`.
    fn newly_err(&self, new_row: &[u64], cur: &[u64]) -> usize {
        xor_masked_count_ones(new_row, cur, &self.brk)
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
/// the vectors on which that PO flips when the line's value flips. The
/// masks sit back to back in one word buffer, `wpr` words each, so a pass
/// allocates two vectors however many POs its cone reaches.
#[derive(Default)]
struct Sensitivity {
    po_idx: Vec<usize>,
    masks: Vec<u64>,
    wpr: usize,
}

impl Sensitivity {
    /// `(PO index, S_po)` pairs, in [`Netlist::outputs`] order. (The
    /// chunk width is at least 1 so that a cancelled task's empty
    /// default, with `wpr` 0, yields nothing.)
    fn iter(&self) -> impl Iterator<Item = (usize, &[u64])> {
        self.po_idx
            .iter()
            .copied()
            .zip(self.masks.chunks_exact(self.wpr.max(1)))
    }
}

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
    let po_idx: Vec<usize> = (0..netlist.outputs().len())
        .filter(|&i| cone.contains(netlist.outputs()[i]))
        .collect();
    let mut masks = Vec::with_capacity(po_idx.len() * wpr);
    for &i in &po_idx {
        masks.extend_from_slice(vals.row(netlist.outputs()[i].index()));
    }
    let mut flips = Sensitivity { po_idx, masks, wpr };
    saved.clear();
    for &g in cone.sorted() {
        saved.extend_from_slice(vals.row(g.index()));
    }
    for w in vals.row_mut(line.index()) {
        *w = !*w;
    }
    sim.run_cone_events(netlist, vals, cone.sorted());
    for (&po_idx, s) in flips
        .po_idx
        .iter()
        .zip(flips.masks.chunks_exact_mut(wpr.max(1)))
    {
        let after = vals.row(netlist.outputs()[po_idx].index());
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
    use incdx_fault::StuckAt;
    use incdx_gen::{random_dag, RandomDagConfig};
    use incdx_sim::BLOCK_WORDS;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// In exhaustive stuck-at mode heuristic 1 is off, so no sensitivity
    /// pass runs in ranking: screening reads a line's cone only when the
    /// line has a heuristic-2 survivor. At the last slot (k = 1) a
    /// stuck-at candidate survives only if the line is constant over
    /// `V_err`, so most promoted lines have none and compute no cone.
    #[test]
    fn h1_off_screening_computes_only_the_cones_it_reads() {
        let config = RectifyConfig::stuck_at_exhaustive(1);
        let level = config.ladder[0];
        assert!(level.h1 <= 0.0, "the exhaustive level disables heuristic 1");
        let dag = RandomDagConfig {
            inputs: 8,
            gates: 60,
            outputs: 6,
            max_fanin: 3,
            xor_fraction: 0.2,
            window: 16,
        };
        let mut below_promoted = 0;
        for seed in 0..12u64 {
            let netlist = random_dag(&dag, seed);
            let fault = StuckAt::new(GateId::from_index(netlist.len() / 2), seed % 2 == 0);
            let mut device = netlist.clone();
            if fault.apply(&mut device).is_err() {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let pi = PackedMatrix::random(netlist.inputs().len(), 256, &mut rng);
            let mut sim = Simulator::new();
            let spec =
                Response::capture(&device, &sim.run_for_inputs(&device, netlist.inputs(), &pi));
            let vals = sim.run(&netlist, &pi);
            let response = Response::compare(&netlist, &vals, &spec);
            if response.matches() {
                continue; // fault not excited
            }
            let cones = ConeCache::new(&netlist);
            let mut stats = RectifyStats::default();
            let ranked = CandidatePipeline::new(&config, &spec, 1).run(
                &netlist,
                &vals,
                &response,
                &[],
                &level,
                &cones,
                &mut stats,
            );
            let survivors = stats.corrections_qualified + stats.corrections_rejected_h3;
            assert!(
                cones.populated() <= survivors,
                "seed {seed}: {} cones for {survivors} h2 survivors",
                cones.populated()
            );
            let counts = path_trace_counts_batched(
                &netlist,
                &vals,
                &response,
                &spec,
                config.path_trace_vector_cap,
            );
            let promoted = counts.iter().filter(|&&c| c > 0).count();
            let surviving_lines: HashSet<GateId> =
                ranked.iter().map(|r| r.correction.line()).collect();
            if stats.corrections_rejected_h3 == 0 {
                // Every survivor qualified, so the ranked lines are
                // exactly the lines whose cones screening read.
                assert_eq!(cones.populated(), surviving_lines.len(), "seed {seed}");
            }
            if surviving_lines.len() < promoted {
                assert!(cones.populated() < promoted, "seed {seed}");
                below_promoted += 1;
            }
        }
        assert!(
            below_promoted > 0,
            "no case had a promoted line without a survivor"
        );
    }

    #[test]
    fn least_accepted_finds_the_first_passing_count() {
        for n in 0..40usize {
            for threshold in [0.0, 0.1, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.5] {
                let accept = |x: usize| x as f64 / n.max(1) as f64 + 1e-12 >= threshold;
                let scan = (0..=n).find(|&x| accept(x)).unwrap_or(n + 1);
                assert_eq!(
                    least_accepted(n, accept),
                    scan,
                    "n {n} threshold {threshold}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every wire candidate's closed-form heuristic-2 count equals the
        /// masked popcount of its evaluated row, for any error mask, over
        /// the dense range and over a sparse mask's occupied ranges; and
        /// every bound screening rejects on lies at or above that count.
        #[test]
        fn wire_counts_match_evaluated_rows(
            seed in 0u64..1_000_000,
            pick in 0usize..1000,
            vectors in prop::sample::select(vec![1usize, 63, 100, 200, 700]),
            sparsity in 0usize..4,
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
            let vals = Simulator::new().run(&netlist, &pi);
            // An error mask of density 2^-(sparsity + 1), with the second
            // sparse block cleared so that the occupied ranges skip it.
            let draws = PackedMatrix::random(sparsity + 1, vectors, &mut rng);
            let mut err = draws.to_bits(0);
            for r in 1..=sparsity {
                for (e, &d) in err.words_mut().iter_mut().zip(draws.row(r)) {
                    *e &= d;
                }
            }
            for w in err.words_mut().iter_mut().skip(BLOCK_WORDS).take(BLOCK_WORDS) {
                *w = 0;
            }
            err.mask_tail();
            let err_words = err.words();
            let n = err.count_ones();
            let sparse = SparseMask::from_bits(&err);
            let wpr = vals.words_per_row();
            let cur = vals.row(line.index());
            let fanins = netlist.gate(line).fanins();
            let mut scratch = CorrectionScratch::default();
            for ranges in [vec![(0, wpr)], sparse.occupied_ranges()] {
                let c = and_count(cur, err_words, &ranges);
                let Some(wire) =
                    WireMasks::new(&netlist, &vals, line, cur, err_words, &ranges, n, c)
                else {
                    return Ok(());
                };
                let mut check = |corr: Correction, closed: usize, bound: usize| {
                    let row = correction_output_row_into(&netlist, &vals, &corr, &mut scratch)
                        .expect("full-width matrix")
                        .expect("a wire candidate has a row");
                    let evaluated = xor_masked_count_ones(row, cur, err_words);
                    assert_eq!(closed, evaluated, "{corr}");
                    assert!(bound >= evaluated, "{corr}: bound {bound} < {evaluated}");
                };
                for src in netlist.ids().filter(|&s| s != line) {
                    let srow = vals.row(src.index());
                    let p_all = and_count(srow, err_words, &ranges);
                    let q = wire.q(srow);
                    let (q_lo, q_hi) = wire.q_range(p_all);
                    prop_assert!(q_lo <= q && q <= q_hi);
                    let exact = wire.counts(q, p_all);
                    let (lo, hi) = (wire.counts(q_lo, p_all), wire.counts(q_hi, p_all));
                    if wire.can_add && !fanins.contains(&src) {
                        check(
                            Correction::new(line, CorrectionAction::AddInput { source: src }),
                            wire.add_input(&exact),
                            wire.add_input(&lo).max(wire.add_input(&hi)),
                        );
                    }
                    for (port, &old) in fanins.iter().enumerate() {
                        if old == src {
                            continue;
                        }
                        let corr = Correction::new(
                            line,
                            CorrectionAction::ReplaceInput { port, source: src },
                        );
                        let closed = wire.replace_input(&exact, srow, port);
                        check(corr, closed, wire.replace_bound(&exact, port));
                        check(
                            corr,
                            closed,
                            wire.replace_bound(&lo, port).max(wire.replace_bound(&hi, port)),
                        );
                    }
                    for kind in [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor] {
                        check(
                            Correction::new(line, CorrectionAction::InsertGate { kind, other: src }),
                            wire.insert_gate(&exact, kind),
                            wire.insert_gate(&lo, kind).max(wire.insert_gate(&hi, kind)),
                        );
                    }
                }
            }
        }

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
                        if let Some((_, s)) = flips.iter().find(|&(p, _)| p == po_idx) {
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
