//! Deterministic chaos fault injection for resilience testing.
//!
//! [`Chaos`] decorates any [`Evaluator`] and, driven by a seeded
//! [`ChaosState`], injects three classes of fault at controlled,
//! reproducible points:
//!
//! * **worker panics** — a screening task aborts mid-flight, exercising
//!   the `catch_unwind` boundary in [`crate::run_parallel_with`];
//! * **cached-matrix bit flips** — one simulated value bit of a
//!   prepared node is flipped, which the [`Auditing`](crate::Auditing)
//!   replay layer must catch and repair;
//! * **spurious width errors** — a prepared node's value matrix loses a
//!   row, tripping the audit width check.
//!
//! Injection is keyed by *logical position* (a per-run section counter
//! plus the item index, or the prepare sequence number), never by
//! wall-clock or thread schedule, and each key fires at most once — so
//! a chaos run is bit-reproducible, its retries deterministically
//! succeed, and the recovered solution set must equal the chaos-off
//! solution set. The equivalence is pinned by the resilience proptests.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::IncdxError;
use crate::evaluator::{EvalContext, Evaluator, PreparedNode, SimCounters};
use incdx_fault::Correction;

/// User-facing chaos settings, parsed from a `--chaos seed,rate` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the injection stream (same seed → same faults).
    pub seed: u64,
    /// Per-opportunity injection probability in `[0, 1]`.
    pub rate: f64,
}

impl ChaosConfig {
    /// Parses a `seed,rate` spec, e.g. `7,0.05`.
    pub fn parse(spec: &str) -> Result<ChaosConfig, IncdxError> {
        let bad = || IncdxError::InvalidSpec {
            name: "chaos",
            value: spec.to_string(),
        };
        let (seed_s, rate_s) = spec.split_once(',').ok_or_else(bad)?;
        let seed: u64 = seed_s.trim().parse().map_err(|_| bad())?;
        let rate: f64 = rate_s.trim().parse().map_err(|_| bad())?;
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(bad());
        }
        Ok(ChaosConfig { seed, rate })
    }
}

/// Tallies of the faults a [`ChaosState`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Worker panics injected into pipeline tasks.
    pub panics: u64,
    /// Value-matrix bits flipped in prepared nodes.
    pub bit_flips: u64,
    /// Prepared nodes whose matrix was truncated by a row.
    pub width_errors: u64,
    /// Sparse-mask block-summary bits flipped in the candidate pipeline.
    pub summary_flips: u64,
    /// Abstraction-map entries corrupted in hierarchical runs.
    pub map_corruptions: u64,
    /// Serialized checkpoints torn on their way to the spool.
    pub checkpoint_corruptions: u64,
}

impl ChaosSummary {
    /// Total injected faults of all classes.
    pub fn total(&self) -> u64 {
        self.panics
            + self.bit_flips
            + self.width_errors
            + self.summary_flips
            + self.map_corruptions
            + self.checkpoint_corruptions
    }
}

impl fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} injected ({} panics, {} bit flips, {} width errors, {} summary flips, {} map corruptions, {} checkpoint corruptions)",
            self.total(),
            self.panics,
            self.bit_flips,
            self.width_errors,
            self.summary_flips,
            self.map_corruptions,
            self.checkpoint_corruptions
        )
    }
}

/// Shared injection state: one per rectification session, handed to the
/// candidate pipeline (panic injection) and the [`Chaos`] evaluator
/// decorator (matrix corruption).
#[derive(Debug)]
pub struct ChaosState {
    config: ChaosConfig,
    /// Monotone id of the current parallel section; advanced by
    /// [`ChaosState::next_section`] so panic keys don't depend on how
    /// items are distributed over workers.
    section: AtomicU64,
    /// Monotone count of evaluator `prepare` calls (corruption keys).
    prepare_seq: AtomicU64,
    /// Monotone count of sparse-mask builds (summary-corruption keys).
    mask_seq: AtomicU64,
    /// Monotone count of abstraction builds (map-corruption keys).
    abstraction_seq: AtomicU64,
    /// Monotone count of checkpoint spool writes (corruption keys).
    spool_seq: AtomicU64,
    panics: AtomicU64,
    bit_flips: AtomicU64,
    width_errors: AtomicU64,
    summary_flips: AtomicU64,
    map_corruptions: AtomicU64,
    checkpoint_corruptions: AtomicU64,
    /// Keys that already fired: a retried task draws the same key, finds
    /// it spent, and succeeds — faults are transient by construction.
    fired: Mutex<HashSet<u64>>,
}

impl ChaosState {
    /// Fresh injection state for one session.
    pub fn new(config: ChaosConfig) -> Arc<ChaosState> {
        Arc::new(ChaosState {
            config,
            section: AtomicU64::new(0),
            prepare_seq: AtomicU64::new(0),
            mask_seq: AtomicU64::new(0),
            abstraction_seq: AtomicU64::new(0),
            spool_seq: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            width_errors: AtomicU64::new(0),
            summary_flips: AtomicU64::new(0),
            map_corruptions: AtomicU64::new(0),
            checkpoint_corruptions: AtomicU64::new(0),
            fired: Mutex::new(HashSet::new()),
        })
    }

    /// The configured seed/rate.
    pub fn config(&self) -> ChaosConfig {
        self.config
    }

    /// Opens a new parallel section and returns its id. Call once per
    /// pipeline stage *before* fanning out, so every task of the stage
    /// shares the section id and keys on its item index alone.
    pub fn next_section(&self) -> u64 {
        self.section.fetch_add(1, Ordering::Relaxed)
    }

    /// What was injected so far.
    pub fn summary(&self) -> ChaosSummary {
        ChaosSummary {
            panics: self.panics.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            width_errors: self.width_errors.load(Ordering::Relaxed),
            summary_flips: self.summary_flips.load(Ordering::Relaxed),
            map_corruptions: self.map_corruptions.load(Ordering::Relaxed),
            checkpoint_corruptions: self.checkpoint_corruptions.load(Ordering::Relaxed),
        }
    }

    /// Deterministic per-key uniform draw in `[0, 1)` (SplitMix64 of
    /// `seed ^ key` — stateless, so concurrent draws don't interact).
    fn draw(&self, key: u64) -> f64 {
        let x = splitmix64(self.config.seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Marks `key` fired; returns `false` if it already was (the retry
    /// path), in which case the caller must not inject again.
    fn arm(&self, key: u64) -> bool {
        match self.fired.lock() {
            Ok(mut fired) => fired.insert(key),
            // A poisoned set only means some holder panicked between
            // lock and unlock; the set itself is still coherent.
            Err(poisoned) => poisoned.into_inner().insert(key),
        }
    }

    /// Panics (once) if the injection stream selects task `item` of
    /// parallel section `section`. Safe to call from worker threads;
    /// the panic is caught at the sanctioned boundary in
    /// [`crate::run_parallel_with`] and the retry draws a spent key.
    pub fn maybe_panic(&self, section: u64, item: usize) {
        let key = 0x5050_0000_0000_0000 ^ (section << 24) ^ item as u64;
        if self.draw(key) < self.config.rate && self.arm(key) {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected worker panic"); // panic-audit: allow
        }
    }

    /// Corrupts a prepared node in place if the injection stream selects
    /// this prepare: either truncates the value matrix by one row (a
    /// width error) or flips one simulated bit. The two are mutually
    /// exclusive per prepare, so injected faults map 1:1 onto audit
    /// repair events. Returns `true` if anything was injected.
    pub fn maybe_corrupt(&self, node: &mut PreparedNode) -> bool {
        let seq = self.prepare_seq.fetch_add(1, Ordering::Relaxed);
        let rows = node.vals.rows();
        let vectors = node.vals.num_vectors();
        if rows == 0 || vectors == 0 {
            return false;
        }
        let width_key = 0x1DE0_0000_0000_0000 ^ seq;
        if self.draw(width_key) < self.config.rate && self.arm(width_key) {
            self.width_errors.fetch_add(1, Ordering::Relaxed);
            let mut narrow = incdx_sim::PackedMatrix::new(rows - 1, vectors);
            for r in 0..rows - 1 {
                narrow.row_mut(r).copy_from_slice(node.vals.row(r));
            }
            node.vals = narrow;
            return true;
        }
        let flip_key = 0xF117_0000_0000_0000 ^ seq;
        if self.draw(flip_key) < self.config.rate && self.arm(flip_key) {
            self.bit_flips.fetch_add(1, Ordering::Relaxed);
            let d = splitmix64(self.config.seed ^ flip_key);
            let row = (d % rows as u64) as usize;
            let bit = ((d >> 32) % vectors as u64) as usize;
            node.vals.row_mut(row)[bit / 64] ^= 1u64 << (bit % 64);
            return true;
        }
        false
    }

    /// Flips one block-summary bit of a freshly built sparse
    /// failing-vector mask if the injection stream selects this build —
    /// the words stay intact, so the mask's `verify()` must fail and its
    /// `repair()` must restore exactly the pre-corruption state. The
    /// pipeline runs that verify/repair pair on every chaos-armed build
    /// and records each repair as a `SparseRepair` degradation. Returns
    /// `true` if a bit was flipped.
    pub fn maybe_corrupt_mask(&self, mask: &mut incdx_sim::SparseMask) -> bool {
        let seq = self.mask_seq.fetch_add(1, Ordering::Relaxed);
        let nb = mask.summary().num_blocks();
        if nb == 0 {
            return false;
        }
        let key = 0x5AFE_0000_0000_0000 ^ seq;
        if self.draw(key) < self.config.rate && self.arm(key) {
            self.summary_flips.fetch_add(1, Ordering::Relaxed);
            let d = splitmix64(self.config.seed ^ key);
            mask.summary_mut().flip_bit((d % nb as u64) as usize);
            return true;
        }
        false
    }

    /// Corrupts one entry of a hierarchical run's abstraction map (once
    /// per armed key). The map's structural invariant is a *derived*
    /// property — [`incdx_netlist::AbstractionMap::validate`] detects
    /// exactly this corruption, and the hierarchical engine rebuilds the
    /// abstraction from the base netlist, recording an
    /// `AbstractionRepair` degradation. Returns `true` if an entry was
    /// corrupted.
    pub fn maybe_corrupt_abstraction(&self, map: &mut incdx_netlist::AbstractionMap) -> bool {
        let seq = self.abstraction_seq.fetch_add(1, Ordering::Relaxed);
        if map.concrete_len() == 0 {
            return false;
        }
        let key = 0xAB57_0000_0000_0000 ^ seq;
        if self.draw(key) < self.config.rate && self.arm(key) {
            self.map_corruptions.fetch_add(1, Ordering::Relaxed);
            map.corrupt_for_chaos();
            return true;
        }
        false
    }

    /// Tears a serialized checkpoint on its way to the spool (once per
    /// armed key): the JSON line is truncated at a deterministic byte,
    /// simulating a torn write. A strict prefix of a checkpoint
    /// document can never parse as a complete one, so the spool's
    /// write-then-read-back validation *must* detect the damage and
    /// rewrite the line from the in-memory checkpoint, recording a
    /// `CheckpointRepair` degradation — injected tears map 1:1 onto
    /// repairs. Returns `true` if the line was torn.
    pub fn maybe_corrupt_checkpoint(&self, json: &mut String) -> bool {
        let seq = self.spool_seq.fetch_add(1, Ordering::Relaxed);
        if json.len() < 2 {
            return false;
        }
        let key = 0xC4E0_0000_0000_0000 ^ seq;
        if self.draw(key) < self.config.rate && self.arm(key) {
            self.checkpoint_corruptions.fetch_add(1, Ordering::Relaxed);
            let d = splitmix64(self.config.seed ^ key);
            let mut cut = (d % json.len() as u64) as usize;
            while !json.is_char_boundary(cut) {
                cut -= 1;
            }
            json.truncate(cut);
            return true;
        }
        false
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluator decorator that corrupts prepared nodes per the shared
/// [`ChaosState`]. Always wrap it in a repairing
/// [`Auditing`](crate::Auditing) layer (as
/// [`Rectifier`](crate::Rectifier) does) — the corruption is *meant* to
/// be caught there; unaudited chaos corrupts results by design.
#[derive(Debug)]
pub struct Chaos {
    inner: Box<dyn Evaluator>,
    state: Arc<ChaosState>,
}

impl Chaos {
    /// Wraps `inner`, injecting per `state`.
    pub fn new(inner: Box<dyn Evaluator>, state: Arc<ChaosState>) -> Self {
        Chaos { inner, state }
    }
}

impl Evaluator for Chaos {
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "from-scratch" => "chaos+from-scratch",
            "incremental" => "chaos+incremental",
            "parallel+from-scratch" => "chaos+parallel+from-scratch",
            "parallel+incremental" => "chaos+parallel+incremental",
            _ => "chaos+?",
        }
    }

    fn jobs(&self) -> usize {
        self.inner.jobs()
    }

    fn incremental(&self) -> bool {
        self.inner.incremental()
    }

    fn sparse(&self) -> bool {
        self.inner.sparse()
    }

    fn counters(&self) -> SimCounters {
        self.inner.counters()
    }

    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        let mut node = self.inner.prepare(ctx, corrections)?;
        self.state.maybe_corrupt(&mut node);
        Some(node)
    }

    fn retain(
        &mut self,
        corrections: &[Correction],
        netlist: incdx_netlist::Netlist,
        vals: incdx_sim::PackedMatrix,
    ) -> u64 {
        self.inner.retain(corrections, netlist, vals)
    }

    fn release(&mut self, corrections: &[Correction]) {
        self.inner.release(corrections)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes()
    }

    fn take_degradations(&mut self) -> Vec<crate::limits::DegradationEvent> {
        self.inner.take_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::ConeCache;
    use incdx_sim::PackedMatrix;

    /// A prepared node over a tiny buffer circuit with a deterministic
    /// dense value matrix.
    fn sample_node() -> PreparedNode {
        let netlist =
            incdx_netlist::parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").expect("valid netlist");
        let mut vals = PackedMatrix::new(2, 64);
        for r in 0..2 {
            for v in 0..64 {
                vals.set(r, v, (r + v) % 3 == 0);
            }
        }
        let cones = ConeCache::new(&netlist);
        PreparedNode {
            netlist,
            vals,
            cones,
        }
    }

    #[test]
    fn parse_accepts_and_rejects() {
        assert_eq!(
            ChaosConfig::parse("7,0.05"),
            Ok(ChaosConfig {
                seed: 7,
                rate: 0.05
            })
        );
        assert_eq!(
            ChaosConfig::parse(" 42 , 1.0 "),
            Ok(ChaosConfig {
                seed: 42,
                rate: 1.0
            })
        );
        for bad in [
            "", "7", "7;0.05", "x,0.05", "7,nope", "7,-0.1", "7,1.5", "7,NaN",
        ] {
            assert!(ChaosConfig::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn draws_are_deterministic_and_keys_fire_once() {
        let state = ChaosState::new(ChaosConfig { seed: 9, rate: 1.0 });
        assert!(state.arm(123));
        assert!(!state.arm(123), "a key fires at most once");
        let a = state.draw(77);
        let b = state.draw(77);
        assert_eq!(a.to_bits(), b.to_bits(), "stateless draws");
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn rate_one_panics_exactly_once_per_key() {
        let state = ChaosState::new(ChaosConfig { seed: 1, rate: 1.0 });
        let s = state.next_section();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.maybe_panic(s, 0);
        }));
        std::panic::set_hook(prev);
        assert!(first.is_err(), "rate 1.0 must inject");
        // Retry of the same (section, item) draws a spent key: no panic.
        state.maybe_panic(s, 0);
        assert_eq!(state.summary().panics, 1);
    }

    #[test]
    fn rate_zero_never_injects() {
        let state = ChaosState::new(ChaosConfig { seed: 3, rate: 0.0 });
        let s = state.next_section();
        for i in 0..64 {
            state.maybe_panic(s, i);
        }
        let mut node = sample_node();
        let before = node.vals.clone();
        for _ in 0..64 {
            assert!(!state.maybe_corrupt(&mut node));
        }
        assert_eq!(node.vals.row(0), before.row(0));
        assert_eq!(state.summary().total(), 0);
    }

    #[test]
    fn mask_corruption_breaks_verify_and_repair_restores_it() {
        let state = ChaosState::new(ChaosConfig {
            seed: 11,
            rate: 1.0,
        });
        let mut bits = incdx_sim::PackedBits::new(600);
        bits.set(5, true);
        bits.set(400, true);
        let mut mask = incdx_sim::SparseMask::from_bits(&bits);
        let pristine = mask.clone();
        assert!(state.maybe_corrupt_mask(&mut mask));
        assert!(!mask.verify(), "a flipped summary bit must be detectable");
        assert!(mask.repair());
        assert_eq!(mask, pristine, "words are ground truth");
        assert_eq!(state.summary().summary_flips, 1);
        let zero = ChaosState::new(ChaosConfig {
            seed: 11,
            rate: 0.0,
        });
        assert!(!zero.maybe_corrupt_mask(&mut mask));
        assert!(mask.verify());
    }

    #[test]
    fn abstraction_corruption_is_detectable_and_counted() {
        let n = incdx_netlist::parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt1 = AND(a, b)\nt2 = AND(t1, c)\ny = NOT(t2)\n",
        )
        .unwrap();
        let state = ChaosState::new(ChaosConfig { seed: 3, rate: 1.0 });
        let mut abs = incdx_netlist::Abstraction::build(&n);
        assert!(abs.map().validate());
        assert!(state.maybe_corrupt_abstraction(abs.map_mut()));
        assert!(!abs.map().validate(), "corruption must be detectable");
        assert_eq!(state.summary().map_corruptions, 1);
        assert!(state.summary().to_string().contains("1 map corruptions"));
        let zero = ChaosState::new(ChaosConfig { seed: 3, rate: 0.0 });
        let mut pristine = incdx_netlist::Abstraction::build(&n);
        assert!(!zero.maybe_corrupt_abstraction(pristine.map_mut()));
        assert!(pristine.map().validate());
    }

    #[test]
    fn checkpoint_tear_is_detectable_and_counted() {
        let state = ChaosState::new(ChaosConfig { seed: 6, rate: 1.0 });
        // Any single-line checkpoint document will do; use a real one so
        // the "strict prefix never parses" guarantee is exercised
        // end-to-end.
        let ckpt = crate::checkpoint::Checkpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            label: "chaos/test".to_string(),
            trial_seed: 1,
            vectors: 64,
            base_gates: 4,
            base_hash: 99,
            level: 0,
            phase: 0,
            iterations: 0,
            plan: vec![],
            plan_pos: 0,
            nodes: vec![],
            visited: vec![],
            solutions: vec![],
        };
        let pristine = ckpt.to_json();
        let mut line = pristine.clone();
        assert!(state.maybe_corrupt_checkpoint(&mut line));
        assert!(line.len() < pristine.len(), "the line must be torn");
        assert!(
            crate::checkpoint::Checkpoint::from_json(&line).is_err(),
            "a torn checkpoint must fail to parse: {line:?}"
        );
        assert_eq!(state.summary().checkpoint_corruptions, 1);
        assert!(state
            .summary()
            .to_string()
            .contains("1 checkpoint corruptions"));
        // The next write draws a fresh sequence key; at rate 0 nothing
        // fires and the line survives intact.
        let zero = ChaosState::new(ChaosConfig { seed: 6, rate: 0.0 });
        let mut clean = pristine.clone();
        for _ in 0..32 {
            assert!(!zero.maybe_corrupt_checkpoint(&mut clean));
        }
        assert_eq!(clean, pristine);
        assert_eq!(zero.summary().total(), 0);
    }

    #[test]
    fn corruption_is_exclusive_and_counted() {
        let state = ChaosState::new(ChaosConfig { seed: 5, rate: 1.0 });
        let mut node = sample_node();
        // Rate 1.0: the width branch wins and the flip branch is skipped.
        assert!(state.maybe_corrupt(&mut node));
        let summary = state.summary();
        assert_eq!(summary.width_errors, 1);
        assert_eq!(summary.bit_flips, 0);
        assert_eq!(node.vals.rows(), 1, "one row truncated");
        assert_eq!(summary.total(), 1);
        assert!(summary.to_string().contains("1 width errors"), "{summary}");
    }
}
