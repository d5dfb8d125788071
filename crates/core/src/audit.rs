//! The opt-in engine invariant audit ([`RectifyConfig::audit`]).
//!
//! [`Auditing`] decorates any [`Evaluator`] and cross-checks what the
//! backend produces against first principles:
//!
//! * **width consistency** — every prepared node's value matrix must
//!   have one row per gate and cover exactly the run's vector set;
//! * **structural sanity** — a corrected node circuit must stay acyclic
//!   (corrections are cycle-screened upstream; a cycle here is an
//!   engine bug);
//! * **sampled replay** — every `SAMPLE_STRIDE`-th preparation is
//!   rebuilt from the base circuit and fully resimulated on a private
//!   simulator, and the matrices compared bit-for-bit. This is the
//!   cache-coherence oracle for the incremental backend: a stale
//!   [`NodeMatrixCache`](crate::cache::NodeMatrixCache) entry or a
//!   mis-bounded cone propagation shows up as a matrix divergence.
//!
//! Checks are counted in [`SimCounters::audit_checks`] and failures in
//! [`SimCounters::audit_violations`]; the session folds both into
//! [`RectifyStats`](crate::RectifyStats) and the JSON reports. Audit
//! simulation runs on a private [`Simulator`] excluded from the work
//! counters, so an audited run reports the same `words_simulated`
//! profile as a plain one. In debug builds a violation additionally
//! fails fast via `debug_assert!`.
//!
//! [`RectifyConfig::audit`]: crate::RectifyConfig::audit

use incdx_fault::Correction;
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Simulator};

use crate::evaluator::{EvalContext, Evaluator, PreparedNode, SimCounters};
use crate::limits::{DegradationEvent, DegradationKind};

/// Every `SAMPLE_STRIDE`-th preparation is replayed from scratch. Small
/// enough to exercise deep tuples, large enough that an audited run
/// stays within a small multiple of the plain run's wall clock.
const SAMPLE_STRIDE: u64 = 7;

/// Evaluator decorator running the invariant checks described in the
/// module docs. Wraps the configured backend (outermost, so it sees
/// exactly what the engine sees) when [`RectifyConfig::audit`] is set.
///
/// Two flavours:
///
/// * [`Auditing::new`] — the fail-fast audit: sampled replay (every
///   `SAMPLE_STRIDE`-th prepare), violations recorded and (in debug
///   builds) asserted on. A violation means an engine bug.
/// * [`Auditing::resilient`] — the repairing audit used under chaos
///   injection and evaluator fallback: *every* prepare is replayed,
///   a corrupted matrix is **substituted** with the from-scratch
///   reference instead of asserted on, and each repair is recorded as
///   a structured [`DegradationEvent`] the session folds into
///   [`RectifyStats`](crate::RectifyStats). Because the repaired
///   matrix is what the engine (and any retained cache entry) sees,
///   corruption can never poison downstream results.
///
/// [`RectifyConfig::audit`]: crate::RectifyConfig::audit
#[derive(Debug)]
pub struct Auditing {
    inner: Box<dyn Evaluator>,
    /// Private simulator for replays; its words are deliberately *not*
    /// part of [`Evaluator::counters`] (see the module docs).
    sim: Simulator,
    prepares: u64,
    checks: u64,
    violations: u64,
    /// Replay every `stride`-th prepare (1 = every prepare).
    stride: u64,
    /// Substitute the replay reference on divergence instead of only
    /// recording the violation.
    repair: bool,
    /// `debug_assert` on violations (the engine-bug audit) vs record
    /// and continue (the resilience audit).
    fail_fast: bool,
    degradations: Vec<DegradationEvent>,
}

impl Auditing {
    /// Wraps `inner` in the fail-fast audit layer.
    pub fn new(inner: Box<dyn Evaluator>) -> Self {
        Auditing {
            inner,
            sim: Simulator::new(),
            prepares: 0,
            checks: 0,
            violations: 0,
            stride: SAMPLE_STRIDE,
            repair: false,
            fail_fast: true,
            degradations: Vec::new(),
        }
    }

    /// Wraps `inner` in the repairing audit layer: full-coverage replay,
    /// divergence repaired by substitution and recorded as a
    /// degradation. The evaluator stack the session builds under
    /// `--chaos` (`audit(chaos(backend))`) relies on this layer to
    /// catch every injected corruption.
    pub fn resilient(inner: Box<dyn Evaluator>) -> Self {
        let mut audit = Auditing::new(inner);
        audit.stride = 1;
        audit.repair = true;
        audit.fail_fast = false;
        audit
    }

    fn violation(&mut self, what: &str) {
        self.violations += 1;
        if self.fail_fast {
            debug_assert!(false, "audit: {what}");
        }
    }

    fn check_prepared(
        &mut self,
        ctx: &EvalContext<'_>,
        corrections: &[Correction],
        node: &mut PreparedNode,
    ) {
        // Width consistency: a row per gate, a column set matching the
        // vectors. The screening stages index the matrix by gate id and
        // by vector word, so either mismatch corrupts the search.
        self.checks += 1;
        let width_bad = node.vals.rows() < node.netlist.len()
            || node.vals.num_vectors() != ctx.vectors.num_vectors();
        if width_bad {
            self.violation("prepared matrix shape diverges from (gates × vectors)");
        }
        // Structural sanity of the corrected circuit.
        self.checks += 1;
        if !node.netlist.is_acyclic() {
            self.violation("corrected node circuit is cyclic");
        }
        // Replay against a from-scratch rebuild: sampled in fail-fast
        // mode, forced whenever the width check already failed and a
        // repair is possible.
        if self.prepares.is_multiple_of(self.stride) || (width_bad && self.repair) {
            self.checks += 1;
            if let Some(reference) = self.replay(ctx, corrections) {
                let agree = reference.rows() == node.vals.rows()
                    && (0..reference.rows()).all(|r| reference.row(r) == node.vals.row(r));
                if !agree {
                    if !width_bad {
                        self.violation("prepared matrix diverges from from-scratch replay");
                    }
                    if self.repair {
                        let kind = if width_bad {
                            DegradationKind::AuditRepair
                        } else {
                            DegradationKind::EvaluatorFallback
                        };
                        self.degradations.push(DegradationEvent::new(
                            kind,
                            1,
                            format!(
                                "replay substituted for a {}-correction node",
                                corrections.len()
                            ),
                        ));
                        node.vals = reference;
                    }
                }
            } else {
                self.violation("corrections replayable by the backend failed to re-apply");
            }
        }
    }

    /// The from-scratch oracle: base circuit, corrections re-applied,
    /// full resimulation.
    fn replay(
        &mut self,
        ctx: &EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PackedMatrix> {
        let mut netlist = ctx.base.clone();
        for c in corrections {
            c.apply(&mut netlist).ok()?;
        }
        Some(
            self.sim
                .run_for_inputs(&netlist, ctx.base_inputs, ctx.vectors),
        )
    }
}

impl Evaluator for Auditing {
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "incremental" => "audit+incremental",
            "from-scratch" => "audit+from-scratch",
            "parallel+incremental" => "audit+parallel+incremental",
            "parallel+from-scratch" => "audit+parallel+from-scratch",
            "chaos+incremental" => "audit+chaos+incremental",
            "chaos+from-scratch" => "audit+chaos+from-scratch",
            "chaos+parallel+incremental" => "audit+chaos+parallel+incremental",
            "chaos+parallel+from-scratch" => "audit+chaos+parallel+from-scratch",
            _ => "audit",
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
        SimCounters {
            audit_checks: self.checks,
            audit_violations: self.violations,
            ..self.inner.counters()
        }
    }

    fn prepare(
        &mut self,
        ctx: &mut EvalContext<'_>,
        corrections: &[Correction],
    ) -> Option<PreparedNode> {
        let mut node = self.inner.prepare(ctx, corrections)?;
        // Counted after sampling, so the very first preparation (the
        // root) is always replayed.
        self.check_prepared(ctx, corrections, &mut node);
        self.prepares += 1;
        Some(node)
    }

    fn retain(&mut self, corrections: &[Correction], netlist: Netlist, vals: PackedMatrix) -> u64 {
        self.inner.retain(corrections, netlist, vals)
    }

    fn release(&mut self, corrections: &[Correction]) {
        self.inner.release(corrections)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.sim = Simulator::new();
        self.prepares = 0;
        self.checks = 0;
        self.violations = 0;
        self.degradations.clear();
    }

    fn retained_bytes(&self) -> usize {
        self.inner.retained_bytes()
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        let mut events = std::mem::take(&mut self.degradations);
        events.extend(self.inner.take_degradations());
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{FromScratch, Incremental, Parallel};
    use incdx_netlist::{ConeCache, GateId};
    use incdx_sim::PackedMatrix;

    fn setup() -> (Netlist, PackedMatrix) {
        let n = incdx_netlist::parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, a)\n",
        )
        .unwrap();
        let mut pi = PackedMatrix::new(2, 8);
        for v in 0..8 {
            pi.set(0, v, v & 1 == 1);
            pi.set(1, v, v & 2 == 2);
        }
        (n, pi)
    }

    fn prepare(aud: &mut Auditing, n: &Netlist, pi: &PackedMatrix, c: &[Correction]) {
        let inputs: Vec<GateId> = n.inputs().to_vec();
        let mut cones = ConeCache::new(n);
        let mut ctx = EvalContext {
            base: n,
            base_inputs: &inputs,
            vectors: pi,
            base_cones: &mut cones,
        };
        aud.prepare(&mut ctx, c);
    }

    #[test]
    fn names_compose_with_the_wrapped_backend() {
        let a = Auditing::new(Box::new(Incremental::new(0)));
        assert_eq!(a.name(), "audit+incremental");
        assert!(a.incremental());
        let a = Auditing::new(Box::new(FromScratch::new()));
        assert_eq!(a.name(), "audit+from-scratch");
        let a = Auditing::new(Box::new(Parallel::new(Box::new(FromScratch::new()), 4)));
        assert_eq!(a.name(), "audit+parallel+from-scratch");
        assert_eq!(a.jobs(), 4);
    }

    #[test]
    fn healthy_backend_passes_with_checks_counted() {
        let (n, pi) = setup();
        let mut aud = Auditing::new(Box::new(Incremental::new(64 << 20)));
        // First prepare lands on the replay sample (prepares % 7 == 0).
        prepare(&mut aud, &n, &pi, &[]);
        let c = aud.counters();
        assert!(c.audit_checks >= 3, "width + acyclicity + replay");
        assert_eq!(c.audit_violations, 0);
        assert!(c.words > 0, "inner counters still reported");
    }

    #[test]
    fn reset_clears_audit_state() {
        let (n, pi) = setup();
        let mut aud = Auditing::new(Box::new(FromScratch::new()));
        prepare(&mut aud, &n, &pi, &[]);
        assert!(aud.counters().audit_checks > 0);
        aud.reset();
        assert_eq!(aud.counters(), SimCounters::default());
    }

    /// A backend that lies about the prepared matrix (truncated rows)
    /// must be caught by the width check — and in release builds (no
    /// `debug_assert`) by the replay too.
    #[derive(Debug)]
    struct Truncating(FromScratch);

    impl Evaluator for Truncating {
        fn name(&self) -> &'static str {
            "truncating"
        }
        fn counters(&self) -> SimCounters {
            self.0.counters()
        }
        fn prepare(
            &mut self,
            ctx: &mut EvalContext<'_>,
            corrections: &[Correction],
        ) -> Option<PreparedNode> {
            let mut node = self.0.prepare(ctx, corrections)?;
            node.vals = PackedMatrix::new(1, ctx.vectors.num_vectors());
            Some(node)
        }
        fn reset(&mut self) {
            self.0.reset()
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "audit:"))]
    fn corrupted_preparation_is_flagged() {
        let (n, pi) = setup();
        let mut aud = Auditing::new(Box::new(Truncating(FromScratch::new())));
        prepare(&mut aud, &n, &pi, &[]);
        // Release builds record instead of panicking.
        assert!(aud.counters().audit_violations > 0);
    }

    #[test]
    fn resilient_mode_repairs_a_truncated_matrix() {
        let (n, pi) = setup();
        let mut aud = Auditing::resilient(Box::new(Truncating(FromScratch::new())));
        let inputs: Vec<GateId> = n.inputs().to_vec();
        let mut cones = ConeCache::new(&n);
        let mut ctx = EvalContext {
            base: &n,
            base_inputs: &inputs,
            vectors: &pi,
            base_cones: &mut cones,
        };
        let node = aud.prepare(&mut ctx, &[]).expect("repaired, not dead");
        assert_eq!(node.vals.rows(), n.len(), "full matrix substituted");
        let events = aud.take_degradations();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, crate::limits::DegradationKind::AuditRepair);
        assert!(aud.take_degradations().is_empty(), "drained");
        // The substituted matrix equals a from-scratch reference.
        let mut oracle = FromScratch::new();
        let mut cones2 = ConeCache::new(&n);
        let mut ctx2 = EvalContext {
            base: &n,
            base_inputs: &inputs,
            vectors: &pi,
            base_cones: &mut cones2,
        };
        let reference = oracle.prepare(&mut ctx2, &[]).expect("oracle prepares");
        for r in 0..reference.vals.rows() {
            assert_eq!(reference.vals.row(r), node.vals.row(r), "row {r}");
        }
    }

    #[test]
    fn resilient_mode_repairs_a_flipped_bit() {
        use crate::chaos::{Chaos, ChaosConfig, ChaosState};
        let (n, pi) = setup();
        // Rate 1.0 chaos guarantees a corruption on the first prepare;
        // the resilient audit must hand the engine a clean matrix and
        // record exactly one degradation per corruption.
        let state = ChaosState::new(ChaosConfig { seed: 2, rate: 1.0 });
        let chaotic = Chaos::new(Box::new(Incremental::new(0)), state.clone());
        let mut aud = Auditing::resilient(Box::new(chaotic));
        assert_eq!(aud.name(), "audit+chaos+incremental");
        let inputs: Vec<GateId> = n.inputs().to_vec();
        let mut cones = ConeCache::new(&n);
        let mut ctx = EvalContext {
            base: &n,
            base_inputs: &inputs,
            vectors: &pi,
            base_cones: &mut cones,
        };
        let node = aud.prepare(&mut ctx, &[]).expect("repaired");
        assert!(state.summary().total() >= 1, "chaos injected");
        assert_eq!(
            aud.take_degradations().len() as u64,
            state.summary().total(),
            "every injected fault shows up as a degradation event"
        );
        let mut oracle = FromScratch::new();
        let mut cones2 = ConeCache::new(&n);
        let mut ctx2 = EvalContext {
            base: &n,
            base_inputs: &inputs,
            vectors: &pi,
            base_cones: &mut cones2,
        };
        let reference = oracle.prepare(&mut ctx2, &[]).expect("oracle prepares");
        assert_eq!(reference.vals.rows(), node.vals.rows());
        for r in 0..reference.vals.rows() {
            assert_eq!(reference.vals.row(r), node.vals.row(r), "row {r}");
        }
    }
}
