//! Resource limits, cooperative cancellation, and run verdicts — the
//! resilience layer's vocabulary.
//!
//! A [`RectifyLimits`] bounds a [`Rectifier`](crate::Rectifier) run by
//! wall clock, evaluated nodes, simulated words, or retained backend
//! bytes; a [`CancelToken`] lets another thread (or a test) stop the
//! search cooperatively. Both are checked once per scheduled plan item
//! in the traversal loop — never mid-node — so an interrupted run
//! always stops on a consistent decision tree, from which the engine
//! extracts ranked [`PartialSolution`]s and (for limit/cancel stops) a
//! [`Checkpoint`](crate::Checkpoint).
//!
//! The outcome of a supervised run is summarised by a [`Verdict`], and
//! every recovery the engine performed along the way (worker panics
//! caught, audit repairs, backend fallbacks) is recorded as a
//! [`DegradationEvent`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use incdx_fault::Correction;

/// Resource budget for one [`Rectifier::run`](crate::Rectifier::run).
/// All fields default to `None` (unlimited); each is checked
/// cooperatively at plan-item granularity in the traversal loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RectifyLimits {
    /// Wall-clock deadline, measured from the start of `run()`.
    /// Exceeding it stops the search with
    /// [`Verdict::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Budget on decision-tree nodes evaluated
    /// ([`RectifyStats::nodes`](crate::RectifyStats::nodes)); reaching
    /// it stops the search with [`Verdict::BudgetExhausted`].
    pub max_total_nodes: Option<u64>,
    /// Budget on packed words simulated
    /// ([`RectifyStats::words_simulated`](crate::RectifyStats::words_simulated));
    /// reaching it stops with [`Verdict::BudgetExhausted`].
    pub max_words: Option<u64>,
    /// Budget on bytes retained by the evaluation backend (an RSS
    /// estimate: matrix cache plus memoized base values); reaching it
    /// stops with [`Verdict::BudgetExhausted`].
    pub max_retained_bytes: Option<usize>,
}

impl RectifyLimits {
    /// True when no limit is armed (the default).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_total_nodes.is_none()
            && self.max_words.is_none()
            && self.max_retained_bytes.is_none()
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    polls: AtomicU64,
    /// Poll count at which the token auto-cancels; 0 disables the trap.
    trip_at: AtomicU64,
}

/// A shareable cooperative cancellation handle.
///
/// Clones share state: cancelling any clone cancels them all. The
/// engine polls the token once per scheduled plan item (via
/// [`CancelToken::poll`], which also counts polls so tests can trip the
/// token at an exact traversal step with [`CancelToken::trip_after`]);
/// pipeline workers use the non-counting [`CancelToken::is_cancelled`]
/// so worker scheduling never perturbs the deterministic poll count.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the engine's
    /// next poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called (or a
    /// [`CancelToken::trip_after`] trap fired). Does not count as a
    /// poll.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Arms a deterministic trap: the token cancels itself on the
    /// `n`-th subsequent call to [`CancelToken::poll`] (1-based).
    /// `n = 0` clears the trap. Intended for tests that need to stop
    /// the traversal at an exact step.
    pub fn trip_after(&self, n: u64) {
        let at = if n == 0 {
            0
        } else {
            self.inner.polls.load(Ordering::Relaxed).saturating_add(n)
        };
        self.inner.trip_at.store(at, Ordering::Relaxed);
    }

    /// Counts one engine poll and returns the cancellation state. The
    /// engine calls this exactly once per scheduled plan item, so the
    /// poll count is a deterministic function of the search — the basis
    /// for [`CancelToken::trip_after`].
    pub fn poll(&self) -> bool {
        let polls = self.inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
        let trip = self.inner.trip_at.load(Ordering::Relaxed);
        if trip != 0 && polls >= trip {
            self.cancel();
        }
        self.is_cancelled()
    }

    /// Number of engine polls so far.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }
}

/// Why a supervised run stopped before exhausting the search. Ordered
/// by reporting precedence (a cancelled run reports `Cancelled` even if
/// it also blew a budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopReason {
    Cancelled,
    Deadline,
    Budget,
}

/// The typed outcome of a [`Rectifier::run`](crate::Rectifier::run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Verdict {
    /// The search ran to completion with no degradation: the reported
    /// solution set is the engine's exact answer at the deepest ladder
    /// level reached.
    #[default]
    Exact,
    /// The search was truncated by an engine cap (rounds, nodes,
    /// solutions, legacy `time_limit`) before finding any solution;
    /// the best open node still failed `best_remaining_failures`
    /// vectors.
    Partial {
        /// `remaining_failures` of the best-ranked partial solution.
        best_remaining_failures: usize,
    },
    /// An engine cap (rounds, nodes, solutions, legacy `time_limit`)
    /// stopped an exhaustive enumeration after it had found solutions:
    /// each reported solution replays, but the set may be incomplete.
    Truncated,
    /// [`RectifyLimits::deadline`] expired.
    DeadlineExceeded,
    /// A node/words/bytes budget in [`RectifyLimits`] was exhausted.
    BudgetExhausted,
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The search completed, but only by degrading: worker panics were
    /// recovered, audit repairs substituted from-scratch replays, or
    /// parallel screening fell back to serial. The solution set is
    /// still exact (recovery is lossless by construction).
    Degraded,
}

impl Verdict {
    /// Stable lowercase tag used in JSON reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Exact => "exact",
            Verdict::Partial { .. } => "partial",
            Verdict::Truncated => "truncated",
            Verdict::DeadlineExceeded => "deadline-exceeded",
            Verdict::BudgetExhausted => "budget-exhausted",
            Verdict::Cancelled => "cancelled",
            Verdict::Degraded => "degraded",
        }
    }

    /// True for every early-stop verdict (deadline, budget, cancel).
    pub fn is_early_stop(&self) -> bool {
        matches!(
            self,
            Verdict::DeadlineExceeded | Verdict::BudgetExhausted | Verdict::Cancelled
        )
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Partial {
                best_remaining_failures,
            } => write!(f, "partial (best remaining {best_remaining_failures})"),
            v => f.write_str(v.tag()),
        }
    }
}

/// A still-open decision-tree node reported when a run stops early: a
/// correction tuple that does not yet rectify the netlist but was
/// viable when the search stopped. Ranked ascending by
/// `remaining_failures` — fewer failing vectors first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSolution {
    /// The tuple's corrections, in application order (empty for the
    /// root: no progress was made before the stop).
    pub corrections: Vec<Correction>,
    /// Vectors still failing with the tuple applied.
    pub remaining_failures: usize,
}

/// What kind of recovery a [`DegradationEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationKind {
    /// A screening worker panicked; the chunk was retried serially.
    WorkerPanic,
    /// Repeated worker panics latched screening to serial for the rest
    /// of the run (Parallel → serial fallback).
    ParallelDisabled,
    /// An audit replay disagreed with the prepared node; the
    /// from-scratch replay result was substituted (Incremental →
    /// FromScratch fallback).
    EvaluatorFallback,
    /// A prepared node failed a structural audit check (matrix width)
    /// and was rebuilt from the from-scratch replay.
    AuditRepair,
    /// A sparse failing-vector mask's block summary diverged from its
    /// words (a chaos summary flip) and was rebuilt from the words.
    SparseRepair,
    /// A hierarchical run's [`AbstractionMap`](incdx_netlist::AbstractionMap)
    /// failed its structural self-check (a chaos map corruption) and was
    /// rebuilt from the base netlist — or the abstract session could not
    /// be constructed and the run fell back to flat diagnosis.
    AbstractionRepair,
    /// A spooled checkpoint failed to parse back after a write (a torn
    /// write or a chaos corruption) and was rewritten from the live
    /// in-memory checkpoint before the damage could strand the job.
    CheckpointRepair,
}

impl DegradationKind {
    /// Stable lowercase tag used in JSON reports.
    pub fn tag(&self) -> &'static str {
        match self {
            DegradationKind::WorkerPanic => "worker-panic",
            DegradationKind::ParallelDisabled => "parallel-disabled",
            DegradationKind::EvaluatorFallback => "evaluator-fallback",
            DegradationKind::AuditRepair => "audit-repair",
            DegradationKind::SparseRepair => "sparse-repair",
            DegradationKind::AbstractionRepair => "abstraction-repair",
            DegradationKind::CheckpointRepair => "checkpoint-repair",
        }
    }
}

/// One recovery the engine performed instead of aborting. Aggregated in
/// [`RectifyStats::degradations`](crate::RectifyStats::degradations)
/// and serialized into the JSON report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// What was degraded.
    pub kind: DegradationKind,
    /// How many underlying incidents this event covers (≥ 1).
    pub count: u64,
    /// Human-readable context.
    pub detail: String,
}

impl DegradationEvent {
    /// An event covering `count` incidents of `kind`.
    pub fn new(kind: DegradationKind, count: u64, detail: impl Into<String>) -> Self {
        DegradationEvent {
            kind,
            count,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_unlimited() {
        assert!(RectifyLimits::default().is_unlimited());
        let armed = RectifyLimits {
            max_total_nodes: Some(5),
            ..RectifyLimits::default()
        };
        assert!(!armed.is_unlimited());
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && t.poll());
    }

    #[test]
    fn trip_after_fires_on_the_exact_poll() {
        let t = CancelToken::new();
        t.trip_after(3);
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(t.poll(), "third poll trips");
        assert_eq!(t.polls(), 3);
    }

    #[test]
    fn trip_after_counts_from_the_current_poll() {
        let t = CancelToken::new();
        assert!(!t.poll());
        t.trip_after(2);
        assert!(!t.poll());
        assert!(t.poll());
    }

    #[test]
    fn verdict_tags_are_stable() {
        assert_eq!(Verdict::Exact.tag(), "exact");
        assert_eq!(
            Verdict::Partial {
                best_remaining_failures: 3
            }
            .tag(),
            "partial"
        );
        assert_eq!(Verdict::DeadlineExceeded.tag(), "deadline-exceeded");
        assert_eq!(Verdict::Truncated.tag(), "truncated");
        assert!(!Verdict::Truncated.is_early_stop());
        assert!(Verdict::Cancelled.is_early_stop());
        assert!(!Verdict::Degraded.is_early_stop());
        assert_eq!(
            format!(
                "{}",
                Verdict::Partial {
                    best_remaining_failures: 2
                }
            ),
            "partial (best remaining 2)"
        );
    }
}
