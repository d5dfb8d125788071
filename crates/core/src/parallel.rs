//! Deterministic parallel map over independent work items.
//!
//! This is the engine's only threading primitive: results are always
//! collected **in input-index order**, so callers that merge them
//! sequentially observe exactly the serial order regardless of worker
//! count or scheduling — the property the serial-vs-parallel
//! determinism guarantee of [`crate::Rectifier`] rests on.
//!
//! Built on `std::thread::scope` (no external dependencies). Work is
//! distributed by an atomic cursor, so uneven item costs self-balance.
//!
//! # Panic isolation
//!
//! This module is one of the workspace's two **sanctioned
//! `catch_unwind` boundaries** (enforced by the `panic_audit` lint;
//! the other is the serve daemon's per-job slice boundary): a panicking
//! task is caught at the worker, the worker's scratch state is discarded and
//! rebuilt with `init()` (it may have been left inconsistent), and the
//! failed items are retried serially after the parallel section
//! drains. Only a *second* panic of the same item propagates. Every
//! recovery is counted in [`ParallelTelemetry::panics_recovered`] so
//! the engine can record the degradation and, after repeated failures,
//! fall back to serial screening.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Resolves a user-facing job count: `0` means all available cores,
/// and the result never exceeds `items` (no idle workers).
pub fn effective_jobs(jobs: usize, items: usize) -> usize {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        jobs
    };
    jobs.min(items.max(1))
}

/// Runs `f(i)` for `i in 0..n` across up to `jobs` worker threads
/// (`0` = available parallelism) and returns the results in index
/// order.
///
/// # Panics
///
/// Propagates the first worker panic.
///
/// # Example
///
/// ```
/// let squares = incdx_core::run_parallel(100, 4, |i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub fn run_parallel<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_parallel_with(n, jobs, || (), move |(), i| f(i)).results
}

/// Utilization telemetry of one parallel section, reported by
/// [`run_parallel_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelTelemetry {
    /// Workers that actually ran (after clamping to the item count).
    pub workers: usize,
    /// Summed in-task time across all workers.
    pub busy: Duration,
    /// Wall-clock of the whole section.
    pub wall: Duration,
    /// Worker panics caught and recovered by the serial retry (each one
    /// is a first-attempt task failure whose retry succeeded).
    pub panics_recovered: u64,
}

impl ParallelTelemetry {
    /// Mean fraction of the section's wall-clock each worker spent in
    /// tasks (1.0 = perfectly utilized). Zero when nothing ran.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers as f64;
        if denom > 0.0 {
            (self.busy.as_secs_f64() / denom).min(1.0)
        } else {
            0.0
        }
    }

    /// Accumulates another section's telemetry (workers becomes the
    /// max — sections run one at a time).
    pub fn merge(&mut self, other: &ParallelTelemetry) {
        self.workers = self.workers.max(other.workers);
        self.busy += other.busy;
        self.wall += other.wall;
        self.panics_recovered += other.panics_recovered;
    }
}

/// Results plus telemetry of a [`run_parallel_with`] section.
#[derive(Debug)]
pub struct ParallelOutcome<T> {
    /// Per-item results, in input-index order.
    pub results: Vec<T>,
    /// Worker-utilization telemetry.
    pub telemetry: ParallelTelemetry,
}

/// Like [`run_parallel`], but each worker thread first builds private
/// scratch state with `init` and every task gets `&mut` access to its
/// worker's state — the shape needed when tasks share expensive
/// read-only inputs but each needs its own mutable workspace (e.g. a
/// simulator plus a value-matrix copy).
///
/// With `jobs <= 1` everything runs inline on the calling thread with a
/// single `init()` — no thread is spawned, so the serial path stays
/// allocation- and synchronization-free. An empty section (`n == 0`)
/// never calls `init()`.
///
/// Determinism: `f` runs against worker-private state and the results
/// are returned in index order, so the output is independent of worker
/// count provided `f` is a pure function of `(state-after-init, i)`.
///
/// # Panics
///
/// A task panic is caught at the worker boundary (see the module
/// docs): the worker's state is rebuilt with `init()` and the item is
/// retried serially with fresh state. Only a retry panic propagates,
/// so a deterministic (non-transient) task panic still surfaces.
pub fn run_parallel_with<S, T, I, F>(n: usize, jobs: usize, init: I, f: F) -> ParallelOutcome<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs, n);
    let started = Instant::now();
    if n == 0 {
        // Nothing to run: skip building worker state (for the screening
        // stages that is a clone of the node's whole value matrix).
        return ParallelOutcome {
            results: Vec::new(),
            telemetry: ParallelTelemetry {
                workers: 1,
                busy: Duration::ZERO,
                wall: started.elapsed(),
                panics_recovered: 0,
            },
        };
    }
    if jobs <= 1 {
        let mut state = init();
        let mut recovered = 0u64;
        let t0 = Instant::now();
        let mut results: Vec<T> = Vec::with_capacity(n);
        for i in 0..n {
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
                Ok(v) => results.push(v),
                Err(_) => {
                    // The panic may have left the scratch state
                    // inconsistent: rebuild before the retry.
                    recovered += 1;
                    state = init();
                    results.push(f(&mut state, i));
                }
            }
        }
        let busy = t0.elapsed();
        return ParallelOutcome {
            results,
            telemetry: ParallelTelemetry {
                workers: 1,
                busy,
                wall: started.elapsed(),
                panics_recovered: recovered,
            },
        };
    }
    let next = AtomicUsize::new(0);
    let busy_nanos = AtomicU64::new(0);
    // Each worker collects (index, value) pairs privately; the scope join
    // then scatters them back into index order. No locks, and a worker
    // panic surfaces via resume_unwind instead of poisoning shared state.
    type WorkerYield<T> = (Vec<(usize, T)>, Vec<usize>);
    let per_worker: Vec<WorkerYield<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    let mut failed: Vec<usize> = Vec::new();
                    let t0 = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
                            Ok(v) => produced.push((i, v)),
                            Err(_) => {
                                failed.push(i);
                                state = init();
                            }
                        }
                    }
                    busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    (produced, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(produced) => produced,
                // catch_unwind covers every task, so a join error means a
                // panic escaped the boundary (e.g. in a Drop); propagate.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut failed: Vec<usize> = Vec::new();
    for (produced, worker_failed) in per_worker {
        for (i, value) in produced {
            slots[i] = Some(value);
        }
        failed.extend(worker_failed);
    }
    // Serial retry of the failed chunk, in index order on fresh state.
    // Results stay deterministic because `f` is a pure function of
    // (state-after-init, i); a second panic of the same item propagates.
    let recovered = failed.len() as u64;
    if !failed.is_empty() {
        failed.sort_unstable();
        let mut state = init();
        for &i in &failed {
            slots[i] = Some(f(&mut state, i));
        }
    }
    let results = slots.into_iter().flatten().collect();
    ParallelOutcome {
        results,
        telemetry: ParallelTelemetry {
            workers: jobs,
            busy: Duration::from_nanos(busy_nanos.load(Ordering::Relaxed)),
            wall: started.elapsed(),
            panics_recovered: recovered,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_all_indices_in_order() {
        let out = run_parallel(100, 4, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert_eq!(run_parallel(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = run_parallel(0, 2, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker counts its own tasks; the sum covers every index
        // exactly once.
        let outcome = run_parallel_with(
            64,
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        assert_eq!(outcome.results.len(), 64);
        let mut indices: Vec<usize> = outcome.results.iter().map(|&(i, _)| i).collect();
        indices.dedup();
        assert_eq!(indices, (0..64).collect::<Vec<_>>());
        assert!(outcome.telemetry.workers <= 4);
        assert!(outcome.telemetry.utilization() <= 1.0);
    }

    #[test]
    fn serial_path_spawns_nothing_and_matches() {
        let serial = run_parallel_with(10, 1, || (), |(), i| i * 3);
        let parallel = run_parallel_with(10, 4, || (), |(), i| i * 3);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.telemetry.workers, 1);
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(2, 100), 2);
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(4, 0), 1);
    }

    #[test]
    fn more_jobs_than_items_clamps_and_completes() {
        let outcome = run_parallel_with(3, 16, || 0usize, |_, i| i + 1);
        assert_eq!(outcome.results, vec![1, 2, 3]);
        assert!(outcome.telemetry.workers <= 3, "no idle workers spawned");
    }

    #[test]
    fn zero_items_with_many_jobs_yields_empty_outcome() {
        let outcome = run_parallel_with(0, 8, || 0usize, |_, i| i);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.telemetry.workers, 1, "clamped to the serial path");
        assert_eq!(outcome.telemetry.panics_recovered, 0);
        // Satellite: merging an empty-outcome telemetry is a no-op on
        // counters but still folds in the (near-zero) wall time.
        let mut acc = ParallelTelemetry::default();
        acc.merge(&outcome.telemetry);
        assert_eq!(acc.workers, 1);
        assert_eq!(acc.panics_recovered, 0);
        assert!(acc.utilization() <= 1.0);
    }

    #[test]
    fn empty_sections_build_no_worker_state() {
        let inits = AtomicUsize::new(0);
        let init = || {
            inits.fetch_add(1, Ordering::Relaxed);
        };
        for jobs in [1, 4] {
            let outcome = run_parallel_with(0, jobs, init, |(), i| i);
            assert!(outcome.results.is_empty());
            assert_eq!(outcome.telemetry.workers, 1, "jobs={jobs}");
            assert_eq!(outcome.telemetry.panics_recovered, 0, "jobs={jobs}");
        }
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no init for n == 0");
        let outcome = run_parallel_with(3, 1, init, |(), i| i);
        assert_eq!(outcome.results, vec![0, 1, 2]);
        assert_eq!(
            inits.load(Ordering::Relaxed),
            1,
            "one init per serial section"
        );
    }

    #[test]
    fn merge_accumulates_panic_recoveries() {
        let mut a = ParallelTelemetry {
            workers: 2,
            busy: Duration::from_millis(5),
            wall: Duration::from_millis(3),
            panics_recovered: 1,
        };
        let b = ParallelTelemetry {
            workers: 4,
            busy: Duration::from_millis(7),
            wall: Duration::from_millis(2),
            panics_recovered: 2,
        };
        a.merge(&b);
        assert_eq!(a.workers, 4);
        assert_eq!(a.panics_recovered, 3);
        assert_eq!(a.busy, Duration::from_millis(12));
    }

    /// Installs a no-op panic hook for the duration of a test so the
    /// intentional panics don't spam the test log, restoring the
    /// previous hook afterwards.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn transient_panic_is_recovered_with_identical_results() {
        use std::sync::atomic::AtomicBool;
        for jobs in [1, 4] {
            let tripped = AtomicBool::new(false);
            let outcome = with_quiet_panics(|| {
                run_parallel_with(
                    32,
                    jobs,
                    || 0u64,
                    |acc, i| {
                        if i == 17 && !tripped.swap(true, Ordering::SeqCst) {
                            panic!("transient fault"); // panic-audit: allow
                        }
                        *acc += 1;
                        i * 10
                    },
                )
            });
            let expected: Vec<usize> = (0..32).map(|i| i * 10).collect();
            assert_eq!(outcome.results, expected, "jobs={jobs}");
            assert_eq!(outcome.telemetry.panics_recovered, 1, "jobs={jobs}");
        }
    }

    #[test]
    fn deterministic_panic_still_propagates() {
        for jobs in [1, 3] {
            let caught = with_quiet_panics(|| {
                std::panic::catch_unwind(|| {
                    run_parallel_with(
                        8,
                        jobs,
                        || (),
                        |(), i| {
                            if i == 5 {
                                panic!("hard fault"); // panic-audit: allow
                            }
                            i
                        },
                    )
                })
            });
            assert!(caught.is_err(), "retry panic must surface (jobs={jobs})");
        }
    }
}
