//! The interned-artifact layer: expensive per-circuit construction is
//! done once and shared `Arc`-read-only across jobs and time slices.
//!
//! Two maps, both guarded by plain mutexes (contention is negligible
//! next to the construction they avoid):
//!
//! * **workloads**, keyed by [`JobSpec::intern_key`] — the parsed/
//!   generated base [`Netlist`](incdx_netlist::Netlist), the test-vector
//!   matrix, and the simulated reference response. Building one of
//!   these runs the injector's observable-corruption search (up to
//!   hundreds of candidate simulations); every later slice of the same
//!   job, and every other job with the same spec, reuses the `Arc`.
//! * **cone caches**, keyed by the base netlist's
//!   [`netlist_fingerprint`](incdx_core::netlist_fingerprint) — a
//!   warmed [`ConeCache`] clone is handed to each new `Rectifier`
//!   slice, and the slice's (possibly better-populated) cache is merged
//!   back after. Cones are pure functions of the base netlist, so
//!   sharing them across *different* specs of the same circuit is
//!   sound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use incdx_netlist::ConeCache;

use crate::job::{build_workload, BuiltWorkload, JobSpec, Workload};

/// Hit/miss telemetry for the artifact maps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Workload lookups served from the map.
    pub hits: u64,
    /// Workload lookups that had to build from scratch.
    pub misses: u64,
    /// Cone-cache handouts that carried at least one warmed cone.
    pub cone_hits: u64,
}

impl InternStats {
    /// Hit rate over all workload lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a workload lookup.
pub enum Interned {
    /// The workload, shared read-only.
    Ready(Arc<Workload>),
    /// The spec deterministically produces no failing behaviour
    /// (memoized too, so repeated submits stay cheap).
    NoFailingBehaviour,
}

enum Slot {
    Ready(Arc<Workload>),
    NoFailingBehaviour,
}

/// The artifact store. One per daemon.
#[derive(Default)]
pub struct Intern {
    workloads: Mutex<HashMap<String, Slot>>,
    cones: Mutex<HashMap<u64, ConeCache>>,
    hits: AtomicU64,
    misses: AtomicU64,
    cone_hits: AtomicU64,
}

impl Intern {
    /// A fresh, empty store.
    pub fn new() -> Intern {
        Intern::default()
    }

    /// Looks up (or builds and interns) the workload for `spec`.
    ///
    /// # Errors
    ///
    /// Construction failures (unknown circuit, unparsable netlist) are
    /// *not* memoized — a transient failure shouldn't poison the key.
    pub fn workload(&self, spec: &JobSpec) -> Result<Interned, String> {
        let key = spec.intern_key();
        {
            let map = lock(&self.workloads);
            if let Some(slot) = map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(match slot {
                    Slot::Ready(w) => Interned::Ready(Arc::clone(w)),
                    Slot::NoFailingBehaviour => Interned::NoFailingBehaviour,
                });
            }
        }
        // Build outside the lock: giant circuits must not stall every
        // other worker's lookups. Two racing builders do redundant work
        // once; both results are bit-identical, so either may win.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = build_workload(spec)?;
        let mut map = lock(&self.workloads);
        let slot = map.entry(key).or_insert(match built {
            BuiltWorkload::Ready(w) => Slot::Ready(Arc::new(*w)),
            BuiltWorkload::NoFailingBehaviour => Slot::NoFailingBehaviour,
        });
        Ok(match slot {
            Slot::Ready(w) => Interned::Ready(Arc::clone(w)),
            Slot::NoFailingBehaviour => Interned::NoFailingBehaviour,
        })
    }

    /// A cone cache for the circuit with structural fingerprint
    /// `fingerprint`, warmed with every cone any previous slice of that
    /// circuit computed (cloning shares the `Arc`'d cones). Returns
    /// `None` when no cache has been deposited yet — the caller lets
    /// `Rectifier` build its own.
    pub fn cones(&self, fingerprint: u64) -> Option<ConeCache> {
        let map = lock(&self.cones);
        let cache = map.get(&fingerprint)?;
        if cache.populated() > 0 {
            self.cone_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(cache.clone())
    }

    /// Deposits a slice's cone cache back, keeping whichever of the old
    /// and new caches memoizes more cones.
    pub fn deposit_cones(&self, fingerprint: u64, cache: ConeCache) {
        let mut map = lock(&self.cones);
        match map.get_mut(&fingerprint) {
            Some(existing) if existing.populated() >= cache.populated() => {}
            Some(existing) => *existing = cache,
            None => {
                map.insert(fingerprint, cache);
            }
        }
    }

    /// Current hit/miss tallies.
    pub fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cone_hits: self.cone_hits.load(Ordering::Relaxed),
        }
    }
}

/// Locks a mutex, riding through poisoning: a panicking holder can only
/// have been *reading* or replacing whole entries, both of which leave
/// the map coherent — and the daemon's job isolation must not let one
/// poisoned job take the artifact store down with it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Model, Source};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            source: Source::Suite("c432a".to_string()),
            model: Model::Dedc,
            k: 1,
            vectors: 64,
            seed,
            max_nodes: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let intern = Intern::new();
        let a = match intern.workload(&spec(5)).unwrap() {
            Interned::Ready(w) => w,
            Interned::NoFailingBehaviour => panic!("c432a/k1 must inject"),
        };
        let b = match intern.workload(&spec(5)).unwrap() {
            Interned::Ready(w) => w,
            Interned::NoFailingBehaviour => panic!("c432a/k1 must inject"),
        };
        assert!(Arc::ptr_eq(&a, &b), "same key must share the artifact");
        let s = intern.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        // A different seed is a different workload.
        intern.workload(&spec(6)).unwrap();
        assert_eq!(intern.stats().misses, 2);
    }

    #[test]
    fn errors_are_not_memoized() {
        let intern = Intern::new();
        let mut bad = spec(1);
        bad.source = Source::Suite("c9999z".to_string());
        assert!(intern.workload(&bad).is_err());
        assert!(intern.workload(&bad).is_err());
        assert_eq!(intern.stats().hits, 0, "failures must not populate the map");
    }

    #[test]
    fn cone_deposit_keeps_the_fuller_cache() {
        let intern = Intern::new();
        assert!(intern.cones(42).is_none());
        let netlist =
            incdx_netlist::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let warmed = ConeCache::new(&netlist);
        warmed.get(&netlist, incdx_netlist::GateId(0));
        intern.deposit_cones(42, ConeCache::new(&netlist));
        intern.deposit_cones(42, warmed.clone());
        assert_eq!(intern.cones(42).unwrap().populated(), warmed.populated());
        // An emptier deposit does not regress the stored cache.
        intern.deposit_cones(42, ConeCache::new(&netlist));
        assert_eq!(intern.cones(42).unwrap().populated(), warmed.populated());
        assert!(intern.stats().cone_hits >= 1);
    }
}
