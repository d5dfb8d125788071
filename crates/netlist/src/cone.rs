//! Memoized fanout cones.
//!
//! The diagnosis engine asks for the same fanout cones over and over: every
//! screening pass walks the cone of every suspect line, and heuristic 1
//! re-propagates through it once per evaluation. [`ConeCache`] memoizes
//! [`Netlist::fanout_cone_sorted`]-style results per line so each cone is
//! computed at most once per netlist, on first read, and then shared —
//! including across worker threads, via [`Arc`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::bitset::DenseBitSet;
use crate::gate::GateId;
use crate::netlist::Netlist;

/// A fanout cone in both of the forms the engine needs: topologically
/// sorted (for resimulation) and as a dense membership set (for O(1)
/// "is this PO inside the cone?" tests).
///
/// The stem is the first element of [`Self::sorted`] and a member of the
/// set, matching [`Netlist::fanout_cone_sorted`] / [`Netlist::fanout_cone`].
#[derive(Debug, Clone)]
pub struct ConeSet {
    sorted: Vec<GateId>,
    members: DenseBitSet,
}

impl ConeSet {
    /// Computes the fanout cone of `stem` on `netlist`.
    pub fn compute(netlist: &Netlist, stem: GateId) -> Self {
        let members = netlist.fanout_cone(stem);
        let mut sorted: Vec<GateId> = members.iter().map(GateId::from_index).collect();
        sorted.sort_by_key(|&g| netlist.topo_position(g));
        ConeSet { sorted, members }
    }

    /// The cone in topological order, stem first — the exact shape
    /// consumed by cone resimulation.
    #[inline]
    pub fn sorted(&self) -> &[GateId] {
        &self.sorted
    }

    /// Is `id` inside the cone (stem included)?
    #[inline]
    pub fn contains(&self, id: GateId) -> bool {
        self.members.contains(id.index())
    }

    /// Number of gates in the cone (stem included).
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Is the cone empty? (Never true for a valid stem.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Per-netlist memo of fanout cones, one write-once slot per gate id.
///
/// A cache is bound to the netlist whose `len()` it was created with and
/// must not be used after structural edits (`replace_gate`, `append_gate`
/// and `tie` change fanouts, invalidating cones) — build a fresh cache
/// for the edited netlist instead. Entries are handed out as
/// [`Arc<ConeSet>`] so screening workers can hold them without cloning
/// the underlying vectors.
///
/// The cache fills on demand through a shared reference. [`Self::new`]
/// allocates nothing; the first [`Self::get`] builds the slot table, so a
/// decision-tree node whose screening reads no cone pays for none. A cone
/// is computed on its first [`Self::get`], by whichever thread asks
/// first, and every later lookup — from any thread — is a counted hit. A
/// cone is a pure function of the netlist, so which thread computes it
/// never shows in the results, and the hit count (lookups minus distinct
/// stems computed) does not depend on thread timing either.
///
/// Cloning is cheap — populated slots are `Arc`s, so a clone shares
/// every computed cone with the original (a warmed cache can be handed
/// to each slice of a resumable session without recomputation).
#[derive(Debug, Default)]
pub struct ConeCache {
    // Built on the first `get`; `capacity` slots once built.
    slots: OnceLock<Box<[OnceLock<Arc<ConeSet>>]>>,
    capacity: usize,
    hits: AtomicU64,
}

impl Clone for ConeCache {
    fn clone(&self) -> Self {
        ConeCache {
            slots: self.slots.clone(),
            capacity: self.capacity,
            hits: AtomicU64::new(self.hits()),
        }
    }
}

impl ConeCache {
    /// An empty cache sized for `netlist`. Allocates nothing until the
    /// first [`Self::get`].
    pub fn new(netlist: &Netlist) -> Self {
        ConeCache {
            slots: OnceLock::new(),
            capacity: netlist.len(),
            hits: AtomicU64::new(0),
        }
    }

    /// The memoized cone of `stem`, computing and storing it on first use.
    /// Threads racing on an empty slot compute it once; the losers wait
    /// for that cone and count a hit.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built for a netlist of a different size
    /// (the telltale of using a stale cache after a structural edit).
    pub fn get(&self, netlist: &Netlist, stem: GateId) -> Arc<ConeSet> {
        assert_eq!(
            self.capacity,
            netlist.len(),
            "cone cache bound to a different netlist"
        );
        let slots = self
            .slots
            .get_or_init(|| vec![OnceLock::new(); self.capacity].into_boxed_slice());
        let mut computed = false;
        let cone = slots[stem.index()].get_or_init(|| {
            computed = true;
            Arc::new(ConeSet::compute(netlist, stem))
        });
        if !computed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(cone)
    }

    /// Cache hits since construction (or the last [`Self::take_hits`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drains the hit counter, returning its value and resetting it to zero
    /// (used to fold per-evaluation hits into run statistics).
    pub fn take_hits(&mut self) -> u64 {
        std::mem::take(self.hits.get_mut())
    }

    /// Number of stems whose cone has been computed and memoized.
    pub fn populated(&self) -> usize {
        self.slots.get().map_or(0, |slots| {
            slots.iter().filter(|s| s.get().is_some()).count()
        })
    }

    /// Capacity in stems (the gate count of the bound netlist).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse_bench;
    use std::sync::Barrier;

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    #[test]
    fn cone_set_matches_netlist_queries() {
        let n = parse_bench(C17).unwrap();
        for id in n.ids() {
            let cone = ConeSet::compute(&n, id);
            assert_eq!(cone.sorted(), n.fanout_cone_sorted(id).as_slice());
            assert_eq!(cone.sorted()[0], id, "stem comes first");
            assert!(!cone.is_empty());
            let members = n.fanout_cone(id);
            for other in n.ids() {
                assert_eq!(cone.contains(other), members.contains(other.index()));
            }
            assert_eq!(cone.len(), members.len());
        }
    }

    #[test]
    fn cache_memoizes_and_counts_hits() {
        let n = parse_bench(C17).unwrap();
        let stem = n.find_by_name("11").unwrap();
        let mut cache = ConeCache::new(&n);
        assert_eq!((cache.populated(), cache.capacity()), (0, n.len()));
        let a = cache.get(&n, stem);
        assert_eq!(cache.hits(), 0);
        let b = cache.get(&n, stem);
        assert_eq!(cache.hits(), 1);
        assert!(Arc::ptr_eq(&a, &b), "second get returns the same cone");
        assert_eq!(cache.take_hits(), 1);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn concurrent_gets_compute_each_stem_once() {
        let n = parse_bench(C17).unwrap();
        let ids: Vec<GateId> = n.ids().collect();
        let cache = ConeCache::new(&n);
        // Four threads share stems 0..4 and each asks for one stem of its
        // own (4..8); stems 8.. are never asked for. The barrier releases
        // them together, so they race on the shared stems' empty slots.
        let (shared, own) = (&ids[..4], &ids[4..8]);
        let start = Barrier::new(own.len());
        let fetched: Vec<Vec<(GateId, Arc<ConeSet>)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = own
                .iter()
                .map(|&mine| {
                    let (cache, n, start) = (&cache, &n, &start);
                    scope.spawn(move || {
                        start.wait();
                        shared
                            .iter()
                            .chain([&mine])
                            .map(|&stem| (stem, cache.get(n, stem)))
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.populated(), 8, "one cone per distinct stem asked for");
        assert_eq!(cache.hits(), 4 * 5 - 8, "every lookup after a stem's first");
        for (stem, cone) in fetched.iter().flatten() {
            assert_eq!(cone.sorted(), ConeSet::compute(&n, *stem).sorted());
            let memo = cache.get(&n, *stem);
            assert!(
                Arc::ptr_eq(cone, &memo),
                "every thread got the one memoized cone"
            );
        }
    }

    #[test]
    fn clone_shares_computed_cones() {
        let n = parse_bench(C17).unwrap();
        let (warm, cold) = (n.find_by_name("11").unwrap(), n.find_by_name("16").unwrap());
        let cache = ConeCache::new(&n);
        let a = cache.get(&n, warm);
        let copy = cache.clone();
        assert_eq!(copy.populated(), 1);
        assert!(
            Arc::ptr_eq(&a, &copy.get(&n, warm)),
            "clone reuses the cone"
        );
        assert_eq!(copy.hits(), 1);
        copy.get(&n, cold);
        assert_eq!(copy.populated(), 2);
        assert_eq!(cache.populated(), 1, "the original's slots are its own");
    }

    #[test]
    #[should_panic(expected = "different netlist")]
    fn cache_rejects_wrong_netlist_size() {
        let n = parse_bench(C17).unwrap();
        let cache = ConeCache::default(); // zero slots
        cache.get(&n, GateId::from_index(0));
    }
}
