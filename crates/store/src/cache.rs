//! Byte-budgeted LRU cache of loaded urns: hot graphs answer queries from
//! memory, cold urns stay on disk and are reloaded on demand. Entries are
//! `Arc`s, so eviction never invalidates an urn a query is still using —
//! it only drops the cache's reference.

use motivo_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::Arc;

use crate::manifest::UrnId;
use crate::owned::StoreUrn;

/// Aggregate cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that had to load from disk.
    pub misses: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Resident payload bytes right now.
    pub resident_bytes: usize,
    /// Resident entries right now.
    pub resident_urns: usize,
}

struct Entry {
    urn: Arc<StoreUrn>,
    last_used: u64,
}

/// The LRU itself. Not thread-safe; the store wraps it in its state lock.
pub struct UrnCache {
    entries: HashMap<UrnId, Entry>,
    budget_bytes: usize,
    /// Sum of the resident entries' [`StoreUrn::bytes`].
    resident_bytes: usize,
    tick: u64,
    /// `store.lru.*` in the store's registry: the only copy of each count.
    hits: Counter,
    misses: Counter,
    admissions: Counter,
    evictions: Counter,
}

impl UrnCache {
    /// A cache holding at most `budget_bytes` of urn payload (0 = cache
    /// nothing; every lookup reloads). Hits, misses, admissions and
    /// evictions are counted in `registry` under `store.lru.*`.
    pub fn new(budget_bytes: usize, registry: &Registry) -> UrnCache {
        UrnCache {
            entries: HashMap::new(),
            budget_bytes,
            resident_bytes: 0,
            tick: 0,
            hits: registry.counter("store.lru.hits"),
            misses: registry.counter("store.lru.misses"),
            admissions: registry.counter("store.lru.admissions"),
            evictions: registry.counter("store.lru.evictions"),
        }
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Looks up `id`, refreshing its recency on hit and counting the
    /// outcome either way.
    pub fn get(&mut self, id: UrnId) -> Option<Arc<StoreUrn>> {
        self.tick += 1;
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits.inc();
                Some(e.urn.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Whether `id` is resident (no recency update, no counter update).
    pub fn contains(&self, id: UrnId) -> bool {
        self.entries.contains_key(&id)
    }

    /// The resident entry without touching recency or counters (used for
    /// the publish-race recheck, which is not a user-visible lookup).
    pub fn peek(&self, id: UrnId) -> Option<Arc<StoreUrn>> {
        self.entries.get(&id).map(|e| e.urn.clone())
    }

    /// Inserts a freshly loaded urn, evicting least-recently-used entries
    /// first if the budget would overflow. An urn larger than the whole
    /// budget is not cached at all.
    pub fn insert(&mut self, id: UrnId, urn: Arc<StoreUrn>) {
        if urn.bytes() > self.budget_bytes {
            return;
        }
        self.tick += 1;
        self.resident_bytes += urn.bytes();
        let entry = Entry {
            urn,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(id, entry) {
            self.resident_bytes -= old.urn.bytes();
        }
        self.admissions.inc();
        while self.resident_bytes > self.budget_bytes {
            let coldest = self
                .entries
                .iter()
                .filter(|(&eid, _)| eid != id)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&eid, _)| eid);
            match coldest {
                Some(eid) => {
                    self.remove(eid);
                    self.evictions.inc();
                }
                None => break, // only the new entry left; keep it
            }
        }
    }

    /// Drops `id` from the cache (explicit `evict`/`remove`); returns
    /// whether it was resident.
    pub fn remove(&mut self, id: UrnId) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.resident_bytes -= e.urn.bytes();
                true
            }
            None => false,
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            resident_bytes: self.resident_bytes,
            resident_urns: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motivo_core::{build_urn, BuildConfig};
    use motivo_graph::generators;

    fn make_urn(seed: u64) -> Arc<StoreUrn> {
        let graph = Arc::new(generators::barabasi_albert(60, 2, seed));
        Arc::new(
            StoreUrn::assemble(graph, |g| {
                build_urn(
                    g,
                    &BuildConfig {
                        threads: 1,
                        ..BuildConfig::new(3)
                    }
                    .seed(seed),
                )
            })
            .unwrap(),
        )
    }

    #[test]
    fn hit_miss_accounting() {
        let mut cache = UrnCache::new(usize::MAX, &Registry::new());
        let urn = make_urn(1);
        assert!(cache.get(UrnId(0)).is_none());
        cache.insert(UrnId(0), urn);
        assert!(cache.get(UrnId(0)).is_some());
        assert!(cache.get(UrnId(1)).is_none());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 2));
        assert_eq!(st.resident_urns, 1);
        assert!(st.resident_bytes > 0);
    }

    #[test]
    fn lru_evicts_coldest_under_byte_budget() {
        let urns: Vec<Arc<StoreUrn>> = (1..=3).map(make_urn).collect();
        let one = urns[0].bytes();
        // Budget fits two of the three (they're near-identical in size).
        let mut cache = UrnCache::new(one * 2 + one / 2, &Registry::new());
        cache.insert(UrnId(1), urns[0].clone());
        cache.insert(UrnId(2), urns[1].clone());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(UrnId(1)).is_some());
        cache.insert(UrnId(3), urns[2].clone());
        assert!(cache.contains(UrnId(1)), "recently used survives");
        assert!(!cache.contains(UrnId(2)), "coldest entry evicted");
        assert!(cache.contains(UrnId(3)), "new entry resident");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_urn_is_not_cached() {
        let urn = make_urn(4);
        let mut cache = UrnCache::new(urn.bytes() - 1, &Registry::new());
        cache.insert(UrnId(7), urn);
        assert!(!cache.contains(UrnId(7)));
        assert_eq!(cache.stats().resident_urns, 0);
    }

    #[test]
    fn remove_and_clear() {
        let mut cache = UrnCache::new(usize::MAX, &Registry::new());
        cache.insert(UrnId(0), make_urn(5));
        cache.insert(UrnId(1), make_urn(6));
        assert!(cache.remove(UrnId(0)));
        assert!(!cache.remove(UrnId(0)));
        cache.clear();
        assert_eq!(cache.stats().resident_urns, 0);
    }
}
